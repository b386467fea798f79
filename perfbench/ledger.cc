// perf_ledger: replays detective_clean's (or detective_serve's) stage order
// in one process and times the public call into each layer, so a run's wall
// time breaks down into a ledger of layers. Counters and timers of the
// program's own metrics registry are drained at the same boundaries, and the
// span timeline (the spans below plus the program's internal ones) can be
// written as Chrome trace-event JSON.
//
//   perf_ledger --mode=clean --kb=KB.nt --rules=R.dr --input=IN.csv
//               --output=OUT.csv [--explain-json=P.jsonl] [--threads=2]
//               [--trace-json=TRACE.json]
//   perf_ledger --mode=delta --kb-snapshot=KB.dkb ... --delta=D.csv
//               --prev-provenance=PREV.jsonl --explain-json=P.jsonl
//   perf_ledger --mode=serve --kb-snapshot=KB.dkb --rules=R.dr
//               --input=ROWS.csv --expect=EXPECTED.csv
//               --streams=RATE:FIRST:COUNT[,RATE:FIRST:COUNT...]
//
// Serve mode calls CleaningService::CleanTuple directly (no HTTP) from one
// thread, paced open-loop at each stream's rate over COUNT rows of ROWS.csv
// starting at row FIRST (wrapping around at the end), and times every call
// from the moment it was due. Each served tuple is compared with the same row
// of EXPECTED.csv.
//
// Prints one JSON object: {"spans": [{"name", "ms", "counters", "timers_ms"}],
// "streams": [{"rate", "latencies_us"}], "failed": N, "attempted": N,
// "total_ms": wall of the whole replay}.

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/rule_lint.h"
#include "bench_util.h"
#include "analysis/stratification.h"
#include "common/metrics.h"
#include "common/string_util.h"
#include "common/trace.h"
#include "core/incremental.h"
#include "core/parallel_repair.h"
#include "core/provenance.h"
#include "core/rule_io.h"
#include "kb/ntriples_parser.h"
#include "kb/snapshot.h"
#include "relation/relation.h"
#include "serve/service.h"

namespace detective {
namespace {

using Clock = std::chrono::steady_clock;

struct Stream {
  double rate = 0;
  size_t first = 0;
  size_t count = 0;
};

struct Args {
  std::string mode;
  std::string kb_path;
  std::string kb_snapshot_path;
  std::string rules_path;
  std::string input_path;
  std::string output_path;
  std::string delta_path;
  std::string prev_provenance_path;
  std::string explain_json_path;
  std::string expect_path;
  size_t threads = 2;
  std::vector<Stream> streams;
};

/// Reads the flags; false when a required one is missing or malformed.
bool ParseArgs(int argc, char** argv, Args* args) {
  using bench::FlagString;
  args->mode = FlagString(argc, argv, "mode");
  args->kb_path = FlagString(argc, argv, "kb");
  args->kb_snapshot_path = FlagString(argc, argv, "kb-snapshot");
  args->rules_path = FlagString(argc, argv, "rules");
  args->input_path = FlagString(argc, argv, "input");
  args->output_path = FlagString(argc, argv, "output");
  args->delta_path = FlagString(argc, argv, "delta");
  args->prev_provenance_path = FlagString(argc, argv, "prev-provenance");
  args->explain_json_path = FlagString(argc, argv, "explain-json");
  args->expect_path = FlagString(argc, argv, "expect");
  args->threads = bench::FlagUint(argc, argv, "threads", 2);
  for (const std::string& spec : SplitAndTrim(FlagString(argc, argv, "streams"), ',')) {
    if (spec.empty()) continue;
    Stream stream;
    if (std::sscanf(spec.c_str(), "%lf:%zu:%zu", &stream.rate, &stream.first,
                    &stream.count) != 3 ||
        stream.rate <= 0) {
      return false;
    }
    args->streams.push_back(stream);
  }
  if (args->rules_path.empty() || args->input_path.empty()) return false;
  if (args->kb_path.empty() == args->kb_snapshot_path.empty()) return false;
  if (args->mode == "serve") {
    return !args->expect_path.empty() && !args->streams.empty();
  }
  if (args->output_path.empty()) return false;
  if (args->mode == "delta") {
    return !args->delta_path.empty() && !args->prev_provenance_path.empty();
  }
  return args->mode == "clean";
}

double MsSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start).count();
}

/// One ledger row: a layer's wall time and the counters/timers it recorded.
struct LedgerSpan {
  std::string name;
  double ms = 0;
  metrics::MetricsSnapshot drained;
};

/// Times `body` as layer `name`: a trace span from the benchmark's own code,
/// a steady-clock duration, and the registry delta drained at both ends (the
/// drain bench::DrainCounters does, keeping the timers as well).
class Ledger {
 public:
  template <typename Body>
  auto Time(const char* name, Body&& body) {
    metrics::Registry::Global().SnapshotAndReset();  // open the epoch
    LedgerSpan span;
    span.name = name;
    const Clock::time_point start = Clock::now();
    struct Close {
      Ledger* ledger;
      LedgerSpan* span;
      Clock::time_point start;
      ~Close() {
        span->ms = MsSince(start);
        span->drained = metrics::Registry::Global().SnapshotAndReset();
        ledger->spans_.push_back(std::move(*span));
      }
    };
    trace::Span trace_span(name);
    Close close{this, &span, start};
    return body();
  }

  const std::vector<LedgerSpan>& spans() const { return spans_; }

 private:
  std::vector<LedgerSpan> spans_;
};

[[noreturn]] void Fail(const std::string& what, const Status& status) {
  std::fprintf(stderr, "perf_ledger: %s: %s\n", what.c_str(),
               status.ToString().c_str());
  std::exit(1);
}

template <typename T>
T Unwrap(const std::string& what, Result<T> result) {
  if (!result.ok()) Fail(what, result.status());
  return std::move(*result);
}

void Check(const std::string& what, const Status& status) {
  if (!status.ok()) Fail(what, status);
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) Fail("read", Status::IOError("cannot open '", path, "'"));
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

/// The KB, rules, lint, and strata stages shared by both batch modes, in
/// detective_clean's order (the relation is parsed between lint and strata).
struct Loaded {
  std::optional<KnowledgeBase> kb;
  std::vector<DetectiveRule> rules;
  std::optional<analysis::Stratification> strata;
};

void LoadKbAndRules(const Args& args, Ledger* ledger, Loaded* loaded) {
  loaded->kb.emplace(ledger->Time("kb.load", [&] {
    return args.kb_snapshot_path.empty()
               ? Unwrap("load KB", LoadKbFile(args.kb_path))
               : Unwrap("load KB", LoadKbSnapshot(args.kb_snapshot_path));
  }));
  loaded->rules = ledger->Time("analysis.rules_parse", [&] {
    return Unwrap("parse rules", ParseRulesFile(args.rules_path));
  });
  ledger->Time("analysis.lint", [&] {
    analysis::DiagnosticReport lint = analysis::LintRules(loaded->rules, *loaded->kb);
    lint.SortBySeverity();
    // detective_clean writes the findings next to the output.
    if (!lint.empty()) {
      std::ofstream out(args.output_path + ".lint.json", std::ios::trunc);
      out << lint.ToJson();
    }
    return 0;
  });
}

void ComputeStrata(Ledger* ledger, Loaded* loaded) {
  ledger->Time("analysis.strata", [&] {
    auto computed = analysis::ComputeStratification(loaded->rules, *loaded->kb);
    if (computed.ok()) loaded->strata = std::move(*computed);
    return 0;
  });
}

RepairOptions RepairOptionsFor(const Loaded& loaded) {
  RepairOptions options;
  if (loaded.strata.has_value()) options.schedule = &loaded.strata->schedule;
  return options;
}

void RunBatch(const Args& args, Ledger* ledger) {
  Loaded loaded;
  LoadKbAndRules(args, ledger, &loaded);
  std::optional<Relation> relation;
  relation.emplace(ledger->Time("relation.csv_parse", [&] {
    return Unwrap("parse CSV", Relation::FromCsvFile(args.input_path));
  }));

  const bool incremental = args.mode == "delta";
  std::optional<ProvenanceLog> prev_provenance;
  std::optional<RelationDelta> delta;
  std::optional<IncrementalPlan> plan;
  if (incremental) {
    delta.emplace(ledger->Time("core.delta_load", [&] {
      return Unwrap("load delta", LoadDeltaFile(args.delta_path, relation->schema()));
    }));
    prev_provenance.emplace(ledger->Time("core.provenance_read", [&] {
      const std::string text = ReadFile(args.prev_provenance_path);
      return Unwrap("parse provenance", ProvenanceLog::FromJsonLines(text));
    }));
    plan.emplace(ledger->Time("core.delta_plan", [&] {
      return Unwrap("plan delta", PlanIncremental(*delta, &*relation,
                                                  *prev_provenance, nullptr));
    }));
  }
  ComputeStrata(ledger, &loaded);

  std::optional<Relation> repaired;
  repaired.emplace(ledger->Time("relation.copy", [&] { return *relation; }));
  std::optional<ProvenanceLog> provenance;
  if (!args.explain_json_path.empty()) provenance.emplace();
  ProvenanceLog* sink = provenance.has_value() ? &*provenance : nullptr;
  if (incremental) {
    ledger->Time("core.incremental", [&] {
      IncrementalOptions options;
      options.repair = RepairOptionsFor(loaded);
      options.num_threads = args.threads;
      options.provenance = sink;
      return Unwrap("incremental repair",
                    IncrementalRepair(*loaded.kb, loaded.rules, &*repaired, *plan,
                                      std::move(*prev_provenance), nullptr,
                                      options));
    });
  } else {
    ledger->Time("core.chase", [&] {
      ParallelRepairOptions options;
      options.repair = RepairOptionsFor(loaded);
      options.num_threads = args.threads;
      options.provenance = sink;
      return Unwrap("repair",
                    ParallelRepair(*loaded.kb, loaded.rules, &*repaired, options));
    });
  }
  ledger->Time("relation.csv_write", [&] {
    Check("write CSV", repaired->ToCsvFile(args.output_path));
    return 0;
  });
  if (sink != nullptr) {
    ledger->Time("core.provenance_write", [&] {
      Check("write provenance", sink->WriteJsonLines(args.explain_json_path));
      return 0;
    });
  }
  // The CLI frees all of this at exit; the replay frees it inside a span so
  // the ledger accounts for it.
  ledger->Time("process.teardown", [&] {
    provenance.reset();
    prev_provenance.reset();
    plan.reset();
    delta.reset();
    repaired.reset();
    relation.reset();
    loaded.strata.reset();
    loaded.rules.clear();
    loaded.kb.reset();
    return 0;
  });
}

struct StreamResult {
  double rate = 0;
  std::vector<double> latencies_us;
};

void RunServe(const Args& args, Ledger* ledger, size_t* failed,
              size_t* attempted, std::vector<StreamResult>* results) {
  Relation rows = Unwrap("parse rows", Relation::FromCsvFile(args.input_path));
  Relation expected = Unwrap("parse expected", Relation::FromCsvFile(args.expect_path));
  if (expected.num_tuples() != rows.num_tuples()) {
    Fail("expected rows", Status::InvalidArgument("row count differs from input"));
  }
  serve::CleaningService service;
  ledger->Time("serve.init", [&] {
    serve::ServiceOptions options;
    options.kb_path = args.kb_path;
    options.kb_snapshot_path = args.kb_snapshot_path;
    options.rules_path = args.rules_path;
    options.schema_columns = rows.schema().columns();
    options.workers = args.threads;
    Check("init service", service.Init(std::move(options)));
    service.MarkReady();
    return 0;
  });
  const size_t columns = rows.schema().num_columns();
  for (const Stream& stream : args.streams) {
    StreamResult result;
    result.rate = stream.rate;
    result.latencies_us.reserve(stream.count);
    ledger->Time("core.chase", [&] {
      const auto interval = std::chrono::duration_cast<Clock::duration>(
          std::chrono::duration<double>(1.0 / stream.rate));
      const Clock::time_point start = Clock::now();
      for (size_t i = 0; i < stream.count; ++i) {
        const Clock::time_point due = start + interval * static_cast<int64_t>(i);
        // Spin like perf_loadgen does: a sleeping caller would add its own
        // wake-up delay to every measured call.
        while (Clock::now() < due) {
        }
        const size_t row = (stream.first + i) % rows.num_tuples();
        Tuple input = rows.tuple(row);
        std::vector<std::string> values;
        values.reserve(columns);
        for (ColumnIndex c = 0; c < columns; ++c) values.push_back(input.value(c));
        serve::TupleOutcome outcome;
        uint64_t retry_after_s = 0;
        const auto admit = service.CleanTuple(std::move(values), 0, {}, &outcome,
                                              &retry_after_s);
        result.latencies_us.push_back(
            std::chrono::duration<double, std::micro>(Clock::now() - due).count());
        ++*attempted;
        bool ok = admit == serve::CleaningService::Admit::kOk && !outcome.degraded;
        for (ColumnIndex c = 0; ok && c < columns; ++c) {
          ok = outcome.tuple.value(c) == expected.value(row, c);
        }
        if (!ok) ++*failed;
      }
      return 0;
    });
    results->push_back(std::move(result));
  }
  ledger->Time("process.teardown", [&] {
    service.Shutdown();
    return 0;
  });
}

std::string Number(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.6f", value);
  return buffer;
}

std::string RenderJson(const Ledger& ledger, const std::vector<StreamResult>& streams,
                       size_t failed, size_t attempted, double total_ms) {
  std::string json = "{\"spans\":[";
  bool first_span = true;
  for (const LedgerSpan& span : ledger.spans()) {
    if (!first_span) json.push_back(',');
    first_span = false;
    json += "{\"name\":";
    AppendJsonString(span.name, &json);
    json += ",\"ms\":" + Number(span.ms) + ",\"counters\":{";
    bool first = true;
    for (const auto& [name, value] : span.drained.counters) {
      if (!first) json.push_back(',');
      first = false;
      AppendJsonString(name, &json);
      json += ":" + std::to_string(value);
    }
    json += "},\"timers_ms\":{";
    first = true;
    for (const auto& [name, timer] : span.drained.timers) {
      if (!first) json.push_back(',');
      first = false;
      AppendJsonString(name, &json);
      json += ":" + Number(static_cast<double>(timer.total_ns) / 1e6);
    }
    json += "}}";
  }
  json += "],\"streams\":[";
  bool first_stream = true;
  for (const StreamResult& stream : streams) {
    if (!first_stream) json.push_back(',');
    first_stream = false;
    json += "{\"rate\":" + Number(stream.rate) + ",\"latencies_us\":[";
    for (size_t i = 0; i < stream.latencies_us.size(); ++i) {
      if (i != 0) json.push_back(',');
      json += Number(stream.latencies_us[i]);
    }
    json += "]}";
  }
  json += "],\"failed\":" + std::to_string(failed) +
          ",\"attempted\":" + std::to_string(attempted) +
          ",\"total_ms\":" + Number(total_ms) + "}";
  return json;
}

int Run(const Args& args, bench::TraceSession* trace_session) {
  Ledger ledger;
  size_t failed = 0;
  size_t attempted = 1;
  std::vector<StreamResult> streams;
  const Clock::time_point start = Clock::now();
  if (args.mode == "serve") {
    attempted = 0;
    RunServe(args, &ledger, &failed, &attempted, &streams);
  } else {
    RunBatch(args, &ledger);
  }
  const double total_ms = MsSince(start);
  trace_session->Finish();
  std::printf("%s\n", RenderJson(ledger, streams, failed, attempted, total_ms).c_str());
  return 0;
}

}  // namespace
}  // namespace detective

int main(int argc, char** argv) {
  detective::Args args;
  if (!detective::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perf_ledger --mode=clean|delta|serve (see the header "
                 "comment of perfbench/ledger.cc)\n");
    return 64;
  }
  detective::bench::TraceSession trace_session(argc, argv);
  return detective::Run(args, &trace_session);
}
