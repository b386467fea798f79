#!/usr/bin/env python3
"""End-to-end benchmark of the Detective cleaner on generated UIS data.

    python3 perfbench/run.py --workload clean_100k --seed 1 --seconds 20 --trace 0

Builds the shipped tools and the benchmark's own programs from source (into
$CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench), generates the
seeded inputs (cached per seed under .bench_data/), runs one workload against
the real binaries, checks every output, and prints one line per metric
followed by one JSON object as the last line of stdout.

Workloads (all on `detective_datagen --dataset=uis --tuples=100000`, Yago
profile, 10% errors; every system process runs with 2 threads):
  clean_100k  detective_clean on the text N-Triples KB, no provenance.
  delta_100k  detective_clean --kb-snapshot --delta --prev-provenance
              --explain-json: 1,000 seeded rows each get a fresh typo.
  serve_100k  detective_serve --kb-snapshot fed POST /v1/clean-tuple by an
              open-loop generator (perf_loadgen, 4 connections).

--trace 0 runs the timed, untraced measurement and prints the end-to-end
metrics. --trace 1 prints the per-layer ledger instead: it replays the CLI's
stage order in-process (perf_ledger), times the public call into each layer,
drains the program's counters at the same boundaries, and writes a Chrome
trace to .bench_data/run/trace.json.

Exit status is 0 only when every run passed its output checks.
"""

import argparse
import csv
import hashlib
import http.client
import json
import math
import os
import random
import shutil
import signal
import subprocess
import sys
import threading
import time
from statistics import median

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
DATA_ROOT = os.path.join(ROOT, ".bench_data")
WORK = os.path.join(DATA_ROOT, "run")

WORKLOADS = ("clean_100k", "delta_100k", "serve_100k")
THREADS = 2
DELTA_ROWS = 1000
SETUP_REPEATS = 7
LEDGER_PAIRS = 5  # untraced CLI run + traced replay pairs per ledger
FIXED_RATES = (2000, 10000)
P99_LIMIT_US = 1000.0
CHILD_TIMEOUT_S = 120
KEEP_SEEDS = 2  # generated datasets kept in .bench_data (each ~0.6 GB)


class BenchError(Exception):
    """A failed build, run, or output check."""


def log(message):
    print(message, file=sys.stderr, flush=True)


# ---------------------------------------------------------------- building


def build():
    """Builds the tools and benchmark programs; returns their paths."""
    for needed in ("src/CMakeLists.txt", "tools/CMakeLists.txt"):
        if not os.path.isfile(os.path.join(ROOT, needed)):
            raise BenchError("source tree not found: missing " + needed)
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, target, "perfbench")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        run_quiet(["cmake", "-S", HERE, "-B", build_dir,
                   "-DCMAKE_BUILD_TYPE=RelWithDebInfo"] + generator)
    jobs = str(min(4, os.cpu_count() or 1))
    run_quiet(["cmake", "--build", build_dir, "-j", jobs])
    tools = os.path.join(build_dir, "detective_tools")
    bins = {name: os.path.join(tools, name) for name in
            ("detective_clean", "detective_serve", "detective_datagen",
             "detective_kb_build")}
    bins["perf_ledger"] = os.path.join(build_dir, "perf_ledger")
    bins["perf_loadgen"] = os.path.join(build_dir, "perf_loadgen")
    for path in bins.values():
        if not os.access(path, os.X_OK):
            raise BenchError("build did not produce " + path)
    return bins


def run_quiet(cmd):
    """Runs a set-up command, its output to stderr; raises on failure."""
    done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                          timeout=900)
    if done.returncode != 0:
        raise BenchError("command failed (%d): %s" % (done.returncode,
                                                      " ".join(cmd)))


# ------------------------------------------------------- child processes


def run_child(cmd, log_path):
    """Runs one system process to completion.

    Returns (wall seconds, exit code, peak RSS in MB) where the RSS is the
    child's own high-water mark from wait4().
    """
    with open(log_path, "ab") as log_file:
        start = time.perf_counter()
        child = subprocess.Popen(cmd, stdout=log_file, stderr=log_file)
        timer = threading.Timer(CHILD_TIMEOUT_S, child.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(child.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    child.returncode = os.waitstatus_to_exitcode(status)
    return wall, child.returncode, usage.ru_maxrss / 1024.0


def sha256_of(path):
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def count_lines(path):
    count = 0
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            count += block.count(b"\n")
    return count


def remove(*paths):
    for path in paths:
        if os.path.exists(path):
            os.remove(path)


# ------------------------------------------------------------------ inputs


def read_csv(path):
    with open(path, newline="") as handle:
        rows = list(csv.reader(handle))
    return rows[0], rows[1:]


def write_csv(path, header, rows):
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


class Dataset:
    """The seeded inputs of one (tuples, seed) pair, built on first use."""

    def __init__(self, bins, tuples, seed):
        self.bins = bins
        self.tuples = tuples
        self.seed = seed
        self.dir = os.path.join(DATA_ROOT, "uis-%d-s%d" % (tuples, seed))

    def path(self, name):
        return os.path.join(self.dir, name)

    def _step(self, name, make):
        marker = self.path(".done-" + name)
        if not os.path.exists(marker):
            make()
            open(marker, "w").close()

    def ensure(self, need_delta):
        if not os.path.isdir(self.dir):
            self._evict_old()
            staging = self.dir + ".tmp"
            shutil.rmtree(staging, ignore_errors=True)
            run_quiet([self.bins["detective_datagen"], "--dataset=uis",
                       "--tuples=%d" % self.tuples, "--seed=%d" % self.seed,
                       "--out=" + staging])
            remove(os.path.join(staging, "kb_dbpedia.nt"))
            os.rename(staging, self.dir)
        os.utime(self.dir)
        self._step("header", self._make_header_inputs)
        self._step("snapshot", lambda: run_quiet([
            self.bins["detective_kb_build"], "--kb=" + self.path("kb_yago.nt"),
            "--out=" + self.path("kb.dkb")]))
        self._step("full", self._make_full_clean)
        if need_delta:
            self._step("delta", self._make_delta)

    def _evict_old(self):
        os.makedirs(DATA_ROOT, exist_ok=True)
        others = [os.path.join(DATA_ROOT, name) for name in os.listdir(DATA_ROOT)
                  if name.startswith("uis-")]
        others.sort(key=os.path.getmtime, reverse=True)
        for stale in others[KEEP_SEEDS - 1:]:
            shutil.rmtree(stale, ignore_errors=True)

    def _make_header_inputs(self):
        with open(self.path("dirty.csv")) as handle:
            header = handle.readline()
        with open(self.path("header.csv"), "w") as handle:
            handle.write(header)
        with open(self.path("delta_header.csv"), "w") as handle:
            handle.write("row," + header)
        open(self.path("empty.jsonl"), "w").close()

    def _make_full_clean(self):
        """The batch reference and the previous run's provenance in one run."""
        _, code, _ = run_child(
            [self.bins["detective_clean"], "--threads=%d" % THREADS,
             "--kb-snapshot=" + self.path("kb.dkb"),
             "--rules=" + self.path("rules.dr"),
             "--input=" + self.path("dirty.csv"),
             "--output=" + self.path("ref_clean.csv"),
             "--explain-json=" + self.path("prev.jsonl")],
            self.path("prep.log"))
        if code != 0:
            raise BenchError("reference clean failed with exit %d" % code)
        header, dirty = read_csv(self.path("dirty.csv"))
        _, clean = read_csv(self.path("clean.csv"))
        _, repaired = read_csv(self.path("ref_clean.csv"))
        with open(self.path("ref_clean.json"), "w") as handle:
            json.dump({"sha256": sha256_of(self.path("ref_clean.csv")),
                       "f1": repair_f1(dirty, repaired, clean)}, handle)

    def _make_delta(self):
        """1,000 seeded rows, each with a fresh typo in a non-key cell.

        The rewritten cells are ones the generator already dirtied with a
        typo, so the replaced and the replacing value are both rare and the
        re-chase closure stays near the delta itself (about 1% of rows).
        """
        header, dirty = read_csv(self.path("dirty.csv"))
        _, errors = read_csv(self.path("errors.csv"))
        rng = random.Random(self.seed * 7919 + 17)
        candidates = {}
        for row, column, clean_value, _, kind in errors:
            if kind == "typo" and column != header[0]:
                candidates.setdefault(int(row), (header.index(column), clean_value))
        rows = sorted(rng.sample(sorted(candidates), min(DELTA_ROWS, len(candidates))))
        applied = [list(values) for values in dirty]
        delta = []
        for row in rows:
            column, clean_value = candidates[row]
            typo = applied[row][column]
            while typo in (applied[row][column], clean_value):
                at = rng.randrange(len(clean_value))
                pool = "0123456789" if clean_value[at].isdigit() else \
                    "abcdefghijklmnopqrstuvwxyz"
                typo = clean_value[:at] + rng.choice(pool) + clean_value[at + 1:]
            applied[row][column] = typo
            delta.append([str(row)] + applied[row])
        write_csv(self.path("delta.csv"), ["row"] + header, delta)
        write_csv(self.path("dirty_delta.csv"), header, applied)
        # The reference: a full clean of the delta-applied relation.
        _, code, _ = run_child(
            [self.bins["detective_clean"], "--threads=%d" % THREADS,
             "--kb-snapshot=" + self.path("kb.dkb"),
             "--rules=" + self.path("rules.dr"),
             "--input=" + self.path("dirty_delta.csv"),
             "--output=" + self.path("ref_delta.csv"),
             "--explain-json=" + self.path("ref_delta.jsonl")],
            self.path("prep.log"))
        if code != 0:
            raise BenchError("delta reference clean failed with exit %d" % code)
        _, clean = read_csv(self.path("clean.csv"))
        _, repaired = read_csv(self.path("ref_delta.csv"))
        with open(self.path("ref_delta.json"), "w") as handle:
            json.dump({"csv_sha256": sha256_of(self.path("ref_delta.csv")),
                       "jsonl_sha256": sha256_of(self.path("ref_delta.jsonl")),
                       "delta_rows": len(rows),
                       "f1": repair_f1(applied, repaired, clean)}, handle)
        remove(self.path("ref_delta.jsonl"))

    def reference(self, name):
        with open(self.path(name)) as handle:
            return json.load(handle)


def repair_f1(dirty, repaired, clean, rows=None):
    """Cell-level repair F1: a repair is a changed cell, correct when it now
    equals the ground truth; recall is over the cells that were wrong."""
    changed = correct = wrong = 0
    for row in (range(len(dirty)) if rows is None else rows):
        for before, after, truth in zip(dirty[row], repaired[row], clean[row]):
            wrong += before != truth
            if after != before:
                changed += 1
                correct += after == truth
    precision = correct / changed if changed else 0.0
    recall = correct / wrong if wrong else 0.0
    total = precision + recall
    return 2 * precision * recall / total if total else 0.0


# ------------------------------------------------------------- statistics


def nearest_rank(sorted_values, percent):
    rank = max(1, math.ceil(percent / 100.0 * len(sorted_values)))
    return sorted_values[rank - 1]


def tail_percentile(count):
    """The highest of p90/p99/p99.9/p99.99 with at least 10 samples beyond."""
    best = None
    for percent in (90.0, 99.0, 99.9, 99.99):
        if count - math.ceil(percent / 100.0 * count) >= 10:
            best = percent
    return best


def describe(label, values, unit):
    """'label: median X unit, pNN Y unit (n=N)' with nearest-rank percentiles;
    a failed sample (None) counts as slower than any success."""
    ordered = sorted(v if v is not None else math.inf for v in values)
    text = "%s: median %.3f %s" % (label, nearest_rank(ordered, 50), unit)
    tail = tail_percentile(len(ordered))
    if tail is not None:
        text += ", p%g %.3f %s" % (tail, nearest_rank(ordered, tail), unit)
    return text + " (n=%d)" % len(ordered)


# ---------------------------------------------------------------- CLI runs


class Checks:
    """Counts attempted/failed operations; any failure fails the benchmark."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def record(self, ok, problem):
        self.tally(1, 0 if ok else 1, problem)

    def tally(self, attempted, failed, problem):
        self.attempted += attempted
        if failed:
            self.failed += failed
            log("CHECK FAILED (%d of %d): %s" % (failed, attempted, problem))


def clean_command(bins, data, workload, input_csv, output_csv):
    if workload == "clean_100k":
        return [bins["detective_clean"], "--threads=%d" % THREADS,
                "--kb=" + data.path("kb_yago.nt"), "--rules=" + data.path("rules.dr"),
                "--input=" + input_csv, "--output=" + output_csv]
    header_only = input_csv == data.path("header.csv")
    return [bins["detective_clean"], "--threads=%d" % THREADS,
            "--kb-snapshot=" + data.path("kb.dkb"), "--rules=" + data.path("rules.dr"),
            "--input=" + input_csv,
            "--delta=" + data.path("delta_header.csv" if header_only else "delta.csv"),
            "--prev-provenance=" + data.path("empty.jsonl" if header_only else "prev.jsonl"),
            "--output=" + output_csv,
            "--explain-json=" + os.path.splitext(output_csv)[0] + ".jsonl"]


def measure_cli_setup(bins, data, workload, checks):
    """Median wall time of the workload's command on a header-only CSV."""
    walls = []
    out = os.path.join(WORK, "setup.csv")
    for _ in range(SETUP_REPEATS):
        wall, code, _ = run_child(
            clean_command(bins, data, workload, data.path("header.csv"), out),
            os.path.join(WORK, "setup.log"))
        checks.record(code == 0, "header-only run exited %d" % code)
        walls.append(wall)
    return median(walls)


def check_cli_output(data, workload, out_csv, checks):
    """Byte-compares one run's outputs with the seed's reference."""
    if workload == "clean_100k":
        ref = data.reference("ref_clean.json")
        ok = os.path.exists(out_csv) and sha256_of(out_csv) == ref["sha256"]
        checks.record(ok, "repaired CSV differs from the reference clean")
        return
    ref = data.reference("ref_delta.json")
    out_jsonl = os.path.splitext(out_csv)[0] + ".jsonl"
    ok = os.path.exists(out_csv) and sha256_of(out_csv) == ref["csv_sha256"]
    checks.record(ok, "delta CSV differs from a full clean of the delta-applied CSV")
    ok = os.path.exists(out_jsonl) and sha256_of(out_jsonl) == ref["jsonl_sha256"]
    checks.record(ok, "delta provenance differs from a full clean's")


def timed_cli_runs(bins, data, workload, seconds, checks, min_runs=3):
    """Runs the workload's command until `seconds` have passed (at least
    `min_runs` times); returns the wall times and child peak RSS values."""
    walls, rss = [], []
    out = os.path.join(WORK, "out.csv")
    began = time.perf_counter()
    while len(walls) < min_runs or time.perf_counter() - began < seconds:
        remove(out, os.path.join(WORK, "out.jsonl"))
        wall, code, peak = run_child(
            clean_command(bins, data, workload, data.path("dirty.csv"), out),
            os.path.join(WORK, "run.log"))
        checks.record(code == 0, "%s exited %d" % (workload, code))
        check_cli_output(data, workload, out, checks)
        walls.append(wall)
        rss.append(peak)
    remove(out, os.path.join(WORK, "out.jsonl"))
    return walls, rss


def cli_f1(data, workload):
    name = "ref_clean.json" if workload == "clean_100k" else "ref_delta.json"
    return data.reference(name)["f1"]


def run_cli_e2e(bins, data, workload, seconds, checks):
    setup = measure_cli_setup(bins, data, workload, checks)
    walls, rss = timed_cli_runs(bins, data, workload, seconds, checks)
    wall = median(walls)
    print(describe("%s wall" % workload, [w * 1000 for w in walls], "ms"))
    return {
        "setup_s": (setup, "s"),
        "latency_p50_ms": (wall * 1000.0, "ms"),
        "peak_rss_mb": (median(rss), "MB"),
        "repair_f1": (cli_f1(data, workload), "ratio"),
    }


# ------------------------------------------------------------------- serve


def serve_inputs(data):
    """Request bodies and expected tuples in a seeded order of dirty rows.

    Every row is a distinct tuple, so each typo is a fresh cache key until
    the order wraps around.
    """
    header, dirty = read_csv(data.path("dirty.csv"))
    _, repaired = read_csv(data.path("ref_clean.csv"))
    order = list(range(len(dirty)))
    random.Random(data.seed * 104729 + 3).shuffle(order)
    bodies = os.path.join(WORK, "bodies.jsonl")
    expect = os.path.join(WORK, "expect.txt")
    with open(bodies, "w") as b, open(expect, "w") as e:
        for row in order:
            b.write(json.dumps({"tuple": dict(zip(header, dirty[row]))},
                               ensure_ascii=False) + "\n")
            e.write('"tuple":{' + ",".join(
                json.dumps(c, ensure_ascii=False) + ":" + json.dumps(v, ensure_ascii=False)
                for c, v in zip(header, repaired[row])) + "}\n")
    write_csv(os.path.join(WORK, "serve_rows.csv"), header, [dirty[r] for r in order])
    write_csv(os.path.join(WORK, "serve_expect.csv"), header, [repaired[r] for r in order])
    return {"bodies": bodies, "expect": expect, "order": order,
            "rows": len(order), "dirty": dirty, "repaired": repaired}


class Daemon:
    """One detective_serve process, its set-up time, and its memory."""

    def __init__(self, bins, data):
        self.log = open(os.path.join(WORK, "serve.log"), "ab")
        start = time.perf_counter()
        self.proc = subprocess.Popen(
            [bins["detective_serve"], "--kb-snapshot=" + data.path("kb.dkb"),
             "--rules=" + data.path("rules.dr"),
             "--schema-csv=" + data.path("header.csv"),
             "--threads=%d" % THREADS, "--port=0"],
            stdout=subprocess.PIPE, stderr=self.log)
        self.port = None
        deadline = start + 60
        while self.port is None:
            line = self.proc.stdout.readline().decode()
            if not line or time.perf_counter() > deadline:
                self.stop()
                raise BenchError("detective_serve did not report its port")
            if line.startswith("detective_serve: http://127.0.0.1:"):
                self.port = int(line.rsplit(":", 1)[1])
        while self.get("/readyz")[0] != 200:
            if time.perf_counter() > deadline:
                self.stop()
                raise BenchError("detective_serve never became ready")
            time.sleep(0.001)
        self.setup_s = time.perf_counter() - start

    def get(self, path):
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=10)
        try:
            conn.request("GET", path)
            response = conn.getresponse()
            return response.status, response.read()
        finally:
            conn.close()

    def status_kb(self, field):
        with open("/proc/%d/status" % self.proc.pid) as handle:
            for line in handle:
                if line.startswith(field + ":"):
                    return int(line.split()[1])
        raise BenchError("no %s in /proc status" % field)

    def stop(self):
        """SIGTERM and wait; returns the exit code (0 = clean drain)."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=20)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        self.log.close()
        return self.proc.returncode


class Stream:
    """The request cursor over the seeded order; every step takes the next
    rows, so no two steps of a run send the same tuple until it wraps."""

    def __init__(self, bins, inputs):
        self.bins = bins
        self.inputs = inputs
        self.cursor = 0
        self.served_rows = set()

    def step(self, port, rate, count, checks, label):
        first = self.cursor
        self.cursor += count
        done = subprocess.run(
            [self.bins["perf_loadgen"], "--port=%d" % port,
             "--bodies=" + self.inputs["bodies"], "--expect=" + self.inputs["expect"],
             "--rate=%g" % rate, "--first=%d" % first, "--count=%d" % count],
            capture_output=True, timeout=CHILD_TIMEOUT_S)
        if done.returncode != 0:
            raise BenchError("perf_loadgen failed: " + done.stderr.decode()[-500:])
        result = json.loads(done.stdout)
        for i in range(count):
            self.served_rows.add(self.inputs["order"][(first + i) % self.inputs["rows"]])
        checks.tally(count, result["failed"], "%s: request failed or served a "
                     "tuple that differs from the batch repair" % label)
        result["first"] = first
        result["latencies"] = [v if v >= 0 else None for v in result["latencies_us"]]
        return result


def backlog_grew(latencies):
    """True when the last tenth of a step waited clearly longer than the first."""
    tenth = max(1, len(latencies) // 10)
    head = sorted(v if v is not None else math.inf for v in latencies[:tenth])
    tail = sorted(v if v is not None else math.inf for v in latencies[-tenth:])
    return nearest_rank(tail, 50) > 2 * nearest_rank(head, 50) + 200.0


def fixed_rate_step(stream, port, rate, seconds, checks):
    label = "r%dk" % (rate // 1000)
    result = stream.step(port, rate, max(1, int(rate * seconds)), checks, label)
    grew = backlog_grew(result["latencies"])
    print(describe("%s latency from due" % label, result["latencies"], "us") +
          ", generator lag max %.1f us, backlog %s" %
          (max(result["lag_us"]), "grew" if grew else "steady"))
    result["backlog_grew"] = grew
    return result


def serve_setup(bins, data, checks):
    """Median spawn-to-ready time over SETUP_REPEATS daemons; the last one
    stays up and is returned."""
    times = []
    for attempt in range(SETUP_REPEATS):
        daemon = Daemon(bins, data)
        times.append(daemon.setup_s)
        if attempt + 1 < SETUP_REPEATS:
            code = daemon.stop()
            checks.record(code == 0, "detective_serve exited %d" % code)
    return median(times), daemon


def saturation(stream, port, seconds, checks):
    """Median throughput of three steps with every request due at once:
    4 connections pipelining as deep as the server lets them."""
    rates = []
    for _ in range(3):
        result = stream.step(port, 1e9, int(600 * seconds), checks, "saturation")
        rates.append(result["completed"] / result["elapsed_s"])
    print(describe("saturation throughput", rates, "tuples/s"))
    return median(rates)


def serve_f1(inputs, data, rows):
    _, clean = read_csv(data.path("clean.csv"))
    return repair_f1(inputs["dirty"], inputs["repaired"], clean, sorted(rows))


def serve_streams(bins, data, seconds, checks):
    """Set-up, warm-up, then the two fixed-rate steps on one daemon; returns
    the set-up time, the daemon (still running), the stream cursor, and the
    fixed-rate results keyed by rate."""
    inputs = serve_inputs(data)
    setup, daemon = serve_setup(bins, data, checks)
    stream = Stream(bins, inputs)
    try:
        stream.step(daemon.port, FIXED_RATES[0], int(FIXED_RATES[0] * 0.05 * seconds),
                    checks, "warm-up")
        daemon.rss_ready_kb = daemon.status_kb("VmRSS")
        fixed = {}
        for rate, share in zip(FIXED_RATES, (0.3, 0.4)):
            fixed[rate] = fixed_rate_step(stream, daemon.port, rate, share * seconds, checks)
    except BaseException:
        daemon.stop()
        raise
    return setup, daemon, stream, fixed


def run_serve_e2e(bins, data, seconds, checks):
    setup, daemon, stream, fixed = serve_streams(bins, data, seconds, checks)
    try:
        peak_kb = daemon.status_kb("VmHWM")
    finally:
        code = daemon.stop()
    checks.record(code == 0, "detective_serve exited %d after drain" % code)
    # 10K rps keeps the server's threads awake, so its median moves with the
    # server's work rather than with how deeply idle threads sleep.
    ordered = sorted(v if v is not None else math.inf
                     for v in fixed[FIXED_RATES[1]]["latencies"])
    return {
        "setup_s": (setup, "s"),
        "latency_p50_ms": (nearest_rank(ordered, 50) / 1000.0, "ms"),
        "peak_rss_mb": (peak_kb / 1024.0, "MB"),
        "repair_f1": (serve_f1(stream.inputs, data, stream.served_rows), "ratio"),
    }


# ------------------------------------------------------------ layer ledger


def ledger_command(bins, data, workload, trace_path):
    cmd = [bins["perf_ledger"], "--threads=%d" % THREADS,
           "--rules=" + data.path("rules.dr"), "--trace-json=" + trace_path]
    out = os.path.join(WORK, "out.csv")
    if workload == "clean_100k":
        return cmd + ["--mode=clean", "--kb=" + data.path("kb_yago.nt"),
                      "--input=" + data.path("dirty.csv"), "--output=" + out]
    return cmd + ["--mode=delta", "--kb-snapshot=" + data.path("kb.dkb"),
                  "--input=" + data.path("dirty.csv"), "--output=" + out,
                  "--delta=" + data.path("delta.csv"),
                  "--prev-provenance=" + data.path("prev.jsonl"),
                  "--explain-json=" + os.path.join(WORK, "out.jsonl")]


def run_ledger(cmd):
    """Runs perf_ledger; its result gains `process_ms`, the part of its wall
    time outside the replay (exec, start-up, exit and unmapping), which a CLI
    invocation pays too."""
    start = time.perf_counter()
    done = subprocess.run(cmd, capture_output=True, timeout=CHILD_TIMEOUT_S)
    wall_ms = (time.perf_counter() - start) * 1000.0
    if done.returncode != 0:
        raise BenchError("perf_ledger failed: " + done.stderr.decode()[-500:])
    result = json.loads(done.stdout.decode().strip().splitlines()[-1])
    result["process_ms"] = wall_ms - result["total_ms"]
    return result


def merge_spans(runs):
    """Per-layer median milliseconds over runs, counters and timers of the
    median-total run, and the median wall time of a whole replay process."""
    names = []
    for span in runs[0]["spans"]:
        if span["name"] not in names:
            names.append(span["name"])
    ms = {}
    for name in names:
        ms[name] = median([sum(s["ms"] for s in run["spans"] if s["name"] == name)
                           for run in runs])
    typical = sorted(runs, key=lambda run: run["total_ms"])[len(runs) // 2]
    counters, timers = {}, {}
    for span in typical["spans"]:
        for key, value in span["counters"].items():
            counters[key] = counters.get(key, 0) + value
        for key, value in span["timers_ms"].items():
            timers[key] = timers.get(key, 0.0) + value
    return ms, counters, timers, median([run["total_ms"] + run.get("process_ms", 0.0)
                                         for run in runs])


def empty_layers():
    """Every per-layer metric at zero; each workload fills in its own."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    return {m["name"]: [0, m["unit"]] for m in spec["per_layer"]}


def fill_chase_counts(layers, counters, timers, chase_ms):
    for name in ("repair.rule_checks", "repair.rule_applications",
                 "repair.cell_repairs", "repair.chase_rounds",
                 "matcher.node_queries", "matcher.assignments_explored",
                 "kb.edge_checks", "sigindex.queries",
                 "sigindex.candidates_verified", "cache.hits", "cache.misses",
                 "steal.count", "provenance.records"):
        layers[name][0] = counters.get(name, 0)
    queries = counters.get("sigindex.queries", 0)
    layers["sigindex.candidates_per_query"][0] = (
        counters.get("sigindex.candidates_verified", 0) / queries if queries else 0)
    nodes = counters.get("matcher.node_queries", 0)
    layers["cache.hit_ratio"][0] = counters.get("cache.hits", 0) / nodes if nodes else 0
    layers["core.matchplan_build_ms"][0] = timers.get("matchplan.build", 0.0)
    layers["parallel.worker_ms"][0] = timers.get("parallel.worker", 0.0)
    layers["parallel.busy_frac"][0] = (
        timers.get("parallel.worker", 0.0) / (THREADS * chase_ms) if chase_ms else 0)


def run_cli_trace(bins, data, workload, checks):
    """Alternates untraced CLI runs with traced ledger replays, so machine
    noise hits both sides alike; the residual is taken per pair."""
    layers = empty_layers()
    trace_path = os.path.join(WORK, "trace.json")
    walls, runs, residuals = [], [], []
    out_csv, out_jsonl = os.path.join(WORK, "out.csv"), os.path.join(WORK, "out.jsonl")
    sizes = {}

    def replay():
        runs.append(run_ledger(ledger_command(bins, data, workload, trace_path)))
        check_cli_output(data, workload, out_csv, checks)
        sizes["csv"] = os.path.getsize(out_csv)
        if workload == "delta_100k":
            sizes["jsonl"] = os.path.getsize(out_jsonl)
            sizes["records"] = count_lines(out_jsonl)
        remove(out_csv, out_jsonl)

    for pair in range(LEDGER_PAIRS):
        if pair % 2:  # alternate which side runs first
            replay()
        pair_wall, _ = timed_cli_runs(bins, data, workload, 0, checks, min_runs=1)
        if pair % 2 == 0:
            replay()
        walls.append(pair_wall[0] * 1000.0)
        residuals.append(walls[-1] - runs[-1]["process_ms"] -
                         sum(span["ms"] for span in runs[-1]["spans"]))
    print("chrome trace of the last ledger run: " + trace_path)
    print(describe("%s untraced wall" % workload, walls, "ms"))
    print(describe("%s traced replay process" % workload,
                   [r["total_ms"] + r["process_ms"] for r in runs], "ms"))
    print(describe("%s residual per pair" % workload, residuals, "ms"))
    wall_ms = median(walls)
    ms, counters, timers, traced_total = merge_spans(runs)
    span_metric = {
        "kb.load": "kb.load_ms", "analysis.rules_parse": "analysis.rules_parse_ms",
        "analysis.lint": "analysis.lint_ms", "analysis.strata": "analysis.strata_ms",
        "relation.csv_parse": "relation.csv_parse_ms", "relation.copy": "relation.copy_ms",
        "relation.csv_write": "relation.csv_write_ms", "core.chase": "core.chase_ms",
        "core.delta_load": "core.delta_load_ms", "core.delta_plan": "core.delta_plan_ms",
        "core.provenance_read": "core.provenance_read_ms",
        "core.incremental": "core.incremental_ms",
        "core.provenance_write": "core.provenance_write_ms",
        "process.teardown": "process.teardown_ms",
    }
    for span, metric in span_metric.items():
        layers[metric][0] = ms.get(span, 0.0)
    process_ms = median([run["process_ms"] for run in runs])
    layers["process.start_exit_ms"][0] = process_ms
    chase_ms = ms.get("core.chase", 0.0)
    if workload == "delta_100k":
        chase_ms = timers.get("parallel.repair", 0.0)
        layers["core.chase_ms"][0] = chase_ms
        layers["core.incremental_rechase_ms"][0] = chase_ms
        layers["core.incremental_replay_ms"][0] = timers.get("incremental.replay", 0.0)
        delta_rows = data.reference("ref_delta.json")["delta_rows"]
        affected = counters.get("incremental.rows_affected", 0)
        layers["incremental.delta_rows"][0] = delta_rows
        layers["incremental.rows_affected"][0] = affected
        layers["incremental.records_replayed"][0] = counters.get("incremental.records_replayed", 0)
        layers["incremental.closure_ratio"][0] = affected / delta_rows
        layers["provenance.bytes_in"][0] = os.path.getsize(data.path("prev.jsonl"))
        layers["provenance.bytes_out"][0] = sizes["jsonl"]
        bytes_in = os.path.getsize(data.path("dirty.csv")) + os.path.getsize(data.path("delta.csv"))
        kb_file = data.path("kb.dkb")
    else:
        bytes_in = os.path.getsize(data.path("dirty.csv"))
        kb_file = data.path("kb_yago.nt")
    fill_chase_counts(layers, counters, timers, chase_ms)
    if workload == "delta_100k":
        layers["provenance.records"][0] = sizes["records"]
    layers["kb.bytes_in"][0] = os.path.getsize(kb_file)
    layers["relation.bytes_in"][0] = bytes_in
    layers["relation.bytes_out"][0] = sizes["csv"]
    residual = median(residuals)
    layers["wall_s"][0] = wall_ms / 1000.0
    layers["ledger.layers_ms"][0] = sum(ms.values()) + process_ms
    layers["ledger.residual_ms"][0] = residual
    layers["ledger.residual_pct"][0] = 100.0 * residual / wall_ms
    layers["ledger.traced_total_ms"][0] = traced_total
    layers["ledger.trace_overhead_pct"][0] = 100.0 * (traced_total - wall_ms) / wall_ms
    return layers


def capacity_search(stream, port, seconds, checks):
    """Highest offered rate whose step keeps p99 <= 1 ms with no failure and
    no growing backlog; returns the throughput that step achieved."""
    step_s = max(0.3, 0.06 * seconds)

    def attempt(rate):
        result = stream.step(port, rate, max(100, int(rate * step_s)), checks,
                             "capacity %.0f rps" % rate)
        ordered = sorted(v if v is not None else math.inf for v in result["latencies"])
        p99 = nearest_rank(ordered, 99)
        ok = result["failed"] == 0 and p99 <= P99_LIMIT_US and \
            not backlog_grew(result["latencies"])
        print("capacity probe %.0f rps: p99 %.1f us, %s" % (rate, p99, "pass" if ok else "fail"))
        return ok, result["completed"] / result["elapsed_s"]

    best = 0.0
    low, high = None, None
    rate = float(FIXED_RATES[1])
    for _ in range(6):
        ok, achieved = attempt(rate)
        if ok:
            best, low = max(best, achieved), rate
            if high is not None:
                break
            rate *= 1.5
        else:
            high = rate
            if low is not None:
                break
            rate /= 1.5
    for _ in range(2):
        if low is None or high is None:
            break
        rate = (low + high) / 2
        ok, achieved = attempt(rate)
        if ok:
            best, low = max(best, achieved), rate
        else:
            high = rate
    return best


def run_serve_trace(bins, data, seconds, checks):
    layers = empty_layers()
    _, daemon, stream, fixed = serve_streams(bins, data, seconds, checks)
    try:
        rss_after_kb = daemon.status_kb("VmRSS")
        layers["saturation_tps"][0] = saturation(stream, daemon.port, seconds, checks)
        capacity = capacity_search(stream, daemon.port, seconds, checks)
        status, body = daemon.get("/metrics.json")
        checks.record(status == 200, "/metrics.json answered %d" % status)
        daemon_counters = json.loads(body)["counters"] if status == 200 else {}
    finally:
        code = daemon.stop()
    checks.record(code == 0, "detective_serve exited %d after drain" % code)
    r10k = fixed[FIXED_RATES[1]]
    streams = "--streams=%d:%d:%d" % (FIXED_RATES[1], r10k["first"], len(r10k["latencies"]))

    trace_path = os.path.join(WORK, "trace.json")
    run = run_ledger([bins["perf_ledger"], "--mode=serve", "--threads=%d" % THREADS,
                      "--kb-snapshot=" + data.path("kb.dkb"),
                      "--rules=" + data.path("rules.dr"),
                      "--input=" + os.path.join(WORK, "serve_rows.csv"),
                      "--expect=" + os.path.join(WORK, "serve_expect.csv"),
                      "--trace-json=" + trace_path, streams])
    print("chrome trace of the ledger run: " + trace_path)
    checks.tally(run["attempted"], run["failed"],
                 "in-process CleanTuple failed or differs from the batch repair")
    ms, counters, timers, _ = merge_spans([run])
    service_sorted = sorted(run["streams"][0]["latencies_us"])
    print(describe("r10k in-process CleanTuple latency from due", service_sorted, "us"))
    http_sorted = sorted(v if v is not None else math.inf
                         for v in fixed[FIXED_RATES[1]]["latencies"])
    layers["serve.init_ms"][0] = ms.get("serve.init", 0.0)
    layers["kb.load_ms"][0] = timers.get("kb.snapshot.load", 0.0)
    layers["kb.bytes_in"][0] = os.path.getsize(data.path("kb.dkb"))
    layers["core.chase_ms"][0] = ms.get("core.chase", 0.0)
    layers["process.teardown_ms"][0] = ms.get("process.teardown", 0.0)
    fill_chase_counts(layers, counters, timers, 0.0)
    layers["serve.service_us.p50"][0] = nearest_rank(service_sorted, 50)
    layers["serve.service_us.p99"][0] = nearest_rank(service_sorted, 99)
    layers["serve.service_samples"][0] = len(service_sorted)
    layers["serve.http_us.p50"][0] = nearest_rank(http_sorted, 50) - nearest_rank(service_sorted, 50)
    for name in ("serve.requests_admitted", "serve.requests_shed", "obs.http.requests"):
        layers[name][0] = daemon_counters.get(name, 0)
    layers["serve.rss_growth_mb"][0] = (rss_after_kb - daemon.rss_ready_kb) / 1024.0
    for rate in FIXED_RATES:
        label = "r%dk" % (rate // 1000)
        ordered = sorted(v if v is not None else math.inf for v in fixed[rate]["latencies"])
        layers["p50_us." + label][0] = nearest_rank(ordered, 50)
        layers["p99_us." + label][0] = nearest_rank(ordered, 99)
        layers["samples." + label][0] = len(ordered)
    layers["capacity_rps"][0] = capacity
    layers["generator.lag_us.max"][0] = max(max(fixed[r]["lag_us"]) for r in FIXED_RATES)
    layers["generator.backlog_grew"][0] = sum(fixed[r]["backlog_grew"] for r in FIXED_RATES)
    return layers


# -------------------------------------------------------------------- main


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tuples", type=int, default=100000,
                        help="UIS rows to generate (the smoke test uses ~2000)")
    args = parser.parse_args()

    try:
        bins = build()
        shutil.rmtree(WORK, ignore_errors=True)
        os.makedirs(WORK)
        data = Dataset(bins, args.tuples, args.seed)
        data.ensure(need_delta=args.workload == "delta_100k")
        checks = Checks()
        if args.trace:
            if args.workload == "serve_100k":
                metrics = run_serve_trace(bins, data, args.seconds, checks)
            else:
                metrics = run_cli_trace(bins, data, args.workload, checks)
            metrics["failed_frac"][0] = checks.failed / max(1, checks.attempted)
        elif args.workload == "serve_100k":
            metrics = run_serve_e2e(bins, data, args.seconds, checks)
        else:
            metrics = run_cli_e2e(bins, data, args.workload, args.seconds, checks)
    except (BenchError, OSError, subprocess.SubprocessError, ValueError) as error:
        log("benchmark failed: %s" % error)
        return 1

    for name, (value, unit) in metrics.items():
        print("%s = %s %s" % (name, format(value, ".6g"), unit))
    result = {
        "correct": checks.failed == 0,
        "attempted": max(1, checks.attempted),
        "failed": checks.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if checks.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
