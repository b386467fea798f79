// perf_loadgen: open-loop HTTP load generator for detective_serve.
//
//   perf_loadgen --port=P --bodies=BODIES.jsonl --expect=EXPECT.txt
//                --rate=RPS --first=K --count=N
//
// Sends N requests starting at line K of BODIES.jsonl (one JSON body per
// line, wrapping around at the end of the file) as POST /v1/clean-tuple,
// request j of the step due at start + j/RPS whatever the server is doing.
// One thread drives 4 keep-alive connections, busy-polling them so its own
// wake-ups never add to a measured time, and pipelines on them, so a slow
// server builds a queue instead of slowing the generator. Each request is
// timed from when it was due; how late the generator itself sent it is
// reported separately. A response counts as correct when its status is 200
// and its body contains the matching line of EXPECT.txt verbatim.
//
// Prints one JSON object: {"sent", "completed", "failed", "elapsed_s",
// "lag_us": [...], "latencies_us": [...]} with both arrays in request order
// (a failed request's latency is -1).

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <fstream>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/string_util.h"

namespace {

using Clock = std::chrono::steady_clock;

/// The server closes a keep-alive connection after this many requests
/// (obs::HttpServerOptions::max_requests_per_connection); the generator
/// never pipelines past it and reconnects instead.
constexpr size_t kRequestsPerConnection = 1024;
/// Keep-alive connections the generator drives (the most the serve workload
/// allows its client).
constexpr size_t kConnections = 4;
/// How long after the last request was due the generator waits for replies.
constexpr auto kDrainTimeout = std::chrono::seconds(10);
/// Half the server's keep-alive read timeout (obs::HttpServerOptions).
constexpr auto kIdleReconnect = std::chrono::milliseconds(1000);

struct Args {
  uint64_t port = 0;
  std::string bodies_path;
  std::string expect_path;
  double rate = 0;
  uint64_t first = 0;
  uint64_t count = 0;
};

/// Reads the flags; false when a required one is missing or malformed.
bool ParseArgs(int argc, char** argv, Args* args) {
  using detective::bench::FlagString;
  using detective::bench::FlagUint;
  args->port = FlagUint(argc, argv, "port", 0);
  args->bodies_path = FlagString(argc, argv, "bodies");
  args->expect_path = FlagString(argc, argv, "expect");
  args->first = FlagUint(argc, argv, "first", 0);
  args->count = FlagUint(argc, argv, "count", 0);
  return detective::ParseDouble(FlagString(argc, argv, "rate"), &args->rate) &&
         args->rate > 0 && args->port > 0 && args->port <= 65535 &&
         args->count > 0 && !args->bodies_path.empty() &&
         !args->expect_path.empty();
}

/// Lines first, first+1, ... of a file, `count` of them, wrapping around to
/// the first line when the file runs out; exits on an empty file.
std::vector<std::string> ReadLines(const std::string& path, size_t first,
                                   size_t count) {
  std::ifstream in(path, std::ios::binary);
  std::vector<std::string> all;
  std::string line;
  while (in && std::getline(in, line)) all.push_back(line);
  if (all.empty()) {
    std::fprintf(stderr, "perf_loadgen: cannot read lines from %s\n", path.c_str());
    std::exit(1);
  }
  std::vector<std::string> lines;
  lines.reserve(count);
  for (size_t i = 0; i < count; ++i) lines.push_back(all[(first + i) % all.size()]);
  return lines;
}

int Connect(uint64_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return fd;
}

struct Connection {
  int fd = -1;
  size_t sent_here = 0;      // requests written on this socket
  std::string out;           // bytes not yet written
  size_t out_offset = 0;
  std::string in;            // bytes read, not yet parsed
  std::deque<size_t> pending;  // request indexes awaiting a response
  Clock::time_point last_send;
};

class Generator {
 public:
  Generator(const Args& args, std::vector<std::string> requests,
            std::vector<std::string> expect)
      : args_(args),
        requests_(std::move(requests)),
        expect_(std::move(expect)),
        latencies_us_(requests_.size(), -1.0),
        lag_us_(requests_.size(), 0.0),
        connections_(kConnections) {}

  void Run() {
    const auto interval = std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(1.0 / args_.rate));
    start_ = Clock::now();
    auto due = [&](size_t i) { return start_ + interval * static_cast<int64_t>(i); };
    size_t next = 0;
    const size_t total = requests_.size();
    for (;;) {
      Clock::time_point now = Clock::now();
      while (next < total && due(next) <= now) {
        Connection* conn = PickConnection(now);
        if (conn == nullptr) break;  // every connection is at its budget
        conn->out += requests_[next];
        conn->pending.push_back(next);
        ++conn->sent_here;
        lag_us_[next] = UsBetween(due(next), now);
        ++sent_;
        ++next;
      }
      for (Connection& conn : connections_) Flush(&conn);
      if (next >= total && completed_ + failed_ >= total) break;
      if (next >= total && now > due(total - 1) + kDrainTimeout) break;

      std::vector<pollfd> fds;
      std::vector<Connection*> owners;
      for (Connection& conn : connections_) {
        if (conn.fd < 0) continue;
        short events = 0;
        if (!conn.pending.empty()) events |= POLLIN;
        if (conn.out_offset < conn.out.size()) events |= POLLOUT;
        if (events == 0) continue;
        fds.push_back({conn.fd, events, 0});
        owners.push_back(&conn);
      }
      // Spin instead of sleeping: a sleeping generator would add its own
      // wake-up delay to every send time and every response time.
      timespec no_wait{0, 0};
      const int ready = ::ppoll(fds.data(), fds.size(), &no_wait, nullptr);
      if (ready < 0 && errno != EINTR) {
        std::perror("perf_loadgen: ppoll");
        std::exit(1);
      }
      for (size_t i = 0; ready > 0 && i < fds.size(); ++i) {
        if ((fds[i].revents & (POLLIN | POLLERR | POLLHUP)) != 0) Receive(owners[i]);
      }
    }
    elapsed_s_ = std::chrono::duration<double>(Clock::now() - start_).count();
    for (Connection& conn : connections_) {
      failed_ += conn.pending.size();
      conn.pending.clear();
      if (conn.fd >= 0) ::close(conn.fd);
      conn.fd = -1;
    }
  }

  void Print() const {
    std::string json = "{\"sent\":" + std::to_string(sent_) +
                       ",\"completed\":" + std::to_string(completed_) +
                       ",\"failed\":" + std::to_string(failed_ + (requests_.size() - sent_)) +
                       ",\"elapsed_s\":" + std::to_string(elapsed_s_) + ",\"lag_us\":[";
    for (size_t i = 0; i < lag_us_.size(); ++i) {
      if (i != 0) json.push_back(',');
      json += Number(lag_us_[i]);
    }
    json += "],\"latencies_us\":[";
    for (size_t i = 0; i < latencies_us_.size(); ++i) {
      if (i != 0) json.push_back(',');
      json += Number(latencies_us_[i]);
    }
    json += "]}";
    std::printf("%s\n", json.c_str());
  }

 private:
  static double UsBetween(Clock::time_point from, Clock::time_point to) {
    return std::chrono::duration<double, std::micro>(to - from).count();
  }

  static std::string Number(double value) {
    char buffer[32];
    std::snprintf(buffer, sizeof(buffer), "%.3f", value);
    return buffer;
  }

  /// The next connection in round-robin order that still has budget, so
  /// every socket stays busy (the server drops a keep-alive connection that
  /// idles past its read timeout). Reconnects a socket whose budget is spent
  /// and fully answered, or that has idled for a second.
  Connection* PickConnection(Clock::time_point now) {
    for (size_t tried = 0; tried < connections_.size(); ++tried) {
      Connection& conn = connections_[next_connection_];
      next_connection_ = (next_connection_ + 1) % connections_.size();
      if (conn.fd >= 0 && conn.pending.empty() &&
          (conn.sent_here >= kRequestsPerConnection ||
           now - conn.last_send > kIdleReconnect)) {
        Reset(&conn);
      }
      if (conn.fd < 0) {
        conn.fd = Connect(args_.port);
        if (conn.fd < 0) continue;
      }
      if (conn.sent_here >= kRequestsPerConnection) continue;
      conn.last_send = now;
      return &conn;
    }
    return nullptr;
  }

  void Reset(Connection* conn) {
    failed_ += conn->pending.size();
    conn->pending.clear();
    if (conn->fd >= 0) ::close(conn->fd);
    *conn = Connection{};
  }

  void Flush(Connection* conn) {
    while (conn->fd >= 0 && conn->out_offset < conn->out.size()) {
      const ssize_t n = ::send(conn->fd, conn->out.data() + conn->out_offset,
                               conn->out.size() - conn->out_offset,
                               MSG_DONTWAIT | MSG_NOSIGNAL);
      if (n > 0) {
        conn->out_offset += static_cast<size_t>(n);
        continue;
      }
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return;
      if (n < 0 && errno == EINTR) continue;
      Reset(conn);
      return;
    }
    conn->out.clear();
    conn->out_offset = 0;
  }

  void Receive(Connection* conn) {
    char chunk[65536];
    const ssize_t n = ::recv(conn->fd, chunk, sizeof(chunk), MSG_DONTWAIT);
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR)) return;
    if (n <= 0) {
      Reset(conn);
      return;
    }
    conn->in.append(chunk, static_cast<size_t>(n));
    const Clock::time_point now = Clock::now();
    const auto interval = std::chrono::duration<double>(1.0 / args_.rate);
    for (;;) {
      const size_t head_end = conn->in.find("\r\n\r\n");
      if (head_end == std::string::npos) return;
      const std::string_view head(conn->in.data(), head_end);
      size_t length = 0;
      if (const size_t at = head.find("Content-Length: "); at != std::string_view::npos) {
        length = std::strtoull(head.data() + at + 16, nullptr, 10);
      }
      if (conn->in.size() < head_end + 4 + length) return;
      const bool close = head.find("Connection: close") != std::string_view::npos;
      const bool ok_status = head.rfind("HTTP/1.1 200", 0) == 0;
      const std::string_view body(conn->in.data() + head_end + 4, length);
      if (conn->pending.empty()) {
        Reset(conn);  // a response nobody asked for: framing is lost
        return;
      }
      const size_t index = conn->pending.front();
      conn->pending.pop_front();
      if (ok_status && body.find(expect_[index]) != std::string_view::npos) {
        const auto due = start_ + std::chrono::duration_cast<Clock::duration>(
                                      interval * static_cast<double>(index));
        latencies_us_[index] = UsBetween(due, now);
        ++completed_;
      } else {
        ++failed_;
      }
      conn->in.erase(0, head_end + 4 + length);
      if (close) {
        Reset(conn);
        return;
      }
    }
  }

  const Args& args_;
  std::vector<std::string> requests_;
  std::vector<std::string> expect_;
  std::vector<double> latencies_us_;
  std::vector<double> lag_us_;
  std::vector<Connection> connections_;
  size_t next_connection_ = 0;
  Clock::time_point start_;
  size_t sent_ = 0;
  size_t completed_ = 0;
  size_t failed_ = 0;
  double elapsed_s_ = 0;
};

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perf_loadgen --port=P --bodies=FILE --expect=FILE "
                 "--rate=RPS --first=K --count=N\n");
    return 64;
  }
  std::vector<std::string> bodies = ReadLines(args.bodies_path, args.first, args.count);
  std::vector<std::string> requests;
  requests.reserve(bodies.size());
  for (const std::string& body : bodies) {
    requests.push_back("POST /v1/clean-tuple HTTP/1.1\r\nHost: 127.0.0.1\r\n"
                       "Content-Type: application/json\r\nContent-Length: " +
                       std::to_string(body.size()) + "\r\n\r\n" + body);
  }
  Generator generator(args, std::move(requests),
                      ReadLines(args.expect_path, args.first, args.count));
  generator.Run();
  generator.Print();
  return 0;
}
