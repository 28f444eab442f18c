// Loopback integration tests for the network front end (ISSUE 8):
// concurrent connections with per-connection result routing, the
// acceptance contract (responses bit-identical to a serial batch run of
// the same jobs, modulo wall clock and cache incidence), admission
// control at queue capacity, graceful drain with in-flight jobs, the
// max-connection ceiling, malformed-line error replies with line
// numbers, and the "metrics" control request.
//
// ISSUE 10 additions: the "stats" control line (windowed delta
// snapshot), the idle-connection timeout, and wire trace-context
// propagation — absent / present / malformed round-trips plus the
// complete client -> server -> client "req" flow chain recorded when
// both sides trace into the same in-process tracer.
#include <gtest/gtest.h>

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "net/net.h"
#include "obs/obs.h"
#include "service/service.h"
#include "util/json.h"
#include "util/json_parse.h"

namespace wmatch {
namespace {

// ---- harness ----------------------------------------------------------

/// Runs a net::Server on an ephemeral port in a background thread.
class TestServer {
 public:
  explicit TestServer(net::ServerConfig cfg) : server_(cfg) {
    server_.start();
    thread_ = std::thread([this] { summary_ = server_.run(log_); });
  }

  ~TestServer() {
    if (thread_.joinable()) {
      server_.request_drain();
      thread_.join();
    }
  }

  int port() const { return server_.port(); }
  net::Server& server() { return server_; }

  net::ServeSummary finish() {
    server_.request_drain();
    thread_.join();
    return summary_;
  }

 private:
  net::Server server_;
  std::thread thread_;
  net::ServeSummary summary_;
  std::ostringstream log_;  // only the server thread writes this
};

/// Blocking loopback client with a line-oriented read helper.
class Client {
 public:
  explicit Client(int port) {
    std::string error;
    fd_ = net::connect_tcp("127.0.0.1", port, &error);
    EXPECT_GE(fd_, 0) << error;
  }

  ~Client() { net::close_fd(fd_); }

  void send(const std::string& data) {
    ASSERT_TRUE(net::write_all(fd_, data));
  }

  void shutdown_send() { ::shutdown(fd_, SHUT_WR); }

  /// Next '\n'-terminated line (without the newline); "" on EOF or after
  /// `timeout_s` without one.
  std::string read_line(double timeout_s = 30.0) {
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::duration<double>(timeout_s);
    for (;;) {
      const std::size_t pos = buf_.find('\n');
      if (pos != std::string::npos) {
        const std::string line = buf_.substr(0, pos);
        buf_.erase(0, pos + 1);
        return line;
      }
      if (std::chrono::steady_clock::now() >= deadline) return "";
      pollfd p{fd_, POLLIN, 0};
      if (::poll(&p, 1, 100) <= 0) continue;
      if (net::read_some(fd_, &buf_) == 0) {
        if (buf_.empty()) return "";  // EOF with nothing buffered
        const std::string line = std::move(buf_);
        buf_.clear();
        return line;
      }
    }
  }

  int fd() const { return fd_; }

 private:
  int fd_ = -1;
  std::string buf_;
};

std::string job_line(const std::string& id, const std::string& algo,
                     std::size_t n, std::size_t m, int seed) {
  std::ostringstream os;
  os << "{\"id\":\"" << id << "\",\"algo\":\"" << algo
     << "\",\"gen\":{\"generator\":\"erdos_renyi\",\"n\":" << n
     << ",\"m\":" << m << "},\"seed\":" << seed << "}\n";
  return os.str();
}

/// ~100ms of exact Blossom work — long enough that a burst of these
/// reliably overflows a capacity-1 queue and that a drain request lands
/// while jobs are still in flight, on any scheduler interleaving.
std::string slow_job_line(const std::string& id, int seed) {
  return job_line(id, "exact-blossom", 260, 1500, seed);
}

/// Serializes a parsed response with the nondeterministic fields —
/// "wall_ms" (object and cost member) and "cache_hit" (depends on which
/// jobs shared a Scheduler) — removed, so bit-identical CostReports
/// compare as equal strings.
void write_normalized(std::ostream& os, const util::JsonValue& v) {
  using Type = util::JsonValue::Type;
  switch (v.type()) {
    case Type::kNull:
      os << "null";
      return;
    case Type::kBool:
      os << (v.as_bool() ? "true" : "false");
      return;
    case Type::kNumber:
      os << util::json_number(v.as_number());
      return;
    case Type::kString:
      os << '"' << v.as_string() << '"';
      return;
    case Type::kArray:
      os << '[';
      for (const util::JsonValue& item : v.as_array()) {
        write_normalized(os, item);
        os << ',';
      }
      os << ']';
      return;
    case Type::kObject:
      os << '{';
      for (const auto& [key, value] : v.as_object()) {
        if (key == "wall_ms" || key == "cache_hit") continue;
        os << '"' << key << "\":";
        write_normalized(os, value);
        os << ',';
      }
      os << '}';
      return;
  }
}

std::string normalized(const std::string& json_line) {
  std::ostringstream os;
  write_normalized(os, util::parse_json(json_line));
  return os.str();
}

net::ServerConfig small_server(std::size_t jobs = 2,
                               std::size_t queue = 256) {
  net::ServerConfig cfg;
  cfg.listen_port = 0;  // ephemeral
  cfg.queue_capacity = queue;
  cfg.scheduler.jobs = jobs;
  return cfg;
}

// ---- acceptance: concurrent connections vs serial batch ---------------

TEST(NetServer, ConcurrentConnectionsMatchSerialBatchBitIdentically) {
  constexpr std::size_t kConns = 4;
  constexpr std::size_t kJobsPerConn = 8;
  TestServer ts(small_server(/*jobs=*/4));

  // 32 distinct jobs (different solver/size/seed per slot), interleaved
  // over 4 connections: connection c sends job k as "c<c>-j<k>".
  const std::vector<std::string> algos = {"greedy", "local-ratio",
                                          "greedy-weight", "exact-blossom"};
  std::vector<std::unique_ptr<Client>> clients;
  std::vector<std::vector<std::string>> sent_ids(kConns);
  std::vector<std::string> all_lines;
  for (std::size_t c = 0; c < kConns; ++c) {
    clients.push_back(std::make_unique<Client>(ts.port()));
  }
  for (std::size_t k = 0; k < kJobsPerConn; ++k) {
    for (std::size_t c = 0; c < kConns; ++c) {
      std::string id = "c";
      id += std::to_string(c);
      id += "-j";
      id += std::to_string(k);
      const std::string line =
          job_line(id, algos[(c + k) % algos.size()], 60 + 10 * k,
                   120 + 30 * k, static_cast<int>(1 + c + 7 * k));
      sent_ids[c].push_back(id);
      all_lines.push_back(line);
      clients[c]->send(line);
    }
  }
  // Per-connection collection: each connection gets exactly its own 8
  // results (routing), keyed by id (completion order is not send order).
  std::map<std::string, std::string> served;  // id -> normalized response
  for (std::size_t c = 0; c < kConns; ++c) {
    clients[c]->shutdown_send();
    std::set<std::string> got;
    for (std::size_t k = 0; k < kJobsPerConn; ++k) {
      const std::string line = clients[c]->read_line();
      ASSERT_FALSE(line.empty()) << "conn " << c << " missing result " << k;
      const util::JsonValue obj = util::parse_json(line);
      ASSERT_NE(obj.find("id"), nullptr);
      EXPECT_EQ(obj.find("error"), nullptr) << line;
      got.insert(obj.find("id")->as_string());
      served.emplace(obj.find("id")->as_string(), normalized(line));
    }
    EXPECT_EQ(got, std::set<std::string>(sent_ids[c].begin(),
                                         sent_ids[c].end()));
    EXPECT_TRUE(clients[c]->read_line(5.0).empty());  // then EOF
  }
  const net::ServeSummary summary = ts.finish();
  EXPECT_EQ(summary.requests, kConns * kJobsPerConn);
  EXPECT_EQ(summary.rejected, 0u);

  // Serial reference: the same 32 jobs through a fresh single-threaded
  // Scheduler (the `batch --threads=1` path). Responses must match
  // bit-identically modulo wall_ms / cache_hit.
  service::Scheduler scheduler({/*jobs=*/1, /*cache_capacity=*/16,
                                /*threads_override=*/1});
  std::vector<service::JobSpec> jobs;
  for (std::size_t i = 0; i < all_lines.size(); ++i) {
    service::JobSpec spec;
    ASSERT_TRUE(service::parse_job_line(all_lines[i], "ref", i + 1, i, &spec));
    jobs.push_back(spec);
  }
  const service::BatchResult reference = scheduler.run(jobs);
  ASSERT_EQ(reference.results.size(), all_lines.size());
  for (const service::JobResult& r : reference.results) {
    std::ostringstream os;
    service::print_job_json(os, r);
    ASSERT_TRUE(served.count(r.id)) << r.id;
    EXPECT_EQ(served[r.id], normalized(os.str())) << r.id;
  }
}

// ---- admission control -------------------------------------------------

TEST(NetServer, FullQueueRejectsWithStructuredOverloadError) {
  // Capacity-1 queue, one worker, slow jobs: the first job occupies the
  // worker, the second fills the queue, and the rest of the burst —
  // which arrives in a single read — must be rejected. Robust on a
  // 1-CPU box: admitted + rejected always partition the burst.
  constexpr std::size_t kBurst = 12;
  TestServer ts(small_server(/*jobs=*/1, /*queue=*/1));
  Client client(ts.port());
  std::string burst;
  for (std::size_t k = 0; k < kBurst; ++k) {
    burst += slow_job_line("burst-" + std::to_string(k), static_cast<int>(k));
  }
  client.send(burst);
  client.shutdown_send();

  std::size_t ok = 0, overloaded = 0;
  for (;;) {
    const std::string line = client.read_line();
    if (line.empty()) break;
    const util::JsonValue obj = util::parse_json(line);
    const util::JsonValue* error = obj.find("error");
    if (error == nullptr) {
      ++ok;
    } else {
      EXPECT_EQ(error->as_string(), "overloaded") << line;
      ASSERT_NE(obj.find("id"), nullptr) << line;
      ASSERT_NE(obj.find("line"), nullptr) << line;
      ++overloaded;
    }
  }
  EXPECT_EQ(ok + overloaded, kBurst);
  EXPECT_GE(ok, 1u);
  EXPECT_GE(overloaded, 1u);
  const net::ServeSummary summary = ts.finish();
  EXPECT_EQ(summary.requests, ok);
  EXPECT_EQ(summary.rejected, overloaded);
}

TEST(NetServer, ConnectionOverMaxConnsIsRejectedAndClosed) {
  net::ServerConfig cfg = small_server();
  cfg.max_conns = 1;
  TestServer ts(cfg);
  Client first(ts.port());
  // The first connection only counts once the server accepts it; a job
  // round-trip guarantees that.
  first.send(job_line("warm", "greedy", 30, 60, 1));
  ASSERT_FALSE(first.read_line().empty());

  Client second(ts.port());
  const std::string line = second.read_line();
  const util::JsonValue obj = util::parse_json(line);
  ASSERT_NE(obj.find("error"), nullptr) << line;
  EXPECT_EQ(obj.find("error")->as_string(), "overloaded");
  EXPECT_TRUE(second.read_line(5.0).empty());  // closed right after
}

// ---- graceful drain ----------------------------------------------------

TEST(NetServer, DrainFlushesInFlightJobsBeforeClosing) {
  TestServer ts(small_server(/*jobs=*/1));
  Client client(ts.port());
  constexpr std::size_t kJobs = 4;
  std::string burst;
  for (std::size_t k = 0; k < kJobs; ++k) {
    burst += slow_job_line("drain-" + std::to_string(k), static_cast<int>(k));
  }
  client.send(burst);
  // Wait until every job is admitted (the queue has ample capacity), so
  // the drain request provably lands with jobs still in flight.
  ASSERT_FALSE(client.read_line().empty());  // first result: server is busy
  ts.server().request_drain();  // what the SIGTERM handler calls

  std::set<std::string> ids;
  for (;;) {
    const std::string line = client.read_line();
    if (line.empty()) break;  // server closed after flushing
    const util::JsonValue obj = util::parse_json(line);
    ASSERT_EQ(obj.find("error"), nullptr) << line;
    ids.insert(obj.find("id")->as_string());
  }
  // Results 1..3 were in flight (queued or running) at drain time; every
  // one of them must have been finished and flushed.
  EXPECT_EQ(ids.size(), kJobs - 1);
  const net::ServeSummary summary = ts.finish();
  EXPECT_EQ(summary.requests, kJobs);
}

// ---- protocol errors and control lines ---------------------------------

TEST(NetServer, MalformedLineAnswersErrorWithLineNumber) {
  TestServer ts(small_server());
  Client client(ts.port());
  client.send("this is not json\n");
  std::string line = client.read_line();
  {
    const util::JsonValue obj = util::parse_json(line);
    ASSERT_NE(obj.find("error"), nullptr) << line;
    ASSERT_NE(obj.find("line"), nullptr) << line;
    EXPECT_EQ(obj.find("line")->as_number(), 1.0);
    // The message carries the connection-qualified line prefix.
    EXPECT_NE(obj.find("error")->as_string().find(":1:"), std::string::npos);
  }
  // Blank lines and comments consume line numbers without replies; the
  // session survives the error and keeps serving.
  client.send("\n# comment\n{\"algo\":\"nope\"}\n");
  line = client.read_line();
  {
    const util::JsonValue obj = util::parse_json(line);
    ASSERT_NE(obj.find("error"), nullptr) << line;
    EXPECT_EQ(obj.find("line")->as_number(), 4.0);
  }
  client.send(job_line("after-error", "greedy", 30, 60, 1));
  line = client.read_line();
  {
    const util::JsonValue obj = util::parse_json(line);
    ASSERT_EQ(obj.find("error"), nullptr) << line;
    EXPECT_EQ(obj.find("id")->as_string(), "after-error");
  }
  const net::ServeSummary summary = ts.finish();
  EXPECT_EQ(summary.parse_errors, 2u);
  EXPECT_EQ(summary.requests, 1u);
}

TEST(NetServer, MetricsControlLineAnswersRegistrySnapshot) {
  TestServer ts(small_server());
  Client client(ts.port());
  client.send(job_line("metered", "greedy", 30, 60, 1));
  ASSERT_FALSE(client.read_line().empty());
  client.send("metrics\n");
  const std::string line = client.read_line();
  const util::JsonValue obj = util::parse_json(line);
  ASSERT_NE(obj.find("counters"), nullptr) << line;
  const util::JsonValue* requests =
      obj.find("counters")->find("net.requests_total");
  ASSERT_NE(requests, nullptr);
  EXPECT_GE(requests->as_number(), 1.0);
}

TEST(NetServer, StatsControlLineAnswersWindowedDeltaSnapshot) {
  TestServer ts(small_server());
  Client client(ts.port());
  client.send(job_line("windowed", "greedy", 30, 60, 1));
  ASSERT_FALSE(client.read_line().empty());

  client.send("stats\n");
  const std::string line = client.read_line();
  const util::JsonValue obj = util::parse_json(line);
  for (const char* key :
       {"t_ns", "interval_s", "window_s", "deltas", "rates", "window",
        "gauges"}) {
    ASSERT_NE(obj.find(key), nullptr) << key << ": " << line;
  }
  // The delta covers the interval since the server armed its baseline,
  // so this connection's own request is in it.
  const util::JsonValue* req = obj.find("deltas")->find("net.requests_total");
  ASSERT_NE(req, nullptr) << line;
  EXPECT_GE(req->as_number(), 1.0);
  // The sliding window carries the serving latency histogram with
  // percentiles — the request just served is within the last ~8 s.
  const util::JsonValue* w = obj.find("window")->find("net.request_ms");
  ASSERT_NE(w, nullptr) << line;
  EXPECT_GE(w->find("count")->as_number(), 1.0);
  for (const char* key : {"rate", "p50", "p95", "p99"}) {
    ASSERT_NE(w->find(key), nullptr) << key;
  }
  // The session keeps serving after a control line.
  client.send(job_line("after-stats", "greedy", 30, 60, 2));
  const std::string after = client.read_line();
  ASSERT_FALSE(after.empty());
  EXPECT_EQ(util::parse_json(after).find("id")->as_string(), "after-stats");
}

TEST(NetServer, IdleTimeoutClosesQuietSocketConnections) {
  net::ServerConfig cfg = small_server();
  cfg.idle_timeout_s = 1;
  TestServer ts(cfg);
  const std::uint64_t before = obs::counter("net.idle_closes").value();
  Client client(ts.port());
  client.send(job_line("busy-then-idle", "greedy", 30, 60, 1));
  ASSERT_FALSE(client.read_line().empty());
  // No further bytes and no jobs in flight: the poll-loop sweep closes
  // the connection once it has been quiet past the limit (the 1 s poll
  // timeout bounds the sweep latency). EOF, not an error reply.
  EXPECT_TRUE(client.read_line(15.0).empty());
  EXPECT_GE(obs::counter("net.idle_closes").value(), before + 1);
}

// ---- trace-context propagation (ISSUE 10) ------------------------------

std::string traced_job_line(const std::string& id, int seed,
                            std::uint64_t trace_id) {
  std::ostringstream os;
  os << "{\"id\":\"" << id
     << "\",\"algo\":\"greedy\",\"gen\":{\"generator\":\"erdos_renyi\","
        "\"n\":30,\"m\":60},\"seed\":"
     << seed << ",\"trace\":{\"id\":" << trace_id << ",\"sent_ns\":123}}\n";
  return os.str();
}

TEST(NetServer, TraceContextAbsentPresentAndMalformed) {
  TestServer ts(small_server());
  Client client(ts.port());

  // Absent: a plain job keeps working untouched.
  client.send(job_line("no-trace", "greedy", 30, 60, 1));
  std::string line = client.read_line();
  EXPECT_EQ(util::parse_json(line).find("error"), nullptr) << line;

  // Present: a stamped job answers a normal result.
  client.send(traced_job_line("stamped", 2, 7));
  line = client.read_line();
  {
    const util::JsonValue obj = util::parse_json(line);
    EXPECT_EQ(obj.find("error"), nullptr) << line;
    EXPECT_EQ(obj.find("id")->as_string(), "stamped");
  }

  // Malformed (zero id): a line-numbered parse error naming the field,
  // and the session survives it.
  client.send(traced_job_line("zeroed", 3, 0));
  line = client.read_line();
  {
    const util::JsonValue obj = util::parse_json(line);
    ASSERT_NE(obj.find("error"), nullptr) << line;
    EXPECT_NE(obj.find("error")->as_string().find(
                  "\"trace\" needs a nonzero \"id\""),
              std::string::npos)
        << line;
    ASSERT_NE(obj.find("line"), nullptr) << line;
    EXPECT_EQ(obj.find("line")->as_number(), 3.0);
  }
  client.send(job_line("after-bad-trace", "greedy", 30, 60, 4));
  line = client.read_line();
  EXPECT_EQ(util::parse_json(line).find("error"), nullptr) << line;

  const net::ServeSummary summary = ts.finish();
  EXPECT_EQ(summary.requests, 3u);
  EXPECT_EQ(summary.parse_errors, 1u);
}

TEST(NetServer, TraceFlowChainConnectsClientAndServerSpans) {
  // The test plays the client role inside the same process as the
  // server, so one tracer sees the whole chain: the client-side "s"
  // (flow_begin under a slice, before the bytes hit the wire), the four
  // server-side "t" steps (net.admit, service.job, service.solve,
  // net.request), and the client-side "f" after the response arrives —
  // the in-process version of what scripts/merge_traces.py +
  // scripts/check_trace.py verify across processes in CI.
  struct TracingGuard {
    ~TracingGuard() { obs::reset_tracing(); }
  } guard;
  obs::reset_tracing();
  obs::start_tracing();
  std::string result_line;
  {
    TestServer ts(small_server());
    Client client(ts.port());
    {
      obs::Span send_span("test.client.send");
      obs::flow_begin("req", 7);
      client.send(traced_job_line("flowing", 1, 7));
    }
    result_line = client.read_line();
    {
      obs::Span recv_span("test.client.recv");
      obs::flow_end("req", 7);
    }
  }  // drain: every server span closes before the trace is written
  obs::stop_tracing();
  ASSERT_FALSE(result_line.empty());
  EXPECT_EQ(util::parse_json(result_line).find("error"), nullptr)
      << result_line;

  std::ostringstream os;
  obs::write_chrome_trace(os);
  const util::JsonValue doc = util::parse_json(os.str());
  std::vector<std::pair<double, std::string>> flow;  // (ts, phase)
  for (const util::JsonValue& ev : doc.find("traceEvents")->as_array()) {
    const std::string& ph = ev.find("ph")->as_string();
    if (ph != "s" && ph != "t" && ph != "f") continue;
    ASSERT_EQ(ev.find("name")->as_string(), "req");
    ASSERT_NE(ev.find("id"), nullptr);
    EXPECT_EQ(ev.find("id")->as_number(), 7.0);
    flow.emplace_back(ev.find("ts")->as_number(), ph);
  }
  std::size_t begins = 0, steps = 0, ends = 0;
  double s_ts = 0.0, f_ts = 0.0;
  for (const auto& [ts, ph] : flow) {
    if (ph == "s") {
      ++begins;
      s_ts = ts;
    } else if (ph == "f") {
      ++ends;
      f_ts = ts;
    } else {
      ++steps;
    }
  }
  ASSERT_EQ(begins, 1u);
  ASSERT_EQ(ends, 1u);
  EXPECT_EQ(steps, 4u);
  for (const auto& [ts, ph] : flow) {
    if (ph != "t") continue;
    EXPECT_GE(ts, s_ts);  // begin precedes every server step...
    EXPECT_LE(ts, f_ts);  // ...and the finish follows them all
  }
}

// ---- socket helpers -----------------------------------------------------

TEST(NetSocket, EphemeralListenerReportsBoundPort) {
  std::string error;
  const int fd = net::listen_tcp(0, &error);
  ASSERT_GE(fd, 0) << error;
  const int port = net::bound_port(fd);
  EXPECT_GT(port, 0);
  EXPECT_LE(port, net::kMaxPort);
  // A second listener on the same fixed port must fail with a message.
  const int dup = net::listen_tcp(port, &error);
  EXPECT_LT(dup, 0);
  EXPECT_FALSE(error.empty());
  net::close_fd(fd);
}

TEST(NetSocket, AcceptedSocketsDisableNagle) {
  // Responses are small writes; with Nagle on, each waits for the peer's
  // ACK of the previous one.
  std::string error;
  const int lfd = net::listen_tcp(0, &error);
  ASSERT_GE(lfd, 0) << error;
  const int cfd = net::connect_tcp("127.0.0.1", net::bound_port(lfd), &error);
  ASSERT_GE(cfd, 0) << error;
  const int afd = net::accept_tcp(lfd);
  ASSERT_GE(afd, 0);
  int nodelay = 0;
  socklen_t len = sizeof(nodelay);
  ASSERT_EQ(::getsockopt(afd, IPPROTO_TCP, TCP_NODELAY, &nodelay, &len), 0);
  EXPECT_NE(nodelay, 0);
  net::close_fd(afd);
  net::close_fd(cfd);
  net::close_fd(lfd);
}

TEST(NetSocket, ConnectToClosedPortFails) {
  std::string error;
  const int fd = net::listen_tcp(0, &error);
  ASSERT_GE(fd, 0) << error;
  const int port = net::bound_port(fd);
  net::close_fd(fd);  // nothing listens here anymore
  const int cfd = net::connect_tcp("127.0.0.1", port, &error);
  EXPECT_LT(cfd, 0);
  EXPECT_FALSE(error.empty());
  net::close_fd(cfd);
}

}  // namespace
}  // namespace wmatch
