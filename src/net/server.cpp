#include "net/server.h"

#include <poll.h>

#include <atomic>
#include <cerrno>
#include <fstream>
#include <map>
#include <mutex>
#include <optional>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "net/socket.h"
#include "obs/obs.h"
#include "service/job.h"
#include "service/jobfile.h"
#include "util/json.h"

namespace wmatch::net {

namespace {

/// Listener instrumentation; purely observational (DESIGN.md section 7).
struct NetMetrics {
  obs::Counter& connections = obs::counter("net.connections_total");
  obs::Gauge& active = obs::gauge("net.active_connections");
  obs::Counter& requests = obs::counter("net.requests_total");
  obs::Counter& responses = obs::counter("net.responses_total");
  obs::Counter& rejected = obs::counter("net.rejected_overload");
  obs::Counter& parse_errors = obs::counter("net.parse_errors");
  obs::Counter& bytes_in = obs::counter("net.bytes_in");
  obs::Counter& bytes_out = obs::counter("net.bytes_out");
  obs::Counter& idle_closes = obs::counter("net.idle_closes");
  obs::Histogram& request_ms = obs::histogram("net.request_ms");
};

NetMetrics& net_metrics() {
  static NetMetrics m;
  return m;
}

/// One client session. Owned by the poll thread (only it reads, accepts,
/// reaps); workers writing results hold a shared_ptr plus `write_mu`, and
/// reaping requires pending == 0, so a worker never races a close.
struct Conn {
  std::uint64_t id = 0;
  int read_fd = -1;
  int write_fd = -1;  ///< == read_fd for sockets; fd 1 in stdio mode
  bool is_stdio = false;
  std::string name;  ///< "<stdin>" or "conn-<id>"; prefixes parse errors
  std::string inbuf;
  std::size_t line_no = 0;
  bool eof = false;  ///< no more reads (peer EOF, read error, or drain)
  /// Last time bytes arrived (or the connection was accepted); the poll
  /// thread's idle sweep compares it against ServerConfig::idle_timeout_s.
  std::uint64_t last_activity_ns = 0;
  /// Jobs admitted to the queue whose results are not yet written back.
  std::atomic<std::size_t> pending{0};
  std::mutex write_mu;
};

std::string trimmed_view(const std::string& line) {
  const std::size_t first = line.find_first_not_of(" \t\r");
  if (first == std::string::npos) return "";
  const std::size_t last = line.find_last_not_of(" \t\r");
  return line.substr(first, last - first + 1);
}

}  // namespace

struct Server::Impl {
  explicit Impl(ServerConfig cfg)
      : config(cfg),
        scheduler(cfg.scheduler),
        queue(cfg.queue_capacity) {}

  ServerConfig config;
  service::Scheduler scheduler;
  service::JobQueue queue;

  int listen_fd = -1;
  int wake_r = -1;
  /// Written by request_drain() from signal context; atomic so the
  /// handler never reads a half-initialized fd.
  std::atomic<int> wake_w{-1};
  std::atomic<bool> drain_requested{false};

  std::mutex conns_mu;  ///< guards `conns` (poll thread vs worker lookup)
  std::map<std::uint64_t, std::shared_ptr<Conn>> conns;
  std::uint64_t next_conn_id = 1;
  std::size_t next_index = 0;

  std::mutex log_mu;  ///< poll-thread lifecycle lines vs worker job lines

  /// Admission time per submission index, for the end-to-end
  /// net.request_ms histogram (admitted -> result written).
  std::mutex req_mu;
  std::unordered_map<std::size_t, std::uint64_t> req_t0;

  ServeSummary summary;  ///< counts mutated on the poll thread only

  /// Delta window for the "stats" control line — shared across
  /// connections, so each query reports rates since the previous query.
  obs::StatsWindow stats_window;
  /// Separate window for --metrics-out so file flushes and interactive
  /// "stats" queries do not consume each other's deltas.
  obs::StatsWindow metrics_window;
  std::ofstream metrics_stream;        ///< open when config.metrics_out set
  std::string metrics_prom_path;       ///< sibling metrics.prom (or empty)
  std::uint64_t last_metrics_flush_ns = 0;

  void wake() {
    const int fd = wake_w.load(std::memory_order_relaxed);
    if (fd >= 0) {
      // A full pipe already guarantees a pending wakeup; ignore EAGAIN.
      (void)!::write(fd, "w", 1);
    }
  }

  std::shared_ptr<Conn> find_conn(std::uint64_t id) {
    std::lock_guard<std::mutex> lk(conns_mu);
    auto it = conns.find(id);
    return it == conns.end() ? nullptr : it->second;
  }

  /// Serializes one reply line to the connection under its write mutex.
  void reply(Conn& conn, const std::string& data) {
    std::lock_guard<std::mutex> lk(conn.write_mu);
    if (write_all(conn.write_fd, data)) {
      net_metrics().bytes_out.add(data.size());
    }
  }

  void reply_error(Conn& conn, const std::string& what, std::size_t line_no,
                   const std::string& id = "") {
    std::ostringstream os;
    os << "{\"error\":";
    util::write_json_string(os, what);
    if (!id.empty()) {
      os << ",\"id\":";
      util::write_json_string(os, id);
    }
    os << ",\"line\":" << line_no << "}\n";
    reply(conn, os.str());
  }

  void accept_ready(std::ostream& log) {
    NetMetrics& m = net_metrics();
    for (;;) {
      const int fd = accept_tcp(listen_fd);
      if (fd < 0) return;  // none pending, or a transient accept failure
      std::size_t active;
      {
        std::lock_guard<std::mutex> lk(conns_mu);
        active = conns.size();
      }
      if (active >= config.max_conns) {
        (void)write_all(fd, "{\"error\":\"overloaded\"}\n");
        close_fd(fd);
        ++summary.rejected;
        m.rejected.add();
        continue;
      }
      auto conn = std::make_shared<Conn>();
      conn->id = next_conn_id++;
      conn->read_fd = conn->write_fd = fd;
      conn->name = "conn-" + std::to_string(conn->id);
      conn->last_activity_ns = obs::monotonic_ns();
      {
        std::lock_guard<std::mutex> lk(conns_mu);
        conns.emplace(conn->id, conn);
        m.active.set(static_cast<std::int64_t>(conns.size()));
      }
      ++summary.connections;
      m.connections.add();
      {
        std::lock_guard<std::mutex> lk(log_mu);
        log << "serve: accepted " << conn->name << "\n";
      }
    }
  }

  /// One complete input line: control request, job submission, or error.
  void handle_line(Conn& conn, const std::string& line) {
    ++conn.line_no;
    NetMetrics& m = net_metrics();
    const std::string trimmed = trimmed_view(line);
    if (trimmed == "metrics") {
      std::ostringstream os;
      obs::write_metrics_json(os);
      os << "\n";
      reply(conn, os.str());
      return;
    }
    if (trimmed == "stats") {
      std::ostringstream os;
      stats_window.write(os);
      reply(conn, os.str());
      return;
    }
    service::JobSpec job;
    try {
      if (!service::parse_job_line(line, conn.name, conn.line_no, next_index,
                                   &job)) {
        return;  // blank or '#' comment
      }
    } catch (const std::exception& e) {
      ++summary.parse_errors;
      m.parse_errors.add();
      reply_error(conn, e.what(), conn.line_no);
      return;
    }
    service::Submission s;
    s.index = next_index++;
    s.tag = conn.id;
    const std::string id = job.id;
    const std::uint64_t trace_id = job.trace_id;
    s.job = std::move(job);
    // Admission span (critical-path segment 1 of 4); a client-stamped
    // trace context continues its "req" flow here, so the merged trace
    // ties client.send -> net.admit -> service.job -> net.request.
    obs::Span admit_span("net.admit", static_cast<std::int64_t>(s.index));
    if (trace_id != 0) obs::flow_step("req", trace_id);
    // Count the job in flight (and stamp its admission time) BEFORE the
    // push: a worker may finish it and decrement before try_push returns.
    conn.pending.fetch_add(1, std::memory_order_relaxed);
    {
      std::lock_guard<std::mutex> lk(req_mu);
      req_t0.emplace(s.index, obs::monotonic_ns());
    }
    const std::size_t index = s.index;
    switch (queue.try_push(std::move(s))) {
      case service::PushResult::kOk:
        ++summary.requests;
        m.requests.add();
        return;
      case service::PushResult::kFull:
        ++summary.rejected;
        m.rejected.add();
        conn.pending.fetch_sub(1, std::memory_order_relaxed);
        {
          std::lock_guard<std::mutex> lk(req_mu);
          req_t0.erase(index);
        }
        reply_error(conn, "overloaded", conn.line_no, id);
        return;
      case service::PushResult::kClosed:
        conn.pending.fetch_sub(1, std::memory_order_relaxed);
        {
          std::lock_guard<std::mutex> lk(req_mu);
          req_t0.erase(index);
        }
        reply_error(conn, "shutting down", conn.line_no, id);
        return;
    }
  }

  void handle_readable(Conn& conn) {
    obs::Span span("net.conn", static_cast<std::int64_t>(conn.id));
    const long n = read_some(conn.read_fd, &conn.inbuf);
    if (n > 0) {
      net_metrics().bytes_in.add(static_cast<std::uint64_t>(n));
      conn.last_activity_ns = obs::monotonic_ns();
    } else if (n == 0) {
      conn.eof = true;
    } else if (errno != EAGAIN && errno != EWOULDBLOCK) {
      conn.eof = true;  // dead peer == ordinary close
      conn.inbuf.clear();
    }
    consume_lines(&conn.inbuf,
                  [&](const std::string& line) { handle_line(conn, line); });
    if (conn.eof && !conn.inbuf.empty()) {
      // Final unterminated line: a client that sends one job and shuts
      // down its write side without a trailing newline still gets served.
      const std::string line = std::move(conn.inbuf);
      conn.inbuf.clear();
      handle_line(conn, line);
    }
  }

  /// Closes and forgets every connection that reached EOF with all its
  /// results flushed. Only the poll thread reaps, and pending == 0
  /// guarantees no worker still holds the fd for a write.
  void reap(std::ostream& log) {
    std::vector<std::shared_ptr<Conn>> dead;
    {
      std::lock_guard<std::mutex> lk(conns_mu);
      for (auto it = conns.begin(); it != conns.end();) {
        Conn& c = *it->second;
        if (c.eof && c.pending.load(std::memory_order_acquire) == 0) {
          dead.push_back(it->second);
          it = conns.erase(it);
        } else {
          ++it;
        }
      }
      net_metrics().active.set(static_cast<std::int64_t>(conns.size()));
    }
    for (const std::shared_ptr<Conn>& c : dead) {
      if (!c->is_stdio) close_fd(c->read_fd);  // stdio fds stay open
      std::lock_guard<std::mutex> lk(log_mu);
      log << "serve: closed " << c->name << "\n";
    }
  }

  /// Marks socket connections idle past the timeout as EOF so the normal
  /// reap path closes them. Runs on the poll thread each loop iteration
  /// (the 1s poll timeout bounds sweep latency). Connections with jobs in
  /// flight are never idle — a slow solve is activity, not silence — and
  /// stdio sessions are exempt (their lifecycle is EOF on stdin).
  void sweep_idle(std::ostream& log) {
    const std::uint64_t limit_ns =
        static_cast<std::uint64_t>(config.idle_timeout_s) * 1'000'000'000ull;
    const std::uint64_t now = obs::monotonic_ns();
    std::vector<std::string> closed;
    {
      std::lock_guard<std::mutex> lk(conns_mu);
      for (const auto& [id, c] : conns) {
        if (c->eof || c->is_stdio) continue;
        if (c->pending.load(std::memory_order_acquire) != 0) continue;
        if (now - c->last_activity_ns <= limit_ns) continue;
        c->eof = true;
        net_metrics().idle_closes.add();
        closed.push_back(c->name);
      }
    }
    for (const std::string& name : closed) {
      std::lock_guard<std::mutex> lk(log_mu);
      log << "serve: idle timeout, closing " << name << "\n";
    }
  }

  /// Appends one windowed stats object to --metrics-out (>= 1s cadence)
  /// and rewrites the Prometheus exposition next to it. `force` is the
  /// final at-drain flush.
  void flush_metrics(bool force) {
    if (!metrics_stream.is_open()) return;
    const std::uint64_t now = obs::monotonic_ns();
    if (!force && now - last_metrics_flush_ns < 1'000'000'000ull) return;
    last_metrics_flush_ns = now;
    metrics_window.write(metrics_stream);
    metrics_stream.flush();
    std::ofstream prom(metrics_prom_path, std::ios::trunc);
    if (prom) obs::write_metrics_prometheus(prom);
  }

  bool all_conns_eof() {
    std::lock_guard<std::mutex> lk(conns_mu);
    for (const auto& [id, c] : conns) {
      if (!c->eof) return false;
    }
    return true;
  }

  bool conns_empty() {
    std::lock_guard<std::mutex> lk(conns_mu);
    return conns.empty();
  }

  /// Streams one finished job back to its connection. Runs on a pool
  /// worker; everything it touches is either local, mutex-guarded, or
  /// kept alive by the shared_ptr (reaping waits for pending == 0).
  void on_result(const service::JobResult& r, std::uint64_t tag,
                 std::ostream& log) {
    NetMetrics& m = net_metrics();
    const std::shared_ptr<Conn> conn = find_conn(tag);
    {
      obs::Span span("net.request", static_cast<std::int64_t>(r.index));
      if (r.trace_id != 0) obs::flow_step("req", r.trace_id);
      std::ostringstream os;
      service::print_job_json(os, r);
      if (conn) reply(*conn, os.str());
    }
    m.responses.add();
    {
      std::lock_guard<std::mutex> lk(req_mu);
      auto it = req_t0.find(r.index);
      if (it != req_t0.end()) {
        m.request_ms.observe(
            static_cast<double>(obs::monotonic_ns() - it->second) / 1e6);
        req_t0.erase(it);
      }
    }
    {
      const char* status = !r.ok() ? "error" : (r.skipped ? "skipped" : "ok");
      std::lock_guard<std::mutex> lk(log_mu);
      log << "serve: job=" << r.id << " status=" << status
          << " cache=" << (r.cache_hit ? "hit" : "miss")
          << " queue_wait_ms=" << util::json_number(r.queue_wait_ms)
          << " solve_ms=" << util::json_number(r.wall_ms_median) << "\n";
    }
    if (conn) conn->pending.fetch_sub(1, std::memory_order_release);
    wake();  // let the poll loop re-check drain / reap conditions
  }
};

Server::Server(ServerConfig config)
    : impl_(std::make_unique<Impl>(config)) {}

Server::~Server() {
  Impl& im = *impl_;
  close_fd(im.listen_fd);
  close_fd(im.wake_r);
  close_fd(im.wake_w.load());
}

void Server::start() {
  Impl& im = *impl_;
  int pipe_fds[2];
  if (::pipe(pipe_fds) != 0) {
    throw std::runtime_error("serve: cannot create wake pipe");
  }
  im.wake_r = pipe_fds[0];
  set_nonblocking(im.wake_r);
  set_nonblocking(pipe_fds[1]);
  im.wake_w.store(pipe_fds[1], std::memory_order_release);
  if (im.config.listen_port >= 0) {
    std::string error;
    im.listen_fd = listen_tcp(im.config.listen_port, &error);
    if (im.listen_fd < 0) {
      throw std::runtime_error("--listen: " + error);
    }
    set_nonblocking(im.listen_fd);
    port_ = bound_port(im.listen_fd);
  }
}

void Server::request_drain() {
  Impl& im = *impl_;
  im.drain_requested.store(true, std::memory_order_release);
  const int fd = im.wake_w.load(std::memory_order_acquire);
  if (fd >= 0) {
    (void)!::write(fd, "d", 1);  // async-signal-safe; EAGAIN already woke
  }
}

ServeSummary Server::run(std::ostream& log) {
  Impl& im = *impl_;

  if (!im.config.metrics_out.empty()) {
    im.metrics_stream.open(im.config.metrics_out, std::ios::app);
    if (!im.metrics_stream) {
      throw std::runtime_error("--metrics-out: cannot open " +
                               im.config.metrics_out);
    }
    const std::size_t slash = im.config.metrics_out.find_last_of('/');
    im.metrics_prom_path =
        (slash == std::string::npos
             ? std::string()
             : im.config.metrics_out.substr(0, slash + 1)) +
        "metrics.prom";
  }

  if (im.config.stdio) {
    auto conn = std::make_shared<Conn>();
    conn->id = im.next_conn_id++;
    conn->read_fd = 0;
    conn->write_fd = 1;
    conn->is_stdio = true;
    conn->name = "<stdin>";
    conn->last_activity_ns = obs::monotonic_ns();
    {
      std::lock_guard<std::mutex> lk(im.conns_mu);
      im.conns.emplace(conn->id, conn);
    }
    ++im.summary.connections;
    net_metrics().connections.add();
    net_metrics().active.set(1);
  }

  // The scheduler thread is the single run_stream caller: it blocks on
  // the queue, fans chunks out on the pool, and pool workers stream each
  // result back through on_result. Results are NOT collected — the
  // summary keeps only cache stats and wall clock.
  std::string stream_error;
  std::thread sched_thread([&] {
    obs::set_thread_name("serve-scheduler");
    try {
      im.summary.batch = im.scheduler.run_stream(
          im.queue,
          [&](const service::JobResult& r, std::uint64_t tag) {
            im.on_result(r, tag, log);
          },
          /*collect_results=*/false);
    } catch (const std::exception& e) {
      stream_error = e.what();
      im.queue.close(/*discard_pending=*/true);
    }
  });

  bool draining = false;
  std::vector<pollfd> fds;
  std::vector<std::shared_ptr<Conn>> polled;
  for (;;) {
    if (!draining && (im.drain_requested.load(std::memory_order_acquire) ||
                      (im.listen_fd < 0 && im.all_conns_eof()))) {
      // Graceful drain — shared by SIGINT/SIGTERM and stdio EOF: stop
      // accepting, stop reading, run the queued backlog to completion,
      // flush every per-connection result, then return.
      draining = true;
      close_fd(im.listen_fd);
      im.listen_fd = -1;
      {
        std::lock_guard<std::mutex> lk(im.conns_mu);
        for (const auto& [id, c] : im.conns) c->eof = true;
      }
      im.queue.close();
      std::lock_guard<std::mutex> lk(im.log_mu);
      log << "serve: draining (in-flight jobs will finish)\n";
    }
    if (!draining && im.config.idle_timeout_s > 0) im.sweep_idle(log);
    im.flush_metrics(/*force=*/false);
    im.reap(log);
    if (draining && im.conns_empty()) break;

    fds.clear();
    polled.clear();
    fds.push_back({im.wake_r, POLLIN, 0});
    if (im.listen_fd >= 0) fds.push_back({im.listen_fd, POLLIN, 0});
    const std::size_t conn_base = fds.size();
    {
      std::lock_guard<std::mutex> lk(im.conns_mu);
      for (const auto& [id, c] : im.conns) {
        if (c->eof) continue;
        fds.push_back({c->read_fd, POLLIN, 0});
        polled.push_back(c);
      }
    }
    // 1s timeout as a lost-wakeup safety net; all real transitions
    // arrive through fd readiness or the self-pipe.
    const int rc = ::poll(fds.data(), fds.size(), 1000);
    if (rc < 0 && errno != EINTR) break;
    if (rc <= 0) continue;

    if (fds[0].revents != 0) {
      std::string sink;
      while (read_some(im.wake_r, &sink) > 0) sink.clear();
    }
    if (im.listen_fd >= 0 && fds[conn_base - 1].revents != 0) {
      im.accept_ready(log);
    }
    for (std::size_t i = 0; i < polled.size(); ++i) {
      if (fds[conn_base + i].revents & (POLLIN | POLLHUP | POLLERR)) {
        im.handle_readable(*polled[i]);
      }
    }
  }

  im.queue.close();  // idempotent; covers the pure-listen drain path
  sched_thread.join();
  im.flush_metrics(/*force=*/true);  // final window, after the last job
  if (!stream_error.empty()) {
    throw std::runtime_error("serve: scheduler stream failed: " +
                             stream_error);
  }
  return std::move(im.summary);
}

}  // namespace wmatch::net
