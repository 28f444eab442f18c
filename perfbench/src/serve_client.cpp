// serve workload, client side: one single-threaded process with at most
// four TCP connections to `wmatch_cli serve --listen --jobs=2`.
//
// The job mix is warm-cache and cheap: greedy and local-ratio (about
// 0.1 ms each) and, one request in five, exact-hk (about 1.5-2 ms) on eight
// fixed bipartite graphs with n=2000 m=8000; the seed draws the closed-loop
// order, the open-loop schedule and each arrival's job. Phases:
//   warm     every distinct job once, closed loop (the cache fills);
//   closed   passes of every distinct job, one request at a time on one
//            connection (t1) or two at a time on two connections (t2, both
//            of the server's workers busy); wall_s.t1 and wall_s.t2 sum
//            each distinct job's fastest latency;
//   lo, hi   open-loop Poisson arrivals at the two fixed rates;
//   probe    open-loop steps upward from the hi rate until the p99 limit
//            is missed or a backlog grows; the last passing rate is
//            sat_rps.
// Open-loop latency runs from each request's due time, not from when the
// line reached the socket, so a stall shows in every request it delays.
// Sockets are non-blocking: a send never waits for the server, and
// client.late_ms records how far behind its schedule the client ran.
//
// Every response is checked against an in-process solve of the same job:
// cost counters, matching size and weight must be identical.
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <csignal>
#include <cmath>
#include <ctime>
#include <deque>
#include <iostream>
#include <optional>
#include <stdexcept>
#include <sstream>

#include "api/api.h"
#include "common.h"
#include "exact/blossom.h"
#include "exact/hopcroft_karp.h"
#include "net/socket.h"
#include "service/jobfile.h"
#include "util/json_parse.h"

namespace perfbench {

namespace {

using namespace wmatch;

constexpr std::size_t kConnections = 4;
constexpr std::size_t kInstances = 8;
constexpr std::size_t kServerJobs = 2;  ///< serve --jobs, for busy_frac
constexpr int kClosedReps = 20;         ///< each distinct job per pass
constexpr int kClosedPasses = 8;        ///< per thread count
constexpr std::size_t kProbeEvery = 4;  ///< closed-loop requests per probe
/// The fixed offered rates, 40% and 80% of the 1.1-1.4k req/s saturation
/// loadgen reported for this server, and the p99 limit defining sat_rps.
constexpr double kRateLo = 500;
constexpr double kRateHi = 1000;
constexpr double kP99LimitMs = 50;
/// Shares of --seconds: each fixed-rate phase, and each probe.
constexpr double kFixedRateShare = 0.15;
constexpr double kProbeShare = 0.03;
constexpr double kProbeStart = 2.0;      ///< first probe, x the hi rate
constexpr double kProbeStep = 1.15;
constexpr int kRefineSteps = 2;
constexpr double kMaxProbeFactor = 4.0;  ///< probes stop at 4x the hi rate
constexpr double kDrainSeconds = 10.0;
/// Mix weights: greedy, local-ratio, exact-hk (2:2:1).
const char* const kAlgos[] = {"greedy", "local-ratio", "exact-hk"};
const int kAlgoWeights[] = {2, 2, 1};

struct Job {
  std::string body;  ///< job JSON members after "id"
  std::string model;
  std::size_t passes = 0, rounds = 0, memory_peak_words = 0,
              communication_words = 0, bb_invocations = 0,
              bb_max_invocation_cost = 0, size = 0;
  Weight weight = 0;
  double ratio = 0;  ///< achieved / optimum of the solver's objective
};

std::string job_body(const char* algo, std::uint64_t seed) {
  std::ostringstream os;
  os << "\"algo\":\"" << algo
     << "\",\"gen\":{\"generator\":\"bipartite\",\"n\":2000,\"m\":8000},"
     << "\"seed\":" << seed;
  return os.str();
}

/// Distinct jobs (algo x instance) with their in-process expectations.
/// Index = algo * kInstances + instance. The instances are the same for
/// every workload seed: an exact-hk job's latency depends on its instance,
/// and with seed-drawn instances half of the closed-loop figures' spread
/// over ten seeds was the instances'. Without `with_expect` the jobs
/// carry no expectations (model stays empty) and responses go unchecked.
std::vector<Job> make_jobs(bool with_expect, Report& report) {
  std::vector<Job> jobs;
  std::vector<Weight> max_weight(kInstances, 0);
  for (std::size_t a = 0; a < std::size(kAlgos); ++a) {
    for (std::size_t i = 0; i < kInstances; ++i) {
      Job job;
      const std::uint64_t job_seed = 1000 + i;
      job.body = job_body(kAlgos[a], job_seed);
      if (with_expect) {
        const service::JobSpec spec = service::parse_job("{" + job.body + "}");
        const api::Instance inst = api::generate_instance(spec.gen());
        const api::SolveResult r =
            api::Solver(spec.solver).solve(inst, spec.spec);
        const std::string bad =
            check_matching(inst.graph, r.matching, r.matching.weight());
        if (!bad.empty()) report.fail(std::string(kAlgos[a]) + ": " + bad);
        job.model = r.cost.model;
        job.passes = r.cost.passes;
        job.rounds = r.cost.rounds;
        job.memory_peak_words = r.cost.memory_peak_words;
        job.communication_words = r.cost.communication_words;
        job.bb_invocations = r.cost.bb_invocations;
        job.bb_max_invocation_cost = r.cost.bb_max_invocation_cost;
        job.size = r.matching.size();
        job.weight = r.matching.weight();
        if (std::string(kAlgos[a]) == "exact-hk") {
          const std::size_t max_card =
              exact::hopcroft_karp(inst.graph, inst.side).matching.size();
          job.ratio = static_cast<double>(job.size) /
                      static_cast<double>(max_card);
        } else {
          if (max_weight[i] == 0) {
            max_weight[i] = exact::blossom_max_weight(inst.graph).weight();
          }
          job.ratio = static_cast<double>(job.weight) /
                      static_cast<double>(max_weight[i]);
        }
      }
      jobs.push_back(std::move(job));
    }
  }
  return jobs;
}

/// Draws a job index from the 2:2:1 mix.
std::size_t draw_job(Rng& rng) {
  int total = 0;
  for (int w : kAlgoWeights) total += w;
  std::int64_t pick = static_cast<std::int64_t>(rng.next_below(total));
  std::size_t a = 0;
  while (pick >= kAlgoWeights[a]) pick -= kAlgoWeights[a++];
  return a * kInstances + rng.next_below(kInstances);
}

struct Request {
  std::size_t job;
  int threads;
  std::size_t run;  ///< which Client::run call sent it
  std::uint64_t due_ns = 0, sent_ns = 0, done_ns = 0;
  bool refused = false, answered = false;
};

struct Conn {
  int fd = -1;
  std::string wbuf;            ///< bytes not yet accepted by the socket
  std::uint64_t enqueued = 0;  ///< bytes ever queued
  std::uint64_t written = 0;   ///< bytes ever accepted
  /// (first-byte offset, request) of lines whose first byte is unsent.
  std::deque<std::pair<std::uint64_t, std::size_t>> unsent;
  std::string rbuf;
};

double delta_percentile(const util::JsonValue& before,
                        const util::JsonValue& after, const char* hist,
                        double q) {
  const util::JsonValue* hb = before.find("histograms")->find(hist);
  const util::JsonValue* ha = after.find("histograms")->find(hist);
  if (!ha) return 0.0;
  std::vector<std::pair<double, std::uint64_t>> buckets;
  for (const util::JsonValue& b : ha->find("buckets")->as_array()) {
    const double bound = b.as_array()[0].as_number();
    double count = b.as_array()[1].as_number();
    if (hb) {
      for (const util::JsonValue& p : hb->find("buckets")->as_array()) {
        if (p.as_array()[0].as_number() == bound) {
          count -= p.as_array()[1].as_number();
        }
      }
    }
    if (count > 0) buckets.emplace_back(bound, static_cast<std::uint64_t>(count));
  }
  return obs::percentile_from_buckets(buckets, q);
}

double delta_counter(const util::JsonValue& before,
                     const util::JsonValue& after, const char* name) {
  const util::JsonValue* a = after.find("counters")->find(name);
  const util::JsonValue* b = before.find("counters")->find(name);
  return (a ? a->as_number() : 0.0) - (b ? b->as_number() : 0.0);
}

class Client {
 public:
  Client(const Options& opt, std::vector<Job> jobs, Report& report)
      : opt_(opt), jobs_(std::move(jobs)), report_(report) {}

  ~Client() {
    for (Conn& c : conns_) net::close_fd(c.fd);
  }
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  void connect() {
    for (std::size_t i = 0; i < kConnections; ++i) {
      std::string error;
      Conn c;
      c.fd = net::connect_tcp("127.0.0.1", opt_.port, &error);
      if (c.fd < 0 || !net::set_nonblocking(c.fd)) {
        throw std::runtime_error("connect: " + error);
      }
      // Each request line is one small write: without TCP_NODELAY, Nagle
      // holds it back until the previous line's ACK arrives.
      const int one = 1;
      ::setsockopt(c.fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
      quick_ack(c.fd);
      conns_.push_back(std::move(c));
    }
  }

  /// Sends the arrivals (offset from this call in ns, job index) with
  /// `threads` in every job, round-robin over the first `nconn`
  /// connections, and waits for every answer (at most kDrainSeconds past
  /// the last due time; the rest are lost). Returns the request indices.
  std::vector<std::size_t> run(
      const std::vector<std::pair<std::uint64_t, std::size_t>>& arrivals,
      int threads, std::size_t nconn) {
    const std::uint64_t start = now_ns();
    ++run_;
    answered_ = 0;
    std::vector<std::size_t> ids;
    ids.reserve(arrivals.size());
    std::size_t next = 0;
    while (true) {
      std::uint64_t now = now_ns();
      while (next < arrivals.size() && start + arrivals[next].first <= now) {
        const std::size_t id = reqs_.size();
        reqs_.push_back({arrivals[next].second, threads, run_,
                         start + arrivals[next].first});
        ids.push_back(id);
        enqueue(conns_[next % nconn], id);
        ++next;
      }
      for (Conn& c : conns_) flush(c);
      if (next == arrivals.size() && answered_ == arrivals.size()) break;
      if (next == arrivals.size() &&
          now > start + arrivals.back().first +
                    static_cast<std::uint64_t>(kDrainSeconds * 1e9)) {
        break;  // the rest are lost
      }
      std::uint64_t wait_ns = 50'000'000;
      if (next < arrivals.size()) {
        const std::uint64_t due = start + arrivals[next].first;
        wait_ns = due > now ? due - now : 0;
      }
      poll_once(wait_ns);
    }
    return ids;
  }

  /// Sends a control line on connection 0 (nothing in flight) and returns
  /// the one-line answer.
  util::JsonValue control(const std::string& line) {
    Conn& c = conns_[0];
    c.wbuf += line + "\n";
    c.enqueued += line.size() + 1;
    control_reply_.reset();
    const std::uint64_t deadline =
        now_ns() + static_cast<std::uint64_t>(kDrainSeconds * 1e9);
    while (!control_reply_ && now_ns() < deadline) {
      flush(c);
      poll_once(50'000'000);
    }
    if (!control_reply_) throw std::runtime_error("no answer to " + line);
    return *control_reply_;
  }

  const Request& request(std::size_t id) const { return reqs_[id]; }
  std::size_t requests() const { return reqs_.size(); }

 private:
  void enqueue(Conn& c, std::size_t id) {
    const Request& r = reqs_[id];
    std::string line = "{\"id\":\"r" + std::to_string(id) + "\"," +
                       jobs_[r.job].body;
    if (r.threads > 1) line += ",\"threads\":" + std::to_string(r.threads);
    line += "}\n";
    c.unsent.emplace_back(c.enqueued, id);
    c.enqueued += line.size();
    c.wbuf += line;
  }

  void flush(Conn& c) {
    while (!c.wbuf.empty()) {
      const long n = ::send(c.fd, c.wbuf.data(), c.wbuf.size(), MSG_NOSIGNAL);
      if (n <= 0) {
        if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return;
        if (n < 0 && errno == EINTR) continue;
        throw std::runtime_error("send failed");
      }
      c.wbuf.erase(0, static_cast<std::size_t>(n));
      c.written += static_cast<std::uint64_t>(n);
      const std::uint64_t now = now_ns();
      while (!c.unsent.empty() && c.unsent.front().first < c.written) {
        reqs_[c.unsent.front().second].sent_ns = now;
        c.unsent.pop_front();
      }
    }
  }

  void poll_once(std::uint64_t wait_ns) {
    std::vector<pollfd> fds;
    for (const Conn& c : conns_) {
      fds.push_back({c.fd, static_cast<short>(POLLIN | (c.wbuf.empty() ? 0 : POLLOUT)),
                     0});
    }
    timespec ts{static_cast<time_t>(wait_ns / 1'000'000'000),
                static_cast<long>(wait_ns % 1'000'000'000)};
    const int ready = ::ppoll(fds.data(), fds.size(), &ts, nullptr);
    if (ready <= 0) return;
    for (std::size_t i = 0; i < fds.size(); ++i) {
      if (fds[i].revents & POLLOUT) flush(conns_[i]);
      if (fds[i].revents & (POLLIN | POLLHUP | POLLERR)) read_from(conns_[i]);
    }
  }

  /// The server writes each response as its own small segment without
  /// TCP_NODELAY, so Nagle holds a response until the previous one is
  /// ACKed; ACK at once (the kernel clears the flag, so re-arm per read).
  static void quick_ack(int fd) {
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_QUICKACK, &one, sizeof one);
  }

  void read_from(Conn& c) {
    char buf[65536];
    while (true) {
      const long n = ::read(c.fd, buf, sizeof buf);
      if (n < 0 && errno == EINTR) continue;
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
      if (n <= 0) throw std::runtime_error("server closed the connection");
      c.rbuf.append(buf, static_cast<std::size_t>(n));
    }
    quick_ack(c.fd);
    const std::uint64_t now = now_ns();
    std::size_t pos;
    while ((pos = c.rbuf.find('\n')) != std::string::npos) {
      handle_line(c.rbuf.substr(0, pos), now);
      c.rbuf.erase(0, pos + 1);
    }
  }

  void handle_line(const std::string& line, std::uint64_t now) {
    util::JsonValue v;
    try {
      v = util::parse_json(line);
    } catch (const std::exception& e) {
      report_.fail(std::string("unparsable response: ") + e.what());
      return;
    }
    const util::JsonValue* id = v.find("id");
    if (!id) {
      control_reply_ = std::move(v);
      return;
    }
    const std::string& s = id->as_string();
    const std::size_t idx = s.size() > 1 && s[0] == 'r'
                                ? std::stoull(s.substr(1))
                                : reqs_.size();
    if (idx >= reqs_.size() || reqs_[idx].answered) {
      report_.fail("response with an unknown id '" + s + "'");
      return;
    }
    Request& r = reqs_[idx];
    r.answered = true;
    r.done_ns = now;
    if (r.run == run_) ++answered_;
    if (const util::JsonValue* err = v.find("error")) {
      if (err->as_string() == "overloaded") {
        r.refused = true;
      } else {
        report_.fail("job error: " + err->as_string());
      }
      return;
    }
    if (jobs_[r.job].model.empty()) return;  // warm-up: nothing to compare
    const std::string bad = check(v, jobs_[r.job]);
    if (!bad.empty()) report_.fail("response " + s + ": " + bad);
  }

  static std::string check(const util::JsonValue& v, const Job& job) {
    const util::JsonValue* cost = v.find("cost");
    const util::JsonValue* m = v.find("matching");
    if (!cost || !m) return "no cost or matching";
    auto num = [](const util::JsonValue* o, const char* k) {
      const util::JsonValue* x = o->find(k);
      return x ? x->as_number() : -1.0;
    };
    const bool same =
        cost->find("model") && cost->find("model")->as_string() == job.model &&
        num(cost, "passes") == static_cast<double>(job.passes) &&
        num(cost, "rounds") == static_cast<double>(job.rounds) &&
        num(cost, "memory_peak_words") ==
            static_cast<double>(job.memory_peak_words) &&
        num(cost, "communication_words") ==
            static_cast<double>(job.communication_words) &&
        num(cost, "bb_invocations") == static_cast<double>(job.bb_invocations) &&
        num(cost, "bb_max_invocation_cost") ==
            static_cast<double>(job.bb_max_invocation_cost) &&
        num(m, "size") == static_cast<double>(job.size) &&
        num(m, "weight") == static_cast<double>(job.weight);
    return same ? "" : "counters differ from the in-process solve";
  }

  const Options& opt_;
  std::vector<Job> jobs_;
  Report& report_;
  std::vector<Conn> conns_;
  std::vector<Request> reqs_;
  std::size_t run_ = 0;       ///< current run() call
  std::size_t answered_ = 0;  ///< answers to the current run() so far
  std::optional<util::JsonValue> control_reply_;
};

/// Poisson arrivals at `rate` per second for `seconds`.
std::vector<std::pair<std::uint64_t, std::size_t>> poisson(double rate,
                                                           double seconds,
                                                           Rng& rng) {
  std::vector<std::pair<std::uint64_t, std::size_t>> out;
  double t = 0;
  while (true) {
    t += -std::log(1.0 - rng.next_double()) / rate;
    if (t >= seconds) break;
    out.emplace_back(static_cast<std::uint64_t>(t * 1e9), draw_job(rng));
  }
  return out;
}

struct OpenLoopStats {
  std::vector<double> latency_ms;  ///< answered, not refused
  /// The same latencies split by the second of the phase they were due in.
  std::vector<std::vector<double>> per_second_ms;
  std::vector<double> late_ms;
  std::size_t sent = 0, refused = 0, lost = 0;
  std::size_t backlog = 0;  ///< unanswered when the sending window closed

  /// The lowest of the phase's per-second q-quantiles. Host noise only
  /// ever adds latency, so the quietest second is the steadiest estimate
  /// of the server's own latency at this rate, unless a slow spell of the
  /// host covers the whole phase.
  double quietest_second(double q) const {
    double best = 0;
    for (const auto& w : per_second_ms) {
      if (w.empty()) continue;
      const double v = percentile(w, q);
      if (best == 0 || v < best) best = v;
    }
    return best;
  }
};

/// Latency from each request's due time; `start` and `seconds` frame the
/// sending window.
OpenLoopStats open_loop_stats(const Client& client,
                              const std::vector<std::size_t>& ids,
                              std::uint64_t start, double seconds) {
  OpenLoopStats s;
  const std::uint64_t window_end =
      start + static_cast<std::uint64_t>(seconds * 1e9);
  s.per_second_ms.resize(static_cast<std::size_t>(std::ceil(seconds)));
  for (std::size_t id : ids) {
    const Request& r = client.request(id);
    ++s.sent;
    if (r.sent_ns) s.late_ms.push_back(static_cast<double>(r.sent_ns - r.due_ns) / 1e6);
    if (!r.answered) {
      ++s.lost;
    } else if (r.refused) {
      ++s.refused;
    } else {
      const double ms = static_cast<double>(r.done_ns - r.due_ns) / 1e6;
      s.latency_ms.push_back(ms);
      const std::size_t second = (r.due_ns - start) / 1'000'000'000;
      s.per_second_ms[std::min(second, s.per_second_ms.size() - 1)].push_back(ms);
    }
    if (!r.answered || r.done_ns > window_end) ++s.backlog;
  }
  return s;
}

}  // namespace

Report run_serve_client(const Options& opt) {
  std::signal(SIGPIPE, SIG_IGN);
  Report report;
  report.workload = "serve";
  const bool warm_only = opt.phases == "warm";
  std::vector<Job> jobs = make_jobs(!warm_only, report);
  double ratio_min = 1.0;
  for (const Job& job : jobs) ratio_min = std::min(ratio_min, job.ratio);
  const std::size_t njobs = jobs.size();
  Client client(opt, std::move(jobs), report);
  client.connect();

  // Warm: each distinct job once, closed loop.
  const std::uint64_t w0 = now_ns();
  for (std::size_t j = 0; j < njobs; ++j) client.run({{0, j}}, 1, 1);
  report.e2e["warm_s"] = ms_since(w0) / 1e3;
  report.attempted = client.requests();
  if (warm_only) return report;

  // Closed-loop passes, with a HostProbe sample every kProbeEvery
  // requests. The t1 passes send one request at a time on one connection;
  // the parallel (t2) passes send kParallelThreads at a time, each on its
  // own connection, so both of the server's --jobs workers run at once.
  Rng rng(opt.seed * 7919 + 17);
  std::vector<std::size_t> order;
  for (int rep = 0; rep < kClosedReps; ++rep) {
    for (std::size_t j = 0; j < njobs; ++j) order.push_back(j);
  }
  rng.shuffle(order);
  std::vector<std::vector<double>> latency_ms[2];
  latency_ms[0].resize(njobs);
  latency_ms[1].resize(njobs);
  HostProbe host;
  for (int pass = 0; pass < 2 * kClosedPasses; ++pass) {
    const int ti = pass % 2;
    const std::size_t in_flight = ti == 0 ? 1 : kParallelThreads;
    for (std::size_t k = 0; k < order.size(); k += in_flight) {
      if (k % kProbeEvery < in_flight) host.sample();
      std::vector<std::pair<std::uint64_t, std::size_t>> batch;
      for (std::size_t i = k; i < std::min(order.size(), k + in_flight); ++i) {
        batch.emplace_back(0, order[i]);
      }
      for (std::size_t id : client.run(batch, 1, batch.size())) {
        const Request& r = client.request(id);
        if (!r.answered) {
          report.fail("closed-loop request lost");
          continue;
        }
        latency_ms[ti][r.job].push_back(
            static_cast<double>(r.done_ns - r.due_ns) / 1e6);
      }
    }
  }
  // A job's latency is its fastest of kClosedPasses x kClosedReps
  // requests: a request takes 0.1-2 ms, so a wake-up delay of the server or
  // the client can double one, and the fastest drops those. The open-loop
  // phases below replace the closed loop's percentiles and sat_rps with
  // their own.
  std::vector<double> job_ms[2];
  for (std::size_t ti = 0; ti < 2; ++ti) {
    for (const std::vector<double>& v : latency_ms[ti]) {
      job_ms[ti].push_back(*std::min_element(v.begin(), v.end()));
    }
  }
  closed_loop_metrics(job_ms, host, report);
  // run.py scales the set-up times it measures with the same factor.
  report.e2e["host_factor"] = host.factor();
  report.e2e["weight_ratio.min"] = ratio_min;
  report.attempted = client.requests();
  if (opt.phases == "closed") return report;

  // The two fixed rates; registry snapshots around the hi phase give the
  // server-side layers.
  const double fixed_s = kFixedRateShare * opt.seconds;
  const double probe_s = kProbeShare * opt.seconds;
  auto fixed_rate = [&](double rate, const char* suffix) {
    const auto arrivals = poisson(rate, fixed_s, rng);
    const std::uint64_t t0 = now_ns();
    const auto ids = client.run(arrivals, 1, kConnections);
    const OpenLoopStats s = open_loop_stats(client, ids, t0, fixed_s);
    report.e2e[std::string("p50_ms") + suffix] = s.quietest_second(0.5);
    report.e2e[std::string("p99_ms") + suffix] = s.quietest_second(0.99);
    report.refused += s.refused;
    if (s.lost) report.fail(std::to_string(s.lost) + " requests lost");
    return s;
  };
  fixed_rate(kRateLo, ".lo");
  const util::JsonValue before = client.control("metrics");
  const std::uint64_t hi0 = now_ns();
  const OpenLoopStats hi = fixed_rate(kRateHi, ".hi");
  const double hi_ns = static_cast<double>(now_ns() - hi0);
  const util::JsonValue after = client.control("metrics");

  // Saturation: from kProbeStart x the hi rate, step by kProbeStep up
  // (while rates pass) or down (while they miss) to bracket the highest
  // passing rate, then halve the bracket kRefineSteps times. A rate misses
  // when its p99 is over the limit, a backlog grows, or a request is
  // refused or lost; a miss counts only when a second probe at the same
  // rate misses too, so one stall on a shared host does not end the search.
  auto probe = [&](double rate) {
    const auto arrivals = poisson(rate, probe_s, rng);
    const std::uint64_t t0 = now_ns();
    const auto ids = client.run(arrivals, 1, kConnections);
    const OpenLoopStats s = open_loop_stats(client, ids, t0, probe_s);
    const double p99 = percentile(s.latency_ms, 0.99);
    const bool ok = s.refused == 0 && s.lost == 0 &&
                    p99 <= kP99LimitMs &&
                    s.backlog <= std::max<std::size_t>(10, s.sent / 50);
    std::cerr << "probe " << rate << " req/s: p99 " << p99 << " ms, backlog "
              << s.backlog << " of " << s.sent << (ok ? ", ok" : ", missed")
              << "\n";
    return ok;
  };
  auto meets_limit = [&](double rate) { return probe(rate) || probe(rate); };
  const double start = kProbeStart * kRateHi;
  double sat = 0, miss = 0;
  if (meets_limit(start)) {
    for (sat = start; sat < kMaxProbeFactor * kRateHi; sat *= kProbeStep) {
      if (!meets_limit(sat * kProbeStep)) {
        miss = sat * kProbeStep;
        break;
      }
    }
  } else {
    for (miss = start; miss > kRateLo; miss /= kProbeStep) {
      if (meets_limit(miss / kProbeStep)) {
        sat = miss / kProbeStep;
        break;
      }
    }
  }
  if (sat == 0) sat = kRateLo;  // nothing above the lo rate passed
  if (miss == 0) miss = sat * kProbeStep;
  for (int k = 0; k < kRefineSteps; ++k) {
    const double mid = std::sqrt(sat * miss);
    (meets_limit(mid) ? sat : miss) = mid;
  }
  report.e2e["sat_rps"] = sat;
  report.attempted = client.requests();

  auto& L = report.layers;
  L["service.queue_wait_ms.p50"] =
      delta_percentile(before, after, "service.queue_wait_ms", 0.5);
  L["service.queue_wait_ms.p99"] =
      delta_percentile(before, after, "service.queue_wait_ms", 0.99);
  L["service.solve_ms.p50"] =
      delta_percentile(before, after, "service.solve_ms", 0.5);
  L["net.request_ms.p99"] =
      delta_percentile(before, after, "net.request_ms", 0.99);
  const double hits = delta_counter(before, after, "cache.hits");
  const double misses = delta_counter(before, after, "cache.misses");
  L["cache.hit_frac"] = hits + misses > 0 ? hits / (hits + misses) : 0.0;
  L["net.rejected_overload"] =
      delta_counter(before, after, "net.rejected_overload");
  L["runtime.pool.busy_frac"] = delta_counter(before, after, "pool.busy_ns") /
                                (hi_ns * static_cast<double>(kServerJobs));
  L["runtime.pool.steals"] = delta_counter(before, after, "pool.steals");
  L["client.late_ms.p99"] = percentile(hi.late_ms, 0.99);
  report.table = {
      {"client.late", percentile(hi.late_ms, 0.5), percentile(hi.late_ms, 0.99),
       static_cast<double>(hi.sent)},
      {"service.queue_wait", L["service.queue_wait_ms.p50"],
       L["service.queue_wait_ms.p99"], hits + misses},
      {"service.solve", L["service.solve_ms.p50"],
       delta_percentile(before, after, "service.solve_ms", 0.99), hits + misses},
      {"net.request", delta_percentile(before, after, "net.request_ms", 0.5),
       L["net.request_ms.p99"], delta_counter(before, after, "net.requests_total")},
  };
  return report;
}

}  // namespace perfbench
