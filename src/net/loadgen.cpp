#include "net/loadgen.h"

#include <poll.h>
#include <sys/socket.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <unordered_map>
#include <utility>
#include <vector>

#include "net/socket.h"
#include "obs/obs.h"
#include "service/jobfile.h"
#include "util/json.h"
#include "util/json_parse.h"
#include "util/rng.h"

namespace wmatch::net {

namespace {

/// Re-serializes a parsed JSON value (util/json_parse.h has no writer of
/// its own — the library's write side is util/json.h). json_number keeps
/// integral doubles integral, so a template line round-trips losslessly
/// for every field the job parser accepts.
void write_json_value(std::ostream& os, const util::JsonValue& v) {
  switch (v.type()) {
    case util::JsonValue::Type::kNull:
      os << "null";
      return;
    case util::JsonValue::Type::kBool:
      os << (v.as_bool() ? "true" : "false");
      return;
    case util::JsonValue::Type::kNumber:
      os << util::json_number(v.as_number());
      return;
    case util::JsonValue::Type::kString:
      util::write_json_string(os, v.as_string());
      return;
    case util::JsonValue::Type::kArray: {
      os << '[';
      bool first = true;
      for (const util::JsonValue& item : v.as_array()) {
        if (!first) os << ',';
        first = false;
        write_json_value(os, item);
      }
      os << ']';
      return;
    }
    case util::JsonValue::Type::kObject: {
      os << '{';
      bool first = true;
      for (const auto& [key, value] : v.as_object()) {
        if (!first) os << ',';
        first = false;
        util::write_json_string(os, key);
        os << ':';
        write_json_value(os, value);
      }
      os << '}';
      return;
    }
  }
}

/// One job template: the validated spec (identity for the BENCH key) and
/// the template's members minus "id", pre-serialized — each arrival
/// prepends its unique "lg-<conn>-<k>" id so completion-order responses
/// match back to send times.
struct Template {
  service::JobSpec spec;
  std::string body;  ///< `"algo":...,...` (no braces, no id member)
};

std::vector<Template> load_templates(const std::string& path) {
  std::ifstream is(path);
  if (!is.good()) {
    throw std::invalid_argument("--jobs-file: cannot open '" + path +
                                "' for reading");
  }
  std::vector<Template> templates;
  std::string line;
  std::size_t line_no = 0;
  while (std::getline(is, line)) {
    ++line_no;
    Template t;
    if (!service::parse_job_line(line, path, line_no, templates.size(),
                                 &t.spec)) {
      continue;  // blank or '#' comment
    }
    const util::JsonValue parsed = util::parse_json(line);
    std::ostringstream body;
    bool first = true;
    for (const auto& [key, value] : parsed.as_object()) {
      if (key == "id") continue;
      if (!first) body << ',';
      first = false;
      util::write_json_string(body, key);
      body << ':';
      write_json_value(body, value);
    }
    t.body = body.str();
    templates.push_back(std::move(t));
  }
  if (templates.empty()) {
    throw std::invalid_argument("--jobs-file: '" + path +
                                "' contains no job templates");
  }
  return templates;
}

struct ClientConn {
  int fd = -1;
  std::string inbuf;
  bool open = true;
};

struct Pending {
  /// The request's scheduled arrival time. Latency runs from here, not
  /// from when write_all returned: a send that blocks (the server's worker
  /// busy on this CPU) or starts late is part of what an open-loop client
  /// measures.
  std::uint64_t due_ns = 0;
  std::size_t tmpl = 0;
  /// Nonzero when the request carried a trace context ("trace":{"id":K})
  /// — the id of the "req" flow and client.request async span to close
  /// when the response (or the drain timeout) arrives.
  std::uint64_t trace_id = 0;
};

double ms_since(std::uint64_t t0_ns, std::uint64_t now_ns) {
  return static_cast<double>(now_ns - t0_ns) / 1e6;
}

/// Nearest-rank percentile of a SORTED sample; 0 when empty.
double percentile_sorted(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const double rank = std::ceil(q * static_cast<double>(sorted.size()));
  const std::size_t i =
      std::min(sorted.size() - 1,
               static_cast<std::size_t>(std::max(1.0, rank)) - 1);
  return sorted[i];
}

std::uint64_t counter_from(const util::JsonValue* obj, const char* key) {
  const util::JsonValue* v = obj == nullptr ? nullptr : obj->find(key);
  return v == nullptr ? 0 : static_cast<std::uint64_t>(v->as_number());
}

}  // namespace

LoadgenResult run_loadgen(const LoadgenConfig& config, std::ostream& log) {
  if (config.port < 1 || config.port > kMaxPort) {
    throw std::invalid_argument("--connect: port must be in [1, 65535]");
  }
  if (!(config.rate > 0.0)) {
    throw std::invalid_argument("--rate must be > 0");
  }
  if (!(config.duration_s > 0.0)) {
    throw std::invalid_argument("--duration must be > 0");
  }
  if (config.connections == 0) {
    throw std::invalid_argument("--connections must be >= 1");
  }
  if (config.jobs_file.empty()) {
    throw std::invalid_argument("loadgen requires --jobs-file=JOBS.jsonl");
  }
  const std::vector<Template> templates = load_templates(config.jobs_file);

  LoadgenResult res;
  res.templates.resize(templates.size());
  for (std::size_t t = 0; t < templates.size(); ++t) {
    res.templates[t].spec = templates[t].spec;
    res.templates[t].family = t;
  }

  // Connect, retrying until the deadline — in CI the server is launched
  // in the background moments before loadgen, so the first attempts may
  // land before the listener is bound. Waiting is a zero-fd poll()
  // (readiness primitive, not a clock read), per the determinism lint.
  std::vector<ClientConn> conns(config.connections);
  const std::uint64_t connect_deadline =
      obs::monotonic_ns() +
      static_cast<std::uint64_t>(config.connect_timeout_s * 1e9);
  std::size_t conn_index = 0;
  for (ClientConn& conn : conns) {
    obs::Span connect_span("client.connect",
                           static_cast<std::int64_t>(conn_index++));
    std::string error;
    for (;;) {
      conn.fd = connect_tcp(config.host, config.port, &error);
      if (conn.fd >= 0) break;
      if (obs::monotonic_ns() >= connect_deadline) {
        for (ClientConn& c : conns) close_fd(c.fd);
        throw std::runtime_error("--connect: cannot reach " + config.host +
                                 ":" + std::to_string(config.port) + ": " +
                                 error);
      }
      ::poll(nullptr, 0, 50);  // retry shortly
    }
  }
  log << "loadgen: " << conns.size() << " connection(s) to " << config.host
      << ":" << config.port << ", rate=" << util::json_number(config.rate)
      << "/s for " << util::json_number(config.duration_s) << "s over "
      << templates.size() << " template(s)\n";

  // Open loop: the whole arrival schedule is a pure function of --seed.
  // Exponential inter-arrival times at `rate` make the offered load a
  // Poisson process; arrivals cycle round-robin over connections and
  // templates.
  Rng rng(config.seed);
  auto next_gap_s = [&rng, &config] {
    return -std::log(1.0 - rng.next_double()) / config.rate;
  };

  std::unordered_map<std::string, Pending> pending;
  const std::uint64_t start = obs::monotonic_ns();
  const std::uint64_t duration_ns =
      static_cast<std::uint64_t>(config.duration_s * 1e9);
  const std::uint64_t drain_deadline =
      start + duration_ns +
      static_cast<std::uint64_t>(config.drain_timeout_s * 1e9);
  double next_arrival_s = next_gap_s();
  std::size_t arrival_k = 0;
  bool sending = true;
  std::uint64_t last_response = start;
  std::vector<pollfd> fds;

  auto stop_sending = [&] {
    sending = false;
    // Half-close every connection: the server sees EOF, finishes the
    // in-flight jobs, flushes their results, and closes — exactly the
    // drain handshake docs/SERVING.md prescribes for clients.
    for (ClientConn& conn : conns) {
      if (conn.open) ::shutdown(conn.fd, SHUT_WR);
    }
  };

  auto handle_response = [&](const std::string& line,
                             std::uint64_t now) {
    const std::string trimmed_probe = line.find_first_not_of(" \t\r") ==
                                              std::string::npos
                                          ? ""
                                          : line;
    if (trimmed_probe.empty()) return;
    util::JsonValue obj;
    try {
      obj = util::parse_json(line);
    } catch (const std::exception&) {
      ++res.errors;
      return;
    }
    const util::JsonValue* error = obj.find("error");
    const util::JsonValue* id = obj.find("id");
    const auto it = id != nullptr && id->is_string()
                        ? pending.find(id->as_string())
                        : pending.end();
    if (it == pending.end()) {
      // Connection-level rejection (or a response we never sent — both
      // count against the run, neither has a latency).
      if (error != nullptr) {
        ++(error->as_string() == "overloaded" ? res.overloaded : res.errors);
      }
      return;
    }
    TemplateStats& stats = res.templates[it->second.tmpl];
    const double latency = ms_since(it->second.due_ns, now);
    last_response = now;
    if (it->second.trace_id != 0) {
      // Close the client half of the request's telemetry: the "req" flow
      // terminates here ('f' bound to this client.recv slice) and the
      // client.request async span ends — whether the response was a
      // result, a rejection, or an error.
      obs::Span recv_span("client.recv",
                          static_cast<std::int64_t>(it->second.trace_id));
      obs::flow_end("req", it->second.trace_id);
      obs::async_end("client.request", it->second.trace_id);
    }
    if (error != nullptr) {
      if (error->as_string() == "overloaded") {
        ++res.overloaded;
        ++stats.overloaded;
      } else {
        ++res.errors;
        ++stats.errors;
      }
      pending.erase(it);
      return;
    }
    ++res.completed;
    stats.latency_ms.push_back(latency);
    const util::JsonValue* skipped = obj.find("skipped");
    if (skipped != nullptr && skipped->as_bool()) {
      ++stats.skipped;
      pending.erase(it);
      return;
    }
    ++stats.ok;
    if (stats.counters.empty()) {
      // First completed response fixes the template's exact counters —
      // the serve determinism contract makes every repetition identical.
      const util::JsonValue* inst = obj.find("instance");
      stats.n = static_cast<std::size_t>(counter_from(inst, "n"));
      stats.m = static_cast<std::size_t>(counter_from(inst, "m"));
      const util::JsonValue* cost = obj.find("cost");
      const util::JsonValue* matching = obj.find("matching");
      stats.counters = {
          {"passes", counter_from(cost, "passes")},
          {"rounds", counter_from(cost, "rounds")},
          {"memory_peak_words", counter_from(cost, "memory_peak_words")},
          {"communication_words", counter_from(cost, "communication_words")},
          {"bb_invocations", counter_from(cost, "bb_invocations")},
          {"bb_max_invocation_cost",
           counter_from(cost, "bb_max_invocation_cost")},
          {"matching_size", counter_from(matching, "size")},
          {"matching_weight", counter_from(matching, "weight")},
      };
    }
    pending.erase(it);
  };

  for (;;) {
    std::uint64_t now = obs::monotonic_ns();
    while (sending) {
      if (next_arrival_s >= config.duration_s) {
        stop_sending();
        break;
      }
      const std::uint64_t due =
          start + static_cast<std::uint64_t>(next_arrival_s * 1e9);
      if (due > now) break;
      const std::size_t c = arrival_k % conns.size();
      const std::size_t t = arrival_k % templates.size();
      const std::string id =
          "lg-" + std::to_string(c) + "-" + std::to_string(arrival_k);
      ClientConn& conn = conns[c];
      if (conn.open) {
        obs::Span send_span("client.send",
                            static_cast<std::int64_t>(arrival_k));
        // Stamp a trace context only when this process is tracing: the
        // id (arrival index + 1, so never 0) names the cross-process
        // "req" flow, and sent_ns is our monotonic clock for the merged
        // timeline. The server treats the field as telemetry only.
        std::uint64_t trace_id = 0;
        std::ostringstream line;
        line << "{\"id\":";
        util::write_json_string(line, id);
        if (!templates[t].body.empty()) line << ',' << templates[t].body;
        if (obs::tracing_enabled()) {
          trace_id = static_cast<std::uint64_t>(arrival_k) + 1;
          line << ",\"trace\":{\"id\":" << trace_id
               << ",\"sent_ns\":" << obs::monotonic_ns() << '}';
        }
        line << "}\n";
        if (trace_id != 0) {
          // Begin the flow BEFORE the write: the server may admit the
          // request (and record its 't' step) before write_all even
          // returns, and the flow's 's' must timestamp-precede it.
          obs::flow_begin("req", trace_id);
          obs::async_begin("client.request", trace_id);
        }
        if (write_all(conn.fd, line.str())) {
          pending.emplace(id, Pending{due, t, trace_id});
          ++res.sent;
          ++res.templates[t].sent;
        } else {
          // Failed send: close the just-opened async interval so the
          // trace has no dangling client.request for a request that
          // never left this process.
          if (trace_id != 0) obs::async_end("client.request", trace_id);
          conn.open = false;  // server went away; remaining sends skip it
        }
      }
      ++arrival_k;
      next_arrival_s += next_gap_s();
      now = obs::monotonic_ns();
    }

    bool any_open = false;
    for (const ClientConn& conn : conns) any_open |= conn.open;
    if (!sending && (pending.empty() || !any_open)) break;
    if (!sending && now >= drain_deadline) break;
    if (!any_open && pending.empty()) break;

    fds.clear();
    for (const ClientConn& conn : conns) {
      if (conn.open) fds.push_back({conn.fd, POLLIN, 0});
    }
    int timeout_ms = 250;
    if (sending) {
      const std::uint64_t due =
          start + static_cast<std::uint64_t>(next_arrival_s * 1e9);
      timeout_ms = due <= now
                       ? 0
                       : static_cast<int>(
                             std::min<std::uint64_t>((due - now) / 1000000,
                                                     250));
    }
    const int rc = ::poll(fds.data(), fds.size(), timeout_ms);
    if (rc < 0 && errno != EINTR) break;
    if (rc <= 0) continue;

    std::size_t fi = 0;
    for (ClientConn& conn : conns) {
      if (!conn.open) continue;
      const pollfd& p = fds[fi++];
      if ((p.revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
      const long n = read_some(conn.fd, &conn.inbuf);
      const std::uint64_t recv_now = obs::monotonic_ns();
      if (n == 0 || (n < 0 && errno != EAGAIN && errno != EWOULDBLOCK)) {
        conn.open = false;
      }
      consume_lines(&conn.inbuf, [&](const std::string& line) {
        handle_response(line, recv_now);
      });
    }
  }

  for (ClientConn& conn : conns) close_fd(conn.fd);
  res.lost = pending.size();
  // Requests the drain timeout abandoned still close their async spans so
  // the trace has no dangling client.request intervals (their "req" flow
  // simply never reaches 'f' — visibly incomplete, as it should be).
  for (const auto& [id, p] : pending) {
    if (p.trace_id != 0) obs::async_end("client.request", p.trace_id);
  }
  res.wall_ms = ms_since(start, std::max(last_response, obs::monotonic_ns()));

  std::vector<double> all;
  for (TemplateStats& stats : res.templates) {
    std::sort(stats.latency_ms.begin(), stats.latency_ms.end());
    all.insert(all.end(), stats.latency_ms.begin(), stats.latency_ms.end());
  }
  std::sort(all.begin(), all.end());
  res.latency_p50 = percentile_sorted(all, 0.50);
  res.latency_p95 = percentile_sorted(all, 0.95);
  res.latency_p99 = percentile_sorted(all, 0.99);
  if (!all.empty()) {
    double sum = 0.0;
    for (double x : all) sum += x;
    res.latency_mean = sum / static_cast<double>(all.size());
    res.latency_max = all.back();
  }
  res.print_summary(log);
  return res;
}

void LoadgenResult::print_summary(std::ostream& os) const {
  os << "loadgen: sent=" << sent << " completed=" << completed
     << " overloaded=" << overloaded << " errors=" << errors
     << " lost=" << lost
     << " p50_ms=" << util::json_number(latency_p50)
     << " p95_ms=" << util::json_number(latency_p95)
     << " p99_ms=" << util::json_number(latency_p99) << "\n";
}

void LoadgenResult::print_bench_json(std::ostream& os,
                                     const std::string& name) const {
  // Mirrors BatchResult::print_bench_json closely enough that
  // scripts/check_bench_regression.py gates the counters and
  // scripts/append_bench_history.py reads the latency trajectory without
  // knowing which front end produced the document. wall_ms.median of
  // each results entry is the template's median END-TO-END latency —
  // informational for the gate, the headline number for the history.
  os << "{\"bench\":";
  util::write_json_string(os, name);
  os << ",\"schema_version\":1";
  os << ",\"service\":{\"jobs\":" << completed
     << ",\"succeeded\":" << (completed >= skipped_total()
                                  ? completed - skipped_total()
                                  : 0)
     << ",\"skipped\":" << skipped_total() << ",\"failed\":" << errors
     << ",\"wall_ms_total\":" << util::json_number(wall_ms)
     << ",\"throughput_jobs_per_sec\":"
     << util::json_number(wall_ms > 0.0
                              ? 1000.0 * static_cast<double>(completed) /
                                    wall_ms
                              : 0.0)
     << ",\"latency_ms_mean\":" << util::json_number(latency_mean)
     << ",\"latency_ms_max\":" << util::json_number(latency_max) << "}";
  os << ",\"loadgen\":{\"sent\":" << sent << ",\"completed\":" << completed
     << ",\"overloaded\":" << overloaded << ",\"errors\":" << errors
     << ",\"lost\":" << lost
     << ",\"latency_ms\":{\"p50\":" << util::json_number(latency_p50)
     << ",\"p95\":" << util::json_number(latency_p95)
     << ",\"p99\":" << util::json_number(latency_p99) << "}}";
  os << ",\"results\":[";
  bool first = true;
  for (const TemplateStats& t : templates) {
    if (!first) os << ',';
    first = false;
    const service::JobSpec& spec = t.spec;
    os << "{\"algorithm\":";
    util::write_json_string(os, spec.solver);
    os << ",\"generator\":";
    util::write_json_string(
        os, spec.is_generated() ? spec.gen().generator : "file");
    os << ",\"instance\":";
    util::write_json_string(os, spec.id);
    os << ",\"family\":" << t.family << ",\"n\":" << t.n << ",\"m\":" << t.m
       << ",\"epsilon\":" << util::json_number(spec.spec.epsilon)
       << ",\"threads\":" << spec.spec.runtime.num_threads
       << ",\"seed\":" << spec.spec.seed;
    // A template with no successful completion (never admitted, or a
    // bipartite-only skip) publishes as skipped — no counters to gate.
    const bool skipped = t.ok == 0;
    os << ",\"skipped\":" << (skipped ? "true" : "false");
    os << ",\"samples\":" << t.sent;
    if (!skipped) {
      os << ",\"counters\":{";
      bool cfirst = true;
      for (const auto& [cname, value] : t.counters) {
        if (!cfirst) os << ',';
        cfirst = false;
        util::write_json_string(os, cname);
        os << ':' << value;
      }
      os << '}';
      const double median = percentile_sorted(t.latency_ms, 0.50);
      const double min =
          t.latency_ms.empty() ? 0.0 : t.latency_ms.front();
      os << ",\"wall_ms\":{\"median\":" << util::json_number(median)
         << ",\"min\":" << util::json_number(min) << '}';
    }
    os << '}';
  }
  os << "]}\n";
}

std::size_t LoadgenResult::skipped_total() const {
  std::size_t k = 0;
  for (const TemplateStats& t : templates) k += t.skipped;
  return k;
}

}  // namespace wmatch::net
