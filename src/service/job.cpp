#include "service/job.h"

#include <fstream>
#include <ostream>
#include <sstream>
#include <stdexcept>

#include "util/json.h"

namespace wmatch::service {

namespace {

/// FNV-1a over the file bytes: cheap, stable, and keyed on content so two
/// paths to the same graph share one cache entry and an edited file never
/// serves a stale instance in a long `serve` session. Hashing runs before
/// the load, so an unreadable file throws the message io::load_graph would.
std::uint64_t hash_file(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  if (!is.good()) {
    throw std::invalid_argument("cannot open '" + path + "' for reading");
  }
  std::uint64_t h = 0xcbf29ce484222325ULL;
  char buf[4096];
  while (is.read(buf, sizeof(buf)) || is.gcount() > 0) {
    const std::streamsize got = is.gcount();
    for (std::streamsize i = 0; i < got; ++i) {
      h ^= static_cast<unsigned char>(buf[i]);
      h *= 0x100000001b3ULL;
    }
    if (!is) break;
  }
  return h;
}

/// ,"wall_ms":{"median":...,"min":...},"stats":{...} — the closing keys
/// of both the per-job line and a BENCH results entry.
void write_wall_and_stats(std::ostream& os, const JobResult& r) {
  os << ",\"wall_ms\":{\"median\":" << util::json_number(r.wall_ms_median)
     << ",\"min\":" << util::json_number(r.wall_ms_min) << '}';
  os << ",\"stats\":{";
  bool first = true;
  for (const auto& [name, value] : r.stats) {
    if (!first) os << ',';
    first = false;
    util::write_json_string(os, name);
    os << ':' << util::json_number(value);
  }
  os << '}';
}

}  // namespace

std::string cache_key(const JobSpec& job) {
  std::ostringstream key;
  if (job.is_generated()) {
    const api::GenSpec& g = job.gen();
    key << "gen:" << g.generator << ";n=" << g.n << ";m=" << g.m
        << ";attach=" << g.attach << ";radius=" << g.radius
        << ";aug_length=" << g.aug_length << ";beta=" << g.beta
        << ";weights=" << api::to_string(g.weights)
        << ";max_weight=" << g.max_weight
        << ";order=" << api::to_string(g.order) << ";seed=" << g.seed;
  } else {
    const FileSource& f = job.file();
    key << "file:" << std::hex << hash_file(f.path) << std::dec
        << ";order=" << api::to_string(f.order);
    // Only the random order consumes a stream seed; the deterministic
    // orders produce one stream per content hash regardless of job seed.
    if (f.order == api::ArrivalOrder::kRandom) {
      key << ";oseed=" << api::stream_seed_for(job.spec.seed);
    }
  }
  return key.str();
}

void print_job_json(std::ostream& os, const JobResult& r) {
  os << "{\"id\":";
  util::write_json_string(os, r.id);
  if (!r.ok()) {
    os << ",\"algorithm\":";
    util::write_json_string(os, r.solver);
    os << ",\"error\":";
    util::write_json_string(os, r.error);
    os << "}\n";
    return;
  }
  os << ",\"algorithm\":";
  util::write_json_string(os, r.solver);
  os << ",\"instance\":{\"name\":";
  util::write_json_string(os, r.instance_name);
  os << ",\"n\":" << r.n << ",\"m\":" << r.m << '}'
     << ",\"skipped\":" << (r.skipped ? "true" : "false")
     << ",\"cache_hit\":" << (r.cache_hit ? "true" : "false");
  if (r.skipped) {
    os << "}\n";
    return;
  }
  const api::CostReport& c = r.cost;
  os << ",\"cost\":{\"model\":";
  util::write_json_string(os, c.model);
  os << ",\"passes\":" << c.passes << ",\"rounds\":" << c.rounds
     << ",\"memory_peak_words\":" << c.memory_peak_words
     << ",\"communication_words\":" << c.communication_words
     << ",\"bb_invocations\":" << c.bb_invocations
     << ",\"bb_max_invocation_cost\":" << c.bb_max_invocation_cost
     << ",\"wall_ms\":" << util::json_number(c.wall_ms) << '}';
  os << ",\"matching\":{\"size\":" << r.matching_size
     << ",\"weight\":" << r.matching_weight;
  if (r.has_ratio()) {
    os << ",\"optimum\":" << util::json_number(r.optimum)
       << ",\"ratio\":" << util::json_number(r.ratio());
  }
  os << '}';
  write_wall_and_stats(os, r);
  os << "}\n";
}

void write_bench_result_tail(std::ostream& os, const JobResult& r) {
  const api::CostReport& c = r.cost;
  os << ",\"counters\":{\"passes\":" << c.passes << ",\"rounds\":" << c.rounds
     << ",\"memory_peak_words\":" << c.memory_peak_words
     << ",\"communication_words\":" << c.communication_words
     << ",\"bb_invocations\":" << c.bb_invocations
     << ",\"bb_max_invocation_cost\":" << c.bb_max_invocation_cost
     << ",\"matching_size\":" << r.matching_size
     << ",\"matching_weight\":" << r.matching_weight << '}';
  if (r.has_ratio()) {
    os << ",\"optimum\":" << util::json_number(r.optimum)
       << ",\"ratio\":" << util::json_number(r.ratio());
  }
  write_wall_and_stats(os, r);
}

}  // namespace wmatch::service
