#include "service/jobfile.h"

#include <cmath>
#include <istream>
#include <stdexcept>

#include "api/registry.h"
#include "util/json_parse.h"

namespace wmatch::service {

namespace {

[[noreturn]] void bad(const std::string& what) {
  throw std::invalid_argument(what);
}

std::size_t as_size(const util::JsonValue& v, const char* key) {
  const double x = v.as_number();
  if (x < 0.0 || std::floor(x) != x || x > 9e15) {
    bad(std::string("\"") + key + "\" expects a non-negative integer");
  }
  return static_cast<std::size_t>(x);
}

std::string join(const std::vector<std::string>& names) {
  std::string out;
  for (const std::string& name : names) {
    if (!out.empty()) out += ", ";
    out += name;
  }
  return out;
}

api::GenSpec parse_gen(const util::JsonValue& v) {
  api::GenSpec gen;
  if (v.is_string()) {
    gen.generator = v.as_string();
  } else {
    for (const auto& [key, val] : v.as_object()) {
      if (key == "generator") gen.generator = val.as_string();
      else if (key == "n") gen.n = as_size(val, "n");
      else if (key == "m") gen.m = as_size(val, "m");
      else if (key == "attach") gen.attach = as_size(val, "attach");
      else if (key == "radius") gen.radius = val.as_number();
      else if (key == "aug_length") gen.aug_length = as_size(val, "aug_length");
      else if (key == "beta") gen.beta = val.as_number();
      else if (key == "weights") gen.weights = api::parse_weight_dist(val.as_string());
      else if (key == "max_weight") gen.max_weight = static_cast<Weight>(as_size(val, "max_weight"));
      else if (key == "order") gen.order = api::parse_arrival_order(val.as_string());
      else bad("unknown \"gen\" key \"" + key + "\"");
    }
  }
  if (!api::is_known_generator(gen.generator)) {
    bad("unknown generator '" + gen.generator +
        "' (known: " + join(api::known_generators()) + ")");
  }
  if (const std::string error = api::gen_spec_error(gen); !error.empty()) {
    bad("\"gen\" " + error);
  }
  if (gen.generator == "hard-planted-augs" &&
      (gen.beta < 0.0 || gen.beta > 1.0)) {
    bad("\"gen\" \"beta\" expects a density in [0,1]");
  }
  return gen;
}

void parse_trace(const util::JsonValue& v, JobSpec* job) {
  if (!v.is_object()) {
    bad("\"trace\" expects an object {\"id\":N,\"sent_ns\":N}");
  }
  bool have_id = false;
  for (const auto& [key, val] : v.as_object()) {
    if (key == "id") {
      job->trace_id = as_size(val, "trace id");
      have_id = true;
    } else if (key == "sent_ns") {
      job->trace_sent_ns = as_size(val, "trace sent_ns");
    } else {
      bad("unknown \"trace\" key \"" + key + "\"");
    }
  }
  if (!have_id || job->trace_id == 0) {
    bad("\"trace\" needs a nonzero \"id\"");
  }
}

FileSource parse_input(const util::JsonValue& v) {
  FileSource f;
  if (v.is_string()) {
    f.path = v.as_string();
  } else {
    for (const auto& [key, val] : v.as_object()) {
      if (key == "path") f.path = val.as_string();
      else if (key == "order") f.order = api::parse_arrival_order(val.as_string());
      else bad("unknown \"input\" key \"" + key + "\"");
    }
  }
  if (f.path.empty()) bad("\"input\" needs a non-empty \"path\"");
  return f;
}

}  // namespace

JobSpec parse_job(const std::string& line) {
  const util::JsonValue v = util::parse_json(line);
  if (!v.is_object()) bad("a job line must be one JSON object");

  JobSpec job;
  bool have_gen = false, have_input = false;
  api::MpcKnobs mpc;
  api::RandomArrivalKnobs arrival;
  bool mpc_set = false, arrival_set = false;
  std::uint64_t seed = 1;

  for (const auto& [key, val] : v.as_object()) {
    if (key == "id") job.id = val.as_string();
    else if (key == "algo" || key == "solver") job.solver = val.as_string();
    else if (key == "gen") { job.source = parse_gen(val); have_gen = true; }
    else if (key == "input") { job.source = parse_input(val); have_input = true; }
    else if (key == "seed") seed = as_size(val, "seed");
    else if (key == "epsilon") job.spec.epsilon = val.as_number();
    else if (key == "delta") job.spec.delta = val.as_number();
    else if (key == "threads") job.spec.runtime.num_threads = as_size(val, "threads");
    else if (key == "reps") job.repetitions = as_size(val, "reps");
    else if (key == "warmup") job.warmup = as_size(val, "warmup");
    else if (key == "with_optimum") job.with_optimum = val.as_bool();
    else if (key == "machines") { mpc.num_machines = as_size(val, "machines"); mpc_set = true; }
    else if (key == "mem_words") { mpc.machine_memory_words = as_size(val, "mem_words"); mpc_set = true; }
    else if (key == "p") { arrival.p = val.as_number(); arrival_set = true; }
    else if (key == "beta") { arrival.beta = val.as_number(); arrival_set = true; }
    else if (key == "trace") parse_trace(val, &job);
    else bad("unknown job key \"" + key + "\"");
  }

  if (job.solver.empty()) bad("a job needs \"algo\"");
  if (have_gen == have_input) {
    bad("a job needs exactly one of \"gen\" and \"input\"");
  }
  if (mpc_set && arrival_set) {
    bad("\"machines\"/\"mem_words\" and \"p\"/\"beta\" are mutually "
        "exclusive (one typed knob set per job)");
  }
  api::check_epsilon(job.spec.epsilon, "\"epsilon\"");
  api::check_delta(job.spec.delta, "\"delta\"");
  if (mpc_set) job.spec.knobs = mpc;
  if (arrival_set) job.spec.knobs = arrival;

  if (!api::Registry::instance().contains(job.solver)) {
    std::vector<std::string> known;
    for (const auto& info : api::Registry::instance().list()) {
      known.push_back(info.name);
    }
    bad("unknown solver '" + job.solver + "' (known: " + join(known) + ")");
  }

  job.spec.seed = seed;
  if (job.is_generated()) {
    api::GenSpec gen = job.gen();
    // The job seed drives generation AND the solver, like `solve --seed`
    // (the stream order decorrelates through stream_seed_for internally).
    gen.seed = seed;
    job.source = gen;
  }
  return job;
}

bool parse_job_line(const std::string& line, const std::string& source_name,
                    std::size_t line_no, std::size_t index, JobSpec* out) {
  const std::size_t first = line.find_first_not_of(" \t\r");
  if (first == std::string::npos || line[first] == '#') return false;
  try {
    *out = parse_job(line);
  } catch (const std::exception& e) {
    throw std::invalid_argument(source_name + ":" + std::to_string(line_no) +
                                ": " + e.what());
  }
  if (out->id.empty()) out->id = "job-" + std::to_string(index);
  return true;
}

std::vector<JobSpec> parse_jobs(std::istream& is,
                                const std::string& source_name) {
  std::vector<JobSpec> jobs;
  std::string line;
  std::size_t line_no = 0;
  while (std::getline(is, line)) {
    ++line_no;
    JobSpec job;
    if (parse_job_line(line, source_name, line_no, jobs.size(), &job)) {
      jobs.push_back(std::move(job));
    }
  }
  return jobs;
}

}  // namespace wmatch::service
