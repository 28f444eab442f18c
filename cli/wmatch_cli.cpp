// wmatch_cli — command-line front end to the unified solver API: list the
// solver registry, solve one instance, sweep a bench grid, run a JSONL job
// batch, serve jobs over TCP or stdio, and generate load against a server.
//
// Every flag is one entry of kFlags below, which drives both the parser and
// `wmatch_cli help`; run that for the command and flag reference (README.md
// embeds it verbatim). Unknown commands, flags and names, malformed flag
// values or job lines, and unreadable --input files exit 2 with a one-line
// error; runtime failures exit 1.
#include <atomic>
#include <csignal>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "api/api.h"
#include "exact/blossom.h"
#include "graph/io.h"
#include "net/net.h"
#include "obs/obs.h"
#include "service/service.h"
#include "sweep/presets.h"
#include "sweep/sweep.h"
#include "util/json.h"

namespace {

using namespace wmatch;

[[noreturn]] void usage_error(const std::string& msg) {
  std::cerr << "error: " << msg
            << "\nrun `wmatch_cli help` for the flag reference\n";
  std::exit(2);
}

/// RAII-ish session behind --trace=FILE, which main wraps around every
/// command: opens the output up front (an unwritable path is a usage
/// error, exit 2, like any other bad flag value), arms the span tracer,
/// and on finish() stops recording and writes the Chrome/Perfetto
/// trace-event document.
class TraceSession {
 public:
  explicit TraceSession(const std::string& path) : path_(path) {
    if (path_.empty()) return;
    os_.open(path_);
    if (!os_.good()) {
      usage_error("--trace: cannot open '" + path_ + "' for writing");
    }
    obs::set_thread_name("main");
    obs::reset_tracing();
    obs::start_tracing();
  }

  /// Returns the command's exit code contribution (1 on write failure).
  int finish() {
    if (path_.empty()) return 0;
    obs::stop_tracing();
    obs::write_chrome_trace(os_);
    os_.flush();
    if (!os_.good()) {
      std::cerr << "error: could not write trace " << path_ << "\n";
      return 1;
    }
    std::cerr << "wrote trace " << path_ << "\n";
    return 0;
  }

 private:
  std::string path_;
  std::ofstream os_;
};

std::size_t parse_size(const std::string& flag, const std::string& value) {
  try {
    if (value.empty() ||
        value.find_first_not_of("0123456789") != std::string::npos) {
      throw std::invalid_argument(value);
    }
    return static_cast<std::size_t>(std::stoull(value));
  } catch (const std::exception&) {  // non-numeric or out of range
    usage_error(flag + " expects a non-negative integer, got '" + value + "'");
  }
}

double parse_double(const std::string& flag, const std::string& value) {
  std::istringstream ss(value);
  double x;
  if (!(ss >> x) || !ss.eof()) {
    usage_error(flag + " expects a number, got '" + value + "'");
  }
  return x;
}

std::vector<std::string> split_list(const std::string& value) {
  std::vector<std::string> out;
  std::stringstream ss(value);
  std::string item;
  while (std::getline(ss, item, ',')) {
    if (!item.empty()) out.push_back(item);
  }
  return out;
}

std::string join(const std::vector<std::string>& names) {
  std::string out;
  for (const std::string& name : names) {
    if (!out.empty()) out += ", ";
    out += name;
  }
  return out;
}

std::string solver_names() {
  std::vector<std::string> known;
  for (const auto& info : api::Registry::instance().list()) {
    known.push_back(info.name);
  }
  return join(known);
}

/// Exits 2 with the list of known names — the registry lookup would also
/// throw, but as a generic std::invalid_argument that exits 1; flag typos
/// are usage errors and must say what IS available.
void require_known_solver(const std::string& name) {
  if (api::Registry::instance().contains(name)) return;
  usage_error("unknown solver '" + name + "' (known: " + solver_names() + ")");
}

void require_known_generator(const std::string& name) {
  if (api::is_known_generator(name)) return;
  usage_error("unknown generator '" + name +
              "' (known: " + join(api::known_generators()) + ")");
}

const char* const kWeightNames =
    "unit, uniform, exponential, polynomial, classes";
const char* const kOrderNames =
    "random, as-generated, increasing-weight, decreasing-weight, clustered";

gen::WeightDist parse_weights_flag(const std::string& value) {
  try {
    return api::parse_weight_dist(value);
  } catch (const std::exception&) {
    usage_error("--weights: unknown weight distribution '" + value +
                "' (known: " + kWeightNames + ")");
  }
}

api::ArrivalOrder parse_order_flag(const std::string& value) {
  try {
    return api::parse_arrival_order(value);
  } catch (const std::exception&) {
    usage_error("--order: unknown arrival order '" + value +
                "' (known: " + kOrderNames + ")");
  }
}

/// hard-planted-augs wing density: a probability, checked at parse time
/// so a bad value is a usage error (exit 2), not a runtime failure.
double parse_density(const std::string& flag, const std::string& value) {
  const double beta = parse_double(flag, value);
  if (beta < 0.0 || beta > 1.0) {
    usage_error(flag + " expects a density in [0,1], got '" + value + "'");
  }
  return beta;
}

double parse_epsilon(const std::string& flag, const std::string& value) {
  const double epsilon = parse_double(flag, value);
  api::check_epsilon(epsilon, flag);
  return epsilon;
}

/// TCP port flag value; `allow_zero` admits 0 ("ephemeral") for --listen.
int parse_port(const std::string& flag, const std::string& value,
               bool allow_zero) {
  const bool numeric =
      !value.empty() && value.size() <= 5 &&
      value.find_first_not_of("0123456789") == std::string::npos;
  const long p = numeric ? std::stol(value) : -1;
  if (p < (allow_zero ? 0 : 1) || p > net::kMaxPort) {
    usage_error(flag + " expects a port in [" + (allow_zero ? "0" : "1") +
                ", 65535], got '" + value + "'");
  }
  return static_cast<int>(p);
}

// ---- the flag table: one entry per (flag, commands) meaning ----

enum Command : unsigned {
  kList = 1u << 0,
  kSolve = 1u << 1,
  kBench = 1u << 2,
  kBatch = 1u << 3,
  kServe = 1u << 4,
  kLoadgen = 1u << 5,
};

// Command sets of the flag groups several commands share, each group
// declared once below: solver + instance-shape flags, service flags, BENCH
// document flags, --trace.
constexpr unsigned kSolveBench = kSolve | kBench;
constexpr unsigned kService = kBatch | kServe;
constexpr unsigned kBenchDoc = kBench | kBatch | kLoadgen;
constexpr unsigned kTraced = kSolve | kBench | kBatch | kServe | kLoadgen;

/// Every command's parsed flags; each command reads only its own fields.
struct Options {
  bool json = false;
  std::string json_path;  ///< --json=PATH (bench / batch / loadgen)
  std::string trace_path;
  std::string name;  ///< BENCH document id; empty = the command's default
  bool summary = false;
  // solve / bench
  std::vector<std::string> algos;
  api::GenSpec gen;  ///< solve's instance; bench's shape for every --gen
  bool shape_set = false;
  std::optional<double> delta;
  bool with_optimum = false;
  // solve
  std::string input_path;
  api::SolverSpec spec;
  // bench: grid axes and overrides of the preset's
  std::string preset;
  std::vector<std::string> gens;
  std::vector<double> epsilons;
  std::vector<std::size_t> threads;
  std::vector<std::uint64_t> seeds;
  std::optional<std::size_t> cell_jobs, reps, warmup;
  // batch / serve: batch reads `stdio`, `queue_capacity` and `scheduler`
  std::string file_path;
  net::ServerConfig serve;
  // loadgen
  net::LoadgenConfig loadgen;  ///< port 0 = no --connect given
};

/// Marks an instance-shape flag as given (bench rejects shape flags
/// alongside --preset) and returns the shape it sets.
api::GenSpec& shape(Options& o) {
  o.shape_set = true;
  return o.gen;
}

/// The typed knob set a solve flag writes into (--machines/--mem-words:
/// MpcKnobs, --p/--beta: RandomArrivalKnobs); a spec holds at most one.
template <typename Knobs>
Knobs& knobs(Options& o) {
  if (o.spec.knobs.index() == 0) o.spec.knobs = Knobs{};
  if (Knobs* k = std::get_if<Knobs>(&o.spec.knobs)) return *k;
  usage_error("--machines/--mem-words and --p/--beta are mutually "
              "exclusive (one typed knob set per spec)");
}

enum Arity { kSwitch, kValue, kOptional };  ///< --f, --f=V, --f[=V]

using Arg = const std::string&;

struct Flag {
  const char* name;
  unsigned commands;  ///< Command bits
  Arity arity;
  const char* metavar;
  const char* help;
  /// Stores the value; called with the flag's name for error messages.
  /// A std::invalid_argument it throws is a usage error.
  void (*set)(Options&, Arg flag, Arg value);
};

// Entries sharing a command set are contiguous: `help` prints one section
// per run of equal `commands`.
const Flag kFlags[] = {
    {"--json", kList | kSolve, kSwitch, "",
     "JSON on stdout (list: one array; solve: a line each)",
     [](Options& o, Arg, Arg) { o.json = true; }},

    {"--gen", kSolve, kValue, "NAME",
     "instance generator (default erdos_renyi)",
     [](Options& o, Arg, Arg v) {
       require_known_generator(v);
       o.gen.generator = v;
     }},
    {"--input", kSolve, kValue, "FILE",
     "load a DIMACS-style graph instead of generating",
     [](Options& o, Arg, Arg v) { o.input_path = v; }},
    {"--seed", kSolve, kValue, "S", "generation + solver seed (default 1)",
     [](Options& o, Arg f, Arg v) {
       o.gen.seed = o.spec.seed = parse_size(f, v);
     }},
    {"--epsilon", kSolve, kValue, "E", "accuracy in (0,1) (default 0.1)",
     [](Options& o, Arg f, Arg v) { o.spec.epsilon = parse_epsilon(f, v); }},
    {"--threads", kSolve, kValue, "T",
     "solver threads (0 = hardware concurrency)",
     [](Options& o, Arg f, Arg v) {
       o.spec.runtime.num_threads = parse_size(f, v);
     }},
    {"--machines", kSolve, kValue, "G", "MPC machines (0 = paper regime)",
     [](Options& o, Arg f, Arg v) {
       knobs<api::MpcKnobs>(o).num_machines = parse_size(f, v);
     }},
    {"--mem-words", kSolve, kValue, "S",
     "MPC words per machine (0 = paper regime)",
     [](Options& o, Arg f, Arg v) {
       knobs<api::MpcKnobs>(o).machine_memory_words = parse_size(f, v);
     }},
    {"--p", kSolve, kValue, "P",
     "random-arrival prefix fraction (0 = solver default)",
     [](Options& o, Arg f, Arg v) {
       knobs<api::RandomArrivalKnobs>(o).p = parse_double(f, v);
     }},
    {"--beta", kSolve, kValue, "B",
     "unw-rand-arrival beta (exclusive with MPC sizing)",
     [](Options& o, Arg f, Arg v) {
       knobs<api::RandomArrivalKnobs>(o).beta = parse_double(f, v);
     }},

    {"--algo", kSolveBench, kValue, "LIST", "comma-separated solver names",
     [](Options& o, Arg, Arg v) {
       for (const std::string& a : split_list(v)) {
         require_known_solver(a);
         o.algos.push_back(a);
       }
     }},
    {"--delta", kSolveBench, kValue, "D",
     "black-box slack in [0,1) (default 0 = epsilon/2)",
     [](Options& o, Arg f, Arg v) {
       o.delta = parse_double(f, v);
       api::check_delta(*o.delta, f);
     }},
    {"--with-optimum", kSolveBench, kSwitch, "",
     "also run exact Blossom and report ratios",
     [](Options& o, Arg, Arg) { o.with_optimum = true; }},
    {"--n", kSolveBench, kValue, "N", "vertices (default 1000)",
     [](Options& o, Arg f, Arg v) { shape(o).n = parse_size(f, v); }},
    {"--m", kSolveBench, kValue, "M", "edges (default 4000)",
     [](Options& o, Arg f, Arg v) { shape(o).m = parse_size(f, v); }},
    {"--attach", kSolveBench, kValue, "K",
     "barabasi_albert attachment degree (default 4)",
     [](Options& o, Arg f, Arg v) { shape(o).attach = parse_size(f, v); }},
    {"--radius", kSolveBench, kValue, "R",
     "geometric connection radius (default 0.08)",
     [](Options& o, Arg f, Arg v) { shape(o).radius = parse_double(f, v); }},
    {"--aug-length", kSolveBench, kValue, "L",
     "hard-long-path augmentation half-length (default 3)",
     [](Options& o, Arg f, Arg v) { shape(o).aug_length = parse_size(f, v); }},
    {"--gen-beta", kSolveBench, kValue, "B",
     "hard-planted-augs wing density in [0,1] (default 0.5)",
     [](Options& o, Arg f, Arg v) { shape(o).beta = parse_density(f, v); }},
    {"--weights", kSolveBench, kValue, "NAME",
     "weight distribution (default uniform)",
     [](Options& o, Arg, Arg v) { shape(o).weights = parse_weights_flag(v); }},
    {"--max-weight", kSolveBench, kValue, "W", "weight scale (default 4096)",
     [](Options& o, Arg f, Arg v) {
       shape(o).max_weight = static_cast<Weight>(parse_size(f, v));
     }},
    {"--order", kSolveBench, kValue, "NAME",
     "edge arrival order (default random)",
     [](Options& o, Arg, Arg v) { shape(o).order = parse_order_flag(v); }},

    {"--preset", kBench, kValue, "NAME",
     "named grid; its instances are fixed, axis flags override",
     [](Options& o, Arg, Arg v) { o.preset = v; }},
    {"--gen", kBench, kValue, "LIST",
     "generator axis, each with the instance shape above",
     [](Options& o, Arg, Arg v) {
       for (const std::string& g : split_list(v)) {
         require_known_generator(g);
         o.gens.push_back(g);
       }
     }},
    {"--epsilon", kBench, kValue, "LIST", "epsilon axis",
     [](Options& o, Arg f, Arg v) {
       for (Arg e : split_list(v)) o.epsilons.push_back(parse_epsilon(f, e));
     }},
    {"--threads", kBench, kValue, "LIST", "solver-thread axis",
     [](Options& o, Arg f, Arg v) {
       for (Arg t : split_list(v)) o.threads.push_back(parse_size(f, t));
     }},
    {"--seeds", kBench, kValue, "LIST", "seed axis",
     [](Options& o, Arg f, Arg v) {
       for (Arg s : split_list(v)) o.seeds.push_back(parse_size(f, s));
     }},
    {"--jobs", kBench, kValue, "N",
     "concurrent grid cells via the service scheduler",
     [](Options& o, Arg f, Arg v) { o.cell_jobs = parse_size(f, v); }},
    {"--reps", kBench, kValue, "R", "timed runs per cell",
     [](Options& o, Arg f, Arg v) { o.reps = parse_size(f, v); }},
    {"--warmup", kBench, kValue, "W", "untimed runs per cell",
     [](Options& o, Arg f, Arg v) { o.warmup = parse_size(f, v); }},

    {"--summary", kBench | kBatch, kSwitch, "",
     "bench: aggregate seeds; batch: job table on stderr",
     [](Options& o, Arg, Arg) { o.summary = true; }},

    {"--name", kBenchDoc, kValue, "ID",
     "BENCH document id (default: grid name, batch, loadgen)",
     [](Options& o, Arg, Arg v) { o.name = v; }},
    {"--json", kBenchDoc, kOptional, "PATH",
     "write BENCH_<name>.json (or PATH) for the CI gates",
     [](Options& o, Arg, Arg v) {
       o.json = true;
       o.json_path = v;
     }},

    {"--file", kBatch, kValue, "PATH",
     "JSONL job file (job schema: DESIGN.md section 6)",
     [](Options& o, Arg, Arg v) { o.file_path = v; }},

    {"--stdin", kService, kSwitch, "",
     "read jobs from stdin (serve: fd 0/1 is one connection)",
     [](Options& o, Arg, Arg) { o.serve.stdio = true; }},
    {"--jobs", kService, kValue, "N",
     "concurrent jobs (default 1, 0 = hardware threads)",
     [](Options& o, Arg f, Arg v) {
       o.serve.scheduler.jobs = parse_size(f, v);
     }},
    {"--threads", kService, kValue, "T",
     "override every job's solver thread count",
     [](Options& o, Arg f, Arg v) {
       o.serve.scheduler.threads_override = parse_size(f, v);
     }},
    {"--cache", kService, kValue, "N",
     "resident InstanceCache entries (default 16)",
     [](Options& o, Arg f, Arg v) {
       o.serve.scheduler.cache_capacity = parse_size(f, v);
     }},
    {"--queue", kService, kValue, "N",
     "job-queue capacity (default 256; full = overloaded)",
     [](Options& o, Arg f, Arg v) {
       o.serve.queue_capacity = parse_size(f, v);
     }},

    {"--listen", kServe, kValue, "PORT",
     "TCP on 127.0.0.1:PORT (0 = ephemeral, logged)",
     [](Options& o, Arg f, Arg v) {
       o.serve.listen_port = parse_port(f, v, /*allow_zero=*/true);
     }},
    {"--max-conns", kServe, kValue, "N",
     "connection ceiling (default 64; extra = overloaded)",
     [](Options& o, Arg f, Arg v) {
       o.serve.max_conns = parse_size(f, v);
       if (o.serve.max_conns == 0) usage_error("--max-conns must be >= 1");
     }},
    {"--idle-timeout", kServe, kValue, "SECS",
     "close idle connections after SECS (default 0 = never)",
     [](Options& o, Arg f, Arg v) {
       const std::size_t secs = parse_size(f, v);
       if (secs > 86400) usage_error("--idle-timeout must be <= 86400");
       o.serve.idle_timeout_s = static_cast<int>(secs);
     }},
    {"--metrics-out", kServe, kValue, "FILE",
     "append windowed stats JSONL; metrics.prom beside it",
     [](Options& o, Arg, Arg v) {
       if (v.empty()) usage_error("--metrics-out expects a file path");
       o.serve.metrics_out = v;
     }},

    {"--connect", kLoadgen, kValue, "HOST:PORT",
     "serve address (PORT alone = 127.0.0.1)",
     [](Options& o, Arg f, Arg v) {
       const std::size_t colon = v.rfind(':');  // npos + 1 == 0: bare PORT
       if (colon == 0) {
         usage_error("--connect expects HOST:PORT, got '" + v + "'");
       }
       if (colon != std::string::npos) o.loadgen.host = v.substr(0, colon);
       o.loadgen.port =
           parse_port(f, v.substr(colon + 1), /*allow_zero=*/false);
     }},
    {"--jobs-file", kLoadgen, kValue, "PATH",
     "JSONL job templates, cycled round-robin",
     [](Options& o, Arg, Arg v) { o.loadgen.jobs_file = v; }},
    {"--rate", kLoadgen, kValue, "R",
     "Poisson arrivals/sec, open loop (default 10)",
     [](Options& o, Arg f, Arg v) {
       o.loadgen.rate = parse_double(f, v);
       if (!(o.loadgen.rate > 0.0)) usage_error("--rate must be > 0");
     }},
    {"--duration", kLoadgen, kValue, "SEC",
     "sending window in seconds (default 5)",
     [](Options& o, Arg f, Arg v) {
       o.loadgen.duration_s = parse_double(f, v);
       if (!(o.loadgen.duration_s > 0.0)) usage_error("--duration must be > 0");
     }},
    {"--connections", kLoadgen, kValue, "C",
     "concurrent client sockets (default 1)",
     [](Options& o, Arg f, Arg v) {
       o.loadgen.connections = parse_size(f, v);
       if (o.loadgen.connections == 0) {
         usage_error("--connections must be >= 1");
       }
     }},
    {"--seed", kLoadgen, kValue, "S", "arrival-schedule seed (default 1)",
     [](Options& o, Arg f, Arg v) { o.loadgen.seed = parse_size(f, v); }},

    {"--trace", kTraced, kValue, "FILE",
     "write a Chrome/Perfetto trace-event JSON of the run",
     [](Options& o, Arg, Arg v) { o.trace_path = v; }},
};

struct CommandInfo {
  const char* name;
  Command bit;
  const char* summary;
  int (*run)(Options&);
};

Options parse_flags(const CommandInfo& cmd, int argc, char** argv) {
  Options opt;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    const std::size_t eq = arg.find('=');
    const bool has_value = eq != std::string::npos;
    const std::string name = arg.substr(0, eq);
    const Flag* flag = nullptr;
    for (const Flag& f : kFlags) {
      if ((f.commands & cmd.bit) != 0 && name == f.name) {
        flag = &f;
        break;
      }
    }
    // Also unknown: a switch given a value, a valued flag given none.
    if (flag == nullptr || flag->arity == (has_value ? kSwitch : kValue)) {
      usage_error(std::string("unknown ") + cmd.name + " flag '" + arg + "'");
    }
    try {
      flag->set(opt, name, has_value ? arg.substr(eq + 1) : std::string());
    } catch (const std::invalid_argument& e) {
      usage_error(e.what());
    }
  }
  return opt;
}

// ---- commands ----

int cmd_list(Options& opt) {
  const auto solvers = api::Registry::instance().list();
  if (opt.json) {
    std::cout << "[";
    for (std::size_t i = 0; i < solvers.size(); ++i) {
      const auto& s = solvers[i];
      if (i) std::cout << ',';
      std::cout << "{\"name\":";
      util::write_json_string(std::cout, s.name);
      std::cout << ",\"model\":";
      util::write_json_string(std::cout, s.model);
      std::cout << ",\"objective\":";
      util::write_json_string(std::cout, s.objective);
      std::cout << ",\"guarantee\":" << s.guarantee
                << ",\"bipartite_only\":" << (s.bipartite_only ? "true" : "false")
                << ",\"description\":";
      util::write_json_string(std::cout, s.description);
      std::cout << '}';
    }
    std::cout << "]\n";
    return 0;
  }
  Table t({"name", "model", "objective", "guarantee", "description"});
  for (const auto& s : solvers) {
    t.add_row({s.name, s.model, s.objective,
               s.guarantee > 0.0 ? Table::fmt(s.guarantee, 2) : "1-eps/heur",
               s.description});
  }
  t.print(std::cout);
  return 0;
}

int cmd_solve(Options& opt) {
  if (opt.algos.empty()) usage_error("solve requires --algo=NAME[,NAME...]");
  if (opt.delta) opt.spec.delta = *opt.delta;

  api::Instance inst;
  if (!opt.input_path.empty()) {
    // An unreadable or malformed input file is a usage error like any
    // other bad flag value: exit 2 with the loader's diagnostic (path or
    // line number) instead of surfacing as a generic runtime failure.
    try {
      inst = api::make_instance(io::load_graph(opt.input_path), opt.gen.order,
                                api::stream_seed_for(opt.gen.seed),
                                opt.input_path);
    } catch (const std::exception& e) {
      usage_error("--input=" + opt.input_path + ": " + e.what());
    }
  } else {
    inst = api::generate_instance(opt.gen);
  }

  // Each solver is compared against the optimum of its registered
  // objective: weight solvers against Blossom's max weight, cardinality
  // solvers against Blossom's max cardinality. Blossom dominates the wall
  // clock on large instances, so each optimum is computed only if some
  // requested solver has that objective.
  double opt_weight = -1.0, opt_size = -1.0;
  if (opt.with_optimum) {
    for (const std::string& algo : opt.algos) {
      const bool cardinality =
          api::Registry::instance().info(algo).objective == "cardinality";
      if (cardinality && opt_size < 0.0) {
        opt_size = static_cast<double>(
            exact::blossom_max_weight(inst.graph, true).size());
      } else if (!cardinality && opt_weight < 0.0) {
        opt_weight = static_cast<double>(
            exact::blossom_max_weight(inst.graph).weight());
      }
    }
  }

  std::vector<api::SolveResult> results;
  for (const std::string& algo : opt.algos) {
    api::SolveResult r = api::Solver(algo).solve(inst, opt.spec);
    if (opt.json) {
      const bool cardinality =
          api::Registry::instance().info(algo).objective == "cardinality";
      api::print_json(std::cout, r, inst, opt.spec,
                      cardinality ? opt_size : opt_weight);
    }
    results.push_back(std::move(r));
  }
  if (!opt.json) {
    std::cout << "instance: " << inst.name << "  n=" << inst.num_vertices()
              << " m=" << inst.num_edges()
              << (inst.is_bipartite() ? " (bipartite)" : "") << "  seed="
              << opt.gen.seed << "\n\n";
    api::result_table(results, opt_weight, opt_size).print(std::cout);
  }
  return 0;
}

int cmd_bench(Options& opt) {
  sweep::SweepSpec spec;
  if (!opt.preset.empty()) {
    if (!sweep::is_known_preset(opt.preset)) {
      usage_error("unknown bench preset '" + opt.preset +
                  "' (known: " + join(sweep::preset_names()) + ")");
    }
    if (!opt.gens.empty() || opt.shape_set) {
      usage_error("--gen and instance shape flags cannot override a "
                  "preset's instances; drop --preset to describe the grid "
                  "by hand");
    }
    spec = sweep::preset(opt.preset);
  } else {
    if (opt.algos.empty() || opt.gens.empty()) {
      usage_error("bench requires --preset=NAME or both --algo=LIST and "
                  "--gen=LIST");
    }
    for (const std::string& g : opt.gens) {
      api::GenSpec inst = opt.gen;
      inst.generator = g;
      spec.instances.push_back(std::move(inst));
    }
  }
  if (!opt.algos.empty()) spec.solvers = opt.algos;
  if (!opt.epsilons.empty()) spec.epsilons = opt.epsilons;
  if (!opt.threads.empty()) spec.threads = opt.threads;
  if (!opt.seeds.empty()) spec.seeds = opt.seeds;
  if (opt.cell_jobs) spec.jobs = *opt.cell_jobs;
  if (opt.reps) spec.repetitions = *opt.reps;
  if (opt.warmup) spec.warmup = *opt.warmup;
  if (opt.delta) spec.delta = *opt.delta;
  if (opt.with_optimum) spec.with_optimum = true;
  if (!opt.name.empty()) spec.name = opt.name;

  std::cout << "sweep '" << spec.name
            << "': " << sweep::expand_grid(spec).size() << " cells ("
            << spec.solvers.size() << " solvers x "
            << spec.instances.size() << " instances x "
            << spec.epsilons.size() << " epsilons x " << spec.threads.size()
            << " thread counts x " << spec.seeds.size() << " seeds)\n\n";
  const sweep::SweepResult result = sweep::run_sweep(spec);
  (opt.summary ? result.summary_table() : result.table()).print(std::cout);

  if (opt.json) {
    std::cout << "\n";
    if (!util::write_bench_json(
            opt.json_path, spec.name,
            [&](std::ostream& os) { result.print_bench_json(os); }, std::cout,
            std::cerr)) {
      return 1;
    }
  }
  return 0;
}

int cmd_batch(Options& opt) {
  if (opt.file_path.empty() && !opt.serve.stdio) {
    usage_error("batch requires --file=JOBS.jsonl or --stdin");
  }
  if (!opt.file_path.empty() && opt.serve.stdio) {
    usage_error("--file and --stdin are mutually exclusive");
  }
  const std::string name = opt.name.empty() ? "batch" : opt.name;

  std::ifstream file;
  if (!opt.file_path.empty()) {
    file.open(opt.file_path);
    if (!file.good()) {
      usage_error("--file: cannot open '" + opt.file_path + "' for reading");
    }
  }
  std::istream& in = opt.file_path.empty() ? std::cin : file;
  const std::string source =
      opt.file_path.empty() ? "<stdin>" : opt.file_path;

  // Producer thread parses and feeds the bounded queue (backpressure
  // against unbounded piped streams); the main thread joins the worker
  // set via run_stream. A malformed line is a usage error: the producer
  // stops feeding and discards the queued backlog (running jobs finish,
  // nothing new starts), and the process exits 2 without printing
  // partial results.
  service::Scheduler scheduler(opt.serve.scheduler);
  service::JobQueue queue(opt.serve.queue_capacity);
  std::string parse_error;
  std::thread producer([&] {
    std::string line;
    std::size_t line_no = 0, index = 0;
    while (std::getline(in, line)) {
      ++line_no;
      service::Submission s;
      s.index = index;
      try {
        if (!service::parse_job_line(line, source, line_no, index, &s.job)) {
          continue;
        }
      } catch (const std::exception& e) {
        parse_error = e.what();
        break;
      }
      ++index;
      if (!queue.push(std::move(s))) break;
    }
    queue.close(/*discard_pending=*/!parse_error.empty());
  });

  service::BatchResult result;
  try {
    result = scheduler.run_stream(queue);
  } catch (...) {
    // Unblock and join the producer before unwinding — destroying a
    // joinable std::thread would std::terminate instead of reporting the
    // failure through the normal exit-1 path.
    queue.close(/*discard_pending=*/true);
    producer.join();
    throw;
  }
  producer.join();
  if (!parse_error.empty()) usage_error(parse_error);

  for (const service::JobResult& r : result.results) {
    service::print_job_json(std::cout, r);
  }
  if (opt.summary) {
    result.table().print(std::cerr);
    std::cerr << "\n";
  }
  result.summary_table().print(std::cerr);

  if (opt.json &&
      !util::write_bench_json(
          opt.json_path, name,
          [&](std::ostream& os) { result.print_bench_json(os, name); },
          std::cerr, std::cerr)) {
    return 1;
  }
  if (result.failed() > 0) {
    std::cerr << "error: " << result.failed() << " job(s) failed\n";
    return 1;
  }
  return 0;
}

/// The serving net::Server, visible to the SIGINT/SIGTERM handlers.
/// request_drain() is async-signal-safe (one self-pipe write).
std::atomic<net::Server*> g_serve_server{nullptr};

extern "C" void serve_signal_handler(int) {
  net::Server* server = g_serve_server.load(std::memory_order_acquire);
  if (server != nullptr) server->request_drain();
}

int cmd_serve(Options& opt) {
  if (!opt.serve.stdio && opt.serve.listen_port < 0) {
    usage_error("serve requires --listen=PORT or --stdin");
  }

  // Both transports run the same net::Server connection handler —
  // --stdin is one pre-accepted connection on fd 0/1. Requests feed the
  // bounded JobQueue; results stream back per connection in completion
  // order; the input line "metrics" answers with an obs registry
  // snapshot; malformed lines answer {"error":...,"line":N} instead of
  // killing the session (docs/SERVING.md has the full protocol).
  net::Server server(opt.serve);
  try {
    server.start();
  } catch (const std::exception& e) {
    usage_error(e.what());
  }
  if (opt.serve.listen_port >= 0) {
    std::cerr << "serve: listening on 127.0.0.1:" << server.port() << "\n";
  }

  // SIGINT/SIGTERM trigger the graceful drain: stop accepting, finish
  // in-flight jobs, flush per-connection results, then fall through to
  // the final metrics snapshot below (stdin EOF takes the same path).
  g_serve_server.store(&server, std::memory_order_release);
  std::signal(SIGPIPE, SIG_IGN);  // dead peers are handled per-write
  std::signal(SIGINT, serve_signal_handler);
  std::signal(SIGTERM, serve_signal_handler);
  const net::ServeSummary summary = server.run(std::cerr);
  std::signal(SIGINT, SIG_DFL);
  std::signal(SIGTERM, SIG_DFL);
  g_serve_server.store(nullptr, std::memory_order_release);

  // Final metrics snapshot — emitted on EVERY exit path through the
  // drain (signal, socket shutdown, or stdin EOF mid-job).
  std::cerr << "serve: metrics ";
  obs::write_metrics_json(std::cerr);
  std::cerr << "\nserve: done connections=" << summary.connections
            << " requests=" << summary.requests
            << " rejected=" << summary.rejected
            << " parse_errors=" << summary.parse_errors << " cache_hits="
            << summary.batch.cache.hits << " wall_ms="
            << util::json_number(summary.batch.wall_ms_total) << "\n";
  return 0;
}

int cmd_loadgen(Options& opt) {
  if (opt.loadgen.port == 0) {
    usage_error("loadgen requires --connect=HOST:PORT");
  }
  if (opt.loadgen.jobs_file.empty()) {
    usage_error("loadgen requires --jobs-file=JOBS.jsonl");
  }
  if (!opt.name.empty()) opt.loadgen.name = opt.name;
  std::signal(SIGPIPE, SIG_IGN);  // a dying server must not kill the client

  net::LoadgenResult result;
  try {
    result = net::run_loadgen(opt.loadgen, std::cerr);
  } catch (const std::invalid_argument& e) {
    usage_error(e.what());  // bad config / unusable templates
  }
  if (opt.json &&
      !util::write_bench_json(
          opt.json_path, opt.loadgen.name,
          [&](std::ostream& os) {
            result.print_bench_json(os, opt.loadgen.name);
          },
          std::cerr, std::cerr)) {
    return 1;
  }
  if (result.errors > 0 || result.lost > 0) {
    std::cerr << "error: " << result.errors << " error response(s), "
              << result.lost << " lost request(s)\n";
    return 1;
  }
  return 0;
}

const CommandInfo kCommands[] = {
    {"list", kList, "print the registered solvers", cmd_list},
    {"solve", kSolve, "run the --algo solvers on one instance", cmd_solve},
    {"bench", kBench,
     "sweep a solver x instance grid (--preset, or --algo and --gen)",
     cmd_bench},
    {"batch", kBatch, "run a JSONL job stream (--file or --stdin)",
     cmd_batch},
    {"serve", kServe,
     "serve jobs over TCP (--listen) or --stdin; see docs/SERVING.md",
     cmd_serve},
    {"loadgen", kLoadgen,
     "open-loop load against serve --listen (--connect, --jobs-file)",
     cmd_loadgen},
};

/// Prints `names` after `label`, wrapped at 78 columns.
void print_names(std::ostream& os, const std::string& label,
                 const std::string& names) {
  std::string line = "  " + label + std::string(9 - label.size(), ' ');
  std::istringstream words(names);
  for (std::string word; words >> word;) {
    if (line.size() + word.size() >= 78) {
      os << line << "\n";
      line = std::string(11, ' ');
    }
    line += ' ';
    line += word;
  }
  os << line << "\n";
}

void print_help(std::ostream& os) {
  os << "usage: wmatch_cli <command> [flags]\n\ncommands:\n";
  for (const CommandInfo& c : kCommands) {
    os << "  " << std::left << std::setw(10) << c.name << c.summary << "\n";
  }
  os << "  help      this text\n";
  unsigned section = 0;
  for (const Flag& f : kFlags) {
    if (f.commands != section) {
      section = f.commands;
      std::vector<std::string> names;
      for (const CommandInfo& c : kCommands) {
        if (section & c.bit) names.push_back(c.name);
      }
      os << "\n" << join(names) << " flags:\n";
    }
    std::string usage = f.name;
    if (f.arity == kValue) usage += "=" + std::string(f.metavar);
    if (f.arity == kOptional) {
      usage += "[=" + std::string(f.metavar) + "]";
    }
    os << "  " << std::left << std::setw(19) << usage << ' ' << f.help << "\n";
  }
  os << "\nnames (an unknown name also lists them):\n";
  print_names(os, "--algo", solver_names());
  print_names(os, "--gen", join(api::known_generators()));
  print_names(os, "--weights", kWeightNames);
  print_names(os, "--order", kOrderNames);
  print_names(os, "--preset", join(sweep::preset_names()));
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    print_help(std::cout);
    return 2;
  }
  const std::string name = argv[1];
  if (name == "help" || name == "--help" || name == "-h") {
    print_help(std::cout);
    return 0;
  }
  for (const CommandInfo& cmd : kCommands) {
    if (name != cmd.name) continue;
    try {
      Options opt = parse_flags(cmd, argc, argv);
      TraceSession trace(opt.trace_path);
      const int rc = cmd.run(opt);
      const int trace_rc = trace.finish();
      return rc != 0 ? rc : trace_rc;
    } catch (const std::exception& e) {
      std::cerr << "error: " << e.what() << "\n";
      return 1;
    }
  }
  usage_error("unknown command '" + name + "'");
}
