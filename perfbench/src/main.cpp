// wmatch_perf: the benchmark's measuring process. run.py starts it once
// per run and reads the JSON report it prints as its last stdout line.
//
//   wmatch_perf reduce|stream --seed=S --seconds=T [--trace]
//   wmatch_perf serve-client --port=P --seed=S --seconds=T
//               [--phases=warm|closed|all]
//   wmatch_perf selftest        TimingMatcher identity check only
//
// Exit status: 0 when every output check passed, 1 when one failed, 2 on
// a usage error.
#include <exception>
#include <iostream>
#include <string>

#include "common.h"

namespace {

bool take(const std::string& arg, const std::string& flag, std::string* value) {
  if (arg.rfind(flag + "=", 0) != 0) return false;
  *value = arg.substr(flag.size() + 1);
  return true;
}

int usage(const std::string& why) {
  std::cerr << "wmatch_perf: " << why << "\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage("missing subcommand");
  const std::string cmd = argv[1];
  perfbench::Options opt;
  try {
    for (int i = 2; i < argc; ++i) {
      const std::string arg = argv[i];
      std::string v;
      if (take(arg, "--seed", &v)) {
        opt.seed = std::stoull(v);
      } else if (take(arg, "--seconds", &v)) {
        opt.seconds = std::stod(v);
      } else if (take(arg, "--port", &v)) {
        opt.port = std::stoi(v);
      } else if (arg == "--trace") {
        opt.trace = true;
      } else if (take(arg, "--phases", &v)) {
        if (v != "warm" && v != "closed" && v != "all") {
          return usage("--phases must be warm, closed or all");
        }
        opt.phases = v;
      } else {
        return usage("unknown flag '" + arg + "'");
      }
    }
  } catch (const std::exception&) {
    return usage("bad flag value");
  }

  perfbench::Report report;
  try {
    if (cmd == "reduce") {
      report = perfbench::run_reduce(opt);
    } else if (cmd == "stream") {
      report = perfbench::run_stream(opt);
    } else if (cmd == "serve-client") {
      if (opt.port <= 0) return usage("serve-client needs --port");
      report = perfbench::run_serve_client(opt);
    } else if (cmd == "selftest") {
      report.workload = "selftest";
      perfbench::timing_matcher_selftest(report);
    } else {
      return usage("unknown subcommand '" + cmd + "'");
    }
  } catch (const std::exception& e) {
    report.fail(std::string("exception: ") + e.what());
  }
  report.e2e["rss_mb"] = perfbench::peak_rss_mb();
  report.print(std::cout);
  return report.errors.empty() ? 0 : 1;
}
