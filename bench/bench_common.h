// Shared helpers for the experiment harness (bench_e*). Each binary
// regenerates one "table" validating a theorem of the paper; see
// EXPERIMENTS.md for the index.
#pragma once

#include <chrono>
#include <iostream>
#include <string>

#include "graph/graph.h"
#include "graph/matching.h"
#include "sweep/sweep.h"
#include "util/json.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/table.h"

namespace wmatch::bench {

/// Common bench flags:
///   --threads=N   host threads for the runtime pool (default 1)
///   --json[=path] additionally dump the table as BENCH_<id>.json
struct Args {
  std::size_t threads = 1;
  bool json = false;
  std::string json_path;
};

inline Args parse_args(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string s = argv[i];
    if (s.rfind("--threads=", 0) == 0) {
      const std::string value = s.substr(10);
      try {
        if (value.empty() ||
            value.find_first_not_of("0123456789") != std::string::npos) {
          throw std::invalid_argument(value);
        }
        args.threads = static_cast<std::size_t>(std::stoul(value));
      } catch (const std::exception&) {  // non-numeric or out of range
        std::cerr << "error: --threads expects a non-negative integer, got '"
                  << value << "'\n";
        std::exit(2);
      }
    } else if (s == "--json") {
      args.json = true;
    } else if (s.rfind("--json=", 0) == 0) {
      args.json = true;
      args.json_path = s.substr(7);
    } else {
      std::cerr << "error: unknown flag '" << s
                << "' (supported: --threads=N, --json[=path])\n";
      std::exit(2);
    }
  }
  return args;
}

/// Writes the sweep's schema-versioned BENCH_<id>.json (or
/// args.json_path) when --json was passed. Returns false when the write
/// failed, so main can exit non-zero and CI catches the missing artifact
/// at the bench step.
inline bool maybe_write_json(const Args& args, const std::string& id,
                             const sweep::SweepResult& result) {
  return !args.json ||
         util::write_bench_json(
             args.json_path, id,
             [&](std::ostream& os) { result.print_bench_json(os); },
             std::cout, std::cerr);
}

/// Wall-clock milliseconds of one call.
template <typename F>
double time_ms(F&& f) {
  const auto t0 = std::chrono::steady_clock::now();
  f();
  const auto t1 = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::milli>(t1 - t0).count();
}

inline double ratio(Weight achieved, Weight optimal) {
  return optimal == 0 ? 1.0
                      : static_cast<double>(achieved) /
                            static_cast<double>(optimal);
}

inline std::string fmt_ratio(const Accumulator& acc) {
  return Table::fmt(acc.mean(), 4) + " ± " +
         Table::fmt(acc.ci95_halfwidth(), 4);
}

inline void header(const std::string& id, const std::string& claim) {
  std::cout << "=== " << id << " ===\n" << claim << "\n\n";
}

inline void footer(const std::string& expectation) {
  std::cout << "\nExpected shape: " << expectation << "\n\n";
}

}  // namespace wmatch::bench
