// Micro-benchmarks for the library's hot kernels: deterministic
// median-of-K timings for the reduction's hot path over the `ci`
// bipartite instance's classes (bench/hot_path.h) —
//   tau-pairs       pairs_for_values over every class's value sets
//   buckets         bucket_edges (buckets + gap index) for every class
//   layered-build   every class pair through one LayeredGraphBuilder
//                   (over the buckets above: a class pays both)
//   blossom         blossom_max_weight, weighted and max-cardinality,
//                   on the stream workload's random-arrival T set
//   hk-solve        a full hopcroft_karp solve of the serve workload's
//                   exact-hk instance (bipartite n=2000 m=8000)
// (their checksums equal the reference implementations', asserted by
// tests/test_tau.cpp, tests/test_layered_graph.cpp, tests/test_blossom.cpp
// and tests/test_hopcroft_karp.cpp), and for the layout primitives the
// immutable data plane introduced —
//   csr-neighbor-scan   (frozen CSR slot arrays, one full traversal)
//   hk-bfs-bitset       (the word-parallel HK layering pass; its
//      dist labels are checked against a serial BFS by
//      tests/test_graph_view.cpp)
//   arena-fork-scratch  vs  heap-fork-scratch
//     (per-class fork scratch from a reset Arena vs fresh heap
//      vectors every fork)
//
// Flags: `--threads=N` sizes the runtime pool (default 1) and
// `--json[=path]` writes a schema-versioned BENCH JSON document (kind
// "kernels", default BENCH_micro_kernels.json) that
// scripts/append_bench_history.py folds into the committed bench
// trajectory — informational wall-ms, not a gate; the exact-counter gates
// live elsewhere. The paper's experiments are `wmatch_cli bench
// --preset=eN`.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <iomanip>
#include <iostream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/layered_graph.h"
#include "core/tau.h"
#include "exact/blossom.h"
#include "exact/hopcroft_karp.h"
#include "gen/generators.h"
#include "gen/weights.h"
#include "hot_path.h"
#include "runtime/arena.h"
#include "runtime/thread_pool.h"
#include "util/bitset.h"
#include "util/json.h"
#include "util/rng.h"
#include "util/table.h"

namespace {

using namespace wmatch;

constexpr std::uint32_t kNoEdge = 0xffffffffu;

struct Args {
  std::size_t threads = 1;
  bool json = false;
  std::string json_path;
};

Args parse_args(int argc, char** argv) {
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

/// Wall-clock milliseconds of one call.
template <typename F>
double time_ms(F&& f) {
  const auto t0 = std::chrono::steady_clock::now();
  f();
  const auto t1 = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::milli>(t1 - t0).count();
}

Graph make_weighted(std::size_t n, std::size_t m, std::uint64_t seed) {
  Rng rng(seed);
  return gen::assign_weights(gen::erdos_renyi(n, m, rng),
                             gen::WeightDist::kExponential, 1 << 12, rng);
}

struct KernelResult {
  std::string id;
  double median_ms = 0.0;
  double min_ms = 0.0;
  std::uint64_t checksum = 0;
};

/// Times `body` (which returns a checksum) `reps` times; the checksum
/// must be identical across reps (the kernels are deterministic) and
/// doubles as the do-not-optimize sink.
template <typename F>
KernelResult run_kernel(const std::string& id, F&& body, int reps = 9) {
  KernelResult r;
  r.id = id;
  std::vector<double> times;
  times.reserve(static_cast<std::size_t>(reps));
  for (int i = 0; i < reps; ++i) {
    std::uint64_t sum = 0;
    times.push_back(time_ms([&] { sum = body(); }));
    if (i == 0) {
      r.checksum = sum;
    } else if (sum != r.checksum) {
      std::cerr << "error: kernel " << id << " checksum drifted across reps\n";
      std::exit(1);
    }
  }
  std::sort(times.begin(), times.end());
  r.median_ms = times[times.size() / 2];
  r.min_ms = times.front();
  return r;
}

// ---- CSR scan vs the legacy lazy-build layout ----

std::uint64_t csr_neighbor_scan(const GraphView& g) {
  std::uint64_t sum = 0;
  for (Vertex v = 0; v < g.num_vertices(); ++v) {
    const auto nbrs = g.neighbors(v);
    const auto wts = g.incident_weights(v);
    for (std::size_t i = 0; i < nbrs.size(); ++i) {
      sum += nbrs[i] + static_cast<std::uint64_t>(wts[i]);
    }
  }
  return sum;
}

// ---- HK BFS layering ----

struct BfsProblem {
  GraphView g;
  std::vector<char> in_left;
  std::vector<std::uint32_t> match_edge;
  std::vector<std::uint32_t> dist;
};

BfsProblem make_bfs_problem(std::size_t half, std::size_t m,
                            std::uint64_t seed) {
  BfsProblem p;
  Rng rng(seed);
  p.g = freeze(gen::random_bipartite(half, half, m, rng));
  p.in_left = exact::bipartition_of(p.g);
  for (char& c : p.in_left) c = static_cast<char>(1 - c);  // side 0 = left
  // A maximal (not maximum) matching leaves free vertices on both sides,
  // so the layering runs several levels deep.
  p.match_edge.assign(p.g.num_vertices(), kNoEdge);
  const auto edges = p.g.edges();
  for (std::uint32_t i = 0; i < edges.size(); ++i) {
    if (p.match_edge[edges[i].u] == kNoEdge &&
        p.match_edge[edges[i].v] == kNoEdge) {
      p.match_edge[edges[i].u] = i;
      p.match_edge[edges[i].v] = i;
    }
  }
  p.dist.assign(p.g.num_vertices(), 0);
  return p;
}

std::uint64_t bfs_checksum(BfsProblem& p, runtime::ThreadPool& pool) {
  const bool reached =
      exact::hk_bfs_layering(p.g, p.match_edge, p.in_left, p.dist, pool);
  std::uint64_t sum = reached ? 1 : 0;
  for (std::uint32_t d : p.dist) sum += d == 0xffffffffu ? 1 : d;
  return sum;
}

// ---- Fork scratch: arena reuse vs fresh heap ----

constexpr std::size_t kForks = 256;
constexpr std::size_t kScratchN = 4096;

std::uint64_t arena_fork_scratch(runtime::Arena& arena) {
  std::uint64_t sum = 0;
  for (std::size_t f = 0; f < kForks; ++f) {
    runtime::ArenaVector<std::uint32_t> dist(
        kScratchN, 0, runtime::ArenaAllocator<std::uint32_t>(&arena));
    runtime::ArenaVector<char> side(
        kScratchN, 0, runtime::ArenaAllocator<char>(&arena));
    runtime::ArenaVector<std::uint64_t> words(
        util::bitset_words(kScratchN), 0,
        runtime::ArenaAllocator<std::uint64_t>(&arena));
    dist[f % kScratchN] = static_cast<std::uint32_t>(f);
    side[f % kScratchN] = 1;
    words[f % words.size()] = f;
    sum += dist[f % kScratchN] + words[f % words.size()];
    arena.reset();  // the round-barrier discipline: reuse, don't free
  }
  return sum;
}

std::uint64_t heap_fork_scratch() {
  std::uint64_t sum = 0;
  for (std::size_t f = 0; f < kForks; ++f) {
    std::vector<std::uint32_t> dist(kScratchN, 0);
    std::vector<char> side(kScratchN, 0);
    std::vector<std::uint64_t> words(util::bitset_words(kScratchN), 0);
    dist[f % kScratchN] = static_cast<std::uint32_t>(f);
    side[f % kScratchN] = 1;
    words[f % words.size()] = f;
    sum += dist[f % kScratchN] + words[f % words.size()];
  }
  return sum;
}

void write_kernels_json(std::ostream& os,
                        const std::vector<KernelResult>& results) {
  os << "{\n \"bench\": \"micro_kernels\",\n \"schema_version\": 1,\n"
     << " \"kind\": \"kernels\",\n \"results\": [\n";
  for (std::size_t i = 0; i < results.size(); ++i) {
    const KernelResult& r = results[i];
    os << "  {\"id\": \"" << r.id << "\", \"skipped\": false, "
       << "\"wall_ms\": {\"median\": " << std::setprecision(6) << r.median_ms
       << ", \"min\": " << r.min_ms << "}, "
       << "\"stats\": {\"checksum\": " << (r.checksum & 0xffffffffu) << "}}"
       << (i + 1 < results.size() ? "," : "") << "\n";
  }
  os << " ]\n}\n";
}

int run_kernels(const Args& args) {
  std::cout << "=== micro kernels / hot paths + data-plane layout ===\n"
            << "Tau-pair enumeration, edge bucketing and layered-graph "
               "builds over the ci bipartite instance's classes; Blossom on "
               "the stream workload's random-arrival T set; Hopcroft-Karp on "
               "a serve exact-hk instance; a frozen-CSR "
               "scan; the word-parallel HK BFS layering pass; arena-backed "
               "fork scratch vs fresh heap vectors. Median of 9 reps, "
               "informational wall-ms.\n\n";

  const GraphView scan_view = freeze(make_weighted(4096, 32768, 1));
  BfsProblem bfs = make_bfs_problem(2048, 16384, 2);
  runtime::ThreadPool& pool =
      runtime::pool_for(runtime::RuntimeConfig{args.threads});
  runtime::Arena arena;

  const bench::hot_path::Inputs hot = bench::hot_path::ci_bipartite_inputs();
  const GraphView t_set = bench::hot_path::stream_t_set();
  const api::Instance serve_hk = bench::hot_path::serve_hk_instance();

  std::vector<KernelResult> results;
  results.push_back(run_kernel("tau-pairs", [&] {
    return bench::hot_path::tau_pairs_checksum(hot, core::pairs_for_values);
  }));
  results.push_back(run_kernel("buckets", [&] {
    return bench::hot_path::buckets_checksum(hot, core::bucket_edges);
  }));
  results.push_back(run_kernel("layered-build", [&] {
    core::LayeredGraphBuilder builder;
    return bench::hot_path::layered_build_checksum(
        hot, [&](const bench::hot_path::ClassInput& c,
                 const core::TauPair& tau) {
          return builder.build(c.buckets, hot.m, c.par, tau,
                               hot.g.num_vertices());
        });
  }));
  results.push_back(run_kernel("blossom", [&] {
    return bench::hot_path::blossom_checksum(t_set, exact::blossom_max_weight);
  }));
  results.push_back(run_kernel("hk-solve", [&] {
    return bench::hot_path::hk_solve_checksum(
        serve_hk, [&](const GraphView& g, const std::vector<char>& side) {
          return exact::hopcroft_karp(g, side, 0, nullptr,
                                      runtime::RuntimeConfig{args.threads});
        });
  }));
  results.push_back(run_kernel("csr-neighbor-scan",
                               [&] { return csr_neighbor_scan(scan_view); }));
  results.push_back(
      run_kernel("hk-bfs-bitset", [&] { return bfs_checksum(bfs, pool); }));
  results.push_back(
      run_kernel("arena-fork-scratch", [&] { return arena_fork_scratch(arena); }));
  results.push_back(run_kernel("heap-fork-scratch", heap_fork_scratch));

  Table t({"kernel", "wall ms (median)", "wall ms (min)", "checksum"});
  for (const KernelResult& r : results) {
    t.add_row({r.id, Table::fmt(r.median_ms, 4), Table::fmt(r.min_ms, 4),
               Table::fmt(r.checksum & 0xffffffffu)});
  }
  t.print(std::cout);

  if (args.json &&
      !util::write_bench_json(
          args.json_path, "micro_kernels",
          [&](std::ostream& os) { write_kernels_json(os, results); },
          std::cout, std::cerr)) {
    return 1;
  }
  std::cout << "\nExpected shape: tau-pairs, buckets and layered-build are "
               "the reduction's per-class scaffolding (the black box is not "
               "in them); blossom is the random-arrival algorithms' exact "
               "step and hk-solve the serve workload's exact-hk solve; "
               "arena-fork-scratch amortizes away heap-fork-scratch's "
               "per-fork allocations.\n\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) { return run_kernels(parse_args(argc, argv)); }
