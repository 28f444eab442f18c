// Micro-benchmarks for the library's hot kernels. Two sections:
//
//  1. Kernel section (default; no external dependency): deterministic
//     median-of-K timings for the reduction's hot path over the `ci`
//     bipartite instance's classes (bench/hot_path.h) —
//       tau-pairs       pairs_for_values over every class's value sets
//       layered-build   every class pair through one LayeredGraphBuilder
//       blossom         blossom_max_weight, weighted and max-cardinality,
//                       on the stream workload's random-arrival T set
//     (their checksums equal the reference implementations', asserted by
//     tests/test_tau.cpp, tests/test_layered_graph.cpp and
//     tests/test_blossom.cpp), and for the layout primitives the immutable
//     data plane introduced —
//       csr-neighbor-scan   (frozen CSR slot arrays, one full traversal)
//       hk-bfs-bitset       (the word-parallel HK layering pass; its
//          dist labels are checked against a serial BFS by
//          tests/test_graph_view.cpp)
//       arena-fork-scratch  vs  heap-fork-scratch
//         (per-class fork scratch from a reset Arena vs fresh heap
//          vectors every fork)
//     `--json[=path]` writes a schema-versioned BENCH JSON document
//     (kind "kernels") that scripts/append_bench_history.py folds into
//     the committed bench trajectory — informational wall-ms, not a
//     gate; the exact-counter gates live elsewhere.
//
//  2. google-benchmark suite (`--gbench [gbench flags...]`): the
//     original BM_* solver loops (exact solvers, local-ratio feeding,
//     layered-graph construction, single-pass pipeline). Compiled only
//     when the build found Google Benchmark (WMATCH_HAVE_GBENCH);
//     everything after --gbench is forwarded to the library verbatim.
#include <algorithm>
#include <cstdint>
#include <iomanip>
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.h"
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
#include "util/rng.h"

namespace {

using namespace wmatch;

constexpr std::uint32_t kNoEdge = 0xffffffffu;

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
    times.push_back(bench::time_ms([&] { sum = body(); }));
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

int run_kernel_section(const bench::Args& args) {
  bench::header(
      "micro kernels / hot paths + data-plane layout",
      "Tau-pair enumeration and layered-graph builds over the ci "
      "bipartite instance's classes; Blossom on the stream workload's "
      "random-arrival T set; a frozen-CSR scan; the word-parallel "
      "HK BFS layering pass; arena-backed fork scratch vs fresh heap "
      "vectors. Median of 9 reps, informational wall-ms.");

  const GraphView scan_view = freeze(make_weighted(4096, 32768, 1));
  BfsProblem bfs = make_bfs_problem(2048, 16384, 2);
  runtime::ThreadPool& pool =
      runtime::pool_for(runtime::RuntimeConfig{args.threads});
  runtime::Arena arena;

  const bench::hot_path::Inputs hot = bench::hot_path::ci_bipartite_inputs();
  const GraphView t_set = bench::hot_path::stream_t_set();

  std::vector<KernelResult> results;
  results.push_back(run_kernel("tau-pairs", [&] {
    return bench::hot_path::tau_pairs_checksum(hot, core::pairs_for_values);
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
  bench::footer(
      "tau-pairs and layered-build are the reduction's per-class "
      "scaffolding (the black box is not in them); blossom is the "
      "random-arrival algorithms' exact step; arena-fork-scratch "
      "amortizes away heap-fork-scratch's per-fork allocations.");
  return 0;
}

}  // namespace

#ifdef WMATCH_HAVE_GBENCH

#include <benchmark/benchmark.h>

#include "baselines/local_ratio.h"
#include "core/layered_graph.h"
#include "core/rand_arr_matching.h"
#include "core/tau.h"

namespace {

void BM_BlossomMaxWeight(benchmark::State& state) {
  std::size_t n = static_cast<std::size_t>(state.range(0));
  GraphView g = freeze(make_weighted(n, 4 * n, 1));
  for (auto _ : state) {
    benchmark::DoNotOptimize(exact::blossom_max_weight(g));
  }
  state.SetComplexityN(static_cast<benchmark::IterationCount>(n));
}
BENCHMARK(BM_BlossomMaxWeight)->Range(64, 1024)->Complexity();

void BM_HopcroftKarp(benchmark::State& state) {
  std::size_t n = static_cast<std::size_t>(state.range(0));
  Rng rng(2);
  GraphView g = freeze(gen::random_bipartite(n, n, 8 * n, rng));
  std::vector<char> side(2 * n, 0);
  for (std::size_t v = n; v < 2 * n; ++v) side[v] = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(exact::hopcroft_karp(g, side));
  }
}
BENCHMARK(BM_HopcroftKarp)->Range(256, 4096);

void BM_LocalRatioFeed(benchmark::State& state) {
  std::size_t n = static_cast<std::size_t>(state.range(0));
  Rng rng(3);
  GraphView g = freeze(make_weighted(n, 16 * n, 3));
  auto stream = gen::random_stream(g, rng);
  for (auto _ : state) {
    baselines::LocalRatio lr(n);
    for (const Edge& e : stream) lr.feed(e);
    benchmark::DoNotOptimize(lr.unwind());
  }
}
BENCHMARK(BM_LocalRatioFeed)->Range(256, 4096);

void BM_LayeredGraphBuild(benchmark::State& state) {
  std::size_t n = static_cast<std::size_t>(state.range(0));
  GraphView g = freeze(make_weighted(n, 8 * n, 4));
  Matching m(n);
  for (const Edge& e : g.edges()) {
    if (!m.is_matched(e.u) && !m.is_matched(e.v)) m.add(e);
  }
  Rng rng(4);
  core::Parametrization par = core::random_parametrization(n, rng);
  core::CrossingEdges ce = core::crossing_edges(g, m, par);
  core::TauConfig tcfg;
  core::BucketedEdges buckets =
      core::bucket_edges(ce, core::quantum(1024, tcfg), core::max_units(tcfg));
  core::TauPair tau{{0, 4, 0}, {3, 3}};
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        core::build_layered_graph(buckets, m, par, tau, n));
  }
}
BENCHMARK(BM_LayeredGraphBuild)->Range(256, 4096);

void BM_RandArrMatchingPipeline(benchmark::State& state) {
  std::size_t n = static_cast<std::size_t>(state.range(0));
  Rng rng(5);
  GraphView g = freeze(make_weighted(n, 8 * n, 5));
  auto stream = gen::random_stream(g, rng);
  for (auto _ : state) {
    Rng local(6);
    benchmark::DoNotOptimize(
        core::rand_arr_matching(stream, n, {}, local));
  }
}
BENCHMARK(BM_RandArrMatchingPipeline)->Range(256, 2048);

}  // namespace

static int run_gbench(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}

#else  // !WMATCH_HAVE_GBENCH

static int run_gbench(int, char**) {
  std::cerr << "error: this build has no Google Benchmark "
               "(--gbench unavailable); the kernel section needs no "
               "flags\n";
  return 1;
}

#endif  // WMATCH_HAVE_GBENCH

int main(int argc, char** argv) {
  // `--gbench` switches to the google-benchmark section, forwarding the
  // remaining argv verbatim; everything else is the kernel section with
  // the harness-common flags.
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--gbench") {
      std::vector<char*> rest;
      rest.push_back(argv[0]);
      for (int j = i + 1; j < argc; ++j) rest.push_back(argv[j]);
      return run_gbench(static_cast<int>(rest.size()), rest.data());
    }
  }
  const wmatch::bench::Args args = wmatch::bench::parse_args(argc, argv);
  return run_kernel_section(args);
}
