#include "api/instance.h"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <utility>

#include "exact/hopcroft_karp.h"
#include "gen/generators.h"
#include "gen/hard_instances.h"
#include "util/require.h"
#include "util/rng.h"

namespace wmatch::api {

const char* to_string(ArrivalOrder order) {
  switch (order) {
    case ArrivalOrder::kRandom: return "random";
    case ArrivalOrder::kAsGenerated: return "as-generated";
    case ArrivalOrder::kIncreasingWeight: return "increasing-weight";
    case ArrivalOrder::kDecreasingWeight: return "decreasing-weight";
    case ArrivalOrder::kClustered: return "clustered";
  }
  return "?";
}

ArrivalOrder parse_arrival_order(const std::string& name) {
  if (name == "random") return ArrivalOrder::kRandom;
  if (name == "as-generated") return ArrivalOrder::kAsGenerated;
  if (name == "increasing-weight") return ArrivalOrder::kIncreasingWeight;
  if (name == "decreasing-weight") return ArrivalOrder::kDecreasingWeight;
  if (name == "clustered") return ArrivalOrder::kClustered;
  WMATCH_REQUIRE(false, "unknown arrival order '" + name + "'");
  return ArrivalOrder::kRandom;  // unreachable
}

const char* to_string(gen::WeightDist dist) {
  switch (dist) {
    case gen::WeightDist::kUnit: return "unit";
    case gen::WeightDist::kUniform: return "uniform";
    case gen::WeightDist::kExponential: return "exponential";
    case gen::WeightDist::kPolynomial: return "polynomial";
    case gen::WeightDist::kClasses: return "classes";
  }
  return "?";
}

gen::WeightDist parse_weight_dist(const std::string& name) {
  if (name == "unit") return gen::WeightDist::kUnit;
  if (name == "uniform") return gen::WeightDist::kUniform;
  if (name == "exponential") return gen::WeightDist::kExponential;
  if (name == "polynomial") return gen::WeightDist::kPolynomial;
  if (name == "classes") return gen::WeightDist::kClasses;
  WMATCH_REQUIRE(false, "unknown weight distribution '" + name + "'");
  return gen::WeightDist::kUniform;  // unreachable
}

namespace {

std::vector<Edge> make_stream(const GraphView& g, ArrivalOrder order,
                              std::uint64_t order_seed) {
  switch (order) {
    case ArrivalOrder::kRandom: {
      Rng rng(order_seed);
      return gen::random_stream(g, rng);
    }
    case ArrivalOrder::kAsGenerated:
      return {g.edges().begin(), g.edges().end()};
    case ArrivalOrder::kIncreasingWeight:
      return gen::increasing_weight_stream(g);
    case ArrivalOrder::kDecreasingWeight:
      return gen::decreasing_weight_stream(g);
    case ArrivalOrder::kClustered:
      return gen::clustered_stream(g);
  }
  return {};
}

/// Maps a GenSpec onto the planted families of gen/hard_instances.h.
/// Family sizes derive from spec.n (k copies of the gadget fit in n
/// vertices) and weights from spec.max_weight, so hard families slot
/// into the same sweep axes as the random generators.
gen::PlantedInstance generate_hard(const GenSpec& spec, Rng& rng) {
  const std::size_t n = std::max<std::size_t>(spec.n, 4);
  const Weight w = std::max<Weight>(spec.max_weight, 2);
  if (spec.generator == "hard-four-cycle") {
    // base < base+gap: improving the planted matching needs augmenting
    // *cycles* (Section 1.1.2) — worst case for path-only augmenters.
    return gen::four_cycle_family(n / 4, std::max<Weight>(1, w / 2),
                                  std::max<Weight>(1, w - w / 2));
  }
  if (spec.generator == "hard-greedy-trap") {
    // wing <= mid < 2*wing: greedy keeps mid, optimum takes both wings.
    return gen::greedy_trap_paths(n / 4, w, w / 2 + 1);
  }
  if (spec.generator == "hard-long-path") {
    const std::size_t L = std::max<std::size_t>(spec.aug_length, 1);
    return gen::long_path_family(
        std::max<std::size_t>(1, n / (2 * (L + 1))), L, 1, w);
  }
  if (spec.generator == "hard-planted-augs") {
    WMATCH_REQUIRE(spec.beta >= 0.0 && spec.beta <= 1.0,
                   "hard-planted-augs needs beta in [0,1]");
    return gen::planted_three_augs(n / 4, spec.beta, rng);
  }
  if (spec.generator == "hard-figure1") return gen::figure1_example();
  if (spec.generator == "hard-figure2") return gen::figure2_example();
  WMATCH_REQUIRE(false, "unknown hard-instance family '" + spec.generator +
                            "'");
  return gen::figure1_example();  // unreachable
}

}  // namespace

const std::vector<std::string>& known_generators() {
  static const std::vector<std::string> names = {
      "barabasi_albert", "bipartite",        "cycle",
      "erdos_renyi",     "geometric",        "hard-figure1",
      "hard-figure2",    "hard-four-cycle",  "hard-greedy-trap",
      "hard-long-path",  "hard-planted-augs", "path"};
  return names;
}

bool is_known_generator(const std::string& name) {
  const auto& names = known_generators();
  return std::find(names.begin(), names.end(), name) != names.end();
}

Instance make_instance(Graph graph, ArrivalOrder order,
                       std::uint64_t order_seed, std::string name) {
  Instance inst;
  inst.name = name.empty() ? "graph" : std::move(name);
  // Freeze the CSR view eagerly, here, at instance-build time: every
  // consumer (exact solvers, reduction passes, concurrent cached jobs)
  // shares this one immutable layout from now on.
  inst.graph = GraphView(std::move(graph));
  inst.side = exact::bipartition_of(inst.graph);
  inst.stream = make_stream(inst.graph, order, order_seed);
  return inst;
}

namespace {

/// a * b, or SIZE_MAX when that overflows.
std::size_t saturating_mul(std::size_t a, std::size_t b) {
  if (a != 0 && b > std::numeric_limits<std::size_t>::max() / a) {
    return std::numeric_limits<std::size_t>::max();
  }
  return a * b;
}

}  // namespace

std::string gen_spec_error(const GenSpec& spec) {
  // Texts are built only on failure, so accepting a spec allocates nothing.
  const std::string& g = spec.generator;
  auto n = [&] { return "n=" + std::to_string(spec.n); };
  auto too_few = [&](std::size_t least) {
    return n() + " is fewer than the " + std::to_string(least) +
           " vertices " + g + " needs";
  };
  if (g == "erdos_renyi" || g == "bipartite") {
    if (spec.n < 2) return too_few(2);
    const std::size_t most =
        g == "bipartite"
            ? saturating_mul(spec.n / 2, spec.n - spec.n / 2)
            : (spec.n % 2 == 0 ? saturating_mul(spec.n / 2, spec.n - 1)
                               : saturating_mul(spec.n, (spec.n - 1) / 2));
    if (spec.m > most) {
      return "m=" + std::to_string(spec.m) + " is more edges than " + g +
             " can place on " + n() + " vertices (at most " +
             std::to_string(most) + ")";
    }
  } else if (g == "barabasi_albert") {
    auto attach = [&] { return "attach=" + std::to_string(spec.attach); };
    if (spec.attach < 1) return attach() + " must be at least 1";
    if (spec.n <= spec.attach) {
      return n() + " must exceed " + attach() + " for barabasi_albert";
    }
  } else if (g == "path" || g == "cycle") {
    const std::size_t least = g == "path" ? 2 : 3;
    if (spec.n < least) return too_few(least);
  }
  return "";
}

Instance generate_instance(const GenSpec& spec) {
  WMATCH_REQUIRE(is_known_generator(spec.generator),
                 "unknown generator '" + spec.generator + "'");
  if (const std::string error = gen_spec_error(spec); !error.empty()) {
    throw std::invalid_argument(error);
  }
  Rng rng(spec.seed);
  if (spec.generator.rfind("hard-", 0) == 0) {
    // Planted adversarial families keep their constructed weights and
    // carry their known optimum onto the Instance; the arrival order
    // still composes with them (adversarial structure x stream order).
    gen::PlantedInstance hard = generate_hard(spec, rng);
    Instance inst =
        make_instance(std::move(hard.graph), spec.order,
                      stream_seed_for(spec.seed), spec.generator);
    inst.known_optimal_weight = hard.optimal_weight;
    return inst;
  }
  Graph g;
  if (spec.generator == "erdos_renyi") {
    g = gen::erdos_renyi(spec.n, spec.m, rng);
  } else if (spec.generator == "bipartite") {
    g = gen::random_bipartite(spec.n / 2, spec.n - spec.n / 2, spec.m, rng);
  } else if (spec.generator == "barabasi_albert") {
    g = gen::barabasi_albert(spec.n, spec.attach, rng);
  } else if (spec.generator == "geometric") {
    // Inherently weighted (weight = closeness); skip assign_weights below.
    g = gen::random_geometric(spec.n, spec.radius,
                              std::max<Weight>(1, spec.max_weight), rng);
  } else if (spec.generator == "path" || spec.generator == "cycle") {
    const std::size_t k = spec.generator == "path" ? spec.n - 1 : spec.n;
    std::vector<Weight> w(k);
    for (auto& x : w) x = gen::draw_weight(spec.weights, spec.max_weight, rng);
    g = spec.generator == "path" ? gen::path_graph(w) : gen::cycle_graph(w);
  } else {
    WMATCH_REQUIRE(false, "unknown generator '" + spec.generator + "'");
  }
  // geometric is inherently weighted; path/cycle drew their per-edge
  // weights from spec.weights above; generators already emit unit
  // weights, so kUnit needs no reassignment pass.
  if (spec.generator != "geometric" && spec.generator != "path" &&
      spec.generator != "cycle" &&
      spec.weights != gen::WeightDist::kUnit) {
    g = gen::assign_weights(g, spec.weights, spec.max_weight, rng);
  }
  // A distinct stream seed so reordering the stream never aliases the
  // generator's (or the solver's) own randomness.
  return make_instance(std::move(g), spec.order, stream_seed_for(spec.seed),
                       spec.generator);
}

}  // namespace wmatch::api
