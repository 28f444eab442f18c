// Problem instances for the unified solver API.
//
// An Instance bundles everything any model needs: the offline graph (for
// exact / offline algorithms and for reduction passes), the same edges in
// a concrete arrival order (for single-pass streaming algorithms), and the
// bipartition when one exists (for bipartite-only solvers). All solvers in
// a comparison therefore see exactly the same input — the instance is
// built once and the registry runs every algorithm × model against it.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "gen/weights.h"
#include "graph/graph.h"
#include "graph/graph_view.h"
#include "graph/types.h"

namespace wmatch::api {

/// Arrival orders for the stream view (see gen/generators.h for the
/// adversarial-order semantics).
enum class ArrivalOrder {
  kRandom,            ///< uniform random permutation (the paper's model)
  kAsGenerated,       ///< generator emission order
  kIncreasingWeight,  ///< adversarial for greedy / local-ratio
  kDecreasingWeight,  ///< heaviest first
  kClustered,         ///< grouped by min endpoint
};

const char* to_string(ArrivalOrder order);
/// Parses the lowercase names ("random", "as-generated",
/// "increasing-weight", "decreasing-weight", "clustered"); throws
/// std::invalid_argument on anything else.
ArrivalOrder parse_arrival_order(const std::string& name);

struct Instance {
  std::string name;          ///< human-readable label for reports
  GraphView graph;           ///< the offline view (immutable CSR, read-shared)
  std::vector<Edge> stream;  ///< the same edges in arrival order
  std::vector<char> side;    ///< bipartition (empty if not bipartite)
  /// Planted maximum matching weight for the hard-instance families
  /// (gen/hard_instances.h), so sweeps report exact ratios without an
  /// exact solve. -1 when the optimum is not known by construction.
  Weight known_optimal_weight = -1;

  std::size_t num_vertices() const { return graph.num_vertices(); }
  std::size_t num_edges() const { return graph.num_edges(); }
  bool is_bipartite() const { return !side.empty(); }
  bool has_known_optimum() const { return known_optimal_weight >= 0; }
};

/// Wraps an existing graph: materializes the stream in the requested order
/// (the random order is drawn from `order_seed`) and computes the
/// bipartition if one exists.
Instance make_instance(Graph graph, ArrivalOrder order,
                       std::uint64_t order_seed, std::string name = "");

/// Decorrelated stream-order seed for a master seed: callers that reuse
/// one seed for generation/solving must not feed the same value to
/// make_instance, or the solver's coin flips replay the exact sequence
/// that shuffled the arrival order (the random-arrival analysis assumes
/// the two are independent).
inline std::uint64_t stream_seed_for(std::uint64_t seed) {
  return seed * 0x9e3779b9ULL + 1;
}

/// Declarative instance generation — the CLI's `--gen=...` flags map 1:1
/// onto this struct, and tests/benches can build the identical instance
/// programmatically.
struct GenSpec {
  /// Random families: "erdos_renyi" | "bipartite" | "barabasi_albert" |
  /// "geometric" | "path" | "cycle".
  /// Hard / adversarial families (gen/hard_instances.h — planted optimum,
  /// Instance::known_optimal_weight is set): "hard-four-cycle" |
  /// "hard-greedy-trap" | "hard-long-path" | "hard-planted-augs" |
  /// "hard-figure1" | "hard-figure2".
  std::string generator = "erdos_renyi";
  std::size_t n = 1000;
  std::size_t m = 4000;       ///< edge target (erdos_renyi / bipartite)
  std::size_t attach = 4;     ///< barabasi_albert attachment degree
  double radius = 0.08;       ///< geometric connection radius
  std::size_t aug_length = 3; ///< hard-long-path: augmentations span
                              ///< 2*aug_length+1 edges
  double beta = 0.5;          ///< hard-planted-augs: planted wing density
  gen::WeightDist weights = gen::WeightDist::kUniform;
  Weight max_weight = 1 << 12;
  ArrivalOrder order = ArrivalOrder::kRandom;
  std::uint64_t seed = 1;     ///< drives generation AND the stream order
};

/// Why the random family `spec` names cannot be generated, or "" when it
/// can: too few vertices (erdos_renyi and bipartite need 2, path 2,
/// cycle 3), more edges than erdos_renyi (n(n-1)/2) or bipartite
/// (floor(n/2) * ceil(n/2)) can place, or an attachment degree
/// barabasi_albert cannot honour. The text starts with the offending
/// field as `key=value` (the CLI flag without its dashes, the job-line
/// "gen" key) and names no source file.
std::string gen_spec_error(const GenSpec& spec);

/// Builds the graph, assigns weights, and materializes the stream; the
/// whole instance is a deterministic function of the GenSpec. A spec
/// gen_spec_error rejects throws std::invalid_argument with its text.
Instance generate_instance(const GenSpec& spec);

/// Every name GenSpec::generator accepts, sorted — the CLI's flag
/// validation and error messages are driven by this list.
const std::vector<std::string>& known_generators();
bool is_known_generator(const std::string& name);

gen::WeightDist parse_weight_dist(const std::string& name);
const char* to_string(gen::WeightDist dist);

}  // namespace wmatch::api
