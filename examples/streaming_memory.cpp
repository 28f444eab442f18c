// Semi-streaming memory accounting on random-order streams (Lemmas 3.3 and
// 3.15): the stored state of the single-pass solver stays near
// O(n polylog n) even when the graph itself is much denser. The normalized
// CostReport exposes the stored-word peak uniformly (memory_peak_words),
// and the solver-specific breakdown (|S|, |T|) rides along in stats.
#include <iostream>

#include "api/api.h"
#include "util/table.h"

int main() {
  using namespace wmatch;

  Table t({"n", "m", "|S|", "|T|", "stored total", "stored/m"});
  for (std::size_t n : {256u, 512u, 1024u, 2048u}) {
    api::GenSpec gen;
    gen.n = n;
    gen.m = n * 24;
    gen.max_weight = 1 << 16;
    gen.seed = 5 + n;
    api::Instance inst = api::generate_instance(gen);

    api::SolverSpec spec;
    spec.seed = gen.seed;
    api::SolveResult r = api::Solver("rand-arrival").solve(inst, spec);

    t.add_row({Table::fmt(n), Table::fmt(gen.m),
               Table::fmt(r.stat("stack_size"), 0),
               Table::fmt(r.stat("t_size"), 0),
               Table::fmt(r.cost.memory_peak_words),
               Table::fmt(static_cast<double>(r.cost.memory_peak_words) /
                              static_cast<double>(gen.m),
                          3)});
  }
  t.print(std::cout);
  std::cout << "\nRandom arrival order keeps stored state far below m; an "
               "adversarial order would not (see wmatch_cli bench "
               "--preset=e11).\n";
  return 0;
}
