// Exact maximum-weight matching in general graphs (Blossom algorithm).
//
// This is a C++ port of the well-known O(n^3) primal-dual implementation by
// Joris van Rantwijk (mwmatching.py), following Galil's exposition
// "Efficient algorithms for finding maximum matching in graphs" (ACM
// Computing Surveys, 1986). Edge weights are doubled internally so that all
// dual variables remain integral; all arithmetic is exact.
//
// Role in this repository: the paper's guarantees are relative to w(M*);
// this solver provides w(M*) for every experiment, and implements the
// "maximum matching in T" step (Algorithm 2, Line 14).
//
// Layout. The solver works on the input's non-isolated vertices only,
// relabelled in index order (vertices 0..nv-1, blossom ids nv..2nv-1). An
// isolated vertex is never scanned and, being free, always holds the
// minimum vertex dual, so dropping it changes neither the dual steps nor
// the result. Each vertex's incident edges are one contiguous run of slots
// (endpoint, neighbour, doubled weight) in GraphView's ascending edge-id
// order — mwmatching.py's neighbend order — so a scan reads one array and
// computes slack from the hoisted dual of the scanned vertex. Blossom ids
// are handed out LIFO, so every per-stage reset and every blossom loop
// stops at the highest id allocated so far. Labelling, blossom building
// and expansion reuse solver-owned buffers instead of allocating.
//
// Contract: same steps, same edges. Every stage scans the same vertices in
// the same order, and every dual step picks the same delta type, edge and
// blossom (each candidate type keeps its first strict minimum in index
// order), as the plain port. So the returned matching — which of several
// optimal matchings, ties included — is the same edge for edge, and with
// it every downstream counter. tests/test_blossom.cpp checks this against
// a copy of that port kept in the test.
#pragma once

#include "graph/graph_view.h"
#include "graph/matching.h"

namespace wmatch::exact {

/// Returns a maximum-weight matching of g. When `max_cardinality` is true,
/// returns a maximum-weight matching among maximum-cardinality matchings.
/// Traced as an `exact.blossom` span whose argument is the mode (1 for
/// max_cardinality).
Matching blossom_max_weight(const GraphView& g,
                            bool max_cardinality = false);

}  // namespace wmatch::exact
