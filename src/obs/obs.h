// Umbrella header for the observability subsystem (ISSUE 6): the
// runtime-gated span tracer (obs/trace.h) and the always-on metrics
// registry (obs/metrics.h). Instrumented layers include this one header.
//
// Span / metric taxonomy (see DESIGN.md section 7):
//   pool.*     runtime::ThreadPool   — pool.task spans; tasks_run, steals,
//              busy_ns, idle_ns counters; queue_depth gauge
//   service.*  service::Scheduler    — service.job / service.solve spans;
//              jobs_* counters; solve_ms, queue_wait_ms,
//              backpressure_wait_ms histograms
//   cache.*    service::InstanceCache — cache.build spans; hits, misses,
//              evictions, inserts counters; build_ms histogram
//   solver.*   core::improve_matching_once — solver.round / solver.class
//              spans; rounds counter; tau_sampler_skips counter
//              (core::class_tau_pairs: bounded tau steps that skipped
//              sampler priorities)
//   hk.*       exact::hopcroft_karp  — hk.phase / hk.bfs / hk.dfs spans;
//              phases counter
//   exact.*    exact::blossom_max_weight — exact.blossom spans (arg: mode)
//   mpc.*      mpc_bipartite_matching — mpc.sample / mpc.filter spans
//   net.*      net::Server           — net.conn / net.admit / net.request
//              spans + per-request "req" flow steps; connections_total,
//              requests_total, responses_total, rejected_overload,
//              parse_errors, bytes_in, bytes_out, idle_closes counters;
//              active_connections gauge; request_ms histogram
//   client.*   net::run_loadgen      — client.connect / client.send /
//              client.recv spans, client.request async spans, "req" flow
//              begin/end (the client half of the cross-process flow)
//   obs.*      the tracer itself     — obs.trace_dropped counter (ring
//              saturation; mirrored in the trace file's otherData)
#pragma once

#include "obs/metrics.h"  // IWYU pragma: export
#include "obs/trace.h"    // IWYU pragma: export
