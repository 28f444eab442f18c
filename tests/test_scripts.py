#!/usr/bin/env python3
"""Unit tests for the CI gate scripts (ISSUE 7 satellite; run by ctest as
`script_gates` and by the lint CI job).

The gates in scripts/ are load-bearing: a bug that makes
check_bench_regression.py accept a counter regression or check_trace.py
accept a malformed trace silently voids the determinism contract. Each
test crafts a minimal BENCH / trace document and asserts the verdict
(exit code AND the diagnostic the CI log would show).
"""

import copy
import json
import os
import subprocess
import sys
import tempfile
import unittest

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SCRIPTS = os.path.join(REPO, "scripts")


def run(script, *args):
    """Run scripts/<script> with args; return (exit_code, stdout+stderr)."""
    proc = subprocess.run(
        [sys.executable, os.path.join(SCRIPTS, script), *args],
        capture_output=True, text=True, cwd=REPO)
    return proc.returncode, proc.stdout + proc.stderr


def bench_result(**overrides):
    r = {
        "algorithm": "greedy", "generator": "erdos_renyi", "family": 0,
        "instance": 0, "n": 200, "m": 800, "epsilon": 0.2, "threads": 1,
        "seed": 1, "skipped": False,
        "counters": {
            "passes": 1, "rounds": 0, "memory_peak_words": 800,
            "communication_words": 0, "bb_invocations": 0,
            "bb_max_invocation_cost": 0,
            "matching_size": 90, "matching_weight": 4200,
        },
        "wall_ms": {"median": 1.5},
    }
    counters = overrides.pop("counters", {})
    r.update(overrides)
    r["counters"].update(counters)
    return r


def bench_doc(*results):
    return {"schema_version": 1, "results": list(results)}


class TempJson:
    """Write docs to temp files; hand back their paths."""

    def __enter__(self):
        self.dir = tempfile.TemporaryDirectory()
        return self

    def __exit__(self, *exc):
        self.dir.cleanup()

    def write(self, name, doc):
        path = os.path.join(self.dir.name, name)
        with open(path, "w") as f:
            json.dump(doc, f)
        return path


class GateTest(unittest.TestCase):
    """check_bench_regression.py gate CURRENT BASELINE."""

    def run_gate(self, current, baseline):
        with TempJson() as t:
            return run("check_bench_regression.py", "gate",
                       t.write("current.json", current),
                       t.write("baseline.json", baseline))

    def test_identical_runs_pass(self):
        doc = bench_doc(bench_result())
        code, out = self.run_gate(doc, copy.deepcopy(doc))
        self.assertEqual(code, 0, out)
        self.assertIn("no counter regressions", out)

    def test_cost_counter_increase_fails(self):
        base = bench_doc(bench_result())
        cur = bench_doc(bench_result(counters={"passes": 2}))
        code, out = self.run_gate(cur, base)
        self.assertEqual(code, 1, out)
        self.assertIn("passes regressed 1 -> 2", out)

    def test_quality_counter_decrease_fails(self):
        base = bench_doc(bench_result())
        cur = bench_doc(bench_result(counters={"matching_weight": 4100}))
        code, out = self.run_gate(cur, base)
        self.assertEqual(code, 1, out)
        self.assertIn("matching_weight regressed 4200 -> 4100", out)

    def test_improvement_passes_and_asks_for_refresh(self):
        base = bench_doc(bench_result(counters={"rounds": 5},
                                      algorithm="reduction-mpc"))
        cur = bench_doc(bench_result(counters={"rounds": 3},
                                     algorithm="reduction-mpc"))
        code, out = self.run_gate(cur, base)
        self.assertEqual(code, 0, out)
        self.assertIn("rounds improved 5 -> 3", out)
        self.assertIn("refresh the baseline", out)

    def test_unmetered_memory_becoming_metered_is_informational(self):
        # memory_peak_words is in UNMETERED_OK: 0 -> N is a metering fix.
        base = bench_doc(bench_result(counters={"memory_peak_words": 0}))
        cur = bench_doc(bench_result(counters={"memory_peak_words": 640}))
        code, out = self.run_gate(cur, base)
        self.assertEqual(code, 0, out)
        self.assertIn("memory_peak_words now metered (0 -> 640)", out)

    def test_nonzero_memory_increase_still_gated(self):
        # UNMETERED_OK only forgives a zero baseline; 800 -> 900 is real.
        base = bench_doc(bench_result())
        cur = bench_doc(bench_result(counters={"memory_peak_words": 900}))
        code, out = self.run_gate(cur, base)
        self.assertEqual(code, 1, out)
        self.assertIn("memory_peak_words regressed 800 -> 900", out)

    def test_missing_baseline_entry_fails(self):
        base = bench_doc(bench_result(), bench_result(seed=2))
        cur = bench_doc(bench_result())
        code, out = self.run_gate(cur, base)
        self.assertEqual(code, 1, out)
        self.assertIn("missing from the current run", out)

    def test_new_entry_is_informational(self):
        base = bench_doc(bench_result())
        cur = bench_doc(bench_result(), bench_result(seed=2))
        code, out = self.run_gate(cur, base)
        self.assertEqual(code, 0, out)
        self.assertIn("new benchmark (not in baseline)", out)

    def test_skipped_flag_flip_fails(self):
        base = bench_doc(bench_result())
        cur = bench_doc(bench_result(skipped=True))
        code, out = self.run_gate(cur, base)
        self.assertEqual(code, 1, out)
        self.assertIn("skipped flag changed", out)

    def test_schema_version_mismatch_fails(self):
        base = bench_doc(bench_result())
        cur = bench_doc(bench_result())
        cur["schema_version"] = 2
        code, out = self.run_gate(cur, base)
        self.assertNotEqual(code, 0, out)
        self.assertIn("schema_version mismatch", out)


class InvarianceTest(unittest.TestCase):
    """check_bench_regression.py invariance A B."""

    def run_inv(self, a, b):
        with TempJson() as t:
            return run("check_bench_regression.py", "invariance",
                       t.write("a.json", a), t.write("b.json", b))

    def test_identical_counters_across_thread_counts_pass(self):
        a = bench_doc(bench_result(threads=1))
        b = bench_doc(bench_result(threads=8))
        b["results"][0]["wall_ms"]["median"] = 0.4  # wall clock ignored
        code, out = self.run_inv(a, b)
        self.assertEqual(code, 0, out)
        self.assertIn("bit-identical", out)

    def test_any_counter_difference_fails(self):
        a = bench_doc(bench_result(threads=1))
        b = bench_doc(bench_result(
            threads=8, counters={"matching_size": 91}))
        code, out = self.run_inv(a, b)
        self.assertEqual(code, 1, out)
        self.assertIn("matching_size differs (90 vs 91)", out)
        self.assertIn("thread-determinism violation", out)

    def test_different_grids_fail(self):
        a = bench_doc(bench_result())
        b = bench_doc(bench_result(seed=2))
        code, out = self.run_inv(a, b)
        self.assertNotEqual(code, 0, out)
        self.assertIn("different grids", out)


def trace_doc(events, dropped=0):
    return {"displayTimeUnit": "ns",
            "otherData": {"dropped_events": dropped},
            "traceEvents": events}


def ev(ph, name, ts, tid=1):
    return {"ph": ph, "name": name, "ts": ts, "pid": 1, "tid": tid}


class TraceTest(unittest.TestCase):
    """check_trace.py TRACE [--require=NAME ...]."""

    def run_trace(self, doc, *args):
        with TempJson() as t:
            return run("check_trace.py", t.write("trace.json", doc), *args)

    def test_well_nested_trace_passes_and_counts_spans(self):
        doc = trace_doc([
            ev("B", "service.job", 10), ev("B", "pool.task", 11),
            ev("E", "pool.task", 15), ev("E", "service.job", 20),
            ev("B", "pool.task", 5, tid=2), ev("E", "pool.task", 9, tid=2),
        ])
        code, out = self.run_trace(doc, "--require=service.job")
        self.assertEqual(code, 0, out)
        self.assertIn("3 spans", out)
        self.assertIn("pool.task: 2", out)

    def test_mismatched_end_name_fails(self):
        doc = trace_doc([
            ev("B", "outer", 1), ev("B", "inner", 2),
            ev("E", "outer", 3), ev("E", "inner", 4),
        ])
        code, out = self.run_trace(doc)
        self.assertEqual(code, 1, out)
        self.assertIn("does not match open 'inner'", out)

    def test_end_without_open_span_fails(self):
        doc = trace_doc([ev("E", "orphan", 1)])
        code, out = self.run_trace(doc)
        self.assertEqual(code, 1, out)
        self.assertIn("end event with no open span", out)

    def test_span_left_open_fails(self):
        doc = trace_doc([ev("B", "leaked", 1)])
        code, out = self.run_trace(doc)
        self.assertEqual(code, 1, out)
        self.assertIn("left open", out)

    def test_unnamed_end_force_closes_any_open_span(self):
        # The writer emits an empty-name "E" for spans still open when
        # recording stopped; that must pop the innermost open span.
        doc = trace_doc([ev("B", "interrupted", 1), ev("E", "", 2)])
        code, out = self.run_trace(doc)
        self.assertEqual(code, 0, out)

    def test_backwards_timestamp_fails(self):
        doc = trace_doc([
            ev("B", "a", 10), ev("E", "a", 8),
        ])
        code, out = self.run_trace(doc)
        self.assertEqual(code, 1, out)
        self.assertIn("ts went backwards", out)

    def test_per_thread_clocks_are_independent(self):
        # tid 2 may run "behind" tid 1 — monotonicity is per thread.
        doc = trace_doc([
            ev("B", "a", 100), ev("E", "a", 110),
            ev("B", "b", 5, tid=2), ev("E", "b", 6, tid=2),
        ])
        code, out = self.run_trace(doc)
        self.assertEqual(code, 0, out)

    def test_missing_required_span_fails(self):
        doc = trace_doc([ev("B", "a", 1), ev("E", "a", 2)])
        code, out = self.run_trace(doc, "--require=hk.phase")
        self.assertEqual(code, 1, out)
        self.assertIn("required span 'hk.phase' never occurs", out)

    def test_missing_envelope_key_fails(self):
        doc = trace_doc([])
        del doc["otherData"]
        code, out = self.run_trace(doc)
        self.assertEqual(code, 1, out)
        self.assertIn("missing top-level key 'otherData'", out)


def flow_ev(ph, name, ts, fid, tid=1):
    return {"ph": ph, "name": name, "ts": ts, "pid": 1, "tid": tid,
            "id": fid}


class TraceFlowTest(unittest.TestCase):
    """check_trace.py flow ("s"/"t"/"f") and async ("b"/"e") rules
    (ISSUE 10)."""

    def run_trace(self, doc, *args):
        with TempJson() as t:
            return run("check_trace.py", t.write("trace.json", doc), *args)

    @staticmethod
    def complete_flow_events(fid=7):
        # The in-process shape of a traced request: "s" inside the
        # client's send slice, "t" inside a server slice, "f" inside the
        # client's receive slice.
        return [
            ev("B", "client.send", 1), flow_ev("s", "req", 2, fid),
            ev("E", "client.send", 3),
            ev("B", "net.admit", 4, tid=2), flow_ev("t", "req", 5, fid,
                                                    tid=2),
            ev("E", "net.admit", 6, tid=2),
            ev("B", "client.recv", 7), flow_ev("f", "req", 8, fid),
            ev("E", "client.recv", 9),
        ]

    def test_complete_flow_chain_passes_and_is_counted(self):
        code, out = self.run_trace(trace_doc(self.complete_flow_events()),
                                   "--require-complete-flow=req")
        self.assertEqual(code, 0, out)
        self.assertIn("1 flows (1 complete)", out)

    def test_flow_without_step_is_not_complete(self):
        events = [e for e in self.complete_flow_events()
                  if e["ph"] not in ("t",)]
        events = [e for e in events if e["name"] != "net.admit"]
        code, out = self.run_trace(trace_doc(events),
                                   "--require-complete-flow=req")
        self.assertEqual(code, 1, out)
        self.assertIn("no complete 's' -> 't' -> 'f' flow named 'req'", out)

    def test_flow_event_without_id_fails(self):
        bad = dict(flow_ev("s", "req", 2, 7))
        del bad["id"]
        doc = trace_doc([ev("B", "client.send", 1), bad,
                         ev("E", "client.send", 3)])
        code, out = self.run_trace(doc)
        self.assertEqual(code, 1, out)
        self.assertIn("without a numeric id", out)

    def test_flow_event_outside_any_slice_fails(self):
        doc = trace_doc([flow_ev("s", "req", 1, 7),
                         ev("B", "x", 2), ev("E", "x", 3)])
        code, out = self.run_trace(doc)
        self.assertEqual(code, 1, out)
        self.assertIn("no open span", out)

    def test_flow_step_before_start_fails(self):
        doc = trace_doc([
            ev("B", "net.admit", 1), flow_ev("t", "req", 2, 7),
            ev("E", "net.admit", 3),
            ev("B", "client.send", 4), flow_ev("s", "req", 5, 7),
            ev("E", "client.send", 6),
        ])
        code, out = self.run_trace(doc)
        self.assertEqual(code, 1, out)
        self.assertIn("'s' is not the first event", out)

    def test_events_after_flow_end_fail(self):
        doc = trace_doc([
            ev("B", "client.send", 1), flow_ev("s", "req", 2, 7),
            flow_ev("f", "req", 3, 7), flow_ev("t", "req", 4, 7),
            ev("E", "client.send", 5),
        ])
        code, out = self.run_trace(doc)
        self.assertEqual(code, 1, out)
        self.assertIn("events after 'f'", out)

    def test_async_end_beyond_open_count_fails(self):
        doc = trace_doc([flow_ev("b", "client.request", 1, 7),
                         flow_ev("e", "client.request", 2, 7),
                         flow_ev("e", "client.request", 3, 7)])
        code, out = self.run_trace(doc)
        self.assertEqual(code, 1, out)
        self.assertIn("closes more intervals than were opened", out)

    def test_unclosed_async_warns_but_passes(self):
        doc = trace_doc([flow_ev("b", "client.request", 1, 7)])
        code, out = self.run_trace(doc)
        self.assertEqual(code, 0, out)
        self.assertIn("1 async interval(s) left open", out)

    def test_dropped_events_warn_but_pass(self):
        doc = trace_doc([ev("B", "x", 1), ev("E", "x", 2)], dropped=5)
        code, out = self.run_trace(doc)
        self.assertEqual(code, 0, out)
        self.assertIn("WARN: 5 events dropped", out)


def merge_doc(events, epoch, dropped=0):
    d = trace_doc(events, dropped)
    d["otherData"]["trace_epoch_ns"] = epoch
    return d


class MergeTracesTest(unittest.TestCase):
    """merge_traces.py — clock alignment, pid relabeling, provenance."""

    def test_merge_shifts_clocks_and_relabels_pids(self):
        a = merge_doc([ev("B", "x", 10), ev("E", "x", 20)],
                      epoch=1_000_000_000)
        b = merge_doc([ev("B", "y", 5), ev("E", "y", 6)],
                      epoch=1_002_000_000, dropped=3)
        with TempJson() as t:
            out_path = os.path.join(t.dir.name, "merged.json")
            code, out = run("merge_traces.py", f"--out={out_path}",
                            t.write("a.json", a), t.write("b.json", b))
            self.assertEqual(code, 0, out)
            with open(out_path) as f:
                merged = json.load(f)
        events = merged["traceEvents"]
        labels = [e["args"]["name"] for e in events if e["ph"] == "M"]
        self.assertEqual(labels, ["a.json", "b.json"])
        xs = [e for e in events if e.get("name") == "x" and e["ph"] == "B"]
        ys = [e for e in events if e.get("name") == "y" and e["ph"] == "B"]
        self.assertEqual((xs[0]["pid"], xs[0]["ts"]), (1, 10))
        # b's epoch is 2 ms later: its events shift by +2000 us.
        self.assertEqual((ys[0]["pid"], ys[0]["ts"]), (2, 2005.0))
        other = merged["otherData"]
        self.assertEqual(other["dropped_events"], 3)
        self.assertEqual(other["trace_epoch_ns"], 1_000_000_000)
        self.assertEqual([m["pid"] for m in other["merged"]], [1, 2])

    def test_merged_document_passes_check_trace_with_cross_pid_flow(self):
        # Client process: "s" then "f"; server process: the "t" step. The
        # merged doc must count one complete cross-process flow.
        client = merge_doc([
            ev("B", "client.send", 1), flow_ev("s", "req", 2, 7),
            ev("E", "client.send", 3),
            ev("B", "client.recv", 5000), flow_ev("f", "req", 5001, 7),
            ev("E", "client.recv", 5002),
        ], epoch=1_000_000_000)
        server = merge_doc([
            ev("B", "net.admit", 1), flow_ev("t", "req", 2, 7),
            ev("E", "net.admit", 3),
        ], epoch=1_000_100_000)  # +100 us: lands between "s" and "f"
        with TempJson() as t:
            out_path = os.path.join(t.dir.name, "merged.json")
            code, out = run("merge_traces.py", f"--out={out_path}",
                            t.write("client.json", client),
                            t.write("server.json", server))
            self.assertEqual(code, 0, out)
            code, out = run("check_trace.py", out_path,
                            "--require=net.admit",
                            "--require-complete-flow=req")
        self.assertEqual(code, 0, out)
        self.assertIn("1 flows (1 complete)", out)

    def test_missing_trace_epoch_fails(self):
        a = trace_doc([])  # no trace_epoch_ns
        b = merge_doc([], epoch=5)
        with TempJson() as t:
            out_path = os.path.join(t.dir.name, "merged.json")
            code, out = run("merge_traces.py", f"--out={out_path}",
                            t.write("a.json", a), t.write("b.json", b))
        self.assertEqual(code, 1, out)
        self.assertIn("trace_epoch_ns missing or non-integer", out)


def request_events(idx, base, solve_us=400):
    """One served request's four-stage span chain: admission 100 us,
    queue wait 200 us, solve `solve_us`, response write 200 us."""
    def b(name, ts, tid):
        return {"ph": "B", "name": name, "ts": ts, "pid": 1, "tid": tid,
                "args": {"arg": idx}}

    def e(name, ts, tid):
        return {"ph": "E", "name": name, "ts": ts, "pid": 1, "tid": tid}

    return [
        b("net.admit", base, 1), e("net.admit", base + 100, 1),
        b("service.job", base + 300, 2),
        b("service.solve", base + 400, 2),
        e("service.solve", base + 400 + solve_us, 2),
        e("service.job", base + 500 + solve_us, 2),
        b("net.request", base + 600 + solve_us, 1),
        e("net.request", base + 800 + solve_us, 1),
    ]


class TraceReportTest(unittest.TestCase):
    """trace_report.py — per-request critical-path breakdown."""

    def run_report(self, doc, *args):
        with TempJson() as t:
            return (run("trace_report.py", t.write("trace.json", doc),
                        *args), t)

    def test_breakdown_medians_and_json_document(self):
        events = request_events(0, 1000) + request_events(1, 10000,
                                                          solve_us=800)
        with TempJson() as t:
            trace = t.write("trace.json", trace_doc(events))
            json_out = os.path.join(t.dir.name, "report.json")
            code, out = run("trace_report.py", trace,
                            f"--json={json_out}", "--name=serve_ci")
            self.assertEqual(code, 0, out)
            self.assertIn("2 complete request(s), 0 incomplete", out)
            with open(json_out) as f:
                doc = json.load(f)
        self.assertEqual(doc["kind"], "trace_report")
        self.assertEqual(doc["bench"], "serve_ci")
        self.assertEqual(doc["requests"], {"complete": 2, "incomplete": 0})
        by_id = {r["id"]: r for r in doc["results"]}
        self.assertEqual(sorted(by_id), ["admission", "queue_wait",
                                         "solve", "write"])
        self.assertEqual(by_id["admission"]["wall_ms"]["median"], 0.1)
        self.assertEqual(by_id["queue_wait"]["wall_ms"]["median"], 0.2)
        # Nearest-rank median of {0.4, 0.8} ms is the lower value.
        self.assertEqual(by_id["solve"]["wall_ms"]["median"], 0.4)
        self.assertEqual(by_id["solve"]["wall_ms"]["min"], 0.4)
        self.assertEqual(by_id["write"]["wall_ms"]["median"], 0.2)

    def test_incomplete_request_is_counted_not_crashed(self):
        events = request_events(0, 1000)
        # Request 1 was admitted but never solved (still queued when the
        # trace stopped).
        events += [
            {"ph": "B", "name": "net.admit", "ts": 20000, "pid": 1,
             "tid": 1, "args": {"arg": 1}},
            {"ph": "E", "name": "net.admit", "ts": 20100, "pid": 1,
             "tid": 1},
        ]
        (code, out), _ = self.run_report(trace_doc(events))
        self.assertEqual(code, 0, out)
        self.assertIn("1 complete request(s), 1 incomplete", out)

    def test_no_complete_request_fails(self):
        events = [
            {"ph": "B", "name": "net.admit", "ts": 1, "pid": 1, "tid": 1,
             "args": {"arg": 0}},
            {"ph": "E", "name": "net.admit", "ts": 2, "pid": 1, "tid": 1},
        ]
        (code, out), _ = self.run_report(trace_doc(events))
        self.assertEqual(code, 1, out)
        self.assertIn("no complete request", out)


class AppendHistoryTest(unittest.TestCase):
    """append_bench_history.py folds trace_report docs into "segments" and
    repeated runs of one bench into a median, its MAD and a run count."""

    def test_trace_report_document_gets_segments_map(self):
        report = {
            "schema_version": 1, "kind": "trace_report",
            "bench": "serve_ci",
            "requests": {"complete": 2, "incomplete": 0},
            "results": [
                {"id": "admission", "wall_ms": {"median": 0.1,
                                                "min": 0.05},
                 "skipped": False},
                {"id": "solve", "wall_ms": {"median": 0.4, "min": 0.4},
                 "skipped": False},
            ],
        }
        with TempJson() as t:
            hist = os.path.join(t.dir.name, "hist.json")
            code, out = run("append_bench_history.py", hist,
                            t.write("report.json", report),
                            "--sha=abc123", "--date=2026-01-01")
            self.assertEqual(code, 0, out)
            with open(hist) as f:
                doc = json.load(f)
        bench = doc["entries"][0]["benches"]["serve_ci"]
        self.assertEqual(bench["segments"],
                         {"admission": 0.1, "solve": 0.4})
        self.assertEqual(bench["cells"], 2)


    def test_repeated_runs_store_median_mad_and_runs(self):
        def sweep(medians):
            return {"schema_version": 1, "bench": "ci_t1",
                    "results": [{"id": i, "wall_ms": {"median": m},
                                 "skipped": False}
                                for i, m in enumerate(medians)]}

        def kernels(ms):
            return {"schema_version": 1, "kind": "kernels",
                    "bench": "micro_kernels",
                    "results": [{"id": "blossom",
                                 "wall_ms": {"median": ms, "min": ms},
                                 "skipped": False}]}

        # Totals 30, 10, 20, 100 ms: median 25, |deviations| 5, 15, 5,
        # 75 -> MAD 10. One kernels document: runs 1, MAD 0.
        runs = [[10, 20], [4, 6], [5, 15], [50, 50]]
        with TempJson() as t:
            hist = os.path.join(t.dir.name, "hist.json")
            docs = [t.write(f"ci{i}.json", sweep(m))
                    for i, m in enumerate(runs)]
            code, out = run("append_bench_history.py", hist, *docs,
                            t.write("k.json", kernels(2.5)),
                            "--sha=abc123", "--date=2026-01-01")
            self.assertEqual(code, 0, out)
            with open(hist) as f:
                benches = json.load(f)["entries"][0]["benches"]
            self.assertEqual(benches["ci_t1"]["runs"], 4)
            self.assertEqual(benches["ci_t1"]["cells"], 2)
            self.assertEqual(benches["ci_t1"]["wall_ms_total"], 25)
            self.assertEqual(benches["ci_t1"]["wall_ms_total_mad"], 10)
            # p99 of each run is its larger cell: 20, 6, 15, 50 -> 17.5.
            self.assertEqual(benches["ci_t1"]["latency_ms_p99"], 17.5)
            self.assertEqual(benches["micro_kernels"]["runs"], 1)
            self.assertEqual(benches["micro_kernels"]["wall_ms_total_mad"], 0)
            self.assertEqual(benches["micro_kernels"]["kernels"],
                             {"blossom": 2.5})

            # Runs of one bench must cover the same cells.
            code, out = run("append_bench_history.py", hist, docs[0],
                            t.write("short.json", sweep([1])))
            self.assertEqual(code, 1, out)
            self.assertIn("has 1 cells", out)


class LintInvariantsTest(unittest.TestCase):
    """scripts/lint_invariants.py — spot-check the source-scan rules on a
    synthetic tree (the real tree is linted by the `lint_invariants` ctest
    target and CI step)."""

    def run_lint(self, tree, check):
        with tempfile.TemporaryDirectory() as root:
            for rel, content in tree.items():
                path = os.path.join(root, rel)
                os.makedirs(os.path.dirname(path), exist_ok=True)
                with open(path, "w") as f:
                    f.write(content)
            proc = subprocess.run(
                [sys.executable,
                 os.path.join(SCRIPTS, "lint_invariants.py"),
                 "--root", root, "--check", check],
                capture_output=True, text=True)
            return proc.returncode, proc.stdout + proc.stderr

    def test_clock_read_outside_obs_flagged(self):
        code, out = self.run_lint(
            {"src/solver/x.cpp": "#include <chrono>\n"}, "determinism")
        self.assertEqual(code, 1, out)
        self.assertIn("src/solver/x.cpp", out)

    def test_clock_read_inside_obs_allowed(self):
        code, out = self.run_lint(
            {"src/obs/trace.cpp": "#include <chrono>\n"}, "determinism")
        self.assertEqual(code, 0, out)

    def test_token_in_comment_or_string_ignored(self):
        src = ('// std::chrono is banned here\n'
               'const char* kMsg = "rand() lives in obs";\n')
        code, out = self.run_lint({"src/solver/x.cpp": src}, "determinism")
        self.assertEqual(code, 0, out)

    def test_stdout_in_library_code_flagged(self):
        src = '#include <iostream>\nvoid f() { std::cout << 1; }\n'
        code, out = self.run_lint({"src/core/x.cpp": src}, "no-stdout")
        self.assertEqual(code, 1, out)
        self.assertIn("src/core/x.cpp", out)

    def test_snprintf_is_not_printf(self):
        src = ('#include <cstdio>\n'
               'void f(char* b) { snprintf(b, 4, "x"); }\n')
        code, out = self.run_lint({"src/core/x.cpp": src}, "no-stdout")
        self.assertEqual(code, 0, out)

    # no-mutable-graph: the data plane is immutable (DESIGN.md §10).

    def test_mutable_in_graph_dir_flagged(self):
        src = ("class Graph {\n"
               "  mutable std::vector<int> adj_;\n"
               "};\n")
        code, out = self.run_lint({"src/graph/graph.h": src},
                                  "no-mutable-graph")
        self.assertEqual(code, 1, out)
        self.assertIn("src/graph/graph.h", out)
        self.assertIn("immutable data plane", out)

    def test_mutable_outside_graph_dir_allowed(self):
        src = "struct S { mutable int cache_; };\n"
        code, out = self.run_lint({"src/obs/metrics.h": src},
                                  "no-mutable-graph")
        self.assertEqual(code, 0, out)

    def test_lazy_build_entry_point_flagged_anywhere_in_src(self):
        src = ("void Graph::build_adjacency() const {\n"
               "  adj_built_ = true;\n"
               "}\n")
        code, out = self.run_lint({"src/core/x.cpp": src},
                                  "no-mutable-graph")
        self.assertEqual(code, 1, out)
        self.assertIn("lazy adjacency build", out)

    def test_mutable_in_comment_or_string_ignored(self):
        src = ('// a mutable flag once lived here (adj_built_)\n'
               'const char* kDoc = "no build_adjacency anymore";\n')
        code, out = self.run_lint({"src/graph/graph.h": src},
                                  "no-mutable-graph")
        self.assertEqual(code, 0, out)


if __name__ == "__main__":
    unittest.main(verbosity=2)
