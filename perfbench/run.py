#!/usr/bin/env python3
"""Benchmark entry point: builds the repository, runs one workload, checks
every output, and prints the metrics.

    python3 perfbench/run.py --workload reduce|stream|serve --seed N \
        --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

Run from the root of a checkout. The first run configures and builds
perfbench/ (which builds the library and wmatch_cli from the checkout)
into .bench_build/; later runs reuse that build. With --trace 0 the last
stdout line is the JSON result with every end-to-end metric; with
--trace 1 it carries every per-layer metric and the per-layer table is
printed above it. Exit status 0 means every output check passed. See
perfbench/README.md for what each workload and metric measures.
"""

import argparse
import contextlib
import json
import os
import re
import select
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build"
RUN_DIR = BUILD / "run"
PERF = BUILD / "wmatch_perf"
CLI = BUILD / "wmatch" / "wmatch_cli"
NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")

WORKLOADS = ("reduce", "stream", "serve")

# Every end-to-end metric in BENCHMARK.json, its unit, and which way is
# better. Each workload reports all of them; README.md gives the
# per-workload meaning. Times are scaled to the reference host speed
# (src/host_probe.h).
E2E = {
    "setup_s": ("s", "lower"),
    "norm_s.t1": ("s", "lower"),
    "norm_s.t2": ("s", "lower"),
    "weight_ratio.min": ("ratio", "higher"),
    "rss_mb": ("MB", "lower"),
    "ok_frac": ("ratio", "higher"),
}

# Measured and printed with the end-to-end metrics but not gated: the times
# as measured, before scaling, which drift with the shared host's speed, and
# serving percentiles and saturation, whose run-to-run spread on a shared
# 4-CPU host exceeded the largest bound the benchmark may set (README.md,
# "Noise").
E2E_UNGATED = {
    "setup_s.raw": "s",
    "wall_s.t1": "s",
    "wall_s.t2": "s",
    "probe_ms": "ms",
    "p50_ms.lo": "ms",
    "p99_ms.lo": "ms",
    "p50_ms.hi": "ms",
    "p99_ms.hi": "ms",
    "sat_rps": "req/s",
}

# Every per-layer metric and its unit. A layer a workload does not run
# reports 0.
LAYERS = {
    "core.tau.pairs": "count",
    "core.tau.ms": "ms",
    "core.layered.builds": "count",
    "core.layered.useful_frac": "ratio",
    "core.layered.ms": "ms",
    "core.bucket.ms": "ms",
    "core.decompose.ms": "ms",
    "core.select.ms": "ms",
    "core.class.ms": "ms",
    "core.class.unattributed_frac": "ratio",
    "core.rounds": "count",
    "core.round.ms": "ms",
    "runtime.class_imbalance": "ratio",
    "bb.calls": "count",
    "bb.ms": "ms",
    "bb.share": "ratio",
    "mpc.rounds": "count",
    "mpc.comm_words": "words",
    "exact.hk.ms": "ms",
    "exact.hk.phases": "count",
    "exact.blossom.ms": "ms",
    "streaming.pass.ms": "ms",
    "core.rand_arr.feed_ms": "ms",
    "gen.ms": "ms",
    "graph.freeze.ms": "ms",
    "runtime.pool.busy_frac": "ratio",
    "runtime.pool.steals": "count",
    "service.queue_wait_ms.p50": "ms",
    "service.queue_wait_ms.p99": "ms",
    "service.solve_ms.p50": "ms",
    "net.request_ms.p99": "ms",
    "cache.hit_frac": "ratio",
    "net.rejected_overload": "count",
    "client.late_ms.p99": "ms",
    "trace.overhead_frac": "ratio",
}

SERVE_SETUPS = 15
CHILD_TIMEOUT_S = 170

# The reduce cells are the ci preset's; their counters must equal the
# committed baseline's (the file is read, never written).
CI_BASELINE = ROOT / "bench" / "baselines" / "ci_baseline.json"
CI_COUNTERS = ("passes", "rounds", "memory_peak_words", "communication_words",
               "bb_invocations", "bb_max_invocation_cost", "matching_size",
               "matching_weight")


class BenchError(Exception):
    """A failure that ends the run without a result line."""


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def self_test_names():
    """The names this script prints equal BENCHMARK.json's, and all are
    well formed."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for kind, names in (("workloads", WORKLOADS), ("end_to_end", E2E),
                        ("per_layer", LAYERS)):
        declared = [m["name"] for m in spec[kind]]
        if sorted(declared) != sorted(names):
            problems.append(f"{kind}: BENCHMARK.json {sorted(declared)} != "
                            f"run.py {sorted(names)}")
        problems += [f"bad name '{n}'" for n in declared
                     if not NAME_RE.fullmatch(n)]
    for m in spec["end_to_end"]:
        unit, better = E2E.get(m["name"], (None, None))
        if (m["unit"], m["better"]) != (unit, better):
            problems.append(f"end_to_end {m['name']}: unit/better differ")
    for m in spec["per_layer"]:
        if m["unit"] != LAYERS.get(m["name"]):
            problems.append(f"per_layer {m['name']}: unit differs")
    if problems:
        raise BenchError("name self-test failed: " + "; ".join(problems))


def build():
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        raise BenchError(f"repository sources not found under {ROOT}")
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(ROOT / "perfbench"), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "-j", jobs,
                  "--target", "perfbench"])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if done.returncode != 0:
            log(done.stdout[-4000:])
            raise BenchError("build failed: " + " ".join(cmd))
    RUN_DIR.mkdir(parents=True, exist_ok=True)


@contextlib.contextmanager
def pinned(cpus):
    """Runs the block with this process pinned to `cpus` (when given), so
    that a child started inside inherits the pinning without a
    preexec_fn."""
    mask = os.sched_getaffinity(0)
    if cpus:
        os.sched_setaffinity(0, cpus)
    try:
        yield
    finally:
        os.sched_setaffinity(0, mask)


def spawn(cmd, name, cpus=None):
    """Starts a child with stdout and stderr in RUN_DIR/<name>.out/.err,
    pinned to `cpus` when given."""
    out = open(RUN_DIR / f"{name}.out", "w")
    err = open(RUN_DIR / f"{name}.err", "w")
    try:
        with pinned(cpus):
            return subprocess.Popen(cmd, stdout=out, stderr=err)
    finally:
        out.close()
        err.close()


def reap(proc, timeout_s=CHILD_TIMEOUT_S):
    """Waits for a child, killing it after timeout_s; returns its exit
    code."""
    try:
        return proc.wait(timeout=timeout_s)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise BenchError(f"{proc.args[0]} {proc.args[1]} timed out")


def peak_rss_mb(pid):
    """VmHWM of a running process, in MB; 0 once it has exited."""
    found = re.search(r"VmHWM:\s+(\d+) kB",
                      Path(f"/proc/{pid}/status").read_text())
    return int(found.group(1)) / 1024.0 if found else 0.0


def read_report(name, code):
    lines = (RUN_DIR / f"{name}.out").read_text().strip().splitlines()
    if code not in (0, 1) or not lines:
        err = (RUN_DIR / f"{name}.err").read_text()[-2000:]
        raise BenchError(f"{name} exited {code}: {err}")
    return json.loads(lines[-1])


def run_perf(args, name, cpus=None):
    proc = spawn([str(PERF)] + args, name, cpus)
    return read_report(name, reap(proc))


class Server:
    """`wmatch_cli serve --listen=0 --jobs=2` pinned to `cpus`. start_s runs
    from just before the spawn to the moment the server's "listening on"
    line arrives on its stderr pipe; a thread then copies the rest of the
    stderr to RUN_DIR/<name>.err."""

    def __init__(self, name, cpus, extra=()):
        with open(RUN_DIR / f"{name}.out", "w") as out, pinned(cpus):
            t0 = time.monotonic()
            self.proc = subprocess.Popen(
                [str(CLI), "serve", "--listen=0", "--jobs=2", *extra],
                stdout=out, stderr=subprocess.PIPE)
        fd = self.proc.stderr.fileno()
        text = b""
        deadline = t0 + 10
        while not (found := re.search(rb"listening on 127\.0\.0\.1:(\d+)\n",
                                      text)):
            left = deadline - time.monotonic()
            ready = left > 0 and select.select([fd], [], [], left)[0]
            chunk = os.read(fd, 65536) if ready else b""
            if not chunk:
                self.close()
                raise BenchError("serve did not start: "
                                 + text[-500:].decode(errors="replace"))
            text += chunk
        self.start_s = time.monotonic() - t0
        self.port = int(found.group(1))
        self.copier = threading.Thread(
            target=self._copy_stderr, args=(RUN_DIR / f"{name}.err", text))
        self.copier.start()

    def _copy_stderr(self, path, head):
        with open(path, "wb") as err:
            err.write(head)
            for chunk in iter(lambda: self.proc.stderr.read1(65536), b""):
                err.write(chunk)

    def stop(self):
        """Drains the server; returns its peak RSS in MB."""
        rss_mb = peak_rss_mb(self.proc.pid)
        self.proc.send_signal(signal.SIGTERM)
        code = reap(self.proc, 30)
        self.close()
        if code != 0:
            raise BenchError(f"serve exited {code}")
        return rss_mb

    def close(self):
        """Kills the server if it still runs and waits for it and for the
        stderr copy."""
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        if getattr(self, "copier", None):
            self.copier.join()
        self.proc.stderr.close()


def cpu_split():
    """Disjoint CPU sets for the server and the client: the client gets
    the last allowed CPU, the server up to three of the others."""
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) < 2:
        return None, None
    return set(cpus[-4:-1]), {cpus[-1]}


def run_serve(seed, seconds, trace):
    server_cpus, client_cpus = cpu_split()
    client = ["serve-client", f"--seed={seed}", f"--seconds={seconds}"]
    servers = []
    setup_s = []

    def set_up():
        """One timed set-up: server start + cache warm-up. Returns the
        running server and the warm-up client's report."""
        i = len(setup_s)
        server = Server(f"serve{i}", server_cpus)
        servers.append(server)
        warm = run_perf(client + [f"--port={server.port}", "--phases=warm"],
                        f"warm{i}", client_cpus)
        setup_s.append(server.start_s + warm["e2e"].get("warm_s", 0.0))
        return server, warm

    try:
        # Set-ups before and after the measurement, so that they sample
        # the host at two moments; the last one before it keeps its server
        # for the measurement.
        for i in range(SERVE_SETUPS // 2 + 1):
            server, warm = set_up()
            if warm["errors"]:
                return warm
            if i < SERVE_SETUPS // 2:
                server.stop()
        report = run_perf(client + [f"--port={server.port}"], "client",
                          client_cpus)
        report["e2e"]["rss_mb"] = server.stop()
        while len(setup_s) < SERVE_SETUPS:
            server, warm = set_up()
            server.stop()
            report["errors"] += warm["errors"]
        # The median set-up, scaled by the client's host-speed factor.
        raw = sorted(setup_s)[len(setup_s) // 2]
        report["e2e"]["setup_s.raw"] = raw
        report["e2e"]["setup_s"] = raw * report["e2e"].get("host_factor", 1.0)
        if trace:
            # The same closed-loop pass against a server writing a trace.
            traced = Server("serve-traced", server_cpus,
                            [f"--trace={RUN_DIR / 'serve.trace.json'}"])
            servers.append(traced)
            closed = run_perf(client + [f"--port={traced.port}",
                                        "--phases=closed"], "traced",
                              client_cpus)
            traced.stop()
            report["errors"] += closed["errors"]
            if not report["errors"]:
                report["layers"]["trace.overhead_frac"] = (
                    closed["e2e"]["norm_s.t1"] / report["e2e"]["norm_s.t1"]
                    - 1)
        return report
    finally:
        for server in servers:
            server.close()


def check_ci_baseline(report):
    """reduce: every cell's counters equal bench/baselines/ci_baseline.json."""
    base = json.loads(CI_BASELINE.read_text())
    index = {(r["algorithm"], r["generator"], r["seed"]): r["counters"]
             for r in base["results"]}
    for cell in report["cells"]:
        want = index.get((cell["algorithm"], cell["generator"], cell["seed"]))
        got = cell["counters"]
        if want is None or any(got[k] != want[k] for k in CI_COUNTERS):
            report["errors"].append(
                f"{cell['algorithm']}/{cell['generator']} at threads "
                f"{cell['threads']}: counters differ from ci_baseline.json")


def check_counts(report):
    """Traced counts equal the untraced run's."""
    for name, (traced, untraced) in report["counts"].items():
        if traced != untraced:
            report["errors"].append(
                f"traced {name} = {traced} but untraced = {untraced}")


def fmt(x):
    return f"{x:.6g}"


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="check names and the TimingMatcher identity")
    args = parser.parse_args()
    if not args.selftest and not args.workload:
        parser.error("--workload is required")

    try:
        self_test_names()
        build()
        if args.selftest:
            report = run_perf(["selftest"], "selftest")
            for e in report["errors"]:
                log("FAIL " + e)
            log(f"selftest: names ok, TimingMatcher identity "
                f"{'ok' if not report['errors'] else 'FAILED'} "
                f"({report['attempted']} solves)")
            return 0 if not report["errors"] else 1

        base = [f"--seed={args.seed}", f"--seconds={args.seconds}"]
        if args.workload == "serve":
            report = run_serve(args.seed, args.seconds, args.trace)
        else:
            report = run_perf(
                [args.workload] + base + (["--trace"] if args.trace else []),
                args.workload)
        if args.workload == "reduce":
            check_ci_baseline(report)
        check_counts(report)
    except BenchError as e:
        log(f"error: {e}")
        return 1

    errors = report["errors"]
    failed = len(errors) + report["refused"]
    # A measuring process that stopped early reports no attempts of its
    # own; its failure is one.
    attempted = max(report["attempted"], failed, 1)
    report["e2e"]["ok_frac"] = 1.0 - failed / attempted
    for e in errors[:20]:
        log("FAIL " + e)

    # A failed run may lack metrics (the measuring process stopped early);
    # they read 0 in the result line, which says "correct": false.
    if args.trace:
        metrics = {n: {"value": report["layers"].get(n, 0.0), "unit": u}
                   for n, u in LAYERS.items()}
        # serve's rows are server histograms: p50 and p99 instead.
        cols = ("p50 ms", "p99 ms") if args.workload == "serve" else (
            "self ms", "total ms")
        print(f"{'layer':<22}{cols[0]:>12}{cols[1]:>12}{'count':>12}")
        for name, self_ms, total_ms, count in report["table"]:
            print(f"{name:<22}{self_ms:>12.3f}{total_ms:>12.3f}{count:>12.6g}")
        for name, (traced, untraced) in report["counts"].items():
            print(f"count {name}: traced {fmt(traced)} untraced "
                  f"{fmt(untraced)}")
    else:
        metrics = {n: {"value": report["e2e"].get(n, 0.0), "unit": u}
                   for n, (u, _) in E2E.items()}
    for name, m in metrics.items():
        print(f"{args.workload} {name} = {fmt(m['value'])} {m['unit']}")
    if not args.trace:
        for name, unit in E2E_UNGATED.items():
            print(f"{args.workload} {name} = "
                  f"{fmt(report['e2e'].get(name, 0.0))} {unit} (not gated)")
    correct = not errors
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
