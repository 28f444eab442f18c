#!/usr/bin/env python3
"""Append one entry to the committed bench trajectory.

Usage:
  append_bench_history.py HISTORY.json BENCH1.json [BENCH2.json ...]
      [--sha=REV] [--date=YYYY-MM-DD] [--max-entries=N]

Reads schema-versioned BENCH JSON documents (sweep or batch flavour —
both carry "schema_version" and "results") and appends one entry

  {"sha": ..., "date": ..., "benches": {
      "<bench name>": {"cells": N, "runs": R, "wall_ms_total": T,
                        "wall_ms_total_mad": D,
                        "latency_ms_p95": P, "latency_ms_p99": Q}}}

to HISTORY.json ({"schema_version": 1, "entries": [...]}; created when
missing). Per bench document:

  - wall_ms_total: the batch document's service.wall_ms_total when
    present (true batch wall clock), otherwise the sum of per-cell
    median wall ms — the serial-work trajectory of a sweep grid;
  - latency_ms_p95 / latency_ms_p99: the 95th / 99th percentile
    (nearest-rank) of per-cell / per-job median wall ms across
    non-skipped entries. For loadgen documents the per-template median
    IS end-to-end serving latency, so these track the tail of the
    serving path.

Documents marked "kind": "kernels" (bench_micro_kernels --json) also get
a "kernels": {"<kernel id>": median_ms} map in their summary, so each
micro-kernel tracks as its own trajectory line, and "pinned": true|false,
whether the run was confined to one CPU (the document's own "pinned"
field; absent means false). Unpinned kernel timings spread far wider, so
a pinned line is not comparable with an unpinned one. Documents marked
"kind": "trace_report" (scripts/trace_report.py --json) likewise get a
"segments": {"<segment id>": median_ms} map — the per-request critical
path (admission / queue wait / solve / response write) of the CI
serving smoke, tracked segment by segment.

Several documents may carry the same bench name: R repeated runs of one
bench (for example R runs of `wmatch_cli bench --preset=ci`; all must
have the same number of cells). The entry then stores, with runs = R,
the median over the runs of every figure above (per kernel and per
segment too) and wall_ms_total_mad, the median absolute deviation of the
R totals from their median (0 for a single run), so a later entry can be
read against this one's spread.

Wall clock is noisy across runners and hosts, so the trajectory is a
trend line, not a gate — the exact-counter gate lives in
check_bench_regression.py.
The revision is taken from --sha, else $GITHUB_SHA, else `git rev-parse
--short HEAD`, else "unknown". --max-entries (default 500) caps the file
by dropping the oldest entries.
"""

import datetime
import json
import os
import statistics
import subprocess
import sys


def percentile(values, pct):
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(0, -(-pct * len(ordered) // 100) - 1)  # nearest-rank, 0-based
    return ordered[rank]


def summarize(path):
    with open(path) as f:
        doc = json.load(f)
    if "schema_version" not in doc or "results" not in doc:
        raise SystemExit(f"{path}: not a BENCH JSON document "
                         "(missing schema_version/results)")
    medians = [r["wall_ms"]["median"] for r in doc["results"]
               if not r.get("skipped") and "wall_ms" in r]
    service = doc.get("service", {})
    total = service.get("wall_ms_total", sum(medians))
    summary = {
        "cells": len(doc["results"]),
        "wall_ms_total": round(total, 3),
        "latency_ms_p95": round(percentile(medians, 95), 3),
        "latency_ms_p99": round(percentile(medians, 99), 3),
    }
    if doc.get("kind") == "kernels":
        # Micro-kernel documents (bench_micro_kernels --json) additionally
        # record per-kernel median wall-ms, so layout changes show up as
        # named lines in the trajectory rather than one blended total.
        summary["kernels"] = {
            r["id"]: round(r["wall_ms"]["median"], 4)
            for r in doc["results"]
            if not r.get("skipped") and "wall_ms" in r
        }
        summary["pinned"] = doc.get("pinned") is True
    if doc.get("kind") == "trace_report":
        # Critical-path documents (trace_report.py --json): one named
        # line per request segment, so a queue-wait regression is visible
        # separately from a solve or response-write regression.
        summary["segments"] = {
            r["id"]: round(r["wall_ms"]["median"], 4)
            for r in doc["results"]
            if not r.get("skipped") and "wall_ms" in r
        }
    return doc.get("bench", os.path.basename(path)), summary


def combine(runs):
    """Folds the summaries of R runs of one bench into one entry."""
    totals = [r["wall_ms_total"] for r in runs]
    median_total = statistics.median(totals)
    summary = {
        "cells": runs[0]["cells"],
        "runs": len(runs),
        "wall_ms_total": round(median_total, 3),
        "wall_ms_total_mad": round(
            statistics.median(abs(t - median_total) for t in totals), 3),
    }
    for key in ("latency_ms_p95", "latency_ms_p99"):
        summary[key] = round(statistics.median(r[key] for r in runs), 3)
    if "pinned" in runs[0]:
        summary["pinned"] = all(r["pinned"] for r in runs)
    for key in ("kernels", "segments"):
        if key in runs[0]:
            summary[key] = {
                name: round(statistics.median(r[key][name] for r in runs), 4)
                for name in runs[0][key]
            }
    return summary


def summarize_all(paths):
    """{bench name: combined summary}, in first-seen order."""
    runs = {}
    for path in paths:
        name, summary = summarize(path)
        if name in runs and summary["cells"] != runs[name][0]["cells"]:
            raise SystemExit(f"{path}: bench {name!r} has "
                             f"{summary['cells']} cells, an earlier run "
                             f"{runs[name][0]['cells']}")
        runs.setdefault(name, []).append(summary)
    return {name: combine(r) for name, r in runs.items()}


def resolve_sha(flag_value):
    if flag_value:
        return flag_value
    if os.environ.get("GITHUB_SHA"):
        return os.environ["GITHUB_SHA"][:12]
    try:
        out = subprocess.run(["git", "rev-parse", "--short", "HEAD"],
                             capture_output=True, text=True, check=True)
        return out.stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def main(argv):
    sha = None
    date = None
    max_entries = 500
    paths = []
    for arg in argv[1:]:
        if arg.startswith("--sha="):
            sha = arg[len("--sha="):]
        elif arg.startswith("--date="):
            date = arg[len("--date="):]
        elif arg.startswith("--max-entries="):
            max_entries = int(arg[len("--max-entries="):])
        else:
            paths.append(arg)
    if len(paths) < 2:
        raise SystemExit(__doc__)

    history_path, bench_paths = paths[0], paths[1:]
    if os.path.exists(history_path):
        with open(history_path) as f:
            history = json.load(f)
        if history.get("schema_version") != 1 or "entries" not in history:
            raise SystemExit(f"{history_path}: not a trajectory file")
    else:
        history = {"schema_version": 1, "entries": []}

    entry = {
        "sha": resolve_sha(sha),
        "date": date or datetime.date.today().isoformat(),
        "benches": summarize_all(bench_paths),
    }
    history["entries"].append(entry)
    history["entries"] = history["entries"][-max_entries:]

    with open(history_path, "w") as f:
        json.dump(history, f, indent=1)
        f.write("\n")

    names = ", ".join(sorted(entry["benches"]))
    print(f"appended {entry['sha']} ({names}) -> {history_path} "
          f"[{len(history['entries'])} entries]")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
