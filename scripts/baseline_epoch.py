#!/usr/bin/env python3
"""Review a baseline refresh: diff two BENCH documents cell by cell.

Usage:
  baseline_epoch.py BEFORE.json AFTER.json --registry=SOLVERS.json
      [--allow-quality-change] [--write]

BEFORE is a committed baseline (bench/baselines/*.json), AFTER a fresh
run of the same grid or job file; SOLVERS.json is `wmatch_cli list
--json`. Cells are keyed as check_bench_regression.py keys them. For
every cell whose exact counters or ratio moved, the diff prints each
moved counter and the ratio as "before -> after"; unchanged cells are
only counted.

Exits 1, printing why, when
  - a cell's AFTER ratio is below its solver's registered guarantee
    (the Registry's `guarantee`, as Presets.EveryPresetRunsWithin-
    GuaranteeOnItsFirstCell checks it), or its solver is not registered;
  - a matching_size or matching_weight changed and
    --allow-quality-change is not given (cost counters may move: that is
    what a baseline epoch is for; quality moves must be asked for);
  - a cell is missing from AFTER or its skipped flag changed.
Cells only in AFTER are listed as new. With --write and no failure,
AFTER is copied over BEFORE: the refresh is the diff just printed.
"""

import json
import shutil
import sys

from check_bench_regression import (COST_COUNTERS, QUALITY_COUNTERS,
                                    check_schema, fmt, index, load)


def load_guarantees(path):
    with open(path) as f:
        solvers = json.load(f)
    return {s["name"]: s["guarantee"] for s in solvers}


def num(x):
    return f"{x:g}" if isinstance(x, float) else str(x)


def diff(before_path, after_path, guarantees, allow_quality):
    before, after = load(before_path), load(after_path)
    check_schema(before, after, before_path, after_path)
    old, new = index(before), index(after)

    failures, unchanged = [], 0
    for k in sorted(old):
        b = old[k]
        a = new.get(k)
        if a is None:
            failures.append(f"{fmt(k)}: missing from {after_path}")
            continue
        if b.get("skipped") != a.get("skipped"):
            failures.append(f"{fmt(k)}: skipped flag changed "
                            f"{b.get('skipped')} -> {a.get('skipped')}")
            continue
        if a.get("skipped"):
            unchanged += 1
            continue
        lines = []
        for name in COST_COUNTERS + QUALITY_COUNTERS:
            vb, va = b["counters"][name], a["counters"][name]
            if vb != va:
                lines.append(f"{name}: {vb} -> {va}")
                if name in QUALITY_COUNTERS and not allow_quality:
                    failures.append(f"{fmt(k)}: {name} changed {vb} -> {va}"
                                    " (pass --allow-quality-change)")
        if b.get("ratio") != a.get("ratio"):
            lines.append(f"ratio: {num(b.get('ratio'))} -> "
                         f"{num(a.get('ratio'))}")
        if "ratio" in a:
            floor = guarantees.get(k[0])
            if floor is None:
                failures.append(f"{fmt(k)}: solver {k[0]} is not in the "
                                "registry")
            elif a["ratio"] < floor:
                failures.append(f"{fmt(k)}: ratio {num(a['ratio'])} below "
                                f"the registered guarantee {num(floor)}")
        if not lines:
            unchanged += 1
            continue
        print(fmt(k))
        for line in lines:
            print(f"  {line}")
    for k in sorted(set(new) - set(old)):
        print(f"{fmt(k)}: new cell")

    print(f"\n{len(old)} cells in {before_path}: "
          f"{len(old) - unchanged} moved, {unchanged} unchanged")
    if failures:
        print("\nREFUSED:")
        for line in failures:
            print(f"  {line}")
        return 1
    print("no ratio below its guarantee, no unrequested quality change")
    return 0


def main(argv):
    paths, registry, allow_quality, write = [], None, False, False
    for arg in argv[1:]:
        if arg.startswith("--registry="):
            registry = arg[len("--registry="):]
        elif arg == "--allow-quality-change":
            allow_quality = True
        elif arg == "--write":
            write = True
        elif arg.startswith("--"):
            sys.exit(f"error: unknown option {arg}\n\n{__doc__}")
        else:
            paths.append(arg)
    if len(paths) != 2 or registry is None:
        sys.exit(__doc__)
    before_path, after_path = paths
    code = diff(before_path, after_path, load_guarantees(registry),
                allow_quality)
    if code == 0 and write:
        shutil.copyfile(after_path, before_path)
        print(f"wrote {after_path} -> {before_path}")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv))
