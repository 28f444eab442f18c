#!/usr/bin/env python3
"""Repo-invariant linters (ISSUE 7 tentpole, part 3).

Static checks enforcing the contracts DESIGN.md states in prose. Run from
anywhere; `--root` points at the repo (default: the script's parent's
parent). Run as a ctest target (`lint_invariants`) and as a CI step.

Five checks, each reporting every violation before the nonzero exit:

  determinism   No code outside src/obs/ reads a clock (std::chrono,
                steady_clock, clock_gettime, ...) or draws OS randomness
                (rand(), srand(), std::random_device). Wall time flows
                through obs::monotonic_ns() and randomness through
                util::Rng with an explicit seed, so every solver counter
                stays a deterministic function of the seed (DESIGN.md
                §5-§7).

  no-stdout     Library code under src/ never writes to stdout
                (std::cout, printf, puts, fprintf(stdout, ...)): all
                output goes through std::ostream& parameters, so the CLI
                and tests own the streams. (snprintf into buffers is
                fine.)

  solver-docs   Every solver registered in api::Registry (the
                registry.add({"name", ...}) calls in src/api/solvers.cpp)
                appears in README.md's solver table and is referenced by
                at least one tests/ file.

  metric-docs   Every Counter/Gauge/Histogram name instrumented via
                obs::counter("...")/obs::gauge(...)/obs::histogram(...)
                under src/ appears in DESIGN.md §7's metric taxonomy.

  no-mutable-graph
                The data plane is immutable (DESIGN.md §10): no `mutable`
                member under src/graph/, and the lazy adjacency build
                must stay dead — no adj_built_ / build_adjacency /
                ensure_adjacency entry point anywhere under src/.
                Adjacency is frozen into a GraphView exactly once, at
                construction.

Exit 0 with a per-check summary when clean; exit 1 listing every
violation otherwise. `--list-checks` prints the check names.
"""

import argparse
import re
import sys
from pathlib import Path

# --- determinism: forbidden time / OS-randomness tokens outside src/obs/.
CLOCK_TOKENS = [
    r"#\s*include\s*<chrono>",
    r"std::chrono",
    r"\bsteady_clock\b",
    r"\bsystem_clock\b",
    r"\bhigh_resolution_clock\b",
    r"\bclock_gettime\b",
    r"\bgettimeofday\b",
    r"\btime\s*\(\s*(?:NULL|nullptr|0)\s*\)",
]
RANDOM_TOKENS = [
    r"\bstd::random_device\b",
    r"\brandom_device\b",
    r"(?<![\w:])s?rand\s*\(",
]
# --- no-stdout: stdout writes in library code.
STDOUT_TOKENS = [
    r"\bstd::cout\b",
    r"(?<![\w:])(?:printf|puts|putchar)\s*\(",
    r"\bfprintf\s*\(\s*stdout\b",
    r"\bstd::puts\b",
]

# --- no-mutable-graph: the immutable data plane (DESIGN.md §10).
MUTABLE_TOKENS = [r"\bmutable\b"]
LAZY_BUILD_TOKENS = [
    r"\badj_built_\b",
    r"\bbuild_adjacency\b",
    r"\bensure_adjacency\b",
]

CPP_SUFFIXES = {".cpp", ".h", ".hpp", ".cc"}


def strip_comments_and_strings(text):
    """Blank out //, /* */ comments and string/char literals, keeping line
    structure so reported line numbers stay correct. A lexer-free
    approximation that is exact for this codebase's idioms."""
    out = []
    i, n = 0, len(text)
    state = "code"  # code | line | block | str | chr
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if state == "code":
            if c == "/" and nxt == "/":
                state = "line"
                out.append("  ")
                i += 2
                continue
            if c == "/" and nxt == "*":
                state = "block"
                out.append("  ")
                i += 2
                continue
            if c == '"':
                state = "str"
                out.append(" ")
                i += 1
                continue
            if c == "'":
                state = "chr"
                out.append(" ")
                i += 1
                continue
            out.append(c)
        elif state == "line":
            if c == "\n":
                state = "code"
                out.append(c)
            else:
                out.append(" ")
        elif state == "block":
            if c == "*" and nxt == "/":
                state = "code"
                out.append("  ")
                i += 2
                continue
            out.append("\n" if c == "\n" else " ")
        elif state in ("str", "chr"):
            quote = '"' if state == "str" else "'"
            if c == "\\":
                out.append("  ")
                i += 2
                continue
            if c == quote:
                state = "code"
            out.append("\n" if c == "\n" else " ")
        i += 1
    return "".join(out)


def cpp_files(root, subdir):
    base = root / subdir
    return sorted(p for p in base.rglob("*") if p.suffix in CPP_SUFFIXES)


def scan_tokens(path, text, patterns, violations, why):
    code = strip_comments_and_strings(text)
    for lineno, line in enumerate(code.splitlines(), 1):
        for pat in patterns:
            if re.search(pat, line):
                violations.append(
                    f"{path}:{lineno}: {why}: matches /{pat}/")
                break


def check_determinism(root):
    violations = []
    for path in cpp_files(root, "src"):
        rel = path.relative_to(root)
        if rel.parts[:2] == ("src", "obs"):
            continue  # the one subsystem allowed to read clocks
        text = path.read_text()
        scan_tokens(rel, text, CLOCK_TOKENS, violations,
                    "clock read outside src/obs/ (use obs::monotonic_ns)")
        scan_tokens(rel, text, RANDOM_TOKENS, violations,
                    "OS randomness outside src/obs/ (use util::Rng + seed)")
    return violations


def check_no_stdout(root):
    violations = []
    for path in cpp_files(root, "src"):
        rel = path.relative_to(root)
        scan_tokens(rel, path.read_text(), STDOUT_TOKENS, violations,
                    "stdout write in library code (take std::ostream&)")
    return violations


def check_no_mutable_graph(root):
    violations = []
    for path in cpp_files(root, "src"):
        rel = path.relative_to(root)
        text = path.read_text()
        if rel.parts[:2] == ("src", "graph"):
            scan_tokens(rel, text, MUTABLE_TOKENS, violations,
                        "mutable state in the immutable data plane "
                        "(DESIGN.md §10: freeze into a GraphView)")
        scan_tokens(rel, text, LAZY_BUILD_TOKENS, violations,
                    "lazy adjacency build resurrected (adjacency is "
                    "frozen once, at GraphView construction)")
    return violations


def registered_solvers(root):
    text = (root / "src/api/solvers.cpp").read_text()
    names = re.findall(r'registry\.add\(\s*\{\s*"([^"]+)"', text)
    if not names:
        sys.exit("lint_invariants: error: no registry.add({\"name\" calls "
                 "found in src/api/solvers.cpp — extraction pattern broke?")
    return names


def check_solver_docs(root):
    violations = []
    readme = (root / "README.md").read_text()
    test_blob = "\n".join(
        p.read_text() for p in sorted((root / "tests").iterdir())
        if p.is_file())
    for name in registered_solvers(root):
        # The README solver table writes names in backticks.
        if f"`{name}`" not in readme:
            violations.append(
                f"README.md: registered solver '{name}' missing from the "
                "solver table (add a `name` row)")
        if f'"{name}"' not in test_blob:
            violations.append(
                f"tests/: registered solver '{name}' is never referenced "
                "by any test")
    return violations


def instrument_names(root):
    names = set()
    pattern = re.compile(
        r'obs::(?:counter|gauge|histogram)\(\s*"([^"]+)"')
    for path in cpp_files(root, "src"):
        for m in pattern.finditer(path.read_text()):
            names.add(m.group(1))
    if not names:
        sys.exit("lint_invariants: error: no obs::counter/gauge/histogram "
                 "calls found under src/ — extraction pattern broke?")
    return sorted(names)


def check_metric_docs(root):
    violations = []
    design = (root / "DESIGN.md").read_text()
    for name in instrument_names(root):
        # The taxonomy elides common prefixes ("cache.hits / misses"), so
        # accept either the dotted name or the bare leaf after the prefix.
        leaf = name.split(".", 1)[-1]
        if name not in design and leaf not in design:
            violations.append(
                f"DESIGN.md: instrument '{name}' missing from the §7 "
                "metric taxonomy")
    return violations


CHECKS = {
    "determinism": check_determinism,
    "no-stdout": check_no_stdout,
    "no-mutable-graph": check_no_mutable_graph,
    "solver-docs": check_solver_docs,
    "metric-docs": check_metric_docs,
}


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--root", type=Path,
                        default=Path(__file__).resolve().parent.parent)
    parser.add_argument("--check", action="append", choices=sorted(CHECKS),
                        help="run only these checks (default: all)")
    parser.add_argument("--list-checks", action="store_true")
    args = parser.parse_args(argv[1:])
    if args.list_checks:
        for name in sorted(CHECKS):
            print(name)
        return 0

    root = args.root.resolve()
    if not (root / "src").is_dir():
        sys.exit(f"lint_invariants: error: {root} has no src/ directory")

    failed = False
    for name in args.check or sorted(CHECKS):
        violations = CHECKS[name](root)
        if violations:
            failed = True
            print(f"lint_invariants: {name}: "
                  f"{len(violations)} violation(s):")
            for v in violations:
                print(f"  {v}")
        else:
            print(f"lint_invariants: {name}: OK")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
