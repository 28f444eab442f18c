#!/usr/bin/env bash
# Regression tests for wmatch_cli error paths (ISSUE 3 satellite): unknown
# --algo / --gen / --preset names and unknown commands must exit 2 with a
# one-line message naming the bad value, and valid invocations must still
# exit 0. Driven by ctest: cli_errors.sh <path-to-wmatch_cli>.
set -u

bin=${1:?usage: cli_errors.sh <path-to-wmatch_cli>}
failures=0

# expect_error <exit-code> <output-pattern> <args...> (exit 0 checks the
# output of a successful run)
expect_error() {
  local want_status=$1 pattern=$2
  shift 2
  local out status
  out=$("$bin" "$@" 2>&1)
  status=$?
  if [ "$status" -ne "$want_status" ]; then
    echo "FAIL: '$bin $*' exited $status, want $want_status"
    echo "$out" | sed 's/^/    /'
    failures=$((failures + 1))
  elif ! printf '%s' "$out" | grep -q -e "$pattern"; then
    echo "FAIL: '$bin $*' output does not match /$pattern/"
    echo "$out" | sed 's/^/    /'
    failures=$((failures + 1))
  else
    echo "ok: $* -> exit $want_status, matches /$pattern/"
  fi
}

expect_ok() {
  local out status
  out=$("$bin" "$@" 2>&1)
  status=$?
  if [ "$status" -ne 0 ]; then
    echo "FAIL: '$bin $*' exited $status, want 0"
    echo "$out" | sed 's/^/    /'
    failures=$((failures + 1))
  else
    echo "ok: $* -> exit 0"
  fi
}

expect_error 2 "unknown solver 'definitely-not-a-solver'" \
  solve --algo=definitely-not-a-solver --n=10 --m=20
expect_error 2 "unknown solver 'nope'" \
  solve --algo=greedy,nope --n=10 --m=20
expect_error 2 "unknown generator 'not-a-generator'" \
  solve --algo=greedy --gen=not-a-generator --n=10 --m=20
expect_error 2 "known:" solve --algo=greedy --gen=not-a-generator
expect_error 2 "unknown weight distribution 'lognormal'" \
  solve --algo=greedy --weights=lognormal
expect_error 2 "unknown arrival order 'sorted'" \
  solve --algo=greedy --order=sorted
expect_error 2 "--n expects a non-negative integer" \
  solve --algo=greedy --n=ten
expect_error 2 "unknown solve flag" solve --algo=greedy --frobnicate=1
expect_error 2 "unknown command 'frobnicate'" frobnicate
expect_error 2 "requires --algo" solve
expect_error 2 "expects a density" \
  solve --algo=greedy --gen=hard-planted-augs --gen-beta=1.5
expect_error 2 "expects a density" \
  bench --algo=greedy --gen=hard-planted-augs --n=16 --gen-beta=-0.1 --seeds=1
# --beta is solve's random-arrival knob; the density is --gen-beta everywhere
expect_error 2 "unknown bench flag '--beta=0.5'" \
  bench --algo=greedy --gen=hard-planted-augs --n=16 --beta=0.5 --seeds=1
# epsilon must lie in (0,1) and delta in [0,1): rejected where the flag or
# job line is parsed, not by a requirement failure inside a solver
expect_error 2 "--epsilon must be in (0,1), got 2" \
  solve --algo=reduction-hk --n=10 --m=20 --epsilon=2
expect_error 2 "--epsilon must be in (0,1), got 0" \
  solve --algo=greedy --n=10 --m=20 --epsilon=0
expect_error 2 "--delta must be in \[0,1)" \
  solve --algo=reduction-hk --n=10 --m=20 --delta=5
expect_error 2 "--epsilon must be in (0,1), got 1" \
  bench --algo=greedy --gen=path --n=8 --epsilon=0.1,1 --seeds=1
expect_error 2 "--delta must be in \[0,1)" \
  bench --algo=greedy --gen=path --n=8 --delta=-0.5 --seeds=1
# a shape the family cannot realize is a bad flag value too, rejected
# before generation with a message that names the flag and no source file
expect_error 2 "--m=1000 is more edges than erdos_renyi can place on n=5 vertices (at most 10)" \
  solve --algo=greedy --gen=erdos_renyi --n=5 --m=1000
expect_error 2 "--m=7 is more edges than bipartite can place on n=5 vertices (at most 6)" \
  bench --algo=greedy --gen=bipartite --n=5 --m=7 --seeds=1
expect_error 2 "--n=1 is fewer than the 2 vertices path needs" \
  solve --algo=greedy --gen=path --n=1
expect_error 2 "--n=3 must exceed attach=3 for barabasi_albert" \
  solve --algo=greedy --gen=barabasi_albert --n=3 --attach=3
if "$bin" solve --algo=greedy --gen=erdos_renyi --n=5 --m=1000 2>&1 |
    grep -q '\.cpp'; then
  echo "FAIL: the too-many-edges message names a source file"
  failures=$((failures + 1))
fi
expect_error 2 "unknown bench preset 'e99'" bench --preset=e99
# the diagnostic must advertise the full preset list (e10/e11 ported in
# ISSUE 9, e12/e13 in ISSUE 10)
expect_error 2 \
  "known: ci, e1, e2, e3, e4, e5, e6, e7, e8, e9, e10, e11, e12, e13" \
  bench --preset=e99
expect_error 2 "unknown solver 'nope'" bench --algo=nope --gen=erdos_renyi
expect_error 2 "unknown generator 'nope'" bench --algo=greedy --gen=nope
expect_error 2 "requires --preset" bench --algo=greedy
expect_error 2 "cannot override a preset" bench --preset=ci --gen=erdos_renyi

# --input hardening (ISSUE 5 satellite): unreadable or malformed DIMACS
# files are usage errors (exit 2) with a diagnostic naming the file / line.
expect_error 2 "cannot open '/nonexistent/x.graph'" \
  solve --algo=greedy --input=/nonexistent/x.graph
tmpdir=$(mktemp -d)
trap 'rm -rf "$tmpdir"' EXIT
printf 'p wmatch 4 2\ne 0 1\n' > "$tmpdir/malformed.graph"
expect_error 2 "parse error at line" \
  solve --algo=greedy --input="$tmpdir/malformed.graph"
printf 'not a graph at all\n' > "$tmpdir/garbage.graph"
expect_error 2 "parse error" \
  solve --algo=greedy --input="$tmpdir/garbage.graph"

# batch / serve (ISSUE 5): flag misuse and malformed JSONL job lines are
# usage errors; a valid job file runs clean.
expect_error 2 "batch requires --file" batch
expect_error 2 "unknown batch flag" batch --stdin --frobnicate=1
expect_error 2 "mutually exclusive" batch --file=x.jsonl --stdin
expect_error 2 "cannot open 'no-such.jsonl'" batch --file=no-such.jsonl
printf '{"gen":"path"}\n' > "$tmpdir/noalgo.jsonl"
expect_error 2 'needs "algo"' batch --file="$tmpdir/noalgo.jsonl"
printf '{"algo":"greedy","gen":"path",}\n' > "$tmpdir/badjson.jsonl"
expect_error 2 "badjson.jsonl:1:" batch --file="$tmpdir/badjson.jsonl"
printf '{"algo":"nope","gen":"path"}\n' > "$tmpdir/badsolver.jsonl"
expect_error 2 "unknown solver 'nope'" batch --file="$tmpdir/badsolver.jsonl"
printf '{"algo":"reduction-hk","gen":"path","epsilon":2}\n' \
  > "$tmpdir/badeps.jsonl"
expect_error 2 'badeps.jsonl:1: "epsilon" must be in (0,1), got 2' \
  batch --file="$tmpdir/badeps.jsonl"
printf '{"algo":"reduction-hk","gen":"path","delta":5}\n' \
  > "$tmpdir/baddelta.jsonl"
expect_error 2 'baddelta.jsonl:1: "delta" must be in \[0,1)' \
  batch --file="$tmpdir/baddelta.jsonl"
printf '{"algo":"greedy","gen":{"generator":"erdos_renyi","n":5,"m":1000}}\n' \
  > "$tmpdir/toomany.jsonl"
expect_error 2 'toomany.jsonl:1: "gen" m=1000 is more edges than erdos_renyi' \
  batch --file="$tmpdir/toomany.jsonl"
expect_error 2 "requires --listen=PORT or --stdin" serve

# serve --listen / loadgen (ISSUE 8): malformed ports, addresses, and
# loadgen misuse are usage errors before any socket is opened.
expect_error 2 "--listen expects a port" serve --listen=notaport
expect_error 2 "--listen expects a port" serve --listen=70000
expect_error 2 "--max-conns must be >= 1" serve --listen=0 --max-conns=0
expect_error 2 "unknown serve flag" serve --stdin --file=x.jsonl
# telemetry flags (ISSUE 10): serve-only, validated before any socket
expect_error 2 "--idle-timeout must be <= 86400" \
  serve --listen=0 --idle-timeout=86401
expect_error 2 "--idle-timeout expects a non-negative integer" \
  serve --listen=0 --idle-timeout=soon
expect_error 2 "--metrics-out expects a file path" \
  serve --listen=0 --metrics-out=
expect_error 2 "unknown batch flag" batch --stdin --idle-timeout=5
expect_error 2 "unknown batch flag" batch --stdin --metrics-out=m.jsonl
expect_error 2 "requires --connect" loadgen --jobs-file=x.jsonl
expect_error 2 "requires --jobs-file" loadgen --connect=9999
expect_error 2 "--connect expects a port" loadgen \
  --connect=127.0.0.1:notaport --jobs-file=x.jsonl
expect_error 2 "--connect expects a port" loadgen --connect=127.0.0.1:0 \
  --jobs-file=x.jsonl
expect_error 2 "--connect expects HOST:PORT" loadgen --connect=:4000 \
  --jobs-file=x.jsonl
expect_error 2 "--rate must be > 0" loadgen --connect=9999 \
  --jobs-file=x.jsonl --rate=0
expect_error 2 "--duration must be > 0" loadgen --connect=9999 \
  --jobs-file=x.jsonl --duration=0
expect_error 2 "--connections must be >= 1" loadgen --connect=9999 \
  --jobs-file=x.jsonl --connections=0
expect_error 2 "unknown loadgen flag" loadgen --connect=9999 \
  --jobs-file=x.jsonl --frobnicate=1
expect_error 2 "cannot open 'no-such.jsonl'" loadgen --connect=9999 \
  --jobs-file=no-such.jsonl
# a dead port is a runtime failure (exit 1), not flag misuse: loadgen
# retries briefly (the CI smoke launches serve in the background), then
# reports the unreachable address.
printf '{"algo":"greedy","gen":{"generator":"path","n":8}}\n' \
  > "$tmpdir/lg.jsonl"
expect_error 1 "cannot reach 127.0.0.1:9" loadgen --connect=127.0.0.1:9 \
  --jobs-file="$tmpdir/lg.jsonl"

# --trace hardening (ISSUE 6): an unwritable trace path is a usage error
# up front, before any solve work runs; a writable one produces a file.
expect_error 2 "cannot open '/nonexistent/dir/x.json'" \
  solve --algo=greedy --n=10 --m=20 --trace=/nonexistent/dir/x.json
expect_error 2 "cannot open '/nonexistent/dir/x.json'" \
  batch --stdin --trace=/nonexistent/dir/x.json

expect_ok list
expect_ok solve --algo=greedy --n=20 --m=40 --seed=3 \
  --trace="$tmpdir/solve-trace.json"
test -s "$tmpdir/solve-trace.json" || {
  echo "FAIL: --trace did not write $tmpdir/solve-trace.json"
  failures=$((failures + 1))
}
expect_ok solve --algo=greedy --n=20 --m=40 --seed=3
expect_ok bench --algo=greedy --gen=hard-greedy-trap --n=16 --seeds=1
printf '# two jobs, one shared instance\n{"algo":"greedy","gen":{"generator":"erdos_renyi","n":20,"m":40},"seed":3}\n{"algo":"local-ratio","gen":{"generator":"erdos_renyi","n":20,"m":40},"seed":3}\n' \
  > "$tmpdir/ok.jsonl"
expect_ok batch --file="$tmpdir/ok.jsonl" --jobs=2

# solve is a batch of one instance: its --json lines are the per-job lines
# `batch` prints for the same jobs, up to id, cache_hit and wall time.
printf '{"algo":"greedy","gen":{"generator":"erdos_renyi","n":20,"m":40},"seed":3,"with_optimum":true}\n{"algo":"local-ratio","gen":{"generator":"erdos_renyi","n":20,"m":40},"seed":3,"with_optimum":true}\n' \
  > "$tmpdir/parity.jsonl"
"$bin" solve --algo=greedy,local-ratio --gen=erdos_renyi --n=20 --m=40 \
  --seed=3 --json --with-optimum > "$tmpdir/solve.jsonl" 2>&1
"$bin" batch --file="$tmpdir/parity.jsonl" > "$tmpdir/batch.jsonl" 2>/dev/null
if python3 -c '
import json, sys
def norm(path):
    out = []
    for line in open(path):
        o = json.loads(line)
        for key in ("id", "cache_hit", "wall_ms"):
            o.pop(key, None)
        o["cost"].pop("wall_ms")
        assert "ratio" in o["matching"], line
        out.append(o)
    return out
solve, batch = norm(sys.argv[1]), norm(sys.argv[2])
sys.exit(0 if len(solve) == 2 and solve == batch else 1)
' "$tmpdir/solve.jsonl" "$tmpdir/batch.jsonl"; then
  echo "ok: solve --json lines equal batch lines for the same jobs"
else
  echo "FAIL: solve --json and batch disagree on the same two jobs"
  sed 's/^/    /' "$tmpdir/solve.jsonl" "$tmpdir/batch.jsonl"
  failures=$((failures + 1))
fi
# An exact job runs before the with_optimum jobs of its instance, so its
# optimum serves them: one Blossom solve in all (greedy listed first), and
# the lines still come in --algo order under their --algo position ids.
"$bin" solve --algo=greedy,exact-blossom --gen=erdos_renyi --n=40 --m=100 \
  --seed=3 --json --with-optimum --trace="$tmpdir/optimum-trace.json" \
  > "$tmpdir/optimum.jsonl" 2>/dev/null
if python3 -c '
import json, sys
events = json.load(open(sys.argv[1]))["traceEvents"]
spans = sum(1 for e in events if e["name"] == "exact.blossom" and e["ph"] == "B")
lines = [json.loads(line) for line in open(sys.argv[2])]
order = [(o["id"], o["algorithm"]) for o in lines]
ratios = [o["matching"]["ratio"] for o in lines]
sys.exit(0 if spans == 1 and ratios[1] == 1 and order ==
         [("job-0", "greedy"), ("job-1", "exact-blossom")] else 1)
' "$tmpdir/optimum-trace.json" "$tmpdir/optimum.jsonl"; then
  echo "ok: solve --with-optimum runs Blossom once beside exact-blossom"
else
  echo "FAIL: solve --algo=greedy,exact-blossom --with-optimum: want one"
  echo "      exact.blossom span and lines in --algo order"
  sed 's/^/    /' "$tmpdir/optimum.jsonl"
  failures=$((failures + 1))
fi
# planted optima need no --with-optimum (hard-four-cycle: greedy gets 0.7)
expect_error 0 '"optimum":81920,"ratio":0.7}' \
  solve --algo=greedy --gen=hard-four-cycle --n=40 --json
# a bipartite-only solver on a general instance is skipped, as in batch
expect_error 0 '"algorithm":"exact-hk".*"skipped":true' \
  solve --algo=exact-hk --gen=erdos_renyi --n=50 --m=100 --json
expect_error 0 "exact-hk .*skipped" \
  solve --algo=exact-hk,greedy --gen=erdos_renyi --n=50 --m=100

# README.md's CLI reference embeds the generated `wmatch_cli help` text
# verbatim (the parser and the help text come from one flag table).
help_text=$("$bin" help)
readme_text=$(cat "$(dirname "$0")/../README.md")
if [[ "$readme_text" == *"$help_text"* ]]; then
  echo "ok: README.md embeds the wmatch_cli help text"
else
  echo "FAIL: README.md does not embed the current \`wmatch_cli help\` text;"
  echo "      regenerate its CLI reference block from ./build/wmatch_cli help"
  failures=$((failures + 1))
fi

if [ "$failures" -ne 0 ]; then
  echo "$failures CLI error-path check(s) failed"
  exit 1
fi
echo "all CLI error-path checks passed"
