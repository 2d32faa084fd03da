#!/usr/bin/env bash
# Offline CI gate: build, test, smokes, benchmark quick run. No network
# access needed — the workspace has no external dependencies and
# `--offline` makes cargo fail loudly rather than silently reach for
# the index.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== build (release) =="
cargo build --release --offline

echo "== bench targets compile (micro, paper_eval) =="
# No test run compiles the `benches/` targets, so without this they
# can stop compiling unnoticed.
cargo bench --no-run --offline -p linarb-bench

echo "== rustdoc (warnings are errors) =="
# A doc link to a deleted or private item is a warning; failing on it
# keeps the API docs in step with the code.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline

echo "== tests (LINARB_THREADS=1) =="
LINARB_THREADS=1 cargo test -q --offline --workspace

echo "== seeding differential gate =="
# Seeded vs unseeded runs must agree on verdicts (with both sat
# interpretations verifying independently). Repeated here by name so
# a filtered CI invocation cannot skip it silently.
cargo test -q --offline -p linarb-bench --test seeding

echo "== oracle differential gate (box enumeration reference) =="
# The online DPLL(T) engine (warm theory inside the search, LBD
# clause-DB reduction) against exhaustive enumeration of a box, which
# shares no code with the solver: every sat and unsat verdict on
# randomized boxed formulas, through check_sat and one long-lived
# incremental context, plus pooled-conjunction equivalence and
# run-to-run determinism with DB reduction on. Repeated by name for
# the same cannot-skip-silently reason.
cargo test -q --offline -p linarb-bench --test online_oracle_differential

echo "== portfolio differential gate (1 and 4 threads) =="
# The portfolio driver's verdicts must agree with every single engine
# on the whole suite, winning certificates must check on both
# polarities (SAT invariants verified clause-by-clause, UNSAT
# derivations replayed), forced-winner mode must be deterministic, and
# the harder tier must contain instances lone CEGAR times out on but
# the portfolio solves. LINARB_THREADS picks the race width inside the
# driver, which races at least two engines: 1 is clamped to 2 (cegar
# beside spacer, one engine per solver family first), 4 starts cegar,
# spacer, bmc and duality together under one cancellable budget. The
# hard_wide regression pins its own widths. Repeated here by name so a
# filtered CI invocation cannot skip it silently.
LINARB_THREADS=1 cargo test -q --offline -p linarb-bench --test portfolio
LINARB_THREADS=4 cargo test -q --offline -p linarb-bench --test portfolio

echo "== portfolio CLI smoke =="
# End-to-end through the binary: `--engine portfolio` must solve fig1
# at every race width (1 is clamped to 2, the benchmark's and a 2-core
# host's width), and the LINARB_PORTFOLIO_FORCE override must pin the
# winner (cegar solves fig1; the paper reports Spacer diverging on it,
# which is exactly why the forced engine is cegar).
for t in 1 2 4; do
    out="$(cargo run --release --offline -p linarb --bin linarb -- \
        --engine portfolio --threads "$t" --timeout-ms 60000 examples/fig1.smt2)"
    [ "$out" = "sat" ] || { echo "portfolio CLI: fig1 at $t threads got '$out'" >&2; exit 1; }
done
out="$(LINARB_PORTFOLIO_FORCE=cegar cargo run --release --offline -p linarb --bin linarb -- \
    --engine portfolio --timeout-ms 60000 examples/fig1.smt2)"
[ "$out" = "sat" ] || { echo "portfolio CLI: forced cegar on fig1 got '$out'" >&2; exit 1; }

echo "== serve smoke (daemon + batch over a unix socket and over tcp) =="
# End-to-end through the daemon: start `linarb serve`, submit a batch
# of example programs over the socket, and require (a) the verdicts to
# match the single-shot CLI on the same files, (b) a repeated
# submission to be a verified exact cache hit, (c) a clean exit on
# `shutdown`. The daemon handles connections sequentially and the
# cache is a pure function of the submission sequence, so this is
# deterministic. Run once per transport; the daemon's ready line names
# the address it bound, which for `tcp:127.0.0.1:0` carries the port
# the OS chose.
serve_smoke() {
    local serve_log addr
    serve_log="$(mktemp /tmp/linarb_serve_ci.XXXXXX.log)"
    cargo run --release --offline -p linarb --bin linarb -- \
        serve --addr "$1" --timeout-ms 60000 >"$serve_log" 2>&1 &
    serve_pid=$!
    trap 'kill "$serve_pid" 2>/dev/null || true' EXIT
    addr=""
    for _ in $(seq 1 100); do
        addr="$(sed -n 's/^linarb-serve: ready on //p' "$serve_log")"
        [ -n "$addr" ] && break
        sleep 0.1
    done
    [ -n "$addr" ] || { echo "serve smoke: daemon never got ready on $1" >&2; cat "$serve_log" >&2; exit 1; }
    for f in examples/fig1.smt2 examples/fibo_unsafe.smt2; do
        single="$(cargo run --release --offline -p linarb --bin linarb -- "$f")"
        served="$(cargo run --release --offline -p linarb --bin linarb -- \
            client --addr "$addr" "$f")"
        got="$(echo "$served" | awk '{print $2}')"
        [ "$got" = "$single" ] \
            || { echo "serve smoke: $f served '$got' vs single-shot '$single' on $addr" >&2; exit 1; }
    done
    # Second submission of the same file: must be served from the exact
    # tier, re-verified before delivery.
    repeat="$(cargo run --release --offline -p linarb --bin linarb -- \
        client --addr "$addr" examples/fig1.smt2)"
    echo "$repeat" | grep -q 'cache=exact' \
        || { echo "serve smoke: repeat submission missed the cache on $addr: $repeat" >&2; exit 1; }
    echo "$repeat" | grep -q 'verified=true' \
        || { echo "serve smoke: exact hit served unverified on $addr: $repeat" >&2; exit 1; }
    cargo run --release --offline -p linarb --bin linarb -- \
        client --addr "$addr" --op shutdown >/dev/null
    wait "$serve_pid"
    trap - EXIT
    rm -f "$serve_log"
}
serve_smoke "unix:$(mktemp -u /tmp/linarb_serve_ci.XXXXXX.sock)"
serve_smoke "tcp:127.0.0.1:0"

echo "== cache-key determinism gate =="
# The canonicalization property tests (rename/reorder/scale variants
# of every named suite program share a key; perturbed constants never
# collide). Repeated here by name so a filtered CI invocation cannot
# skip it silently.
cargo test -q --offline -p linarb-frontend --test canon_props

echo "== benchmark harness (unit tests + quick run of every workload) =="
# The repository benchmark (benchmark/, its own Cargo package) builds
# against the crates' public entry points, so an API change that
# breaks it must fail here. The quick run checks ground truth and
# certificates for every verdict of all four workloads and exits
# non-zero on a violation; its timings are not gated.
cargo test -q --offline --manifest-path benchmark/Cargo.toml
benchmark/run.sh --quick

echo "== trace smoke (structured JSONL trace of one benchmark) =="
# Solve a benchmark with tracing on, then validate that the emitted
# trace is non-empty, well-formed JSONL containing spans from every
# instrumented layer and the final metrics report.
trace_out="$(mktemp /tmp/linarb_trace.XXXXXX.jsonl)"
cargo run --release --offline -p linarb --bin linarb -- \
    --trace debug --trace-out "$trace_out" examples/fig1.smt2
cargo run --release --offline -p linarb --bin linarb -- \
    --check-jsonl "$trace_out"
for target in core smt sat ml; do
    grep -q "\"target\":\"$target\"" "$trace_out" \
        || { echo "trace smoke: no events from '$target'" >&2; exit 1; }
done
grep -q '"kind":"metrics_report"' "$trace_out" \
    || { echo "trace smoke: missing metrics report trailer" >&2; exit 1; }
grep -q '"sat.decisions"' "$trace_out" \
    || { echo "trace smoke: metrics report lacks sat.decisions" >&2; exit 1; }
rm -f "$trace_out"

echo "== profiler smoke (hierarchical self-profile of one benchmark) =="
# Solve with the profiler on: the JSON export must parse (piggybacking
# on --check-jsonl's reader via a one-line file), the collapsed-stack
# file must contain the canonical solve path, and the profile tree's
# structural invariant is checked inside the binary itself (a
# violation prints to stderr; grep keeps it fatal here). The
# disabled-overhead direction is covered by the benchmark's untraced
# `total_s`, compared parent against change (benchmark/README.md).
prof_out="$(mktemp /tmp/linarb_prof.XXXXXX.json)"
prof_err="$(mktemp /tmp/linarb_prof.XXXXXX.err)"
cargo run --release --offline -p linarb --bin linarb -- \
    --profile-out "$prof_out" examples/fig1.smt2 2>"$prof_err"
cargo run --release --offline -p linarb --bin linarb -- \
    --check-jsonl "$prof_out"
grep -q 'linarb;cegar.solve;core.oracle' "$prof_out.folded" \
    || { echo "profiler smoke: oracle path missing from collapsed stacks" >&2; exit 1; }
if grep -q 'profile invariant violated' "$prof_err"; then
    cat "$prof_err" >&2
    exit 1
fi
rm -f "$prof_out" "$prof_out.folded" "$prof_err"

echo "== ci ok =="
