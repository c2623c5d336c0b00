#!/usr/bin/env bash
# CI gate for the pathalg workspace. Run from the repo root:
#
#   ./ci.sh               full gate: fmt, clippy -D warnings, no allow of
#                         dead or unused code, no index builds on the
#                         request path, no second ϕ implementation, no
#                         Path built between the kernel and the wire,
#                         no second plan walk in the engine,
#                         one request record, one SNB generator,
#                         one price per anchored ϕ,
#                         release build, tests, docs
#                         -D warnings, bench compile, benchmark package
#                         check, a 2 s benchmark run of every workload
#                         (answers checked against the expected digests),
#                         examples
#   ./ci.sh --quick       tier-1 subset only (see ROADMAP.md):
#                         cargo build --release && cargo test -q
#   ./ci.sh --bench-json  run every bench target under PATHALG_BENCH_MAX_MS
#                         and write the perf artifact (bench id → ns/iter)
#                         at the repo root; the output file is
#                         $PATHALG_BENCH_OUT (default BENCH_FRESH.json,
#                         untracked). A PR that changes performance
#                         regenerates the one committed baseline with
#                         PATHALG_BENCH_OUT=BENCH_BASELINE.json
#   ./ci.sh --perf-diff OLD.json NEW.json [--threshold X] [--geomean]
#                         compare two perf artifacts (CI: BENCH_BASELINE.json
#                         against the fresh run, --geomean): per-target
#                         geometric-mean ratios over the shared ids, the
#                         worst individual regressions, and clearly-labelled
#                         added/removed id sections; fails if any shared
#                         bench id got more than X times slower (default 2;
#                         benches with *expected* larger deltas — e.g.
#                         thread sweeps moved onto new machinery — can be
#                         gated intentionally at a looser factor instead of
#                         being exempted). With --geomean the gate applies
#                         to each per-target geometric mean instead of to
#                         individual ids — the right mode for tight
#                         thresholds on wall-time benches, where single-id
#                         run-to-run drift exceeds the threshold but the
#                         aggregate averages it out
#   ./ci.sh --perf-diff-selftest
#                         run the perf-diff comparator against generated
#                         fixtures (pass, regression, added/removed,
#                         missing-file) and verify its verdicts
#
# Everything in the full gate must stay green. No network access is required
# (deps are vendored, see vendor/README.md).

set -euo pipefail
cd "$(dirname "$0")"

step() { printf '\n==> %s\n' "$*"; }

quick() {
    step "cargo build --release"
    cargo build --release

    step "cargo test"
    cargo test -q
}

full() {
    step "cargo fmt --check"
    cargo fmt --all -- --check

    step "cargo clippy (all targets, -D warnings)"
    cargo clippy --workspace --all-targets -- -D warnings

    step "no allow(dead_code) or allow(unused): clippy names what nothing calls"
    if grep -rnE "allow\((dead_code|unused)" crates/*/src src tests examples; then
        echo "ci.sh: delete the unused item, or keep a test-only one behind #[cfg(test)]" >&2
        exit 1
    fi

    step "no index builds on the request path (engine and server share the graph's CSRs and posting index), one ϕ implementation"
    if grep -rnE "CsrGraph::(with_label|from_graph)|Pmr::from_label_(scan|chain)" \
        crates/pathalg-engine/src crates/pathalg-server/src; then
        echo "ci.sh: build CSRs once in GraphBuilder::build; read them via PropertyGraph::label_csr" >&2
        exit 1
    fi
    if grep -rnE "NodePostings|posting::" \
        crates/pathalg-engine/src crates/pathalg-server/src; then
        echo "ci.sh: the graph owns its posting index; read it via PropertyGraph::nodes_with_property_value" >&2
        exit 1
    fi
    if grep -rnE "phi_frontier|physical::frontier" crates/*/src; then
        echo "ci.sh: every ϕ runs on the pathalg-pmr kernel (Pmr::from_base for a materialised base)" >&2
        exit 1
    fi
    if [ "$(grep -rn "Pmr::from_shared_join" crates/pathalg-engine/src | wc -l)" -ne 1 ]; then
        echo "ci.sh: a scan or chain ϕ, sliced or not, runs through the one drain (drain_kernel in exec.rs)" >&2
        exit 1
    fi

    step "no Path between the kernel and the wire: one id-level slice collector, one collect_drain"
    if [ "$(grep -rn "owned_path(" crates/pathalg-engine/src | grep -vc "fn owned_path(")" -ne 1 ] ||
        ! awk '/fn [a-z_0-9]+[<(]/ { f = $0 }
               /owned_path\(/ && !/fn owned_path\(/ && f !~ /fn collect_drain\(/ { bad = 1 }
               END { exit bad }' crates/pathalg-engine/src/*.rs; then
        echo "ci.sh: the engine builds a Path from a drain only in collect_drain (exec.rs); render from the (nodes, edges) visitor" >&2
        exit 1
    fi
    if sed '/#\[cfg(test)\]/,$d' crates/pathalg-core/src/slice.rs | grep -nw "Path"; then
        echo "ci.sh: slice.rs only recognises pipelines; the pathalg-pmr slice collector keeps arena ids, not Paths" >&2
        exit 1
    fi

    step "one plan walk: the engine is core's Evaluator with the kernel drains plugged in"
    if sed '/#\[cfg(test)\]/,$d' crates/pathalg-engine/src/exec.rs |
        grep -nE "(^|[^A-Za-z0-9_.])(selection|join|union|group_by|order_by|projection)\("; then
        echo "ci.sh: exec.rs runs no core operator itself; Evaluator::eval_with walks the plan and the kernel half takes the drains" >&2
        exit 1
    fi

    step "one request record, one SNB generator"
    if [ "$(sed '/^mod tests/,$d' crates/pathalg-server/src/service.rs | grep -c 'traces\.push(')" -gt 1 ]; then
        echo "ci.sh: a request's trace is retained in one place, QueryService::finish (service.rs)" >&2
        exit 1
    fi
    if [ "$(sed '/^mod tests/,$d' crates/pathalg-graph/src/generator/snb.rs | grep -c 'seed_from_u64')" -gt 1 ]; then
        echo "ci.sh: the SNB graph and its streamed label CSR read one edge stream, snb_edges (generator/snb.rs)" >&2
        exit 1
    fi

    step "one price per anchored ϕ: admission and the recorded decision read one estimate"
    if sed '/#\[cfg(test)\]/,$d' crates/pathalg-engine/src/exec.rs | grep -n "estimate_phi(" ||
        sed '/#\[cfg(test)\]/,$d' crates/pathalg-engine/src/cost.rs | grep -n "endpoint_split("; then
        echo "ci.sh: cost::estimate_drain prices the drains exec::kernel_drain recognises; neither file prices or recognises an anchor itself" >&2
        exit 1
    fi

    quick

    step "cargo doc --no-deps (warnings are errors)"
    RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace -q

    step "cargo bench --no-run (compile all bench targets)"
    cargo bench --no-run -q

    step "benchmark package compiles (its own workspace, see BENCHMARK.json)"
    cargo check --locked --offline -q --manifest-path benchmark/Cargo.toml

    step "benchmark end to end (every workload, 2 s each: fails on a failed operation or a digest mismatch)"
    bash benchmark/run.sh --seconds 2 --trace 0

    step "examples compile"
    cargo build -q --examples

    step "repro (every paper figure, table and demo; figure6 and optimizer-demo assert)"
    cargo run -q --release -p repro

    step "repro scale (nodes-vs-throughput table, capped at 10^4 persons for CI)"
    cargo run -q --release -p repro -- scale --max 10000

    printf '\nci.sh: all checks passed\n'
}

# Runs every bench target with the vendored criterion's JSON-lines emitter
# enabled, then assembles $PATHALG_BENCH_OUT (default BENCH_FRESH.json): a flat
# "target/bench-id" → ns/iter map. PATHALG_BENCH_MAX_MS caps the
# per-benchmark measurement window.
bench_json() {
    local out="${PATHALG_BENCH_OUT:-BENCH_FRESH.json}"
    local jsonl="${out}.jsonl.tmp"
    rm -f "$jsonl" "$out"

    step "cargo bench (PATHALG_BENCH_MAX_MS=${PATHALG_BENCH_MAX_MS:-200}, emitting $out)"
    PATHALG_BENCH_MAX_MS="${PATHALG_BENCH_MAX_MS:-200}" \
        PATHALG_BENCH_JSON="$PWD/$jsonl" \
        cargo bench -q -p pathalg-bench

    step "assembling $out"
    # Each JSONL record carries its own target/bench/ns fields; fold them
    # into one JSON object keyed "target/bench", in measurement order.
    awk '
        {
            target = $0; sub(/.*"target":"/, "", target); sub(/".*/, "", target)
            bench  = $0; sub(/.*"bench":"/,  "", bench);  sub(/".*/, "", bench)
            ns     = $0; sub(/.*"ns_per_iter":/, "", ns); sub(/[,}].*/, "", ns)
            key = target "/" bench
            if (!(key in seen)) order[++n] = key
            seen[key] = ns   # last measurement of a re-run id wins
        }
        END {
            print "{"
            for (i = 1; i <= n; i++)
                printf "  \"%s\": %s%s\n", order[i], seen[order[i]], (i < n ? "," : "")
            print "}"
        }
    ' "$jsonl" > "$out"
    rm -f "$jsonl"

    # Sanity gate: every [[bench]] target of crates/bench must have produced
    # at least one entry, and the artifact must be valid JSON where jq exists.
    local missing=0
    while read -r target; do
        if ! grep -q "\"$target/" "$out"; then
            echo "ci.sh: bench target '$target' produced no entries in $out" >&2
            missing=1
        fi
    done < <(sed -n 's/^name = "\(.*\)"$/\1/p' crates/bench/Cargo.toml | grep -v '^pathalg-bench$')
    if [ "$missing" -ne 0 ]; then
        exit 1
    fi
    if command -v jq >/dev/null 2>&1; then
        jq empty "$out"
    fi
    printf '\nci.sh: wrote %s (%s entries)\n' "$out" "$(grep -c '":' "$out")"
}

# Compares two trajectory artifacts over their shared bench ids. Reports a
# per-target geometric-mean ratio (NEW/OLD) plus the worst individual ids,
# lists added/removed ids in clearly-labelled sections, and fails when any
# shared id regressed by more than the threshold (third argument, falling
# back to PATHALG_PERF_FACTOR, default 2.0). A fourth argument of
# "geomean" gates each per-target geometric mean instead of individual ids.
perf_diff() {
    local old="$1" new="$2"
    local factor="${3:-${PATHALG_PERF_FACTOR:-2.0}}"
    local mode="${4:-ids}"
    for f in "$old" "$new"; do
        if [ ! -f "$f" ]; then
            echo "ci.sh: perf-diff: no such file: $f" >&2
            exit 2
        fi
    done
    step "perf diff $old -> $new (fail on >${factor}x regression, per ${mode})"
    awk -v factor="$factor" -v mode="$mode" '
        # Trajectory lines look like:   "target/bench-id": 1234.5,
        /": *[0-9]/ {
            key = $0; sub(/^ *"/, "", key); sub(/".*/, "", key)
            ns  = $0; sub(/.*": */, "", ns); sub(/[,}].*/, "", ns)
            if (FILENAME == ARGV[1]) { if (!(key in old))  oldorder[++no] = key; old[key]  = ns }
            else                     { if (!(key in new_)) neworder[++nn] = key; new_[key] = ns }
        }
        END {
            # -- shared ids: per-target geomeans and the regression gate ----
            shared = 0; regressions = 0
            for (i = 1; i <= nn; i++) {
                key = neworder[i]
                if (!(key in old) || old[key] + 0 == 0) continue
                shared++
                ratio = new_[key] / old[key]
                target = key; sub(/\/.*/, "", target)
                logsum[target] += log(ratio); n[target]++
                if (ratio > worst[target]) { worst[target] = ratio; worst_id[target] = key }
                if (mode != "geomean" && ratio > factor) {
                    printf "  REGRESSION %.2fx  %s (%.0f -> %.0f ns/iter)\n", ratio, key, old[key], new_[key]
                    regressions++
                }
            }
            printf "  == shared ids: %d, per-target geomean (NEW/OLD) ==\n", shared
            for (target in n) {
                gm = exp(logsum[target] / n[target])
                printf "  %-24s geomean %.2fx  worst %.2fx (%s)\n", \
                    target, gm, worst[target], worst_id[target]
                if (mode == "geomean" && gm > factor) {
                    printf "  REGRESSION geomean %.2fx  %s\n", gm, target
                    regressions++
                }
            }
            # -- changed id sets, labelled so renames are never silent ------
            added = 0
            for (i = 1; i <= nn; i++) if (!(neworder[i] in old)) added++
            printf "  == added in NEW: %d id(s) ==\n", added
            for (i = 1; i <= nn; i++)
                if (!(neworder[i] in old)) printf "    + %s (%.0f ns/iter)\n", neworder[i], new_[neworder[i]]
            removed = 0
            for (i = 1; i <= no; i++) if (!(oldorder[i] in new_)) removed++
            printf "  == removed from NEW: %d id(s) ==\n", removed
            for (i = 1; i <= no; i++)
                if (!(oldorder[i] in new_)) printf "    - %s\n", oldorder[i]
            if (shared == 0) { print "  no shared bench ids — nothing to compare" > "/dev/stderr"; exit 2 }
            if (regressions > 0) {
                printf "ci.sh: perf-diff: %d bench id(s) regressed by more than %sx\n", regressions, factor > "/dev/stderr"
                exit 1
            }
            print "ci.sh: perf-diff passed"
        }
    ' "$old" "$new"
}

# Fixture-driven self-test of the perf-diff comparator: a passing diff with
# added and removed ids, a >2x regression (must fail with exit 1), disjoint
# id sets (exit 2), and a missing file (exit 2).
perf_diff_selftest() {
    step "perf-diff self-test"
    local dir
    dir="$(mktemp -d)"
    # `return 1` (never `exit`) on failure so this RETURN trap always cleans
    # the fixture directory; set -e turns the non-zero return into the
    # script's exit status.
    trap 'rm -rf "$dir"' RETURN

    cat > "$dir/old.json" <<'JSON'
{
  "alpha/x": 100,
  "alpha/y": 200,
  "beta/z": 1000,
  "beta/gone": 50
}
JSON
    cat > "$dir/new.json" <<'JSON'
{
  "alpha/x": 150,
  "alpha/y": 180,
  "beta/z": 900,
  "beta/fresh": 75
}
JSON

    local out
    out="$(perf_diff "$dir/old.json" "$dir/new.json")" || {
        echo "ci.sh: selftest: passing diff reported failure" >&2; return 1; }
    case "$out" in
        *"== shared ids: 3"*) ;;
        *) echo "ci.sh: selftest: shared-id section missing: $out" >&2; return 1 ;;
    esac
    case "$out" in
        *"added in NEW: 1"*"beta/fresh"*) ;;
        *) echo "ci.sh: selftest: added section missing: $out" >&2; return 1 ;;
    esac
    case "$out" in
        *"removed from NEW: 1"*"beta/gone"*) ;;
        *) echo "ci.sh: selftest: removed section missing: $out" >&2; return 1 ;;
    esac
    case "$out" in
        *"geomean"*) ;;
        *) echo "ci.sh: selftest: geomean lines missing: $out" >&2; return 1 ;;
    esac

    cat > "$dir/slow.json" <<'JSON'
{
  "alpha/x": 300,
  "alpha/y": 200,
  "beta/z": 1000
}
JSON
    local status=0
    (perf_diff "$dir/old.json" "$dir/slow.json" > "$dir/slow.out" 2>&1) || status=$?
    if [ "$status" -ne 1 ]; then
        echo "ci.sh: selftest: 3x regression exited $status, expected 1" >&2; return 1
    fi
    grep -q "REGRESSION 3.00x" "$dir/slow.out" || {
        echo "ci.sh: selftest: regression line missing" >&2; cat "$dir/slow.out" >&2; return 1; }

    # The same 3x regression passes when gated intentionally at --threshold 4,
    # and a tightened threshold of 1.2 catches the mild 1.5x id too.
    out="$(perf_diff "$dir/old.json" "$dir/slow.json" 4.0)" || {
        echo "ci.sh: selftest: --threshold 4 should tolerate a 3x regression" >&2; return 1; }
    status=0
    (perf_diff "$dir/old.json" "$dir/new.json" 1.2 > "$dir/tight.out" 2>&1) || status=$?
    if [ "$status" -ne 1 ]; then
        echo "ci.sh: selftest: threshold 1.2 exited $status, expected 1" >&2; return 1
    fi
    grep -q "REGRESSION 1.50x" "$dir/tight.out" || {
        echo "ci.sh: selftest: tightened-threshold regression line missing" >&2
        cat "$dir/tight.out" >&2; return 1; }

    # Geomean mode: the same 1.2 threshold that fails per-id (alpha/x is
    # 1.5x) passes on the aggregate (alpha geomean ≈ 1.16x), and a 1.1
    # threshold catches the aggregate.
    out="$(perf_diff "$dir/old.json" "$dir/new.json" 1.2 geomean)" || {
        echo "ci.sh: selftest: geomean 1.2 should tolerate a 1.16x aggregate" >&2; return 1; }
    status=0
    (perf_diff "$dir/old.json" "$dir/new.json" 1.1 geomean > "$dir/gm.out" 2>&1) || status=$?
    if [ "$status" -ne 1 ]; then
        echo "ci.sh: selftest: geomean 1.1 exited $status, expected 1" >&2; return 1
    fi
    grep -q "REGRESSION geomean 1.16x" "$dir/gm.out" || {
        echo "ci.sh: selftest: geomean regression line missing" >&2
        cat "$dir/gm.out" >&2; return 1; }

    cat > "$dir/disjoint.json" <<'JSON'
{
  "gamma/only": 10
}
JSON
    status=0
    (perf_diff "$dir/old.json" "$dir/disjoint.json" > /dev/null 2>&1) || status=$?
    if [ "$status" -ne 2 ]; then
        echo "ci.sh: selftest: disjoint id sets exited $status, expected 2" >&2; return 1
    fi

    status=0
    (perf_diff "$dir/old.json" "$dir/nonexistent.json" > /dev/null 2>&1) || status=$?
    if [ "$status" -ne 2 ]; then
        echo "ci.sh: selftest: missing file exited $status, expected 2" >&2; return 1
    fi

    printf 'ci.sh: perf-diff self-test passed\n'
}

case "${1:-}" in
    --quick)
        quick
        printf '\nci.sh: quick checks passed\n'
        ;;
    --bench-json)
        bench_json
        ;;
    --perf-diff)
        usage="usage: ./ci.sh --perf-diff OLD.json NEW.json [--threshold X] [--geomean]"
        if [ $# -lt 3 ]; then
            echo "$usage" >&2
            exit 2
        fi
        old_json="$2" new_json="$3"
        shift 3
        threshold="" mode="ids"
        while [ $# -gt 0 ]; do
            case "$1" in
                --threshold)
                    if [ $# -lt 2 ]; then echo "$usage" >&2; exit 2; fi
                    threshold="$2"; shift 2 ;;
                --geomean)
                    mode="geomean"; shift ;;
                *)
                    echo "$usage" >&2; exit 2 ;;
            esac
        done
        perf_diff "$old_json" "$new_json" "${threshold:-${PATHALG_PERF_FACTOR:-2.0}}" "$mode"
        ;;
    --perf-diff-selftest)
        perf_diff_selftest
        ;;
    "")
        full
        ;;
    *)
        echo "usage: ./ci.sh [--quick | --bench-json | --perf-diff OLD.json NEW.json [--threshold X] [--geomean] | --perf-diff-selftest]" >&2
        exit 2
        ;;
esac
