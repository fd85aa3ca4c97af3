#!/usr/bin/env sh
# Tier-1 verification for the hermetic workspace.
#
# Runs entirely offline: the workspace has zero external dependencies
# (see crates/substrate), so this must succeed from a clean checkout
# with an empty cargo registry cache and no network.
set -eu

cd "$(dirname "$0")"

echo "==> cargo build --release --offline"
cargo build --release --offline --workspace --all-targets

echo "==> cargo test -q --offline"
cargo test -q --offline --workspace

echo "==> perfbench tests: the benchmark harness still builds against the crate APIs"
# perfbench is its own workspace (not a member above), so an API change
# it consumes (e.g. AnalyzerCfg) would otherwise surface only when the
# benchmark runs.
cargo test -q --offline --manifest-path perfbench/Cargo.toml

echo "==> cargo clippy --offline -- -D warnings"
cargo clippy --offline --workspace --all-targets -- -D warnings

echo "==> rma-trace CLI smoke test: record -> replay, verdict must match"
SMOKE_DIR="target/trace-smoke"
mkdir -p "$SMOKE_DIR"
SMOKE_CASE=lo2_put_put_inwindow_target_race
RMA_TRACE=./target/release/rma-trace
LIVE_VERDICT=$("$RMA_TRACE" record --case "$SMOKE_CASE" \
    --out "$SMOKE_DIR/smoke.rmatrc" | grep '^verdict:')
REPLAY_VERDICT=$("$RMA_TRACE" replay "$SMOKE_DIR/smoke.rmatrc" \
    --store fragmerge | grep '^verdict:')
"$RMA_TRACE" stat "$SMOKE_DIR/smoke.rmatrc" > /dev/null
"$RMA_TRACE" diff "$SMOKE_DIR/smoke.rmatrc" "$SMOKE_DIR/smoke.rmatrc" > /dev/null
if [ "$LIVE_VERDICT" != "$REPLAY_VERDICT" ]; then
    echo "ERROR: live verdict '$LIVE_VERDICT' != replay verdict '$REPLAY_VERDICT'" >&2
    exit 1
fi
echo "    live == replay: $LIVE_VERDICT"

echo "==> minimize/gentest smoke: shrink a racy corpus trace, generate its test, run it"
# The race -> minimized repro -> regression test pipeline, end to end,
# twice: both the minimized trace and the generated test source must be
# byte-identical across runs (no timestamps, no host paths, stable
# string-table order). The minimized trace must be strictly smaller
# with the identical canonical verdict (asserted via `diff
# --verdict-only`, which exits non-zero on verdict drift), and the
# generated test must compile *standalone* against the built rlib and
# pass under `timeout`.
MIN_IN=tests/corpus/lo2_put_put_inwindow_target_race.rmatrc
for RUN in a b; do
    timeout 60 "$RMA_TRACE" minimize "$MIN_IN" "$SMOKE_DIR/min-$RUN.rmatrc" > /dev/null
    timeout 60 "$RMA_TRACE" gentest "$SMOKE_DIR/min-$RUN.rmatrc" "$SMOKE_DIR/gen-$RUN.rs" \
        --name ci_minimize_smoke --truth race \
        --provenance "ci.sh minimize smoke over the put/put corpus race" > /dev/null
done
if ! cmp -s "$SMOKE_DIR/min-a.rmatrc" "$SMOKE_DIR/min-b.rmatrc"; then
    echo "ERROR: two minimize runs produced different trace bytes" >&2
    exit 1
fi
if ! cmp -s "$SMOKE_DIR/gen-a.rs" "$SMOKE_DIR/gen-b.rs"; then
    echo "ERROR: two gentest runs produced different test source" >&2
    exit 1
fi
IN_EVENTS=$("$RMA_TRACE" stat "$MIN_IN" | sed -n 's/.*totals: \([0-9]*\) events.*/\1/p')
MIN_EVENTS=$("$RMA_TRACE" stat "$SMOKE_DIR/min-a.rmatrc" \
    | sed -n 's/.*totals: \([0-9]*\) events.*/\1/p')
if [ "$MIN_EVENTS" -ge "$IN_EVENTS" ]; then
    echo "ERROR: minimize did not shrink ($IN_EVENTS -> $MIN_EVENTS events)" >&2
    exit 1
fi
timeout 60 "$RMA_TRACE" diff --verdict-only "$MIN_IN" "$SMOKE_DIR/min-a.rmatrc" > /dev/null
RMA_TRACE_RLIB=$(ls -t target/release/deps/librma_trace-*.rlib | head -n 1)
timeout 120 rustc --edition 2021 --test "$SMOKE_DIR/gen-a.rs" \
    --extern rma_trace="$RMA_TRACE_RLIB" -L dependency=target/release/deps \
    -o "$SMOKE_DIR/gen-smoke-test"
timeout 60 "$SMOKE_DIR/gen-smoke-test" > /dev/null
echo "    $IN_EVENTS -> $MIN_EVENTS events, verdict preserved; generated test passes standalone"

echo "==> chaos gentest hook: raced finds turn into corpus artifacts"
# A tiny sweep with --gentest-dir must drop at least one minimized
# trace + generated test pair (seeds 0..8 contain raced scenarios), and
# the hook must not perturb the byte-stable --json stdout.
rm -rf "$SMOKE_DIR/chaos-finds"
timeout 300 ./target/release/rma-chaos --seeds 8 --watchdog-ms 2000 --json \
    --gentest-dir "$SMOKE_DIR/chaos-finds" > "$SMOKE_DIR/chaos-gentest.json" 2> /dev/null
if ! ls "$SMOKE_DIR/chaos-finds"/gen_*.rs > /dev/null 2>&1; then
    echo "ERROR: chaos --gentest-dir produced no generated tests" >&2
    exit 1
fi
timeout 300 ./target/release/rma-chaos --seeds 8 --watchdog-ms 2000 --json \
    > "$SMOKE_DIR/chaos-plain.json" 2> /dev/null
if ! diff "$SMOKE_DIR/chaos-gentest.json" "$SMOKE_DIR/chaos-plain.json"; then
    echo "ERROR: --gentest-dir changed the sweep's --json stdout" >&2
    exit 1
fi
echo "    $(ls "$SMOKE_DIR/chaos-finds"/gen_*.rs | wc -l) find(s) converted; json unchanged"

echo "==> chaos sweep: 16 seeded fault scenarios, twice, byte-identical"
# `timeout` guards the guarantee under test: a wedged sweep is a bug,
# not something to wait out. (Busybox/coreutils both ship timeout.)
# The sweep runs twice with --json: the machine-readable output carries
# no timestamps and deterministic respawn counts, so any byte of
# difference between the two runs is a reproducibility bug (and a
# verdict divergence or contract violation fails either run directly).
timeout 300 ./target/release/rma-chaos --seeds 16 --watchdog-ms 2000 --json \
    > "$SMOKE_DIR/chaos-a.json"
timeout 300 ./target/release/rma-chaos --seeds 16 --watchdog-ms 2000 --json \
    > "$SMOKE_DIR/chaos-b.json"
if ! diff "$SMOKE_DIR/chaos-a.json" "$SMOKE_DIR/chaos-b.json"; then
    echo "ERROR: two identical chaos sweeps produced different --json output" >&2
    exit 1
fi
echo "    $(wc -l < "$SMOKE_DIR/chaos-a.json") scenarios, both sweeps identical"

echo "==> kill-worker recovery: checkpointed verdicts survive supervised respawns"
# Structured-abort semantics are the guarantee here too: if recovery
# (or the beyond-budget abort) ever regresses into a hang, `timeout`
# turns it into a failure instead of a wedged CI job.
timeout 600 cargo test -q --offline -p rma-suite --test recovery

echo "==> salvage round-trip: truncate mid-epoch -> salvage -> replay prefix"
# Record a two-epoch corpus case, tear off the trailer plus part of the
# last stream, then recover: salvage must keep at least one complete
# epoch, and the salvaged file must replay to the same verdict as
# `replay --tolerate-truncation` on the torn bytes directly. The case is
# race-free in both epochs, so any recovered prefix replays clean.
EPOCH_CASE=ll_put_put_inwindow_target_epochs_safe
"$RMA_TRACE" record --case "$EPOCH_CASE" --out "$SMOKE_DIR/epochs.rmatrc" > /dev/null
EPOCH_BYTES=$(wc -c < "$SMOKE_DIR/epochs.rmatrc")
for CUT in 40 50; do
    head -c $((EPOCH_BYTES - CUT)) "$SMOKE_DIR/epochs.rmatrc" > "$SMOKE_DIR/torn.rmatrc"
    if "$RMA_TRACE" replay "$SMOKE_DIR/torn.rmatrc" > /dev/null 2>&1; then
        echo "ERROR: torn trace must not replay without --tolerate-truncation" >&2
        exit 1
    fi
    SALVAGE_OUT=$(timeout 60 "$RMA_TRACE" salvage "$SMOKE_DIR/torn.rmatrc" \
        --out "$SMOKE_DIR/salvaged.rmatrc")
    SALVAGE_LINE=$(printf '%s\n' "$SALVAGE_OUT" | head -n 1)
    case "$SALVAGE_LINE" in
        *"across 0 complete"*)
            echo "ERROR: cut $CUT recovered no epochs: $SALVAGE_LINE" >&2
            exit 1 ;;
    esac
    SALVAGE_VERDICT=$(timeout 60 "$RMA_TRACE" replay "$SMOKE_DIR/salvaged.rmatrc" \
        --store fragmerge | grep '^verdict:')
    TOLERANT_VERDICT=$(timeout 60 "$RMA_TRACE" replay "$SMOKE_DIR/torn.rmatrc" \
        --store fragmerge --tolerate-truncation 2> /dev/null | grep '^verdict:')
    if [ "$SALVAGE_VERDICT" != "$TOLERANT_VERDICT" ]; then
        echo "ERROR: salvage verdict '$SALVAGE_VERDICT' != tolerant replay '$TOLERANT_VERDICT'" >&2
        exit 1
    fi
    if [ "$SALVAGE_VERDICT" != "verdict: clean" ]; then
        echo "ERROR: race-free prefix replayed racy: $SALVAGE_VERDICT" >&2
        exit 1
    fi
    echo "    cut $CUT: $SALVAGE_LINE"
done

echo "==> hostile header: an out-of-range rank count is unsalvageable, never an abort"
# 17 bytes: magic, version 2, nranks = u32::MAX, seed 0, an empty app
# and an empty string table. Readers size per-rank tables from the
# header, so both tolerant entry points must reject it as a structured
# error (the CLI's error status is 2), not die allocating (status 134).
printf 'RMATRC01\002\377\377\377\377\017\000\000\000' > "$SMOKE_DIR/hostile.rmatrc"
if [ "$(wc -c < "$SMOKE_DIR/hostile.rmatrc")" -ne 17 ]; then
    echo "ERROR: hostile header is not 17 bytes" >&2
    exit 1
fi
for CMD in salvage "replay --tolerate-truncation"; do
    STATUS=0
    # shellcheck disable=SC2086 # CMD is deliberately split into subcommand + flag
    HOSTILE_ERR=$(timeout 60 "$RMA_TRACE" $CMD "$SMOKE_DIR/hostile.rmatrc" 2>&1 > /dev/null) \
        || STATUS=$?
    case "$STATUS:$HOSTILE_ERR" in
        2:*unsalvageable*) echo "    $CMD: $HOSTILE_ERR" ;;
        *)
            echo "ERROR: $CMD on the hostile header exited $STATUS: $HOSTILE_ERR" >&2
            exit 1 ;;
    esac
done

echo "==> differential campaign: store engines and the delivery grid"
# Engine-vs-tree store equivalence (the production BlockedStore against
# FragMergeStore: exact verdicts, snapshots and statistics, with and
# without merging and budgets; randomized, seeds checked in) and the
# 240-case verdict sweep over delivery (Direct, and Messages, which
# always batches): any verdict difference from the default
# configuration fails here.
timeout 300 cargo test -q --offline -p rma-core --test engine_prop
timeout 600 cargo test -q --offline -p rma-suite --test grid_equivalence

echo "==> flake sweep: thread-sensitive suites, 10 runs each, oversubscribed"
# A timing-dependent test is a bug, not noise. Each binary below runs 10
# times under 8 test threads, every run under `timeout`; one failed or
# wedged run fails CI, and nothing is skipped or retried.
for SUITE in rma-must:must_behaviour rma-monitor:analyzer_behaviour \
    rma-trace:replay_fidelity rma-trace:replay_incremental rma-suite:grid_equivalence \
    rma-suite:recovery \
    rma-served:service_replay rma-served:backpressure rma-served:overload \
    rma-served:journal_redelivery rma-served:caller_runs rma-served:dispatch \
    rma-served:durability rma-served:pipeline rma-substrate:channel_cancel rma-substrate:channel_wakes \
    rma-substrate:determinism rma-sim:faults; do
    PKG=${SUITE%%:*}
    TEST=${SUITE#*:}
    RUN=1
    while [ "$RUN" -le 10 ]; do
        if ! timeout 300 cargo test -q --offline -p "$PKG" --test "$TEST" -- --test-threads 8 \
            > "$SMOKE_DIR/flake.log" 2>&1; then
            cat "$SMOKE_DIR/flake.log" >&2
            echo "ERROR: $TEST failed on run $RUN of 10" >&2
            exit 1
        fi
        RUN=$((RUN + 1))
    done
    echo "    $TEST: 10/10 runs green"
done

echo "==> BENCH_paper.json: its documented regeneration command reproduces it"
# The counted claims (race-check visits against tree size, node counts
# per insertion pattern, Code 2) are pure functions of the code. Tier-1's
# paper_counts test compares the library's output; this compares what
# the release binary prints, byte for byte.
./target/release/repro_counts | cmp - BENCH_paper.json
echo "    repro_counts == BENCH_paper.json"

echo "==> bench_hotpath smoke: runs, self-validates, baseline stays well-formed"
# The smoke benchmark must complete quickly and emit a schema-valid
# report; the checked-in baseline must stay schema-valid too (it is
# byte-stable modulo timing fields, so a hand-mangled or truncated
# baseline fails --check).
BENCH_HOTPATH=./target/release/bench_hotpath
timeout 120 "$BENCH_HOTPATH" --smoke --out "$SMOKE_DIR/bench_smoke.json"
"$BENCH_HOTPATH" --check "$SMOKE_DIR/bench_smoke.json"
"$BENCH_HOTPATH" --check BENCH_hotpath.json

echo "==> bench regression guard: production engine never loses to the tree reference"
# On every replay workload of the checked-in baseline, blocked (the
# production store) must report the tree reference's (fragmerge) races,
# peak nodes and fast-hit rate, and its paired per-round speedups over
# the tree must not put the upper end of their median's 95% confidence
# interval below 1.0: regenerating the baseline with a regression
# re-introduced fails here. The live/churn row has no tree row to
# compare with (the live analyzer only builds the production store), so
# it is not guarded.
# The freshly measured smoke run has 7 rounds a workload, so its
# interval is the rounds' [min, max]. At parity, a 1.0 tolerance would
# fail whenever all 7 rounds of one of the 14 corpus traces fell below
# the tree (1 in 128 per trace): a timing-dependent gate. At 0.5 it
# fails only a production store 2x slower than the tree in every round,
# and still fails any divergent race count or deterministic column.
"$BENCH_HOTPATH" --guard BENCH_hotpath.json --tolerance 1.0
"$BENCH_HOTPATH" --guard "$SMOKE_DIR/bench_smoke.json" --tolerance 0.5

echo "==> served isolation & backpressure: chaos kills, bounded queues, watchdogs"
# The multi-tenant contracts are guarantees, not best-effort: a sibling
# tenant's worker kills must not perturb another tenant's verdicts, a
# slow tenant must be flow-controlled (bounded queue depth) rather than
# buffered, and a wedged pool must trip the watchdog instead of hanging
# — so the whole suite runs under `timeout`.
timeout 600 cargo test -q --offline -p rma-served --test service_replay --test backpressure

echo "==> rma-served smoke: spool daemon, concurrent tenants, deterministic stats"
# Boots the daemon under `timeout`, submits two corpus streams from
# concurrent client processes (one via `rma-served submit`, one via the
# `rma-trace pump` client mode), and requires each stream's served
# verdict line to match direct `rma-trace replay` byte-for-byte. The
# whole smoke runs twice into separate spools; the final stats.json is
# a counts-only artifact (no timestamps/rates), so the two runs must be
# byte-identical.
RMA_SERVED=./target/release/rma-served
# The store engine is not selectable: retired flags must fail with the
# usage text, never be silently ignored.
for FLAG in "--engine tree" "--shards 4"; do
    # shellcheck disable=SC2086 # FLAG is deliberately split into flag + value
    if timeout 10 "$RMA_SERVED" serve --spool "$SMOKE_DIR/served-flags" $FLAG \
        > /dev/null 2> "$SMOKE_DIR/served-flags.err"; then
        echo "ERROR: rma-served serve accepted the removed flag '$FLAG'" >&2
        exit 1
    fi
    if ! grep -q '^usage:' "$SMOKE_DIR/served-flags.err"; then
        echo "ERROR: rma-served serve $FLAG failed without the usage error" >&2
        exit 1
    fi
done
echo "    removed flags --engine/--shards rejected with usage"
SMOKE_A=tests/corpus/lo2_put_put_inwindow_target_race.rmatrc
SMOKE_B=tests/corpus/ll_get_load_inwindow_origin_race.rmatrc
for RUN in a b; do
    SPOOL="$SMOKE_DIR/served-$RUN"
    rm -rf "$SPOOL"
    mkdir -p "$SPOOL"
    timeout 180 "$RMA_SERVED" serve --spool "$SPOOL" --workers 2 --queue-bound 4 \
        2> /dev/null &
    SERVED_PID=$!
    I=0
    while [ ! -d "$SPOOL/inbox" ] && [ "$I" -lt 100 ]; do I=$((I + 1)); sleep 0.1; done
    timeout 120 "$RMA_SERVED" submit "$SMOKE_A" --spool "$SPOOL" --tenant alpha \
        --name put-race --wait > "$SPOOL/alpha.out" &
    SUB_A=$!
    timeout 120 "$RMA_TRACE" pump "$SMOKE_B" --spool "$SPOOL" --tenant beta \
        --name get-race --wait > "$SPOOL/beta.out" &
    SUB_B=$!
    wait "$SUB_A"
    wait "$SUB_B"
    timeout 120 "$RMA_SERVED" shutdown --spool "$SPOOL" --wait > /dev/null
    wait "$SERVED_PID"
    for STREAM in "alpha:$SMOKE_A" "beta:$SMOKE_B"; do
        TENANT=${STREAM%%:*}
        FILE=${STREAM#*:}
        SERVED_VERDICT=$(grep '^verdict:' "$SPOOL/$TENANT.out")
        DIRECT_VERDICT=$("$RMA_TRACE" replay "$FILE" --store fragmerge | grep '^verdict:')
        if [ "$SERVED_VERDICT" != "$DIRECT_VERDICT" ]; then
            echo "ERROR: $TENANT served verdict '$SERVED_VERDICT' != direct '$DIRECT_VERDICT'" >&2
            exit 1
        fi
    done
    timeout 60 "$RMA_SERVED" stats --spool "$SPOOL" --check > /dev/null
    echo "    run $RUN: both tenants match direct replay; stats schema ok"
done
if ! diff "$SMOKE_DIR/served-a/stats.json" "$SMOKE_DIR/served-b/stats.json"; then
    echo "ERROR: two identical served runs produced different stats.json" >&2
    exit 1
fi
echo "    both runs' stats.json byte-identical"

echo "==> crash-restart smoke: kill -9 mid-stream, restart, verdict must match direct replay"
# The durability contract end-to-end with a real process kill: admit a
# stream, hold it in flight with a large per-chunk ingest delay, SIGKILL
# the daemon (no drain, no cleanup — exactly what the WAL exists for),
# then restart over the same spool. Startup recovery must publish a
# verdict byte-comparable with direct replay, leave zero spool debris,
# and report itself in the (schema-checked) stats.json recovery object.
SPOOL="$SMOKE_DIR/served-crash"
rm -rf "$SPOOL"
mkdir -p "$SPOOL"
# No `timeout` wrapper on this daemon: $! must be the daemon itself so
# the kill -9 below hits it (SIGKILL is not forwarded through timeout,
# which would orphan the daemon on the spool — and an orphan holding
# stdout would wedge the surrounding pipeline). The kill is
# deterministic, so the wedge-guard timeout is not needed here; stdout
# and stderr are dropped for the same reason.
"$RMA_SERVED" serve --spool "$SPOOL" --workers 1 --durability strict \
    --ingest-delay-ms 400 > /dev/null 2>&1 &
SERVED_PID=$!
I=0
while [ ! -d "$SPOOL/inbox" ] && [ "$I" -lt 100 ]; do I=$((I + 1)); sleep 0.1; done
timeout 60 "$RMA_SERVED" submit "$SMOKE_A" --spool "$SPOOL" --tenant alpha \
    --name put-race > /dev/null
# The WAL appears at admission, well before the delayed feed completes.
I=0
while [ ! -s "$SPOOL/wal/alpha__put-race.wal" ] && [ "$I" -lt 200 ]; do
    I=$((I + 1)); sleep 0.05
done
kill -9 "$SERVED_PID"
wait "$SERVED_PID" 2> /dev/null || true
if [ -e "$SPOOL/outbox/alpha__put-race.verdict" ]; then
    echo "ERROR: verdict already published before the kill (smoke raced; raise delay)" >&2
    exit 1
fi
timeout 180 "$RMA_SERVED" serve --spool "$SPOOL" --workers 1 --durability strict \
    2> "$SPOOL/restart.log" &
SERVED_PID=$!
timeout 120 "$RMA_SERVED" shutdown --spool "$SPOOL" --wait > /dev/null
wait "$SERVED_PID"
if ! grep -q "recovery:" "$SPOOL/restart.log"; then
    echo "ERROR: restarted daemon reported no recovery (state was lost?)" >&2
    exit 1
fi
SERVED_VERDICT=$(grep '^verdict:' "$SPOOL/outbox/alpha__put-race.verdict")
DIRECT_VERDICT=$("$RMA_TRACE" replay "$SMOKE_A" --store fragmerge | grep '^verdict:')
if [ "$SERVED_VERDICT" != "$DIRECT_VERDICT" ]; then
    echo "ERROR: recovered verdict '$SERVED_VERDICT' != direct '$DIRECT_VERDICT'" >&2
    exit 1
fi
for SUB in wal work tmp; do
    if [ -n "$(ls -A "$SPOOL/$SUB" 2> /dev/null)" ]; then
        echo "ERROR: spool debris left in $SUB/ after recovery" >&2
        exit 1
    fi
done
timeout 60 "$RMA_SERVED" stats --spool "$SPOOL" --check > /dev/null
echo "    kill -9 mid-stream recovered: $SERVED_VERDICT; spool clean, stats schema ok"

echo "==> overload smoke: quota shed, memory brownout, quarantine — structured and byte-stable"
# Floods a serial daemon past its per-tenant quota (3 streams, quota 1)
# and its global memory budget, with a seeded poison stream in the mix.
# Overload must degrade *structurally*: shed verdicts carry a
# machine-readable retry hint, a browned-out verdict says so
# (degraded: true — FP-only, never a hidden race), the poison stream is
# quarantined with its bytes parked for offline replay — and the
# stats.json artifact stays counts-only, so two identical floods must
# be byte-identical.
HEAVY="$SMOKE_DIR/overload_heavy.rmatrc"
timeout 60 "$RMA_TRACE" record --app bfs --out "$HEAVY" > /dev/null
for RUN in a b; do
    SPOOL="$SMOKE_DIR/served-overload-$RUN"
    rm -rf "$SPOOL"
    mkdir -p "$SPOOL/inbox"
    for S in s1 s2 s3; do cp "$HEAVY" "$SPOOL/inbox/acme__$S.rmatrc"; done
    cp "$SMOKE_B" "$SPOOL/inbox/poison__bad.rmatrc"
    : > "$SPOOL/inbox/__shutdown__"
    timeout 180 "$RMA_SERVED" serve --spool "$SPOOL" --serial --workers 1 \
        --memory-budget 2 --max-streams-per-tenant 1 \
        --max-respawns 5 --quarantine-after 2 \
        --chaos-kill-tenant poison --chaos-kill-times 99 > /dev/null 2>&1
    for S in s2 s3; do
        if ! grep -q '^shed: tenant quota reached' "$SPOOL/outbox/acme__$S.verdict" ||
            ! grep -q '^retry-after-ms: ' "$SPOOL/outbox/acme__$S.verdict"; then
            echo "ERROR: acme/$S shed verdict lacks the structured retry hint" >&2
            exit 1
        fi
    done
    if ! grep -q '^degraded: true' "$SPOOL/outbox/acme__s1.verdict"; then
        echo "ERROR: browned-out verdict not marked degraded" >&2
        exit 1
    fi
    if ! grep -q '^tier: quarantined' "$SPOOL/outbox/poison__bad.verdict"; then
        echo "ERROR: poison stream was not quarantined" >&2
        exit 1
    fi
    if ! cmp -s "$SPOOL/quarantine/poison__bad.rmatrc" "$SMOKE_B"; then
        echo "ERROR: quarantined bytes differ from the admitted stream" >&2
        exit 1
    fi
    for PAT in '"shed":2' '"quarantined":1' '"tenant_quota":1' '"memory_budget":2'; do
        if ! grep -q "$PAT" "$SPOOL/stats.json"; then
            echo "ERROR: stats.json missing overload counter $PAT" >&2
            exit 1
        fi
    done
    if ! grep -o '"brownout":[0-9]*' "$SPOOL/stats.json" | grep -qv '"brownout":0'; then
        echo "ERROR: stats.json reports no brownouts despite the memory budget" >&2
        exit 1
    fi
    timeout 60 "$RMA_SERVED" stats --spool "$SPOOL" --check > /dev/null
    if ! timeout 60 "$RMA_SERVED" stats --spool "$SPOOL" --human | grep -q '^overload: shed 2'; then
        echo "ERROR: human stats rendering lost the overload tallies" >&2
        exit 1
    fi
    # quarantine/ legitimately holds the parked bytes; everything else
    # must be clean after a drained exit.
    for SUB in wal work tmp; do
        if [ -n "$(ls -A "$SPOOL/$SUB" 2> /dev/null)" ]; then
            echo "ERROR: spool debris left in $SUB/ after the overload run" >&2
            exit 1
        fi
    done
    echo "    run $RUN: 2 shed (retryable), 1 browned out (degraded), 1 quarantined (replayable)"
done
if ! diff "$SMOKE_DIR/served-overload-a/stats.json" "$SMOKE_DIR/served-overload-b/stats.json"; then
    echo "ERROR: two identical overload floods produced different stats.json" >&2
    exit 1
fi
echo "    both floods' stats.json byte-identical"

echo "==> bench_served smoke: runs, self-validates, baseline stays well-formed"
BENCH_SERVED=./target/release/bench_served
timeout 180 "$BENCH_SERVED" --smoke --out "$SMOKE_DIR/bench_served_smoke.json"
"$BENCH_SERVED" --check "$SMOKE_DIR/bench_served_smoke.json"
"$BENCH_SERVED" --check BENCH_served.json

echo "==> hermeticity check: no external dependency declarations"
if grep -rn "proptest\|criterion\|crossbeam\|parking_lot\|^rand" \
    Cargo.toml crates/*/Cargo.toml; then
    echo "ERROR: external dependency declaration found above" >&2
    exit 1
fi

echo "ci.sh: all checks passed"
