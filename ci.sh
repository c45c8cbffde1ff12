#!/usr/bin/env sh
# Offline CI gate for the nsr workspace. Runs the full tier-1 suite plus
# lint and formatting checks. Requires only the pinned Rust toolchain —
# no network access, no external crates (see Cargo.toml's offline-build
# policy).
#
# Usage: ./ci.sh
set -eu

cd "$(dirname "$0")"

echo "==> cargo build --release"
cargo build --release

echo "==> cargo test -q"
cargo test -q

SMOKE_DIR="$(mktemp -d)"
trap 'rm -rf "$SMOKE_DIR"' EXIT

echo "==> option check (a misspelled option fails instead of running the default)"
if ./target/release/nsr eval --config ft2-ir5 --nodez 32 > /dev/null 2>&1; then
    echo "ERROR: nsr eval accepted the misspelled option --nodez" >&2
    exit 1
fi
# The command table also says which commands take positionals (only
# bench and explain), and the usage text is rendered from it: bare `nsr`
# prints exactly what `nsr help` prints.
if ./target/release/nsr eval ft2-ir5 > /dev/null 2>&1; then
    echo "ERROR: nsr eval accepted a positional argument" >&2
    exit 1
fi
./target/release/nsr > "$SMOKE_DIR/usage-bare.txt"
./target/release/nsr help > "$SMOKE_DIR/usage-help.txt"
diff "$SMOKE_DIR/usage-bare.txt" "$SMOKE_DIR/usage-help.txt"

echo "==> one cluster harness (bricks, brick processes and the serving run)"
# Every test, command and bench suite that runs bricks behind a gateway
# starts them through nsr_net::local::LocalCluster, as threads of its own
# process or as `nsr brick` child processes, and the healthy -> degraded
# -> rebuilding serving run is nsr_net::workload::serving_run. This step
# is the one place that names the files allowed an exception:
# - HARNESS, the harness itself, is the one file in nsr-net that starts
#   or kills a child process (std::process::Command, Child);
# - SERVING_RUN is the one non-test file that calls both run_phase and
#   repair_all (a second one would be a second serving run);
# - a brick server may also be bound by the `nsr brick` command (the
#   address the user gives it) and by the tests that need a brick or a
#   ConnectionPool without a gateway. The repo benchmark's
#   benchmark/src/cluster.rs keeps its own bricks until the next
#   benchmark change (ROADMAP item 2).
# Brick binds match whole files (-z), so a call wrapped across lines or
# given its address in a constant is caught too; the other two scans
# skip comment lines, and the serving scan skips each file's tests.
HARNESS=crates/net/src/local.rs
SERVING_RUN=crates/net/src/workload.rs
BARE_BRICKS="$(grep -rlzP --include='*.rs' 'BrickServer::bind\s*\(' \
    crates tests examples benchmark/src \
    | grep -vxF -e "$HARNESS" -e crates/cli/src/net_cmds.rs \
        -e crates/net/src/brick.rs -e crates/net/src/pool.rs \
        -e crates/net/tests/batch_frames.rs -e crates/net/tests/bare_trace.rs \
        -e crates/net/tests/pool_lanes.rs -e benchmark/src/cluster.rs || true)"
if [ -n "$BARE_BRICKS" ]; then
    echo "ERROR: brick servers bound outside nsr_net::local:" $BARE_BRICKS >&2
    exit 1
fi
STRAY_PROCS="$(find crates/net/src -name '*.rs' ! -path "$HARNESS" | sort | xargs awk '
    !/^[[:space:]]*\/\// && /(^|[^[:alnum:]_])(Command|Child)([^[:alnum:]_]|$)/ {
        print FILENAME ":" FNR ": " $0
    }
')"
if [ -n "$STRAY_PROCS" ]; then
    echo "ERROR: child processes handled in nsr-net outside $HARNESS:" >&2
    echo "$STRAY_PROCS" >&2
    exit 1
fi
SERVING_RUNS="$(find crates/*/src examples benchmark/src -name '*.rs' | sort | xargs awk '
    FNR == 1 { in_tests = 0 }
    /^#\[cfg\(test\)\]/ { in_tests = 1 }
    in_tests || /^[[:space:]]*\/\// { next }
    /run_phase[[:space:]]*\(/ { phase[FILENAME] = 1 }
    /repair_all[[:space:]]*\(/ { repair[FILENAME] = 1 }
    END { for (f in phase) if (f in repair) print f }
' | grep -vxF -e "$SERVING_RUN" || true)"
if [ -n "$SERVING_RUNS" ]; then
    echo "ERROR: run_phase and repair_all called together outside $SERVING_RUN:" $SERVING_RUNS >&2
    exit 1
fi

echo "==> one walk per chain (no hand-built chain in nsr-core)"
# Each of the paper's chains is written once, as an nsr_markov::ChainWalk
# whose three sinks give the rated chain, the skeleton the evaluator
# compiles and the rate vector it solves. A chain built with CtmcBuilder
# beside its walk would be a second description that nothing holds to
# the first, so a new chain is written as a walk. availability.rs
# rewires an existing chain rather than describing one, and is the one
# file allowed.
HAND_BUILT="$(grep -rl --include='*.rs' 'CtmcBuilder' crates/core/src \
    | grep -vxF -e crates/core/src/availability.rs || true)"
if [ -n "$HAND_BUILT" ]; then
    echo "ERROR: CtmcBuilder in nsr-core outside availability.rs (write the chain as a ChainWalk):" $HAND_BUILT >&2
    exit 1
fi

echo "==> one data-request call (every shard request the gateway sends goes through Gateway::round)"
# A round batches its requests, retries what it missed and returns one
# result per request; fetches, stores and clean-up deletes all go through
# it, so a change to how the gateway addresses a shard is made once. A
# shard request sent anywhere else in gateway.rs (send_batch, or a
# put_shard/get_shard/delete_shard helper) would be a second path with
# its own retries, so it fails here. Comment lines are skipped; the body
# of `fn round` is the one place allowed.
STRAY_SENDS="$(awk '
    /^    fn round\(/ { in_round = 1 }
    in_round && /^    }$/ { in_round = 0; next }
    !in_round && !/^[[:space:]]*\/\// && /(send_batch|put_shard|get_shard|delete_shard)[[:space:]]*\(/ {
        print FILENAME ":" FNR ": " $0
    }
' crates/net/src/gateway.rs)"
if [ -n "$STRAY_SENDS" ]; then
    echo "ERROR: shard requests sent outside Gateway::round:" >&2
    echo "$STRAY_SENDS" >&2
    exit 1
fi

echo "==> one worker pool (the model crates start threads only in parallel_map)"
# nsr_core::sweep::parallel_map decides how deterministic model work is
# claimed, traced and merged: the sweep, the planner, the fleet and the
# system simulator all run on it. A thread started anywhere else in
# nsr-core, nsr-sim or nsr-markov would be a second pool with its own
# lane and parent rules, so it fails here. Comment lines and top-level
# `#[cfg(test)] mod tests` blocks are skipped; the body of
# `parallel_map` is the one place allowed.
STRAY_THREADS="$(find crates/core/src crates/sim/src crates/markov/src -name '*.rs' | sort | xargs awk '
    FNR == 1 { in_tests = 0; in_pool = 0; cfg_test = 0 }
    /^#\[cfg\(test\)\]$/ { cfg_test = 1; next }
    cfg_test && /^mod tests \{/ { in_tests = 1 }
    { cfg_test = 0 }
    in_tests && /^}$/ { in_tests = 0; next }
    /^pub(\(crate\))? fn parallel_map[<(]/ { in_pool = 1 }
    in_pool && /^}$/ { in_pool = 0; next }
    !in_tests && !in_pool && !/^[[:space:]]*\/\// && /thread::(scope|spawn|Builder)/ {
        print FILENAME ":" FNR ": " $0
    }
')"
if [ -n "$STRAY_THREADS" ]; then
    echo "ERROR: threads started outside nsr_core::sweep::parallel_map:" >&2
    echo "$STRAY_THREADS" >&2
    exit 1
fi

echo "==> the gateway side starts no thread (bricks bound a frame, not an idle wait)"
# A brick waits out an idle connection instead of dropping it, so the
# gateway needs nothing of its own to keep its lanes open: every frame
# on a lane comes from a caller. A thread started in crates/net/src
# outside brick.rs (whose threads are the accept loop and one handler
# per connection) fails here.
# Comment lines and top-level `#[cfg(test)] mod tests` blocks are
# skipped, as in the step above.
GATEWAY_THREADS="$(find crates/net/src -name '*.rs' ! -name brick.rs | sort | xargs awk '
    FNR == 1 { in_tests = 0; cfg_test = 0 }
    /^#\[cfg\(test\)\]$/ { cfg_test = 1; next }
    cfg_test && /^mod tests \{/ { in_tests = 1 }
    { cfg_test = 0 }
    in_tests && /^}$/ { in_tests = 0; next }
    !in_tests && !/^[[:space:]]*\/\// && /thread::(spawn|Builder)/ {
        print FILENAME ":" FNR ": " $0
    }
')"
if [ -n "$GATEWAY_THREADS" ]; then
    echo "ERROR: threads started in crates/net/src outside brick.rs:" >&2
    echo "$GATEWAY_THREADS" >&2
    exit 1
fi

echo "==> recorded results (nsr figures vs results/)"
# results/ is the output of `nsr figures` at default flags, and every
# record in it is deterministic (fixed seeds), so the regenerated
# directory must equal the checked-in one byte for byte, with no file
# missing and none extra: a change that moves a number regenerates
# results/ (`./target/release/nsr figures`) in the same commit.
./target/release/nsr figures --out "$SMOKE_DIR/results" > /dev/null
diff -r results "$SMOKE_DIR/results"

echo "==> examples (run to completion, not only compiled)"
# tier-1 builds every example; every one also runs, and a non-zero exit
# (a typed error from main) fails the gate. availability_model and
# markov_toolkit are the only non-test callers of the stationary solve,
# fail_in_place the only example calling the planner.
for example in quickstart capacity_planning rare_event_estimation fail_in_place \
    erasure_rebuild availability_model markov_toolkit; do
    cargo run --release -q -p nsr-cli --example "$example" > /dev/null
done

echo "==> benchmark package tests (workload smoke runs, BENCHMARK.json contract)"
# benchmark/ is its own package outside the root workspace, so tier-1
# above does not reach it. Its tests run all four workloads in --smoke
# mode (<= 2 s each, every correctness check on) and hold BENCHMARK.json
# equal to the metric names report.rs prints — a change that breaks a
# workload's byte verification or the contract fails here, not at the
# next benchmark run.
cargo test --release --offline --manifest-path benchmark/Cargo.toml

echo "==> smoke bench (tiny sizes, schema-validated JSON, offline)"
# Runs every suite in --smoke mode into a scratch directory, then re-parses
# the emitted BENCH_*.json through the harness's schema validator. Also
# validates the full-mode reports checked into the repo root.
./target/release/nsr bench --smoke --out-dir "$SMOKE_DIR"
./target/release/nsr bench --check --out-dir "$SMOKE_DIR"
./target/release/nsr bench --check --out-dir .

echo "==> bench compare smoke (offline, deterministic)"
# The compare gate for one suite's smoke report: diffed against an
# identical copy it must report no regressions, a uniformly slowed-down
# copy must make it exit non-zero, and the same perturbation read the
# other way round is an improvement and must pass — the gate is
# directional, not a symmetric-change detector.
bench_gate() {
    report="$SMOKE_DIR/BENCH_$1.json"
    cp "$report" "$SMOKE_DIR/BENCH_$1.old.json"
    ./target/release/nsr bench --compare "$SMOKE_DIR/BENCH_$1.old.json" "$report"
    sed 's/"ns_per_iter": /"ns_per_iter": 9/' "$report" > "$SMOKE_DIR/BENCH_$1.slow.json"
    if ./target/release/nsr bench --compare "$SMOKE_DIR/BENCH_$1.old.json" \
        "$SMOKE_DIR/BENCH_$1.slow.json" > /dev/null 2>&1; then
        echo "ERROR: bench --compare missed a $1 regression" >&2
        exit 1
    fi
    ./target/release/nsr bench --compare "$SMOKE_DIR/BENCH_$1.slow.json" \
        "$SMOKE_DIR/BENCH_$1.old.json"
}
bench_gate sweep
# The erasure suite carries the fused codec rows (rs_k6_t2/*).
bench_gate erasure
# The sim suite carries the fleet engine rows (fleet_decade_*).
bench_gate sim

echo "==> observability smoke (nsr-obs snapshots, schema-validated)"
# A parallel sim with both snapshot flags must produce valid nsr-obs
# files (v1 metrics, v2 trace) carrying the headline metrics from all three instrumented crates
# (the erasure crate's one metric is the kernel tier, set at registration).
./target/release/nsr sim --config ft1-nir --samples 60 --threads 2 --seed 7 \
    --metrics-out "$SMOKE_DIR/metrics.jsonl" --trace-out "$SMOKE_DIR/trace.jsonl"
./target/release/nsr obs-check --file "$SMOKE_DIR/metrics.jsonl" \
    --require erasure.kernel.accel,markov.absorbing.solves,sim.worker.samples_per_s
./target/release/nsr obs-check --file "$SMOKE_DIR/trace.jsonl"
# Without the flags the observability layer must stay silent: no snapshot
# lines in the output and nothing written.
PLAIN_OUT="$(./target/release/nsr sim --config ft1-nir --samples 20 --seed 7)"
if printf '%s' "$PLAIN_OUT" | grep -q 'records'; then
    echo "ERROR: plain run mentioned observability snapshots" >&2
    exit 1
fi

echo "==> flight-recorder smoke (causal trace, post-mortems, renderers)"
# A seeded fault-injection campaign that loses data must produce a causal
# v2 trace whose post-mortem spans and campaign events pass the obs-check
# structural pass, and the artifact renderer must accept the files.
./target/release/nsr inject --plan burst --config ft1-nir --runs 20 --seed 7 \
    --metrics-out "$SMOKE_DIR/inject-metrics.jsonl" \
    --trace-out "$SMOKE_DIR/inject-trace.jsonl"
./target/release/nsr obs-check --file "$SMOKE_DIR/inject-trace.jsonl" \
    --require span:sim.postmortem,event:sim.postmortem.event,event:sim.inject.campaign
./target/release/nsr report --metrics "$SMOKE_DIR/inject-metrics.jsonl" \
    --trace "$SMOKE_DIR/inject-trace.jsonl" --check
./target/release/nsr report --metrics "$SMOKE_DIR/inject-metrics.jsonl" \
    --trace "$SMOKE_DIR/inject-trace.jsonl" > "$SMOKE_DIR/flight.md"
grep -q 'sim.postmortem' "$SMOKE_DIR/flight.md"
# The analytic decision record must carry the live differential check
# (compiled program vs dense reference) and the exact condition number
# of the largest chain the CLI builds.
./target/release/nsr explain ft7-nir > "$SMOKE_DIR/explain.txt"
grep -q 'agrees to the bit' "$SMOKE_DIR/explain.txt"
grep -q 'kappa_inf(R) = 1.282e28' "$SMOKE_DIR/explain.txt"
# Disabled-path overhead stays within a generous threshold of the
# checked-in obs baseline. Only the disabled/ no-ops are gated: their
# timings are mode-independent, while enabled-path smoke timings are not
# comparable to the full-mode baseline. This guards against
# order-of-magnitude regressions on the hot no-op path, not jitter.
./target/release/nsr bench --suite obs --smoke --out-dir "$SMOKE_DIR"
./target/release/nsr bench --compare BENCH_obs.json "$SMOKE_DIR/BENCH_obs.json" \
    --only disabled/ --threshold 400

echo "==> cluster smoke (live brick daemons on loopback, kill -9, rebuild)"
# Four real brick child processes, one kill -9 mid-campaign: zero data
# loss, automatic rebuild to the spare, and a causal trace that passes
# the structural checks. Then the determinism contract: the same
# above-t burst campaign replayed twice must emit byte-identical
# verdict and loss-signature lines (timing-dependent `info` lines are
# excluded). Loopback only, no network access.
./target/release/nsr cluster-inject --bricks 4 --plan kill9-single --seed 42 \
    --trace-out "$SMOKE_DIR/cluster-trace.jsonl" \
    --metrics-out "$SMOKE_DIR/cluster-metrics.jsonl" | grep -q 'verdict=NO-LOSS lost=0'
./target/release/nsr obs-check --file "$SMOKE_DIR/cluster-trace.jsonl" \
    --require span:net.rebuild,event:net.detect.dead,event:net.cluster.kill9
# The rebuild must account for its own time, phase by phase, and count
# its batched rounds.
./target/release/nsr obs-check --file "$SMOKE_DIR/cluster-metrics.jsonl" \
    --require net.rebuild.fetch_s,net.rebuild.reconstruct_s,net.rebuild.put_s,net.rebuild.commit_s,net.rebuild.rounds
# Gets and puts share the round with rebuild and scrub but are not
# rounds of theirs: this campaign's 30 puts and 30 gets leave the count
# at the three rounds its rebuild and scrub make.
grep -q '"name":"net.rebuild.rounds","schema":"nsr-obs/v1","value":3}' \
    "$SMOKE_DIR/cluster-metrics.jsonl"
./target/release/nsr report --trace "$SMOKE_DIR/cluster-trace.jsonl" --check
./target/release/nsr cluster-inject --bricks 6 --plan kill9-burst --seed 1 \
    | grep -E '^(campaign|verdict|loss)' > "$SMOKE_DIR/burst-a.txt"
./target/release/nsr cluster-inject --bricks 6 --plan kill9-burst --seed 1 \
    | grep -E '^(campaign|verdict|loss)' > "$SMOKE_DIR/burst-b.txt"
diff "$SMOKE_DIR/burst-a.txt" "$SMOKE_DIR/burst-b.txt"
grep -q 'verdict=LOSS' "$SMOKE_DIR/burst-a.txt"

echo "==> cluster telemetry smoke (scrape plane, stitched post-mortems)"
# A seeded campaign with --obs-dir live-scrapes every brick child over
# the wire (victims immediately before each kill -9, survivors at the
# end), stitches the per-process trace parts into one canonical
# cross-process causal tree, and the merged artifact must pass the
# report checks: every remote parent resolves. The gateway-side metrics
# snapshot must carry the scrape-plane counters, with the collector
# counter actually exercised. Replayed at different pool sizes and
# verify-worker counts, the spans-only view of the canonical trace must
# be byte-identical (events carry wall-clock detector readings and are
# excluded by contract — see DESIGN §3k).
./target/release/nsr cluster-inject --bricks 5 --plan kill9-single --seed 7 \
    --no-fault-writes --obs-dir "$SMOKE_DIR/clusterobs" \
    --metrics-out "$SMOKE_DIR/cluster-scrape-metrics.jsonl" \
    | grep -q 'verdict=NO-LOSS lost=0'
./target/release/nsr obs-check --file "$SMOKE_DIR/cluster-scrape-metrics.jsonl" \
    --require net.scrape.collected,net.scrape.requests,net.scrape.lines
./target/release/nsr report --cluster "$SMOKE_DIR/clusterobs" --check
# Every caller's trace context reaches the brick: each of the four
# gateway spans parents handler spans on brick processes.
for caller in put get rebuild scrub; do
    grep -q "net.$caller/brick-" "$SMOKE_DIR/clusterobs/cluster.canonical.jsonl"
done
grep '"kind":"span"' "$SMOKE_DIR/clusterobs/cluster.canonical.jsonl" \
    > "$SMOKE_DIR/cluster-spans-a.txt"
./target/release/nsr cluster-inject --bricks 5 --plan kill9-single --seed 7 \
    --no-fault-writes --pool-size 8 --workers 4 \
    --obs-dir "$SMOKE_DIR/clusterobs2" > /dev/null
grep '"kind":"span"' "$SMOKE_DIR/clusterobs2/cluster.canonical.jsonl" \
    > "$SMOKE_DIR/cluster-spans-b.txt"
diff "$SMOKE_DIR/cluster-spans-a.txt" "$SMOKE_DIR/cluster-spans-b.txt"

echo "==> fleet smoke (deterministic fleet mission, estimator cross-check)"
# A seeded fleet mission must surface the fleet counters in its metrics
# snapshot and its arm/loop budget and start-run count on the run span,
# both rare-event estimators must land within 4 sigma of the analytic
# MTTDL (PASS lines), and the replay-determinism contract must hold: the
# same seed emits the checked-in output, canonical trace included, byte
# for byte at 1 and 4 workers (the fixture predates the per-cell engine).
./target/release/nsr fleet --config ft2-ir5 --bricks 6400 --years 5 --seed 7 \
    --estimator all --cycles 4000 \
    --metrics-out "$SMOKE_DIR/fleet-metrics.jsonl" \
    --trace-out "$SMOKE_DIR/fleet-trace.jsonl" > "$SMOKE_DIR/fleet-out.txt"
grep -q 'crosscheck importance: PASS' "$SMOKE_DIR/fleet-out.txt"
grep -q 'crosscheck splitting: PASS' "$SMOKE_DIR/fleet-out.txt"
./target/release/nsr obs-check --file "$SMOKE_DIR/fleet-metrics.jsonl" \
    --require sim.fleet.events,sim.fleet.failures,sim.fleet.losses
./target/release/nsr obs-check --file "$SMOKE_DIR/fleet-trace.jsonl" \
    --require span:sim.fleet.run
for field in arm_seconds loop_seconds armed stale cells; do
    grep '"name":"sim.fleet.run"' "$SMOKE_DIR/fleet-trace.jsonl" \
        | grep -q "\"${field}\":"
done
./target/release/nsr fleet --config ft1-nir --bricks 3200 --years 5 --seed 11 \
    --workers 1 --trace > "$SMOKE_DIR/fleet-w1.txt"
./target/release/nsr fleet --config ft1-nir --bricks 3200 --years 5 --seed 11 \
    --workers 4 --trace > "$SMOKE_DIR/fleet-w4.txt"
diff crates/cli/tests/golden/fleet_ft1nir_3200_s11.txt "$SMOKE_DIR/fleet-w1.txt"
diff "$SMOKE_DIR/fleet-w1.txt" "$SMOKE_DIR/fleet-w4.txt"
# The same contract at the repo benchmark's configuration (FT 3 no-IR, a
# decade), over seven 64-cell shards.
./target/release/nsr fleet --config ft3-nir --bricks 25600 --years 10 --seed 42 \
    --workers 1 --trace > "$SMOKE_DIR/fleet-ft3-w1.txt"
./target/release/nsr fleet --config ft3-nir --bricks 25600 --years 10 --seed 42 \
    --workers 4 --trace > "$SMOKE_DIR/fleet-ft3-w4.txt"
diff "$SMOKE_DIR/fleet-ft3-w1.txt" "$SMOKE_DIR/fleet-ft3-w4.txt"

echo "==> serving smoke (workload generator, pool metrics, serving bench gate)"
# A short seeded workload must drive the healthy -> degraded -> rebuilding
# phases end to end and surface the connection-pool and serving-latency
# metrics in its snapshot. Then the serving suite gets the same
# deterministic compare gate as sweep (`bench_gate`).
./target/release/nsr workload --ops 120 --object-bytes 4096 --seed 42 \
    --metrics-out "$SMOKE_DIR/workload-metrics.jsonl" | grep -q '^rebuilding'
./target/release/nsr obs-check --file "$SMOKE_DIR/workload-metrics.jsonl" \
    --require net.pool.reuses,net.serving.put_s,net.serving.get_s
# The same three phases with objects larger than any socket read buffer:
# 1 MiB + 1 at 6+2 is 171 KiB shards with a zero-padded tail, so healthy
# gets land in place past the buffer, degraded gets reconstruct into the
# result, and the rebuild moves large shards — every get byte-verified.
./target/release/nsr workload --ops 40 --object-bytes 1048577 --objects 16 \
    --bricks 9 --data 6 --parity 2 --seed 7 | grep -q '^rebuilding'
# The same three phases at a narrow code width: 12289 bytes is three
# whole pages, so the 6+2 gateway cuts it 3+2 (4097-byte shards, the last
# with a one-byte ragged tail) — every get byte-verified. (The 4 KiB run
# above is t + 1 = 3 copies; the 1 MiB + 1 run keeps the full 6+2.)
./target/release/nsr workload --ops 40 --object-bytes 12289 --objects 16 \
    --bricks 9 --data 6 --parity 2 --seed 7 | grep -q '^rebuilding'
./target/release/nsr bench --suite serving --smoke --out-dir "$SMOKE_DIR"
./target/release/nsr bench --check --out-dir "$SMOKE_DIR"
bench_gate serving

echo "==> sweep smoke (figure sweep, worker-count identity, no chain solves)"
# A figure-14 sweep must print the same CSV at 1 and 4 workers, and its
# metrics snapshot must show that it solved no chain: every sweep cell
# is a closed form, so markov.batch.solves reads 0.
./target/release/nsr sweep --figure 14 --csv --workers 1 > "$SMOKE_DIR/sweep-w1.csv"
./target/release/nsr sweep --figure 14 --csv --workers 4 > "$SMOKE_DIR/sweep-w4.csv"
diff "$SMOKE_DIR/sweep-w1.csv" "$SMOKE_DIR/sweep-w4.csv"
./target/release/nsr sweep --figure 14 --csv \
    --metrics-out "$SMOKE_DIR/sweep-metrics.jsonl" > /dev/null
./target/release/nsr obs-check --file "$SMOKE_DIR/sweep-metrics.jsonl" \
    --require core.sweep.runs,markov.batch.solves
grep -q '"name":"markov.batch.solves","schema":"nsr-obs/v1","value":0}' \
    "$SMOKE_DIR/sweep-metrics.jsonl"

echo "==> planner smoke (grid search, golden frontier, plan bench gate)"
# The 3x3x3 golden grid must reproduce the checked-in frontier CSV
# byte-for-byte at 1 and 4 workers and in exhaustive mode (the planner's
# determinism + pruning-soundness contract), the metrics snapshot must
# carry the elimination-program reuse counters, the guard-violation
# counter and the four phase histograms, and the plan bench suite
# gets the same two-direction compare gate as sweep (`bench_gate`).
PLAN_GRID="--grid --grid-nodes 64 --grid-k 2,4,6 --grid-t 1,2,3 \
    --grid-ir nir,ir5,ir6 --grid-spares 0.25 --grid-bw 0.1 --csv"
./target/release/nsr plan $PLAN_GRID --workers 1 > "$SMOKE_DIR/plan-w1.csv"
./target/release/nsr plan $PLAN_GRID --workers 4 > "$SMOKE_DIR/plan-w4.csv"
./target/release/nsr plan $PLAN_GRID --exhaustive > "$SMOKE_DIR/plan-ex.csv"
diff crates/cli/tests/golden/plan_frontier_3x3x3.csv "$SMOKE_DIR/plan-w1.csv"
diff "$SMOKE_DIR/plan-w1.csv" "$SMOKE_DIR/plan-w4.csv"
diff "$SMOKE_DIR/plan-w1.csv" "$SMOKE_DIR/plan-ex.csv"
# The same contract on the repo benchmark's 11,520-point grid, where
# every axis has several values: five node counts, four spare fractions
# and four bandwidths that the 3x3x3 grid holds at one value each.
BENCH_GRID="--grid --grid-nodes 16,32,64,128,256 \
    --grid-k 2,3,4,5,6,7,8,9,10,11,12,13 --grid-t 1,2,3,4 \
    --grid-ir nir,ir5,ir6 --grid-spares 0,0.1,0.25,0.4 \
    --grid-bw 0.05,0.1,0.2,0.4 --csv"
./target/release/nsr plan $BENCH_GRID --workers 1 > "$SMOKE_DIR/plan11520-w1.csv"
./target/release/nsr plan $BENCH_GRID --workers 4 > "$SMOKE_DIR/plan11520-w4.csv"
./target/release/nsr plan $BENCH_GRID --exhaustive > "$SMOKE_DIR/plan11520-ex.csv"
for run in w1 w4 ex; do
    diff crates/cli/tests/golden/plan_frontier_11520.csv "$SMOKE_DIR/plan11520-$run.csv"
done
./target/release/nsr plan $PLAN_GRID \
    --metrics-out "$SMOKE_DIR/plan-metrics.jsonl" \
    --trace-out "$SMOKE_DIR/plan-trace.jsonl" > /dev/null
./target/release/nsr obs-check --file "$SMOKE_DIR/plan-trace.jsonl" \
    --require span:core.plan.search
for phase in pass1 prune solve frontier; do
    grep '"name":"core.plan.search"' "$SMOKE_DIR/plan-trace.jsonl" \
        | grep -q "\"${phase}_seconds\":"
done
./target/release/nsr obs-check --file "$SMOKE_DIR/plan-metrics.jsonl" \
    --require core.plan.skeleton_builds,core.plan.skeleton_reuses,core.plan.pruned,markov.batch.solves,core.plan.guard_violations,core.plan.pass1_seconds,core.plan.prune_seconds,core.plan.solve_seconds,core.plan.frontier_seconds
# Outside the guard band (a 1e-13 hard-error rate puts solved points more
# than 50 % off their closed form) pruning proves nothing: the search
# must warn and answer with the exhaustive frontier.
./target/release/nsr plan --grid --her 1e-13 > "$SMOKE_DIR/plan-her.txt"
grep -q "WARNING: pruning is not sound here" "$SMOKE_DIR/plan-her.txt"
./target/release/nsr plan --grid --her 1e-13 --csv > "$SMOKE_DIR/plan-her.csv"
./target/release/nsr plan --grid --her 1e-13 --csv --exhaustive > "$SMOKE_DIR/plan-her-ex.csv"
diff "$SMOKE_DIR/plan-her.csv" "$SMOKE_DIR/plan-her-ex.csv"
# A repeated axis value would print one configuration twice.
if ./target/release/nsr plan --grid --grid-k 2,2 --csv > /dev/null 2>&1; then
    echo "ERROR: plan --grid accepted a repeated axis value" >&2
    exit 1
fi
./target/release/nsr bench --suite plan --smoke --out-dir "$SMOKE_DIR"
bench_gate plan

echo "==> cargo doc --no-deps --workspace (rustdoc warnings are errors)"
# A broken or private intra-doc link renders as dead text; keep the
# generated docs clean the way clippy keeps the code clean.
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace --offline

echo "==> cargo clippy --all-targets -- -D warnings"
cargo clippy --all-targets -- -D warnings

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> ci.sh: all checks passed"
