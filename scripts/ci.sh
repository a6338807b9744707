#!/usr/bin/env bash
# Full local CI: release build, tests, smokes, a drift check on every
# committed results/ file, lints, formatting.
# The build environment is offline — all external deps are vendored under
# vendor/ — so every cargo invocation passes --offline.
#
# `ci.sh --bench` additionally runs the host wall-clock bench gate for the
# paths perfbench does not time: bench_gate --gate reads the committed
# BENCH_pipeline.json and exits non-zero if any entry regressed >15%.
set -euo pipefail

cd "$(dirname "$0")/.."

RUN_BENCH=0
for arg in "$@"; do
  case "$arg" in
    --bench) RUN_BENCH=1 ;;
    *) echo "ci.sh: unknown argument '$arg' (supported: --bench)" >&2; exit 2 ;;
  esac
done

echo "==> cargo build --release"
cargo build --release --offline --workspace

echo "==> cargo test"
cargo test -q --offline --workspace

echo "==> bitwise guards on the release build"
# The packed tile-math loops are what the release binaries ship, and
# optimization decides how they vectorize: run the bitwise-identity
# properties against the reference forms on the release build too, the
# end-to-end forces and timing goldens on the code perfbench ships, the
# partial-redo path's pinned timing, and the allocation budget of a warm
# one-core evaluation.
cargo test --release --offline -p tensix --test vectorized_identity
cargo test --release --offline -p nbody-tt --test bitwise_goldens
cargo test --release --offline -p nbody-tt --test partial_redo
cargo test --release --offline -p nbody-tt --test alloc_budget

echo "==> traced --profile smoke"
# Runs the small-N profiled demo: internally asserts the traced run is
# bitwise-identical to the untraced one and that kernel spans reconcile
# with busy_cycles, then writes the Chrome trace + metrics dumps. We
# additionally assert the trace is non-empty, valid-looking JSON.
cargo run --release --offline -p tt-harness --bin accuracy_table -- --profile
test -s results/profile/trace.json
python3 - <<'EOF'
import json
with open("results/profile/trace.json") as f:
    trace = json.load(f)
assert trace["traceEvents"], "trace must contain events"
EOF

echo "==> paper-configuration smoke"
# The paper's own setup: shared steps, the elementwise kernel, one card.
# N = 1000 pads the last target and source tile, so the packed source
# view's lane bound is on the path. The run must PASS the built-in
# device-vs-direct accuracy verification; grep it so a silently-skipped
# check fails CI.
PAPER_OUT=$(cargo run --release --offline --bin tt-nbody -- run \
  --n 1000 --steps 2 --cores 2 --verify-direct)
echo "$PAPER_OUT"
echo "$PAPER_OUT" | grep -q "device-vs-direct accuracy: PASS"

echo "==> single-card card-loss smoke"
# One card under the resilient driver every device run uses: the built-in
# device-vs-direct verification runs first, then the card falls off the bus
# at launch event 3 of a 5-launch run (the initializing launch plus four
# steps). The card's pipeline resets and rebuilds itself, and the driver
# restores its last checkpoint and replays. Grep both so a silently-skipped
# verification or a loss that never fired fails CI.
CARD_OUT=$(cargo run --release --offline --bin tt-nbody -- run \
  --n 1024 --steps 4 --cores 2 --inject-loss 3 --verify-direct)
echo "$CARD_OUT"
echo "$CARD_OUT" | grep -q "device-vs-direct accuracy: PASS"
echo "$CARD_OUT" | grep -q "recoveries: 1"

echo "==> multi-device resilient smoke"
# A 2-card ring with one hot spare and a device loss injected mid-run: the
# CLI runs the resilient Hermite driver, fails over to the spare inside the
# evaluation, re-runs an unfaulted twin, and verifies bit-for-bit. The loss
# lands on the last card, so N = 2048 gives it a target tile of its own.
# Grep the output so a silently-skipped verification fails CI too.
RING_OUT=$(cargo run --release --offline --bin tt-nbody -- run \
  --n 2048 --steps 4 --cores 1 --devices 2 --spares 1 --inject-loss 2)
echo "$RING_OUT"
echo "$RING_OUT" | grep -q "failovers: 1"
echo "$RING_OUT" | grep -q "bitwise-identical to unfaulted run: true"

echo "==> serving fault-storm smoke"
# The default seeded 120-job multi-tenant campaign (the run E11 and E13
# quote) through the job server under an injected fault storm (device losses, eth flaps, DRAM-ECC bursts): every
# admitted job must complete bitwise-identical to its fault-free golden or
# be shed with a typed rejection, and replaying the seed must reproduce the
# same per-job outcomes. Grep the verdict lines so silent skips fail CI.
# With --profile the run also exercises the observability layer end to end:
# the storm trips breakers, so the flight recorder must write at least one
# post-mortem dump, the attribution buckets must sum exactly to each job's
# latency, and the per-job span trees must render to a valid Chrome trace.
rm -rf results/postmortem
SERVE_OUT=$(cargo run --release --offline -p tt-harness --bin serve_storm -- --profile)
echo "$SERVE_OUT"
echo "$SERVE_OUT" | grep -q "lost: 0"
echo "$SERVE_OUT" | grep -q "bitwise-identical to fault-free goldens: true"
echo "$SERVE_OUT" | grep -q "deterministic replay digest match: true"
echo "$SERVE_OUT" | grep -q "attribution buckets sum exactly to latency: true (replay bitwise-identical: true)"
echo "$SERVE_OUT" | grep -q "flight-recorder dump: .* -> results/postmortem/"
python3 - <<'EOF'
import glob, json
with open("results/serving_trace.json") as f:
    trace = json.load(f)
assert trace["traceEvents"], "serving trace must contain events"
dumps = sorted(glob.glob("results/postmortem/postmortem-*.json"))
assert dumps, "fault storm must leave at least one post-mortem"
with open(dumps[0]) as f:
    pm = json.load(f)
assert pm["ring"]["events"], "post-mortem must carry the last-K event ring"
assert "queue_depth" in pm["snapshot"], "post-mortem must snapshot server state"
EOF

echo "==> tree-code smoke"
# Small-N Barnes-Hut run with the built-in O(N²) cross-check: one tree
# force evaluation is compared against the FP64 direct sum and must land
# inside the θ-dependent error bound before the run proceeds. Grep the
# verdict so a silently-skipped verification fails CI.
TREE_OUT=$(cargo run --release --offline --bin tt-nbody -- run \
  --backend tree --n 2048 --steps 2 --theta 0.6 --verify-direct)
echo "$TREE_OUT"
echo "$TREE_OUT" | grep -q "tree-vs-direct agreement: PASS"

echo "==> block-time-step smoke"
# Hierarchical block steps on a King-model cluster from the IC catalog,
# with the built-in device-vs-direct accuracy verification. The run must
# PASS the accuracy gate and print the active-set launch ledger — the
# proof that launches were sized by the due block, not full-N. Grep all
# three so a silently-skipped verification or a full-N fallback fails CI.
BLOCK_OUT=$(cargo run --release --offline --bin tt-nbody -- run \
  --n 512 --steps 4 --cores 2 --blocks --ic king --verify-direct)
echo "$BLOCK_OUT"
echo "$BLOCK_OUT" | grep -q "king cluster"
echo "$BLOCK_OUT" | grep -q "device-vs-direct accuracy: PASS"
echo "$BLOCK_OUT" | grep -q "active-set ledger:"
echo "$BLOCK_OUT" | grep -Eq "mean active fraction 0\.[0-9]+," # strictly partial launches

echo "==> matrix block-time-step smoke"
# The same hierarchy on the matrix-pipe kernel: its subsets launch gathered
# 32-particle target blocks with their own diagonal-damping plan. The run
# must PASS the accuracy gate and print a strictly partial active-set
# ledger.
MATRIX_BLOCK_OUT=$(cargo run --release --offline --bin tt-nbody -- run \
  --n 512 --steps 4 --cores 2 --blocks --ic king --force-kernel matrix --verify-direct)
echo "$MATRIX_BLOCK_OUT"
echo "$MATRIX_BLOCK_OUT" | grep -q "device-vs-direct accuracy: PASS"
echo "$MATRIX_BLOCK_OUT" | grep -q "active-set ledger:"
echo "$MATRIX_BLOCK_OUT" | grep -Eq "mean active fraction 0\.[0-9]+," # strictly partial launches

echo "==> matrix-kernel / device-catalog smoke"
# The matrix-pipe force kernel on an n150 catalog part, with the built-in
# device-vs-direct accuracy verification: the run must print the catalog
# summary for the part it was built as and PASS the accuracy check. Grep
# both so a silently-skipped verification or a catalog regression fails CI.
MATRIX_OUT=$(cargo run --release --offline --bin tt-nbody -- run \
  --n 512 --steps 2 --cores 1 --arch n150 --force-kernel matrix --verify-direct)
echo "$MATRIX_OUT"
echo "$MATRIX_OUT" | grep -q "device catalog: n150"
echo "$MATRIX_OUT" | grep -q "device-vs-direct accuracy: PASS"

echo "==> matrix-kernel tail-group smoke"
# The matrix kernel takes each core's target blocks in groups of up to 8.
# N = 1012 on 3 cores gives 11/11/10 blocks (the last one padded), so every
# core runs a full group and a tail group; the smokes above give whole
# groups only. (N = 1000 splits the same way but its forces miss the
# matrix bound at the default softening, with or without groups.)
MATRIX_TAIL_OUT=$(cargo run --release --offline --bin tt-nbody -- run \
  --n 1012 --steps 2 --cores 3 --force-kernel matrix --verify-direct)
echo "$MATRIX_TAIL_OUT"
echo "$MATRIX_TAIL_OUT" | grep -q "device-vs-direct accuracy: PASS"

echo "==> 64-core launch smoke"
# Every Tensix core of the grid in one launch: 64 matrix blocks, one per
# core, so 192 kernel instances run as cooperative tasks on at most the
# host's threads. No other CLI smoke launches 64 cores.
WIDE_OUT=$(cargo run --release --offline --bin tt-nbody -- run \
  --force-kernel matrix --n 2048 --cores 64 --steps 1 --eps 0.02 --verify-direct)
echo "$WIDE_OUT"
echo "$WIDE_OUT" | grep -q "device-vs-direct accuracy: PASS"

echo "==> results/ drift"
# Every committed results/ file is deterministic output of the code. The
# serving smoke above rewrote the serving CSVs; regenerate the rest and fail
# if any file differs from what is committed, so a figure cannot go stale
# unnoticed. A new output nobody committed fails too (untracked files show in
# `git status`; the run-to-run dumps under results/profile/ and
# results/postmortem/ and results/serving_trace.json are ignored).
# block_speedup and arch_sweep also assert their E15/E14 claims.
for bin in accuracy_table arch_sweep clock_sweep n_sweep scaling fig3_time fig4_power \
  fig5_energy campaign_summary block_speedup; do
  echo "$bin"
  cargo run --release --offline --quiet -p tt-harness --bin "$bin" > /dev/null
done
cargo run --release --offline --quiet --example energy_campaign > /dev/null
DRIFT=$(git status --porcelain -- results/)
if [ -n "$DRIFT" ]; then
  echo "results/ differs from what is committed:"
  echo "$DRIFT"
  git diff -- results/
  exit 1
fi

echo "==> perfbench build and workload smoke"
# The repository benchmark is a package of its own outside the workspace,
# so the workspace build above never compiles it. Build it, then run each
# workload for one second, untraced and with `--trace 1` (the per-layer
# probe and its metrics), and require a correct result from every run.
cargo build --release --offline --manifest-path perfbench/Cargo.toml
for workload in shared_vector block_vector block_matrix fault_storm; do
  for trace in 0 1; do
    BENCH_OUT=$(cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
      --workload "$workload" --seconds 1 --trace "$trace")
    echo "$workload (trace $trace): $BENCH_OUT"
    echo "$BENCH_OUT" | grep -q '"correct": true'
  done
done

echo "==> cargo clippy"
cargo clippy --offline --workspace --all-targets -- -D warnings

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> perfbench clippy and fmt"
# perfbench is outside the workspace, so the two lints above skip it. Lint
# it on its own, so an API change in ttmetal or tensix cannot leave the
# benchmark with warnings nobody sees.
cargo clippy --offline --manifest-path perfbench/Cargo.toml --all-targets -- -D warnings
cargo fmt --manifest-path perfbench/Cargo.toml --check

if [ "$RUN_BENCH" = 1 ]; then
  echo "==> bench regression gate"
  cargo run --release --offline -p tt-harness --bin bench_gate -- --gate
fi

echo "CI OK"
