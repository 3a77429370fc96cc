#!/usr/bin/env bash
# Hermeticity + determinism gate for the tcpdemux workspace.
#
# Verifies, with the network assumed absent:
#   1. the workspace declares no registry dependencies anywhere
#      (path/workspace deps only — the hermeticity contract in
#      Cargo.toml and DESIGN.md §8);
#   2. formatting and lints are clean (rustfmt --check, clippy -D warnings);
#   3. tier-1 passes fully offline: release build + full test suite;
#   4. the TPC/A simulation is deterministic: two runs with the same
#      seed produce byte-identical output;
#   5. loss recovery holds under a widened fault-injection seed sweep
#      (32 independent fault streams through the lossy-link scenario);
#   6. the structured telemetry export of the fixed-seed lossy-link run
#      matches the checked-in golden byte for byte (counters, histogram
#      buckets, and the event trace);
#   7. both shared-table tiers survive a widened stress sweep (16 seeds
#      of multi-threaded churn, a generation-tagged PcbId oracle, and
#      stable keys that must never miss while cuckoo-conc kicks and
#      grows);
#   8. the perf-trajectory pipeline is intact: the snapshot bench bins
#      run end to end in smoke mode with --json, and the emitted
#      BENCH_*.json files carry the fixed tcpdemux-bench/v1 schema with
#      the same measurement-label and config-key sets as the snapshots
#      checked in at the repo root (values are machine-dependent and
#      are not compared); mt_scaling must also emit all 16 cells of its
#      two-tier sweep by name;
#   9. the sharded runtime holds under a widened seed sweep (per-flow
#      ordering + zero cross-shard PCB access across 12 seeds of
#      concurrent ingress/drain) and the mt_stack throughput bin runs
#      end to end in smoke mode with a schema-checked JSON snapshot;
#  10. the cuckoo tier holds under a widened churn sweep (16 seeds of
#      oracle-checked insert/remove/lookup at high occupancy across
#      every suite tier) and the demux_scale sweep bin runs end to end
#      in smoke mode with a schema-checked JSON snapshot;
#  11. the congestion-controlled send path holds under a widened seed
#      sweep (8 seeds of the bulk-transfer scenario at 0/10/25% drop,
#      plus the delayed-ACK/zero-window/fast-recovery suite) and the
#      bulk_transfer goodput bin runs end to end in smoke mode with a
#      schema-checked JSON snapshot;
#  12. the fingerprint front filter holds under a widened oracle sweep
#      (16 seeds of churn with zero false negatives and the 2^-12
#      false-positive budget at the 15/16 occupancy watermark), and the
#      miss_flood and train_windowed bins run end to end in smoke mode
#      with schema-checked JSON snapshots;
#  13. the end-to-end benchmark crate (benchmark/, its own workspace)
#      builds against the current crates and passes its smoke test;
#  14. the three test binaries that install a counting global allocator
#      (telemetry record path, steady-state transaction, heap per
#      connection) pass in release with --test-threads=1: their
#      counters are process-global, so they mean something only when no
#      sibling test runs beside them.
#
# Run from anywhere inside the repo. Exits non-zero on first failure.
set -euo pipefail

cd "$(dirname "$0")/.."

echo "== 1/14 dependency audit (cargo metadata) =="
# --no-deps still lists every workspace member's declared dependencies.
# Any dependency whose `source` is non-null comes from a registry or
# git — both are forbidden; in-tree path deps have `"source": null`.
cargo metadata --no-deps --offline --format-version 1 | python3 -c '
import json, sys

meta = json.load(sys.stdin)
bad = []
for pkg in meta["packages"]:
    for dep in pkg["dependencies"]:
        if dep["source"] is not None:
            bad.append("%s -> %s (%s)" % (pkg["name"], dep["name"], dep["source"]))
if bad:
    print("FORBIDDEN non-path dependencies declared:")
    print("\n".join("  " + b for b in bad))
    sys.exit(1)
print("ok: %d workspace crates, all dependencies in-tree" % len(meta["packages"]))
'

echo "== 2/14 formatting + lints (rustfmt, clippy -D warnings) =="
cargo fmt --check
cargo clippy --offline --workspace --all-targets -- -D warnings

echo "== 3/14 offline tier-1 (release build + tests) =="
cargo build --release --offline --workspace
cargo test -q --offline --workspace

echo "== 4/14 same-seed determinism (byte-identical sim output) =="
run_a=$(mktemp)
run_b=$(mktemp)
trap 'rm -f "$run_a" "$run_b"' EXIT
cargo run -q --release --offline -p tcpdemux-bench --bin sim_vs_analytic >"$run_a"
cargo run -q --release --offline -p tcpdemux-bench --bin sim_vs_analytic >"$run_b"
if ! cmp -s "$run_a" "$run_b"; then
  echo "FAIL: two same-seed simulation runs differ:"
  diff "$run_a" "$run_b" | head -20
  exit 1
fi
echo "ok: two same-seed runs are byte-identical ($(wc -c <"$run_a") bytes)"

echo "== 5/14 multi-seed fault-injection sweep (TCPDEMUX_SEEDS=32) =="
TCPDEMUX_SEEDS=32 cargo test -q --release --offline \
  --test fault_injection --test loss_recovery
echo "ok: loss recovery and checksum rejection hold across 32 fault seeds"

echo "== 6/14 golden telemetry export (fixed-seed lossy-link run) =="
golden="crates/bench/goldens/telemetry_lossy.jsonl"
export_run=$(mktemp)
trap 'rm -f "$run_a" "$run_b" "$export_run"' EXIT
cargo run -q --release --offline -p tcpdemux-bench --bin telemetry_export >"$export_run"
if ! cmp -s "$export_run" "$golden"; then
  echo "FAIL: telemetry export drifted from $golden:"
  diff "$golden" "$export_run" | head -20
  echo "(if the change is intentional, regenerate with:"
  echo "   cargo run --release -p tcpdemux-bench --bin telemetry_export > $golden)"
  exit 1
fi
echo "ok: telemetry export matches golden ($(wc -c <"$export_run") bytes)"

echo "== 7/14 concurrent stress sweep (TCPDEMUX_SEEDS=16) =="
TCPDEMUX_SEEDS=16 cargo test -q --release --offline --test concurrent_stress
echo "ok: 16-seed concurrent churn clean on sharded-sequent and cuckoo-conc"

echo "== 8/14 bench-smoke JSON snapshots (schema, label-set drift, required cells) =="
bench_json_dir=$(mktemp -d)
trap 'rm -f "$run_a" "$run_b" "$export_run"; rm -rf "$bench_json_dir"' EXIT
TCPDEMUX_SMOKE=1 cargo bench -q --offline -p tcpdemux-bench --bench demux_lookup -- \
  --json "$bench_json_dir/BENCH_demux_lookup.json" >/dev/null
TCPDEMUX_SMOKE=1 cargo run -q --release --offline -p tcpdemux-bench --bin mt_scaling -- \
  --json "$bench_json_dir/BENCH_mt_scaling.json" >/dev/null
TCPDEMUX_SMOKE=1 cargo run -q --release --offline -p tcpdemux-bench --bin loss_recovery -- \
  --json "$bench_json_dir/BENCH_loss_recovery.json" >/dev/null
python3 scripts/check_bench_json.py "$bench_json_dir" \
  BENCH_demux_lookup.json BENCH_mt_scaling.json BENCH_loss_recovery.json

echo "== 9/14 sharded-runtime stress sweep + mt_stack smoke (TCPDEMUX_SEEDS=12) =="
TCPDEMUX_SEEDS=12 cargo test -q --release --offline \
  --test shard_stress --test shard_properties
echo "ok: 12-seed sharded ingress/drain clean (flow order, shard isolation)"
TCPDEMUX_SMOKE=1 cargo run -q --release --offline -p tcpdemux-bench --bin mt_stack -- \
  --json "$bench_json_dir/BENCH_stack_shards.json" >/dev/null
python3 scripts/check_bench_json.py "$bench_json_dir" BENCH_stack_shards.json

echo "== 10/14 cuckoo churn sweep + demux_scale smoke (TCPDEMUX_SEEDS=16) =="
TCPDEMUX_SEEDS=16 cargo test -q --release --offline --test demux_churn
echo "ok: 16-seed high-occupancy churn agrees with the oracle in every tier"
TCPDEMUX_SMOKE=1 cargo run -q --release --offline -p tcpdemux-bench --bin demux_scale -- \
  --json "$bench_json_dir/BENCH_demux_scale.json" >/dev/null
python3 scripts/check_bench_json.py "$bench_json_dir" BENCH_demux_scale.json

echo "== 11/14 congestion-control seed sweep + bulk_transfer smoke (TCPDEMUX_SEEDS=8) =="
TCPDEMUX_SEEDS=8 cargo test -q --release --offline \
  -p tcpdemux-sim bulk::tests::bulk_transfer_recovers_across_seeds
cargo test -q --release --offline --test congestion
echo "ok: 8-seed bulk transfer recovers at 0/10/25% drop; window machinery holds"
TCPDEMUX_SMOKE=1 cargo run -q --release --offline -p tcpdemux-bench --bin bulk_transfer -- \
  --json "$bench_json_dir/BENCH_bulk_transfer.json" >/dev/null
python3 scripts/check_bench_json.py "$bench_json_dir" BENCH_bulk_transfer.json

echo "== 12/14 front-filter oracle sweep + miss_flood/train_windowed smoke (TCPDEMUX_SEEDS=16) =="
TCPDEMUX_SEEDS=16 cargo test -q --release --offline --test front_filter
echo "ok: 16-seed filter churn has zero false negatives and stays inside the FP budget"
TCPDEMUX_SMOKE=1 cargo run -q --release --offline -p tcpdemux-bench --bin miss_flood -- \
  --json "$bench_json_dir/BENCH_miss_flood.json" >/dev/null
TCPDEMUX_SMOKE=1 cargo run -q --release --offline -p tcpdemux-bench --bin train_windowed -- \
  --json "$bench_json_dir/BENCH_train_windowed.json" >/dev/null
python3 scripts/check_bench_json.py "$bench_json_dir" \
  BENCH_miss_flood.json BENCH_train_windowed.json

echo "== 13/14 end-to-end benchmark smoke test (benchmark/) =="
cargo test -q --offline --manifest-path benchmark/Cargo.toml

echo "== 14/14 allocator-counting tests (release, one thread) =="
cargo test -q --release --offline --test telemetry_overhead \
  --test steady_state_allocs --test heap_per_connection -- --test-threads=1
echo "ok: no allocation per record or per transaction; heap per connection under its ceiling"

echo "verify.sh: all checks passed"
