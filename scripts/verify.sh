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
#   5. every whole-scenario seed sweep holds at a widened
#      TCPDEMUX_SEEDS: loss recovery and checksum rejection (32 fault
#      streams through the lossy-link scenario, 32 through a bulk
#      transfer whose link reorders by a bounded displacement,
#      duplicates and drops, the checksum kernel
#      against its 16-bit reference on 32 seeds of inputs up to 65,535
#      bytes, and 32 seeds of malformed TCP/UDP/ICMP frames — cut at every
#      length, bits flipped inside and outside the checksummed span, lies
#      in IHL, total length, data offset and option lengths — each ending
#      as a counted error or a classified outcome); both shared-table
#      tiers (16 seeds of multi-threaded churn, a generation-tagged
#      PcbId oracle, and stable keys that must never miss while
#      cuckoo-conc kicks and grows); the sharded runtime (per-flow
#      ordering + zero cross-shard PCB access across 12 seeds of
#      concurrent ingress/drain); every suite tier at high occupancy
#      (16 seeds of oracle-checked insert/remove/lookup, and PcbList's
#      dense lanes against a Vec model over 2,000-operation scripts and
#      against the linked list they replaced over 10,000-lookup BSD/MTF/
#      Sequent traces; Sequent's shared lanes against a Vec model while
#      they fill, re-lay and double; the stack's keyless sequent(H)
#      against the keyed one, H = 1/19/100, lookup for lookup through
#      relayouts and doublings; the send ring against a byte
#      deque across its wrap and under a cap lowered below what it
#      holds; 16 seeds of crafted segments through the receive
#      path of one connection, and of three sharing a stack's block pool,
#      against a byte-map reference, and 16 of deliver/stage/read/settle
#      scripts over five socket buffers lending through one pool); the
#      congestion-controlled send path (8 seeds of the bulk-transfer
#      scenario at 0/10/25% drop, plus the delayed-ACK/zero-window/
#      fast-recovery suite, with 16 seeds of a 1 MiB transfer at 3%
#      loss whose send ring holds two windows, and the 16 KiB floor
#      while the peer's window is closed, and 16 seeds of random ACK
#      sequences through NewReno with Limited Transmit, whose cwnd and
#      ssthresh stay whole segments and whose ssthresh halves a flight
#      that leaves out exactly the Limited Transmit bytes); transfers
#      over links that lose nothing (16 seeds of receive buffers from
#      one MSS to 64 KiB, MSS offers of 88/536/1,460, delayed ACKs on
#      and off, readers that stall and resume, 1 B to 1 MiB: no
#      retransmission but zero-window probes); and the
#      fingerprint front filter (16 seeds
#      of churn with zero false negatives, the crafted one-chain flood
#      rejected before the chain, and the 2^-12 false-positive budget
#      at the 15/16 occupancy watermark);
#   6. the structured telemetry export of the fixed-seed lossy-link run
#      matches the checked-in golden byte for byte (counters, histogram
#      buckets, and the event trace);
#   7. the paper-figure snapshot pipeline is intact: demux_lookup,
#      mt_scaling, demux_scale, miss_flood and train_windowed run end
#      to end in smoke mode with --json, and the emitted BENCH_*.json
#      files carry the fixed tcpdemux-bench/v1 schema with the same
#      measurement-label and config-key sets as the snapshots checked
#      in at the repo root (values are machine-dependent and are not
#      compared), including every cell EXPERIMENTS.md reads by name;
#   8. the end-to-end benchmark crate (benchmark/, its own workspace)
#      builds against the current crates and passes its smoke test;
#   9. the three test binaries that install a counting global allocator
#      (telemetry record path; steady-state transactions, churn rounds,
#      blocks of 64 over 2,000 connections, 256 k keys rotated through
#      a bare SequentDemux, whose chains the default table shares, and a
#      long-lived lossy connection;
#      heap per connection at 2,000, 16,385 and 20,000 connections)
#      pass in release with --test-threads=1: their
#      counters are process-global, so they mean something only when no
#      sibling test runs beside them.
#
# Run from anywhere inside the repo. Exits non-zero on first failure.
set -euo pipefail

cd "$(dirname "$0")/.."

echo "== 1/9 dependency audit (cargo metadata) =="
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

echo "== 2/9 formatting + lints (rustfmt, clippy -D warnings) =="
cargo fmt --check
cargo clippy --offline --workspace --all-targets -- -D warnings

echo "== 3/9 offline tier-1 (release build + tests) =="
cargo build --release --offline --workspace
cargo test -q --offline --workspace

echo "== 4/9 same-seed determinism (byte-identical sim output) =="
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

echo "== 5/9 widened seed sweeps (TCPDEMUX_SEEDS=32/16/12/16/8/16/16/16) =="
TCPDEMUX_SEEDS=32 cargo test -q --release --offline \
  --test fault_injection --test loss_recovery --test malformed_frames
TCPDEMUX_SEEDS=32 cargo test -q --release --offline \
  -p tcpdemux-wire checksum::tests::matches_the_reference_across_seeds
echo "ok: loss recovery, reassembly under reordering, checksum rejection and malformed-frame classification hold across 32 fault seeds"
TCPDEMUX_SEEDS=16 cargo test -q --release --offline --test concurrent_stress
echo "ok: 16-seed concurrent churn clean on sharded-sequent and cuckoo-conc"
TCPDEMUX_SEEDS=12 cargo test -q --release --offline \
  --test shard_stress --test shard_properties
echo "ok: 12-seed sharded ingress/drain clean (flow order, shard isolation)"
TCPDEMUX_SEEDS=16 cargo test -q --release --offline \
  --test demux_churn --test reassembly_oracle --test keyless_equivalence
TCPDEMUX_SEEDS=16 cargo test -q --release --offline -p tcpdemux-core -- \
  list::tests sequent::tests::prop_relayouts
TCPDEMUX_SEEDS=16 cargo test -q --release --offline -p tcpdemux-pcb \
  sendbuf::tests::prop_matches_a_byte_deque
TCPDEMUX_SEEDS=16 cargo test -q --release --offline -p tcpdemux-stack \
  socket::tests::pooled_buffers_agree_with_a_byte_map_across_seeds
echo "ok: 16-seed high-occupancy churn agrees with the oracle in every tier; PcbList agrees with its Vec model and the linked reference; Sequent's shared lanes agree with their Vec model through relayouts and doublings; the keyless table examines, caches and finds what the keyed one does; the send ring agrees with a byte deque, also under a lowered cap; the receiver and the pooled socket buffers agree with their byte-map references"
TCPDEMUX_SEEDS=8 cargo test -q --release --offline \
  -p tcpdemux-sim bulk::tests::bulk_transfer_recovers_across_seeds
TCPDEMUX_SEEDS=16 cargo test -q --release --offline --test congestion
TCPDEMUX_SEEDS=16 cargo test -q --release --offline -p tcpdemux-pcb \
  cc::tests::prop_cwnd_is_whole_segments_and_limited_transmit_stays_within_two
echo "ok: 8-seed bulk transfer recovers at 0/10/25% drop; window machinery holds; 16 lossy 1 MiB transfers keep the send ring within two windows, and within the floor while the window is closed; over random ACK, duplicate-ACK, partial-ACK and RTO sequences cwnd and ssthresh stay whole segments, ssthresh stays within max(FlightSize/2, 2 MSS) and equals it, rounded down, on entering recovery with FlightSize leaving out exactly what Limited Transmit sent, and no send outside recovery takes the flight past cwnd + 2 MSS"
TCPDEMUX_SEEDS=16 cargo test -q --release --offline --test lossless
echo "ok: 16 seeded transfers over links that lose nothing (receive buffers from one MSS to 64 KiB, MSS offers of 88/536/1,460, delayed ACKs on and off, readers that stall and resume, 1 B to 1 MiB) send no fast retransmit and no RTO retransmission but zero-window probes, and deliver every byte once, in order"
TCPDEMUX_SEEDS=16 cargo test -q --release --offline --test front_filter
echo "ok: 16-seed filter churn has zero false negatives and stays inside the FP budget"

echo "== 6/9 golden telemetry export (fixed-seed lossy-link run) =="
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

echo "== 7/9 bench-smoke JSON snapshots (schema, label-set drift, required cells) =="
bench_json_dir=$(mktemp -d)
trap 'rm -f "$run_a" "$run_b" "$export_run"; rm -rf "$bench_json_dir"' EXIT
TCPDEMUX_SMOKE=1 cargo bench -q --offline -p tcpdemux-bench --bench demux_lookup -- \
  --json "$bench_json_dir/BENCH_demux_lookup.json" >/dev/null
for bin in mt_scaling demux_scale miss_flood train_windowed; do
  TCPDEMUX_SMOKE=1 cargo run -q --release --offline -p tcpdemux-bench --bin "$bin" -- \
    --json "$bench_json_dir/BENCH_$bin.json" >/dev/null
done
python3 scripts/check_bench_json.py "$bench_json_dir" \
  BENCH_demux_lookup.json BENCH_mt_scaling.json BENCH_demux_scale.json \
  BENCH_miss_flood.json BENCH_train_windowed.json

echo "== 8/9 end-to-end benchmark smoke test (benchmark/) =="
cargo test -q --offline --manifest-path benchmark/Cargo.toml

echo "== 9/9 allocator-counting tests (release, one thread) =="
cargo test -q --release --offline --test telemetry_overhead \
  --test steady_state_allocs --test heap_per_connection -- --test-threads=1
echo "ok: no allocation per record, per transaction, per rotated key or per loss episode; heap per connection under its ceiling at 2,000, 16,385 and 20,000 connections, each derived from the arena's eighth-step capacity"

echo "verify.sh: all checks passed"
