#!/usr/bin/env python3
"""Before/after rows for EXPERIMENTS.md from two benchmark result files.

    scripts/trace_rows.py <before/results.json> <after/results.json> [workload...]

Each file is what `cargo run --release --manifest-path benchmark/Cargo.toml
-- --seed N` leaves in `benchmark/out/results.json`. Prints each file's
host block, then one markdown table per workload (default `tpca` and
`bulk`): the end-to-end medians and the `--trace 1` per-layer values,
before and after. Numbers are copied, never recomputed, so the table is
what the benchmark said.

    scripts/trace_rows.py --pairs <runs.jsonl>...

Each file holds alternating single-workload runs of two binaries, one per
line: {"bin": "parent" | "change", "seed": N, "r": <the JSON object the
benchmark printed last>}; lines k and k+1 are a pair. Prints one table
per file: each end-to-end metric's median and quartiles on both sides
(`statistics.quantiles(n=4)`, as the benchmark's `--compare` has them)
and in how many pairs the change read better, then the failed
operations. With `--trace 1` runs the per-layer rows follow.
"""
import json
import statistics
import sys

END_TO_END = [
    "setup_s",
    "ops_per_s",
    "rx_goodput_bytes_per_s",
    "tx_goodput_bytes_per_s",
    "pcbs_examined_per_frame",
    "allocs_per_op",
    "heap_bytes_per_conn",
    "segments_sent_per_needed",
    "virtual_goodput_bytes_per_ktick",
]
PER_LAYER = [
    "stack.receive_data_ns",
    "stack.receive_data_calls",
    "stack.receive_ack_ns",
    "stack.receive_syn_ns",
    "stack.receive_fin_ns",
    "stack.receive_miss_ns",
    "stack.send_ns",
    "stack.advance_time_ns",
    "stack.poll_transmit_ns_per_frame",
    "stack.residual_ns",
    "core.lookup_ns",
    "core.examined_per_lookup",
    "core.miss_lookup_ns",
    "core.insert_ns",
    "core.remove_ns",
    "core.probe_mismatch",
    "wire.ipv4_parse_ns",
    "wire.tcp_parse_ns",
    "wire.tcp_emit_ns",
    "wire.checksum_ns_per_kib",
    "stack.socket.read_into_ns_per_kib",
    "telemetry.record_ns",
    "stack.allocs_per_frame",
    "stack.out_of_order_drops",
    "stack.retransmits",
    "stack.fast_retransmits",
    "stack.rto_retransmits",
]


def fmt(value):
    if value == int(value) and abs(value) < 1e15:
        return f"{int(value):,}"
    return f"{value:,.3g}" if abs(value) < 100 else f"{value:,.0f}"


LOWER_IS_BETTER = {
    "setup_s",
    "pcbs_examined_per_frame",
    "allocs_per_op",
    "heap_bytes_per_conn",
    "segments_sent_per_needed",
}


def spread(values):
    """Median and quartiles, formatted."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"{fmt(statistics.median(values))} [{fmt(q1)} … {fmt(q3)}]"


def pairs(paths):
    for path in paths:
        runs = [json.loads(line) for line in open(path)]
        sides = {b: [r["r"] for r in runs if r["bin"] == b] for b in ("parent", "change")}
        n = len(sides["parent"])
        seeds = sorted({r["seed"] for r in runs})
        print(f"\n| `{path.rsplit('/', 1)[-1].removesuffix('.jsonl')}`, {n} pairs, "
              f"seeds {seeds[0]}–{seeds[-1]} | parent | change | change better in |\n|---|---|---|---|")
        names = [m for m in END_TO_END if m in sides["parent"][0]["metrics"]]
        names += [m for m in PER_LAYER if m in sides["parent"][0]["metrics"]]
        for name in names:
            p, c = ([r["metrics"][name]["value"] for r in sides[b]] for b in ("parent", "change"))
            # Every per-layer row printed here is a cost or a count of work.
            sign = -1 if name in LOWER_IS_BETTER or name in PER_LAYER else 1
            won = sum(sign * (b - a) > 0 for a, b in zip(p, c))
            tied = sum(a == b for a, b in zip(p, c))
            verdict = "identical" if tied == n else f"{won} of {n}"
            print(f"| `{name}` | {spread(p)} | {spread(c)} | {verdict} |")
        failed = [sum(r["failed"] for r in sides[b]) for b in ("parent", "change")]
        print(f"| failed operations | {failed[0]} | {failed[1]} | |")


def main(argv):
    if argv[:1] == ["--pairs"] and len(argv) > 1:
        return pairs(argv[1:])
    if len(argv) < 2:
        sys.exit(__doc__)
    workloads = argv[2:] or ["tpca", "bulk"]
    before, after = (json.load(open(p)) for p in argv[:2])
    for label, results in (("before", before), ("after", after)):
        host = ", ".join(f"{k}: {v}" for k, v in results["host"].items())
        print(f"{label}: seed {results['seed']:g}, {results['seconds']:g} s per run; {host}")
    for workload in workloads:
        b, a = (r["workloads"][workload] for r in (before, after))
        print(f"\n| `{workload}` | before | after |\n|---|---|---|")
        for name in END_TO_END:
            values = [statistics.median(r["end_to_end"][name]["values"]) for r in (b, a)]
            print(f"| `{name}` | {fmt(values[0])} | {fmt(values[1])} |")
        for name in PER_LAYER:
            values = [r["per_layer"][name]["value"] for r in (b, a)]
            print(f"| `{name}` | {fmt(values[0])} | {fmt(values[1])} |")


if __name__ == "__main__":
    main(sys.argv[1:])
