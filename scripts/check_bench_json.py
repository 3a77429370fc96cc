#!/usr/bin/env python3
"""Validate freshly-emitted BENCH_*.json files and diff them against the
checked-in snapshots at the repo root.

Usage: check_bench_json.py <fresh-dir> <file.json> [<file.json> ...]

For each named file this checks two things:

1. **Schema**: the fresh file has exactly the tcpdemux-bench/v1 shape —
   top-level keys {schema, bench, seed, smoke, config, measurements},
   a non-empty measurements array whose entries each carry exactly
   {label, median_ns, min_ns, p10_ns, p90_ns, iters, samples} with
   numeric values, and unique labels.
2. **Drift vs snapshot**: the measurement *label set* and the config
   *key set* match the checked-in snapshot of the same name. Values are
   machine- and mode-dependent (smoke vs full), so only the shape is
   compared; a renamed/added/dropped bench cell fails the build until
   the snapshot is regenerated.

Exits nonzero with a diff-style report on any failure. Stdlib only.
"""

import json
import numbers
import sys
from pathlib import Path

TOP_KEYS = {"schema", "bench", "seed", "smoke", "config", "measurements"}
MEASUREMENT_KEYS = {"label", "median_ns", "min_ns", "p10_ns", "p90_ns", "iters", "samples"}
SCHEMA = "tcpdemux-bench/v1"

REPO_ROOT = Path(__file__).resolve().parent.parent

# Per-bench required measurement labels, beyond the generic schema: these
# are the cells downstream analysis (EXPERIMENTS.md) reads by name, so a
# run that silently skips one must fail even if the snapshot is
# regenerated to match.
REQUIRED_LABELS = {
    "BENCH_demux_scale.json": {
        f"demux_scale/{cell}/n={n}/{tier}"
        for cell in ("build", "lookup")
        for n in (10_000, 100_000, 1_000_000, 10_000_000)
        for tier in ("sequent(19)", "sequent(499)", "cuckoo")
    },
    "BENCH_miss_flood.json": {
        f"miss_flood/lookup/n={n}/hit={h}/{tier}"
        for n in (10_000, 100_000, 1_000_000, 10_000_000)
        for h in (0, 25, 50, 75, 100)
        for tier in ("sequent(19)", "front+sequent(19)", "cuckoo", "front+cuckoo")
    },
    "BENCH_train_windowed.json": {
        f"train_windowed/lookup/cwnd={l}seg/{tier}"
        for l in (2, 4, 16, 64)
        for tier in ("bsd", "sequent(19)", "front+sequent(19)", "cuckoo")
    },
}


def fail(errors):
    for e in errors:
        print(f"check_bench_json: {e}", file=sys.stderr)
    sys.exit(1)


def load(path):
    try:
        with open(path, encoding="utf-8") as f:
            return json.load(f), None
    except FileNotFoundError:
        return None, f"{path}: missing"
    except json.JSONDecodeError as e:
        return None, f"{path}: invalid JSON ({e})"


def check_schema(name, doc):
    errors = []
    if not isinstance(doc, dict):
        return [f"{name}: top level is not an object"]
    got = set(doc.keys())
    if got != TOP_KEYS:
        errors.append(
            f"{name}: top-level keys mismatch: missing {sorted(TOP_KEYS - got)}, "
            f"unexpected {sorted(got - TOP_KEYS)}"
        )
        return errors
    if doc["schema"] != SCHEMA:
        errors.append(f"{name}: schema is {doc['schema']!r}, want {SCHEMA!r}")
    if not isinstance(doc["bench"], str) or not doc["bench"]:
        errors.append(f"{name}: bench must be a non-empty string")
    if not isinstance(doc["seed"], int):
        errors.append(f"{name}: seed must be an integer")
    if not isinstance(doc["smoke"], bool):
        errors.append(f"{name}: smoke must be a boolean")
    if not isinstance(doc["config"], dict) or not all(
        isinstance(v, str) for v in doc["config"].values()
    ):
        errors.append(f"{name}: config must be an object of string values")
    ms = doc["measurements"]
    if not isinstance(ms, list) or not ms:
        errors.append(f"{name}: measurements must be a non-empty array")
        return errors
    labels = []
    for i, m in enumerate(ms):
        if not isinstance(m, dict):
            errors.append(f"{name}: measurements[{i}] is not an object")
            continue
        mkeys = set(m.keys())
        if mkeys != MEASUREMENT_KEYS:
            errors.append(
                f"{name}: measurements[{i}] keys mismatch: "
                f"missing {sorted(MEASUREMENT_KEYS - mkeys)}, "
                f"unexpected {sorted(mkeys - MEASUREMENT_KEYS)}"
            )
            continue
        if not isinstance(m["label"], str) or not m["label"]:
            errors.append(f"{name}: measurements[{i}].label must be a non-empty string")
        for field in ("median_ns", "min_ns", "p10_ns", "p90_ns"):
            if not isinstance(m[field], numbers.Real) or isinstance(m[field], bool):
                errors.append(f"{name}: measurements[{i}].{field} must be numeric")
        for field in ("iters", "samples"):
            if not isinstance(m[field], int) or isinstance(m[field], bool):
                errors.append(f"{name}: measurements[{i}].{field} must be an integer")
        labels.append(m["label"])
    dupes = sorted({l for l in labels if labels.count(l) > 1})
    if dupes:
        errors.append(f"{name}: duplicate measurement labels: {dupes}")
    return errors


def label_set(doc):
    return {m["label"] for m in doc["measurements"] if isinstance(m, dict) and "label" in m}


def check_drift(name, fresh, snapshot):
    errors = []
    fresh_labels, snap_labels = label_set(fresh), label_set(snapshot)
    if fresh_labels != snap_labels:
        for l in sorted(snap_labels - fresh_labels):
            errors.append(f"{name}: label in snapshot but not in fresh run: {l!r}")
        for l in sorted(fresh_labels - snap_labels):
            errors.append(f"{name}: new label not in checked-in snapshot: {l!r}")
        errors.append(
            f"{name}: label set drifted — regenerate the repo-root snapshot "
            f"(run the bench with --json {name}) and commit it"
        )
    fresh_cfg, snap_cfg = set(fresh["config"]), set(snapshot["config"])
    if fresh_cfg != snap_cfg:
        errors.append(
            f"{name}: config keys drifted: snapshot {sorted(snap_cfg)} vs "
            f"fresh {sorted(fresh_cfg)}"
        )
    return errors


def main(argv):
    if len(argv) < 3:
        fail([f"usage: {argv[0]} <fresh-dir> <file.json> [<file.json> ...]"])
    fresh_dir = Path(argv[1])
    errors = []
    for name in argv[2:]:
        fresh, err = load(fresh_dir / name)
        if err:
            errors.append(err)
            continue
        schema_errors = check_schema(name, fresh)
        errors.extend(schema_errors)
        if not schema_errors:
            missing = REQUIRED_LABELS.get(name, set()) - label_set(fresh)
            for label in sorted(missing):
                errors.append(f"{name}: required measurement cell missing: {label!r}")
        snapshot, err = load(REPO_ROOT / name)
        if err:
            errors.append(f"{err} (checked-in snapshot)")
            continue
        snap_errors = check_schema(f"{name} (snapshot)", snapshot)
        errors.extend(snap_errors)
        if not schema_errors and not snap_errors:
            errors.extend(check_drift(name, fresh, snapshot))
    if errors:
        fail(errors)
    print(f"check_bench_json: {len(argv) - 2} snapshot(s) validated, no drift")


if __name__ == "__main__":
    main(sys.argv)
