#!/usr/bin/env bash
# Alternating paired runs of the end-to-end benchmark at two revisions,
# with an A/A control.
#
#   scripts/pairs.sh <parent-rev> <change-rev> [workload...] [--pairs N] [--aa K]
#                    [--seconds S] [--seed N] [--trace 0|1] [--out FILE]
#
# Builds each revision's benchmark binary once, offline, from a `git
# archive` of that revision unpacked under a temporary directory (so the
# checkout, its `benchmark/` and its git metadata are never touched; set
# TMPDIR to choose where). Then, for each workload (default: every
# workload BENCHMARK.json declares at the change), runs N pairs
# (default 10) of parent and change, alternating which side runs first,
# and K A/A pairs (default 4), the parent binary against itself, spread
# among them so they see the same drift of the host. Pair i runs seed
# base + i on both sides (--seed, default 1); every run lasts S seconds
# (--seconds, default BENCHMARK.json's run_seconds).
#
# Writes FILE (--out, default ./runs.jsonl): a header line
# {"host": {...}}, then one line per run,
# {"bin": "parent" | "change" | "aa", "seed": N, "workload": W, "r": <the
# JSON object the benchmark printed last>}. Read it with
#
#   scripts/trace_rows.py --pairs runs.jsonl
#
# which prints one table per workload, with each metric's A/A spread.
set -euo pipefail

usage() {
  sed -n '2,25p' "$0" | sed 's/^# \{0,1\}//' >&2
  exit 2
}

pairs=10
aa=4
seconds=""
seed=1
trace=0
out="$PWD/runs.jsonl"
revs=()
workloads=()
while [ $# -gt 0 ]; do
  case "$1" in
    --pairs) pairs=$2; shift 2 ;;
    --aa) aa=$2; shift 2 ;;
    --seconds) seconds=$2; shift 2 ;;
    --seed) seed=$2; shift 2 ;;
    --trace) trace=$2; shift 2 ;;
    --out) out=$2; shift 2 ;;
    -h|--help) usage ;;
    -*) echo "unknown option $1" >&2; usage ;;
    *)
      if [ ${#revs[@]} -lt 2 ]; then revs+=("$1"); else workloads+=("$1"); fi
      shift ;;
  esac
done
[ ${#revs[@]} -eq 2 ] || usage
case "$pairs$aa" in *[!0-9]*) echo "--pairs and --aa take counts" >&2; exit 2 ;; esac
[ "$pairs" -ge 1 ] || { echo "--pairs must be at least 1" >&2; exit 2; }

repo=$(git -C "$(dirname "$0")" rev-parse --show-toplevel)
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

build() { # <label> <rev>
  local tree="$work/$1"
  mkdir -p "$tree"
  git -C "$repo" archive "$2" | tar -x -C "$tree"
  echo "building $1 ($2) ..." >&2
  cargo build --release --offline --quiet --manifest-path "$tree/benchmark/Cargo.toml"
  cp "$tree/benchmark/target/release/tcpdemux-benchmark" "$work/$1.bin"
}
parent_sha=$(git -C "$repo" rev-parse --short "${revs[0]}^{commit}")
change_sha=$(git -C "$repo" rev-parse --short "${revs[1]}^{commit}")
build parent "$parent_sha"
build change "$change_sha"

spec="$work/change/BENCHMARK.json"
if [ ${#workloads[@]} -eq 0 ]; then
  read -r -a workloads < <(python3 -c 'import json,sys; print(" ".join(w["name"] for w in json.load(open(sys.argv[1]))["workloads"]))' "$spec")
fi
if [ -z "$seconds" ]; then
  seconds=$(python3 -c 'import json,sys; print(json.load(open(sys.argv[1]))["run_seconds"])' "$spec")
fi

python3 - "$parent_sha" "$change_sha" "$seconds" "$trace" >"$out" <<'EOF'
import json, os, platform, subprocess, sys
cpu = next((l.split(":", 1)[1].strip() for l in open("/proc/cpuinfo")
            if l.startswith("model name")), platform.processor())
rustc = subprocess.run(["rustc", "--version"], capture_output=True, text=True).stdout.strip()
print(json.dumps({"host": {"parent": sys.argv[1], "change": sys.argv[2],
                           "seconds": float(sys.argv[3]), "trace": sys.argv[4] == "1",
                           "nproc": os.cpu_count(), "cpu": cpu, "rustc": rustc}}))
EOF

run() { # <bin-file> <label> <workload> <seed>
  local line
  line=$("$work/$1.bin" --workload "$3" --seed "$4" --seconds "$seconds" --trace "$trace" | tail -n 1)
  case "$line" in
    '{'*) ;;
    *) echo "$1 printed no result for $3 seed $4" >&2; exit 1 ;;
  esac
  printf '{"bin": "%s", "seed": %s, "workload": "%s", "r": %s}\n' "$2" "$4" "$3" "$line" >>"$out"
}

# One A/A pair after every `every` real pairs, the rest at the end.
every=$(( aa > 0 ? (pairs + aa - 1) / aa : pairs + 1 ))
for workload in "${workloads[@]}"; do
  done_aa=0
  for ((i = 0; i < pairs; i++)); do
    s=$((seed + i))
    echo "$workload: pair $((i + 1))/$pairs (seed $s)" >&2
    if [ $((i % 2)) -eq 0 ]; then
      run parent parent "$workload" "$s"; run change change "$workload" "$s"
    else
      run change change "$workload" "$s"; run parent parent "$workload" "$s"
    fi
    if [ $(((i + 1) % every)) -eq 0 ] && [ "$done_aa" -lt "$aa" ]; then
      echo "$workload: A/A pair $((done_aa + 1))/$aa" >&2
      run parent aa "$workload" "$s"; run parent aa "$workload" "$s"
      done_aa=$((done_aa + 1))
    fi
  done
  for ((; done_aa < aa; done_aa++)); do
    echo "$workload: A/A pair $((done_aa + 1))/$aa" >&2
    run parent aa "$workload" "$seed"; run parent aa "$workload" "$seed"
  done
done
echo "wrote $out" >&2
