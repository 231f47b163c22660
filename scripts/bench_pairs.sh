#!/usr/bin/env bash
# Alternating parent/change pairs of the pipeline benchmark, committed as a
# trajectory.
#
#   scripts/bench_pairs.sh [-n PAIRS] [--label TEXT] [--control] <parent-ref> [workload...]
#
# Builds the benchmark of <parent-ref> (a `git archive` under .bench_pairs/,
# its own target directory) and of this checkout (the change: HEAD plus
# whatever the working tree holds, marked "+dirty"), then for each workload
# (default: all of BENCHMARK.json's) runs PAIRS (default 10) pairs at
# BENCHMARK.json's `run_seconds`, untraced, seeds 2001, 2002, ...; the side
# that runs first alternates from pair to pair. It reads only the
# benchmark's standard output: the last line's metrics, and the UNRESOLVED
# line a run prints when the host changed speed under it.
#
# --label TEXT names the rows (the PR they belong to: the change is built
# before it is committed, so its commit field can only say "<parent>+dirty").
#
# --control measures the host, not a change: the "change" side is a second
# `git archive` of <parent-ref> in a differently named directory, so both
# sides run the same source and whatever separates them is what two builds
# of one commit differ by here, today. Its rows are marked "control". Every
# later summary prints, beside each ratio, the newest control ratio recorded
# for the same parent, workload and metric: "n of n pairs" is evidence only
# for a gap wider than that one.
#
# Prints, per metric, both sides' median/q1/q3 (Python's
# statistics.quantiles, as the benchmark itself), the pairs each side won,
# and `unresolved` where a run was flagged, or where the spread exceeds the
# metric's bound without every change run beating every parent run (a metric
# that ties in every pair — a count that repeats exactly — is never
# unresolved). The same rows are appended to BENCH_pipeline.json at the
# repository root.
# Exits non-zero if any run fails an output check; never on a timing.
set -euo pipefail

pairs=10
label=
control=0
while [ $# -gt 0 ]; do
    case $1 in
        -n) pairs=$2; shift 2 ;;
        --label) label=$2; shift 2 ;;
        --control) control=1; shift ;;
        *) break ;;
    esac
done
if [ $# -lt 1 ]; then
    echo "usage: scripts/bench_pairs.sh [-n PAIRS] [--label TEXT] [--control] <parent-ref> [workload...]" >&2
    exit 2
fi
parent_ref=$1
shift

cd "$(git rev-parse --show-toplevel)"
parent_id=$(git rev-parse --verify "$parent_ref^{commit}")
change_id=$(git rev-parse HEAD)
if [ -n "$(git status --porcelain --untracked-files=no)" ]; then
    change_id="$change_id+dirty"
fi
seconds=$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')
if [ $# -gt 0 ]; then
    workloads=("$@")
else
    mapfile -t workloads < <(python3 -c '
import json
for w in json.load(open("BENCHMARK.json"))["workloads"]:
    print(w["name"])')
fi

work=.bench_pairs
rm -rf "$work/parent" "$work/runs"
mkdir -p "$work/parent" "$work/runs"
git archive "$parent_id" | tar -x -C "$work/parent"
cargo build --release --offline --manifest-path "$work/parent/benchmark/Cargo.toml"
parent_bin=$work/parent/benchmark/target/release/ktrace-pipeline-bench
if ((control)); then
    change_id=$parent_id
    rm -rf "$work/control"
    mkdir -p "$work/control"
    git archive "$parent_id" | tar -x -C "$work/control"
    cargo build --release --offline --manifest-path "$work/control/benchmark/Cargo.toml"
    change_bin=$work/control/benchmark/target/release/ktrace-pipeline-bench
else
    CARGO_TARGET_DIR="$PWD/$work/change-target" \
        cargo build --release --offline --manifest-path benchmark/Cargo.toml
    change_bin=$work/change-target/release/ktrace-pipeline-bench
fi

run_side() { # side binary workload seed
    local out="$work/runs/$1-$3-$4.out"
    if ! "$2" --workload "$3" --seed "$4" --seconds "$seconds" --trace 0 >"$out"; then
        echo "FAILED: $1 @ $3, seed $4 (output check or crash):" >&2
        cat "$out" >&2
        exit 1
    fi
    echo "  $1 seed $4: $(grep -E '^events_per_s' "$out" | awk '{print $4, $3}')"
}

for w in "${workloads[@]}"; do
    echo "== $w: $pairs pairs x ${seconds}s"
    for ((i = 0; i < pairs; i++)); do
        seed=$((2001 + i))
        if ((i % 2 == 0)); then
            run_side parent "$parent_bin" "$w" "$seed"
            run_side change "$change_bin" "$w" "$seed"
        else
            run_side change "$change_bin" "$w" "$seed"
            run_side parent "$parent_bin" "$w" "$seed"
        fi
    done
done

python3 - "$work/runs" "$parent_id" "$change_id" "$seconds" "$label" "$control" "${workloads[@]}" <<'EOF'
import json, statistics, sys, time
from pathlib import Path

runs, parent_id, change_id, seconds, label, control, *workloads = sys.argv[1:]
spec = json.load(open("BENCHMARK.json"))
stamp = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())

def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3

rows = []
for workload in workloads:
    sides, flagged, seeds = {}, False, []
    for side in ("parent", "change"):
        sides[side] = {}
        files = sorted(Path(runs).glob(f"{side}-{workload}-*.out"),
                       key=lambda p: int(p.stem.rsplit("-", 1)[1]))
        seeds = [int(p.stem.rsplit("-", 1)[1]) for p in files]
        for path in files:
            lines = path.read_text().splitlines()
            flagged |= any(line.startswith("UNRESOLVED:") for line in lines)
            for metric, reading in json.loads(lines[-1])["metrics"].items():
                sides[side].setdefault(metric, []).append(reading["value"])
    for m in spec["end_to_end"]:
        name, lower = m["name"], m["better"] == "lower"
        parent, change = sides["parent"][name], sides["change"][name]
        better = (lambda a, b: a < b) if lower else (lambda a, b: a > b)
        change_wins = sum(better(c, p) for p, c in zip(parent, change))
        parent_wins = sum(better(p, c) for p, c in zip(parent, change))
        (pm, pq1, pq3), (cm, cq1, cq3) = quartiles(parent), quartiles(change)
        spread = max(pq3 - pq1, cq3 - cq1) / abs(pm) if pm else 0.0
        sweep = all(better(c, p) for c in change for p in parent)
        ties = parent == change  # a count that repeats exactly
        rows.append({
            "workload": workload, "metric": name, "unit": m["unit"], "better": m["better"],
            "parent": {"commit": parent_id, "median": pm, "q1": pq1, "q3": pq3},
            "change": {"commit": change_id, "median": cm, "q1": cq1, "q3": cq3},
            "ratio": cm / pm if pm else None,
            "n": len(parent), "seeds": seeds, "run_seconds": float(seconds), "utc": stamp,
            "change_wins": change_wins, "parent_wins": parent_wins,
            "unresolved": not ties and (flagged or (spread > m["bound"] and not sweep)),
        })
        if label:
            rows[-1]["label"] = label
        if control == "1":
            rows[-1]["control"] = True

trajectory = Path("BENCH_pipeline.json")
history = json.loads(trajectory.read_text()) if trajectory.exists() else []

def control_gap(row):
    """The newest A/A ratio on record for this row's parent, workload and metric."""
    same = [h["ratio"] for h in history
            if h.get("control") and h["parent"]["commit"] == row["parent"]["commit"]
            and (h["workload"], h["metric"]) == (row["workload"], row["metric"])]
    return "-" if not same or same[-1] is None else f"{same[-1]:.3f}"

other = "control" if control == "1" else "change"
print(f"{'workload':<16} {'metric':<18} {'parent median (q1..q3)':>42} "
      f"{other + ' median (q1..q3)':>42} {'ratio':>7} {'control':>7}  wins c/p")
for r in rows:
    side = lambda s: f"{s['median']:.6g} ({s['q1']:.6g}..{s['q3']:.6g})"
    ratio = "-" if r["ratio"] is None else f"{r['ratio']:.3f}"
    mark = "  unresolved" if r["unresolved"] else ""
    print(f"{r['workload']:<16} {r['metric']:<18} {side(r['parent']):>42} "
          f"{side(r['change']):>42} {ratio:>7} {control_gap(r):>7}  "
          f"{r['change_wins']}/{r['parent_wins']} of {r['n']}{mark}")

history.extend(rows)
trajectory.write_text("[\n" + ",\n".join(json.dumps(r) for r in history) + "\n]\n")
print(f"{len(rows)} rows appended to {trajectory} ({len(history)} in all)")
EOF
