#!/usr/bin/env python3
"""Compare a parent and a change checkout on one workload, run in pairs.

Both checkouts must already hold a built benchmark
(`CARGO_TARGET_DIR=.bench_build cargo build --release --offline
--manifest-path e2ebench/Cargo.toml`, run from each checkout's root). Each
pair runs both sides back to back on the same seed, alternating which side
goes first, and the script prints each side's median and quartiles per
end-to-end metric, plus how many pairs the change won.

    python3 e2ebench/pair.py PARENT_DIR CHANGE_DIR --workload gups-manyseg
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

BINARY = os.path.join(".bench_build", "release", "hvc-e2ebench")


def run_side(root, workload, seed, seconds):
    out = subprocess.run(
        [os.path.join(root, BINARY), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=root, capture_output=True, text=True, check=True)
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        sys.exit(f"{root}: failed checks on seed {seed}:\n{out.stderr}")
    return result["metrics"]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent")
    ap.add_argument("change")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=int,
                    help="seconds per run (default: run_seconds of BENCHMARK.json)")
    ap.add_argument("--first-seed", type=int, default=1)
    args = ap.parse_args()

    with open(os.path.join(args.change, "BENCHMARK.json")) as f:
        bench = json.load(f)
    better = {m["name"]: m["better"] for m in bench["end_to_end"]}
    if args.seconds is None:
        args.seconds = bench["run_seconds"]
    sides = {"parent": [], "change": []}
    for i in range(args.pairs):
        seed = args.first_seed + i
        order = ["parent", "change"] if i % 2 == 0 else ["change", "parent"]
        for side in order:
            root = args.parent if side == "parent" else args.change
            sides[side].append(run_side(root, args.workload, seed, args.seconds))
        print(f"pair {i + 1}/{args.pairs} (seed {seed}) done", file=sys.stderr)

    print(f"{args.workload}: {args.pairs} pairs, {args.seconds} s per run")
    for name, direction in better.items():
        values = {s: [m[name]["value"] for m in runs] for s, runs in sides.items()}
        wins = sum(
            (c < p) if direction == "lower" else (c > p)
            for p, c in zip(values["parent"], values["change"]))
        cells = []
        for side in ("parent", "change"):
            v = values[side]
            q = statistics.quantiles(v, n=4) if len(v) > 1 else [v[0]] * 3
            cells.append(f"{side} median {statistics.median(v):.6g} "
                         f"[q1 {q[0]:.6g}, q3 {q[2]:.6g}]")
        print(f"  {name:12s} {'; '.join(cells)}; change better in {wins}/{args.pairs}")


if __name__ == "__main__":
    main()
