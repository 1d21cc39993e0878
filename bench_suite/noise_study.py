#!/usr/bin/env python3
"""Run-to-run noise of the end-to-end metrics, measured the way the
driver measures it: SETS sets of RUNS untraced runs per workload, each
run on another seed, and per metric and workload the quartile spread
(Q3 - Q1) / median of each set and the gap between the set medians.

    python3 bench_suite/noise_study.py [--runs 10] [--sets 2] [--out FILE]

Prints a Markdown report (the tables of NOISE.md) and, last, the bound
each metric would get from the rule in README.md. Run from the repo
root after building; takes about RUNS x SETS x 4 x 25 seconds.
"""

import argparse
import json
import statistics
import subprocess
import sys

MANIFEST = json.load(open("BENCHMARK.json"))
WORKLOADS = [w["name"] for w in MANIFEST["workloads"]]
METRICS = MANIFEST["end_to_end"]


def run_once(workload, seed, trace=0):
    cmd = MANIFEST["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(MANIFEST["run_seconds"]), "--trace", str(trace),
    ]
    out = subprocess.run(cmd, capture_output=True, text=True)
    if out.returncode != 0:
        sys.exit(f"{' '.join(cmd)} exited with {out.returncode}\n{out.stderr}")
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"{workload} seed {seed}: incorrect run: {result}")
    return {name: m["value"] for name, m in result["metrics"].items()}


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def worse_by(metric, first, second):
    """How much worse the second median is than the first, as a share."""
    sign = 1 if metric["better"] == "lower" else -1
    return sign * (second - first) / first


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--sets", type=int, default=2)
    ap.add_argument("--out", default=None, help="also write every run's metrics here as JSON")
    args = ap.parse_args()

    # Interleave workloads and sets so that a noisy stretch of the
    # machine is shared by all cells instead of landing in one.
    runs = {w: [[] for _ in range(args.sets)] for w in WORKLOADS}
    for i in range(args.runs):
        for s in range(args.sets):
            for w in WORKLOADS:
                seed = 1 + i + s * args.runs
                runs[w][s].append(run_once(w, seed))
                print(f"[{w} set {s + 1} run {i + 1}/{args.runs} seed {seed}]", file=sys.stderr)
    if args.out:
        json.dump(runs, open(args.out, "w"), indent=1)

    worst = {m["name"]: 0.0 for m in METRICS}
    for w in WORKLOADS:
        print(f"\n### {w}\n")
        head = "| metric | " + " | ".join(
            f"set {s + 1} median | set {s + 1} Q1..Q3 | set {s + 1} spread" for s in range(args.sets))
        print(head + " | gap of medians |")
        print("|---|" + "---|" * (3 * args.sets + 1))
        for m in METRICS:
            cells, medians = [], []
            for s in range(args.sets):
                values = [r[m["name"]] for r in runs[w][s]]
                q1, _, q3 = statistics.quantiles(values, n=4)
                med = statistics.median(values)
                medians.append(med)
                cells += [f"{med:.6g}", f"{q1:.6g}..{q3:.6g}", f"{100 * spread(values):.2f} %"]
                if m["name"] != "setup_s":
                    worst[m["name"]] = max(worst[m["name"]], spread(values))
            gap = max(abs(worse_by(m, medians[0], x)) for x in medians[1:]) if args.sets > 1 else 0.0
            worst[m["name"]] = max(worst[m["name"]], gap)
            print(f"| `{m['name']}` | " + " | ".join(cells) + f" | {100 * gap:.2f} % |")

    print("\n### Worst spread or gap per metric, and the bound it implies\n")
    print("| metric | worst | 3 x worst | bound in BENCHMARK.json |")
    print("|---|---|---|---|")
    for m in METRICS:
        x = worst[m["name"]]
        print(f"| `{m['name']}` | {100 * x:.2f} % | {100 * 3 * x:.2f} % | {100 * m['bound']:.0f} % |")


if __name__ == "__main__":
    main()
