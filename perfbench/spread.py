#!/usr/bin/env python3
"""Runs the benchmark once per seed and prints, for every metric, the median
and the interquartile range as a share of the median, the way the spreads in
README.md were taken. Run from the root of the working tree:

    python3 perfbench/spread.py --workload tcp-d16 --seconds 30 --seeds 1-10 [--trace]

Besides the reported metrics it collects the medians over all segments,
raw and probe-scaled, that the benchmark prints on its "# <impl> ... raw="
lines, as raw.<impl> and scaled.<impl>.
"""
import argparse
import json
import statistics
import subprocess


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seconds", default="30")
    ap.add_argument("--seeds", default="1-10", help="first-last")
    ap.add_argument("--trace", action="store_true")
    a = ap.parse_args()
    lo, hi = (int(x) for x in a.seeds.split("-"))
    vals, shares = {}, set()
    for seed in range(lo, hi + 1):
        cmd = ["bash", "perfbench/run.sh", "--workload", a.workload, "--seed", str(seed),
               "--seconds", a.seconds, "--trace", "1" if a.trace else "0"]
        out = subprocess.run(cmd, capture_output=True, text=True, check=True).stdout.splitlines()
        res = json.loads(out[-1])
        for line in out[:-1]:
            f = line.split()
            for tok in f[2:]:
                for key in ("raw", "scaled"):
                    if len(f) > 3 and f[3].startswith("raw=") and tok.startswith(key + "="):
                        vals.setdefault(f"{key}.{f[1]}", []).append(float(tok[len(key) + 1:]))
        for k, v in res["metrics"].items():
            vals.setdefault(k, []).append(v["value"])
        shares.add(res["failed"] / res["attempted"])
        print(f"seed {seed}: correct={res['correct']} failed/attempted={res['failed']}/{res['attempted']}", flush=True)
    for k, v in sorted(vals.items()):
        med = statistics.median(v)
        q1, _, q3 = statistics.quantiles(v, n=4) if len(v) > 1 else (med, med, med)
        spread = (q3 - q1) / med if med else float("nan")
        print(f"{k:30s} median={med:<12.6g} iqr/median={spread:.3f}")
    print("failed shares:", sorted(shares))


if __name__ == "__main__":
    main()
