"""Steadiness of one workload across seeds.

    python3 perfbench/steady.py --workload service-mix -k 10

Runs ``run.py`` k times with seeds 1 .. k and the run length of
``BENCHMARK.json``, then prints for each end-to-end metric
the median, the quartiles (``statistics.quantiles(values, n=4)``) and
the quartile spread as a share of the median, next to the metric's
bound.  A spread above a third of the bound is flagged ``WIDE``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys

from harness import ROOT


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("-k", type=int, default=10)
    args = parser.parse_args(argv)

    runs = []
    for seed in range(1, args.k + 1):
        argv = [
            sys.executable, str(ROOT / "perfbench" / "run.py"),
            "--workload", args.workload, "--seed", str(seed),
            "--seconds", str(spec["run_seconds"]), "--trace", "0",
        ]
        proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"seed {seed}: exit {proc.returncode}\n{proc.stdout}{proc.stderr}")
            return 1
        runs.append(json.loads(lines[-1]))
        values = " ".join(
            f"{m['name']}={runs[-1]['metrics'][m['name']]['value']:.4g}"
            for m in spec["end_to_end"]
        )
        print(f"seed {seed}: attempted {runs[-1]['attempted']} failed {runs[-1]['failed']} {values}")

    shares = {r["failed"] / r["attempted"] for r in runs}
    print(f"failed share per run: {sorted(shares)}")
    print(f"{'metric':<16} {'unit':<6} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
    for metric in spec["end_to_end"]:
        values = [r["metrics"][metric["name"]]["value"] for r in runs]
        q1, mid, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / mid
        flag = "" if spread <= metric["bound"] / 3 else "WIDE"
        print(
            f"{metric['name']:<16} {metric['unit']:<6} {mid:>12.4f} {q1:>12.4f} "
            f"{q3:>12.4f} {spread:>8.2%} {metric['bound']:>6.0%} {flag}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
