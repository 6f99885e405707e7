"""Run one workload of the FPM-stack benchmark and print its result.

    python3 perfbench/run.py --workload paper-report --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all

With ``--trace 0`` the last line is the JSON result with every end-to-end
metric; with ``--trace 1`` it carries every per-layer metric instead,
and the run also writes ``.perfbench-out/ledger-<workload>.json``.
Lines before it give per-class attempted/failed counts.  Exit code 0
means every op succeeded and every output check held; 1 means a check
failed or an op failed, and no result line is printed; 2 means the
program could not be run at all (no ``src/`` beside this directory).
``--workload all`` runs each workload in a child process of its own, so
that no workload's peak RSS includes another's.
"""

from __future__ import annotations

import argparse
import importlib
import json
import subprocess
import sys
import traceback

from harness import OUT, SRC, CheckFailed, result_line, workdir

WORKLOADS = ("paper-report", "service-mix", "cluster-adapt")
DEFAULT_SEED = 1


def run_one(workload: str, seed: int, seconds: float, trace: bool) -> int:
    module = importlib.import_module(workload.replace("-", "_"))
    with workdir() as work:
        try:
            outcome = module.run(seed, seconds, trace, work)
        except CheckFailed as exc:
            print(f"{workload}: CHECK FAILED: {exc}")
            return 1
    for op_class, (attempted, failed) in outcome.classes.items():
        print(f"{workload} {op_class}: attempted {attempted} failed {failed}")
    print(f"{workload}: attempted {outcome.attempted} failed {outcome.failed}")
    if outcome.failed:
        print(f"{workload}: {outcome.failed} ops failed")
        return 1
    if trace:
        path = OUT / f"ledger-{workload}.json"
        path.write_text(
            json.dumps(
                {
                    "workload": workload,
                    "seed": seed,
                    "seconds": seconds,
                    "metrics": outcome.metrics,
                    **outcome.ledger,
                },
                indent=1,
                sort_keys=True,
            )
        )
        print(f"{workload}: ledger written to {path}")
    print(result_line(outcome, trace), flush=True)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no repro source tree at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    try:
        import repro  # noqa: F401
    except ImportError:
        traceback.print_exc()
        return 2

    if args.workload != "all":
        return run_one(args.workload, args.seed, args.seconds, bool(args.trace))
    code = 0
    for workload in WORKLOADS:
        child = subprocess.run(
            [sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)]
        )
        code = max(code, child.returncode)
    return code


if __name__ == "__main__":
    sys.exit(main())
