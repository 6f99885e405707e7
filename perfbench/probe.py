"""Fresh-interpreter probes the workloads launch as children.

    python3 perfbench/probe.py service-setup --seed S --out DIR
    python3 perfbench/probe.py cluster-setup --seed S
    python3 perfbench/probe.py traced-report --out COUNTERS.json

``*-setup`` probes do a workload's set-up and exit; their wall time,
taken by the parent, is one ``setup_s`` sample.  ``traced-report`` runs
``repro report --no-cache`` with the ``repro.obs`` tracer on and writes
its counters as JSON.  Children get ``PYTHONPATH`` from the parent.
"""

from __future__ import annotations

import argparse
import json
import sys


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("probe", choices=("service-setup", "cluster-setup", "traced-report"))
    parser.add_argument("--seed", type=int)
    parser.add_argument("--out")
    args = parser.parse_args(argv)

    if args.probe == "service-setup":
        import service_mix

        service_mix.first_answer(args.seed, args.out)
        return 0
    if args.probe == "cluster-setup":
        import cluster_adapt

        cluster_adapt.build_inputs(args.seed)
        return 0

    from repro.cli import main as repro_main
    from repro.obs import Tracer, set_tracer

    tracer = Tracer()
    set_tracer(tracer)
    code = repro_main(["report", "--no-cache"])
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(
            {name: c.value for name, c in tracer.metrics.counters.items()}, fh
        )
    return code


if __name__ == "__main__":
    sys.exit(main())
