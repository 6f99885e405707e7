"""Workload ``paper-report``: the cold ``repro report`` a reader runs.

One op is one ``python -m repro report --no-cache`` in a fresh
interpreter, one child at a time, after one untimed launch that compiles
bytecode.  Import, model building and the seven experiments do nearly
all the work; the store, the service and the runtime engines do none.

The report runs at its default seed, as a reader runs it: at some other
seeds (4, 11 and 99999 among the first fifty tried) its Fig. 6 shape
check fails, so a seeded report would fail on some benchmark seeds.
The benchmark seed picks the random matrices of the numeric product
check instead.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

import checks
from harness import (
    CheckFailed,
    Ledger,
    Outcome,
    counts_per_op,
    import_layers,
    launch,
    median,
    setup_seconds,
)
from repro import api
from repro.app.matmul import PartitioningStrategy
from repro.app.verify import verify_partition_numerically
from repro.core.geometry import column_based_partition
from repro.experiments.common import ExperimentConfig, make_app

HERE = Path(__file__).resolve().parent
EXPERIMENTS = ("fig2", "fig3", "fig5", "table2", "table3", "fig6", "fig7")
#: Fig. 6 is drawn at n=60, Fig. 7's largest size is n=80.
FIG6_N = 60
FIG7_N = 80


def report_argv() -> list[str]:
    return [sys.executable, "-m", "repro", "report", "--no-cache"]


def traced_report_argv(counters_path: Path) -> list[str]:
    return [sys.executable, str(HERE / "probe.py"), "traced-report", "--out", str(counters_path)]


def _report(argv, work, outcome: Outcome) -> float | None:
    """Launch one report; check it; return its wall time (None on failure)."""
    result = launch(argv, work)
    ok = result.returncode == 0
    outcome.count("report", ok)
    if not ok:
        print(f"report exited {result.returncode}: {result.stderr.strip()[-300:]}")
        return None
    checks.report_passes(result.stdout)
    outcome.metrics["peak_rss_mb"] = max(
        outcome.metrics.get("peak_rss_mb", 0.0), result.peak_rss_mb
    )
    return result.wall_s


def run(seed: int, seconds: float, trace: bool, work: Path) -> Outcome:
    outcome = Outcome()
    warmup = Outcome()
    _report(report_argv(), work, warmup)  # compiles bytecode; untimed
    if warmup.failed:
        raise CheckFailed("the untimed warm-up report failed")

    if not trace:
        outcome.metrics["setup_s"] = setup_seconds(
            [sys.executable, "-c", "import repro"], work
        )

    walls: list[float] = []
    traced_walls: list[float] = []
    counters: dict[str, float] = {}
    start = time.perf_counter()
    while time.perf_counter() - start < seconds or not outcome.attempted:
        # the traced run alternates plain and traced launches, so the
        # tracing overhead is measured under the same machine load
        traced = trace and len(walls) > len(traced_walls)
        if traced:
            path = work / f"counters-{len(traced_walls)}.json"
            wall = _report(traced_report_argv(path), work, outcome)
            if wall is not None:
                traced_walls.append(wall)
                for name, value in json.loads(path.read_text()).items():
                    counters[name] = counters.get(name, 0.0) + value
        else:
            wall = _report(report_argv(), work, outcome)
            if wall is not None:
                walls.append(wall)

    if outcome.failed:
        return outcome
    layers = Ledger()
    makespan_s, slowest_s = check_in_process(seed, layers, trace)

    if not trace:
        p50_ms = median(walls) * 1e3
        outcome.metrics.update(
            op_p50_ms=p50_ms,
            # a run holds ~9 reports: too few for a tail with ten
            # samples beyond it, so the tail metric is the median
            op_tail_ms=p50_ms,
            ops_per_s=len(walls) / sum(walls),
            # every report is cold (fresh interpreter, no store); there
            # are no warm, hot or restart tiers to take another path
            cold_p50_ms=p50_ms,
            warm_p50_ms=p50_ms,
            hot_p50_ms=p50_ms,
            restart_p50_ms=p50_ms,
            sim_makespan_s=makespan_s,
            slowest_rank_s=slowest_s,
        )
        return outcome

    outcome.metrics.update(counts_per_op(counters, max(1, len(traced_walls))))
    outcome.metrics.update(import_layers(work))
    for name in EXPERIMENTS:
        outcome.metrics[f"experiments.{name}_ms"] = layers.median_ms(f"experiments.{name}")
    for layer in ("measurement.build_models", "core.solve", "core.geometry", "app.execute"):
        outcome.metrics[f"{layer}_ms"] = layers.median_ms(layer)
    overhead = 100.0 * (median(traced_walls) / median(walls) - 1.0) if traced_walls else 0.0
    outcome.metrics["trace.overhead_pct"] = overhead
    outcome.ledger = {
        "layers": layers.summary(),
        "counters_total": counters,
        "ops": {"plain": len(walls), "traced": len(traced_walls)},
        "op_p50_ms": {
            "plain": median(walls) * 1e3,
            "traced": median(traced_walls) * 1e3 if traced_walls else None,
        },
    }
    return outcome


def check_in_process(seed: int, layers: Ledger, trace: bool) -> tuple[float, float]:
    """The report's claims recomputed through the library, plus the
    numeric product check on seed-drawn matrices.  Returns (Fig. 7 FPM
    time at n=80, slowest Fig. 6 rank under FPM at n=60), both in
    simulated seconds."""
    config = ExperimentConfig()  # the report's own configuration
    app = make_app(config, build_models=False)
    models = layers.call("measurement.build_models", api.build_models, seed=config.seed)
    app.set_models(models)
    unit_models = app.models_for(app.compute_units())
    total = FIG6_N * FIG6_N
    continuous = layers.call(
        "core.solve", api.Solver().solve, unit_models, float(total)
    ).allocations
    checks.allocation_sum(continuous, total)
    checks.equal_predicted_times(unit_models, continuous)

    plan = app.plan(FIG6_N, PartitioningStrategy.FPM)
    checks.integer_allocation_sum(plan.unit_allocations, total)
    checks.integer_allocation_sum(plan.process_allocations, total)
    partition = layers.call(
        "core.geometry", column_based_partition, list(plan.process_allocations), FIG6_N
    )
    if partition != plan.partition:
        raise CheckFailed("column geometry is not a function of the allocation")
    partition.validate_tiling()
    try:
        verify_partition_numerically(partition, seed=seed)
    except AssertionError as exc:
        raise CheckFailed(f"FPM partition product != A @ B: {exc}") from None
    layers.call("app.execute", app.execute, plan)

    results = {}
    for name in EXPERIMENTS if trace else ("fig6", "fig7"):
        results[name] = layers.call(
            f"experiments.{name}", api.run_experiment, name, config=config
        )
    fig6, fig7 = results["fig6"], results["fig7"]
    if len(fig6.fpm_times) != sum(len(u.member_ranks) for u in app.compute_units()):
        raise CheckFailed("Fig. 6 does not report one bar per rank")
    return fig7.fpm[fig7.sizes.index(FIG7_N)], max(fig6.fpm_times)
