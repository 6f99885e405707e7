"""Workload ``cluster-adapt``: one adaptation cycle of a large platform.

One op is one cycle over inputs built in set-up:

1. a cold ``Solver.solve`` on 10,000 synthetic devices, five of whose
   models were freshly perturbed for this cycle (drawn from the seed
   before the cycle's clock starts), so the solver's batch cache (keyed
   on model identity) misses;
2. a warm ``Solver.resolve`` of the unperturbed solve with those five
   model refreshes;
3. a vector ``simulate_spmd_run`` of the 10,000 devices over 100 panels;
4. a hierarchical solve over 1000 nodes of 10 devices;
5. on the paper node, ``run_with_drift_control`` on the GTX680
   throttle ramp;
6. on the paper node, ``run_with_recovery`` with the GTX680 dropped by
   exact name halfway through the fault-free run.

``core`` and ``runtime`` do all the work; measurement and the service do
none.  The synthetic devices, their perturbations and the node types
come from the seed; the paper-node runs use the fixed seeds of the
drift-control benchmark (app 7, drift 11, noise 123).
"""

from __future__ import annotations

import resource
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import checks
from harness import (
    Ledger,
    Outcome,
    add_counters,
    counts_per_op,
    import_layers,
    median,
    setup_seconds,
    tail,
)
import numpy as np

from repro.app.matmul import HybridMatMul
from repro.core.solver import Solver, SolveResult
from repro.core.speed_function import SpeedFunction
from repro.obs import Tracer, set_tracer
from repro.platform.drift import DriftModel
from repro.platform.faults import DeviceDrop
from repro.platform.noise import NoiseModel
from repro.platform.presets import ig_icl_node
from repro.runtime.drift_control import run_with_drift_control
from repro.runtime.mpi_sim import CommModel, SimulatedComm
from repro.runtime.panel_loop import simulate_spmd_run
from repro.runtime.recovery import run_with_recovery
from repro.util.rng import RngStream

DEVICES = 10_000
TOTAL = 1e7
REFRESHED = 5
PANELS = 100
NODES = 1000
NODE_TYPES = 4
UNITS_PER_NODE = 10
CLUSTER_TOTAL = 1_000_000
#: The paper node's runs: n x n blocks, the drift benchmark's ramp.
N = 40
RAMP = "throttle:GTX680:t0=2,tau=10,floor=0.45"
DROPPED = "GeForce GTX680"
#: p90 needs ten cycles beyond it.
TAIL_PERCENTILE = 90
MIN_CYCLES = 100
STEPS = (
    "core.solve", "core.resolve", "runtime.panel_loop",
    "core.hierarchical", "runtime.drift_control", "runtime.recovery",
)


def ramped(peak: float, half: float) -> SpeedFunction:
    """A speed function rising to ``peak`` with half speed at ``half``."""
    sizes = [half / 4, half, 2 * half, 8 * half, 32 * half]
    return SpeedFunction.from_points(sizes, [peak * s / (s + half) for s in sizes])


@dataclass(frozen=True)
class Inputs:
    devices: list
    peaks: np.ndarray
    halves: np.ndarray
    draw: np.random.Generator
    base: SolveResult
    comm: SimulatedComm
    cluster: list
    app: HybridMatMul
    ramp: DriftModel
    noise: NoiseModel
    static_s: float
    drop: DeviceDrop


def build_inputs(seed: int) -> Inputs:
    """Every input of a run.  The device set is fixed; the seed picks
    each cycle's refreshed devices and factors and the order of the
    cluster's nodes."""
    rng = RngStream(seed, ("perfbench", "cluster-adapt")).generator
    index = np.arange(DEVICES)
    peaks = 20.0 * 1.05 ** (index % 100)
    halves = 10.0 + (7 * index) % 90
    devices = [ramped(p, h) for p, h in zip(peaks, halves)]
    node_types = [
        [ramped(15.0 + 3 * k + 0.8 * j, 12.0 + 5 * j) for j in rng.permutation(UNITS_PER_NODE)]
        for k in range(NODE_TYPES)
    ]
    placement = rng.permutation(np.arange(NODES) % NODE_TYPES)
    app = HybridMatMul(ig_icl_node(), seed=7, noise_sigma=0.01)
    app.build_models(max_blocks=1700.0, cpu_points=6, gpu_points=8, adaptive=False)
    ramp = DriftModel.from_spec(RAMP, seed=11)
    noise = NoiseModel(RngStream(123).child("panel-noise"), sigma=0.01)
    fault_free_s = run_with_recovery(app, N, drops=()).fault_free_time_s
    return Inputs(
        devices=devices,
        peaks=peaks,
        halves=halves,
        draw=rng,
        base=Solver().solve(devices, TOTAL),
        comm=SimulatedComm(DEVICES, CommModel()),
        cluster=[node_types[k] for k in placement],
        app=app,
        ramp=ramp,
        noise=noise,
        static_s=run_with_drift_control(app, N, ramp, mode="static", noise=noise).total_time_s,
        drop=DeviceDrop(time_s=0.5 * fault_free_s, device=DROPPED),
    )


def next_refresh(inputs: Inputs) -> dict:
    """The next cycle's refreshed models: five devices whose peak speed
    moves by a factor in [0.9, 1.1]."""
    picked = inputs.draw.choice(DEVICES, REFRESHED, replace=False)
    factors = inputs.draw.uniform(0.9, 1.1, REFRESHED)
    return {
        int(i): ramped(inputs.peaks[i] * f, inputs.halves[i])
        for i, f in zip(picked, factors)
    }


def cycle(inputs: Inputs, refresh: dict, call) -> dict:
    """One adaptation cycle; ``call(step, fn, *args)`` runs each step."""
    updated = list(inputs.devices)
    for i, model in refresh.items():
        updated[i] = model
    solver = Solver()
    out = {"updated": updated}
    out["cold"] = call("core.solve", solver.solve, updated, TOTAL)
    out["warm"] = call("core.resolve", solver.resolve, inputs.base, changed_models=refresh)
    out["sim"] = call(
        "runtime.panel_loop", simulate_spmd_run,
        updated, out["cold"].allocations, PANELS, comm=inputs.comm,
    )
    out["tree"] = call(
        "core.hierarchical",
        Solver(hierarchy=True, aggregate_samples=16).solve, inputs.cluster, CLUSTER_TOTAL,
    )
    out["drift"] = call(
        "runtime.drift_control", run_with_drift_control,
        inputs.app, N, inputs.ramp, mode="controller", noise=inputs.noise,
    )
    out["recovery"] = call(
        "runtime.recovery", run_with_recovery, inputs.app, N, (inputs.drop,)
    )
    return out


def check_cycle(inputs: Inputs, out: dict) -> None:
    cold = out["cold"].allocations
    checks.allocation_sum(cold, TOTAL)
    checks.resolve_matches_cold(out["warm"].allocations, cold)
    tree = out["tree"].hierarchy
    checks.hierarchy_sums(tree.node_allocations, tree.unit_allocations, CLUSTER_TOTAL)
    slowest_s = checks.equal_predicted_times(out["updated"], cold)
    checks.panel_run_lower_bound(out["sim"].total_time_s, PANELS, slowest_s)
    drift = out["drift"]
    checks.controller_beats_static(drift.commits, drift.total_time_s, inputs.static_s)
    checks.integer_allocation_sum(drift.final_unit_allocations, N * N)
    rec = out["recovery"]
    if len(rec.drops) != 1:
        raise checks.CheckFailed(f"expected one applied drop, got {rec.drops}")
    checks.drop_recovered(rec.unit_names, rec.degraded_unit_allocations, DROPPED, N * N)


def _plain_call(step, fn, *args, **kwargs):
    return fn(*args, **kwargs)


def run(seed: int, seconds: float, trace: bool, work: Path) -> Outcome:
    outcome = Outcome()
    if not trace:
        outcome.metrics["setup_s"] = setup_seconds(
            [sys.executable, str(Path(__file__).with_name("probe.py")),
             "cluster-setup", "--seed", str(seed)],
            work,
        )
    inputs = build_inputs(seed)
    ledger = Ledger()
    walls: list[float] = []
    traced_walls: list[float] = []
    slowest_ranks: list[float] = []
    makespans: list[float] = []

    def one_cycle(call) -> tuple[float, dict] | None:
        index = outcome.attempted
        refresh = next_refresh(inputs)
        op_start = time.perf_counter()
        try:
            out = cycle(inputs, refresh, call)
        except Exception as exc:  # noqa: BLE001 - an op that raises is a failed op
            outcome.count("cycle", False)
            print(f"cycle {index} failed: {type(exc).__name__}: {exc}")
            return None
        wall = time.perf_counter() - op_start
        outcome.count("cycle", True)
        check_cycle(inputs, out)
        slowest_ranks.append(out["sim"].makespan_computation_s)
        makespans.append(out["drift"].total_time_s)
        return wall, out

    start = time.perf_counter()
    while time.perf_counter() - start < seconds or (not trace and outcome.attempted < MIN_CYCLES):
        # the traced run alternates plain cycles and cycles whose steps
        # the ledger times, so the overhead is measured under one load
        timed = trace and outcome.attempted % 2 == 1
        done = one_cycle(ledger.call if timed else _plain_call)
        if done is not None:
            (traced_walls if timed else walls).append(done[0])
    if outcome.failed:
        return outcome

    if not trace:
        p50_ms = median(walls) * 1e3
        outcome.metrics.update(
            op_p50_ms=p50_ms,
            op_tail_ms=tail(walls, TAIL_PERCENTILE) * 1e3,
            ops_per_s=len(walls) / sum(walls),
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            # no cache tiers: every cycle takes the one path the workload has
            cold_p50_ms=p50_ms,
            warm_p50_ms=p50_ms,
            hot_p50_ms=p50_ms,
            restart_p50_ms=p50_ms,
            sim_makespan_s=median(makespans),
            slowest_rank_s=median(slowest_ranks),
        )
        return outcome

    # Counts come from one more cycle under the program's own tracer.  It
    # is kept out of the layer timings: with a tracer on, the FPM solver
    # evaluates every device's time per iteration, which multiplies the
    # 10,000-device solve several times over.
    tracer = Tracer()
    previous = set_tracer(tracer)
    try:
        counted = one_cycle(_plain_call)
    finally:
        set_tracer(previous)
    counters: dict[str, float] = {}
    add_counters(counters, tracer)
    outcome.metrics.update(counts_per_op(counters, 1))
    outcome.metrics.update(import_layers(work))
    for step in STEPS:
        outcome.metrics[f"{step}_ms"] = ledger.median_ms(step)
    outcome.metrics["trace.overhead_pct"] = 100.0 * (median(traced_walls) / median(walls) - 1.0)
    outcome.ledger = {
        "layers": ledger.summary(),
        "counters_total": counters,
        "ops": {"plain": len(walls), "traced": len(traced_walls), "counted": 1},
        "op_p50_ms": {
            "plain": median(walls) * 1e3,
            "traced": median(traced_walls) * 1e3,
            "counted_under_repro_tracer": counted[0] * 1e3 if counted else None,
        },
    }
    return outcome
