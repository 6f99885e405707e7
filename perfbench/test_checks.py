"""Each benchmark check rejects a deliberately wrong input.

    PYTHONPATH=src python3 -m pytest -q perfbench/test_checks.py
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402
from harness import (  # noqa: E402
    END_TO_END,
    PER_LAYER,
    ROOT,
    CheckFailed,
    Outcome,
    fold_importtime,
    result_line,
    tail,
)
from repro.core.solver import Solver  # noqa: E402
from repro.core.speed_function import SpeedFunction  # noqa: E402

PASSING_REPORT = "Fig7 table\n\nShape checks (paper claim vs measured):\n" + "\n".join(
    f"  [PASS] claim {i}: fine" for i in range(9)
)


def ramped(peak, half):
    sizes = [half / 4, half, 2 * half, 8 * half]
    return SpeedFunction.from_points(sizes, [peak * s / (s + half) for s in sizes])


@pytest.fixture(scope="module")
def models():
    return [ramped(20.0 + 7 * i, 10.0 + 5 * i) for i in range(6)]


def test_allocation_one_block_off_is_rejected():
    checks.integer_allocation_sum([10, 20, 30], 60)
    with pytest.raises(CheckFailed):
        checks.integer_allocation_sum([10, 20, 31], 60)
    checks.allocation_sum([10.5, 49.5], 60.0)
    with pytest.raises(CheckFailed):
        checks.allocation_sum([10.5, 50.5], 60.0)


def test_unequal_predicted_times_are_rejected(models):
    allocations = Solver().solve(models, 500.0).allocations
    common = checks.equal_predicted_times(models, allocations)
    assert common == pytest.approx(models[0].time(allocations[0]))
    shifted = list(allocations)
    shifted[0] += 1.0
    shifted[1] -= 1.0
    with pytest.raises(CheckFailed):
        checks.equal_predicted_times(models, shifted)


def test_report_with_a_fail_line_is_rejected():
    checks.report_passes(PASSING_REPORT)
    with pytest.raises(CheckFailed, match="FAIL"):
        checks.report_passes(PASSING_REPORT.replace("[PASS] claim 3", "[FAIL] claim 3"))
    with pytest.raises(CheckFailed, match="8 shape verdicts"):
        checks.report_passes(PASSING_REPORT.replace("  [PASS] claim 8: fine", ""))


def test_answer_from_the_wrong_cache_class_is_rejected():
    for op_class, source in checks.EXPECTED_SOURCE.items():
        checks.served_from(op_class, 200, source)
    with pytest.raises(CheckFailed):
        checks.served_from("hot", 200, "warm")
    with pytest.raises(CheckFailed):
        checks.served_from("restart", 200, "hot")
    with pytest.raises(CheckFailed):
        checks.served_from("cold", 500, None)


def test_non_200_answer_fails_the_service_run():
    import asyncio
    from types import SimpleNamespace

    from service_mix import Client

    class Failing:
        async def handle(self, method, path, body):
            return SimpleNamespace(status=500, json={"error": "boom"})

    outcome = Outcome()
    client = Client(ROOT, outcome)
    with pytest.raises(CheckFailed, match="answered 500"):
        asyncio.run(client.ask(Failing(), "hot", {}, 400.0, False))
    assert (outcome.attempted, outcome.failed) == (1, 1)


def test_schedule_requests_are_classed_cold_warm_hot():
    from service_mix import classify

    a, b = {"name": "a"}, {"name": "b"}
    schedule = [
        [{"node": a, "total_blocks": 400.0}, {"node": a, "total_blocks": 900.0}],
        [{"node": a, "total_blocks": 400.0}, {"node": b, "total_blocks": 900.0}],
    ]
    assert [c for c, _, _ in classify(schedule)] == ["cold", "warm", "hot", "cold"]


def test_restart_that_misses_the_store_is_rejected():
    checks.store_counts("cold round", 0, 6, cold=True)
    checks.store_counts("restart", 6, 0, cold=False)
    with pytest.raises(CheckFailed):
        checks.store_counts("cold round", 1, 6, cold=True)
    with pytest.raises(CheckFailed):
        checks.store_counts("restart", 5, 1, cold=False)


def test_resolve_that_differs_from_the_cold_solve_is_rejected(models):
    solver = Solver()
    previous = solver.solve(models, 500.0)
    refreshed = {2: ramped(40.0, 12.0)}
    updated = list(models)
    updated[2] = refreshed[2]
    warm = solver.resolve(previous, changed_models=refreshed).allocations
    cold = solver.solve(updated, 500.0).allocations
    checks.resolve_matches_cold(warm, cold)
    nudged = list(warm)
    nudged[0] = math.nextafter(nudged[0], math.inf)
    with pytest.raises(CheckFailed):
        checks.resolve_matches_cold(nudged, cold)


def test_cluster_checks_reject_wrong_inputs():
    checks.hierarchy_sums([3, 5], [(1, 2), (5, 0)], 8)
    with pytest.raises(CheckFailed):
        checks.hierarchy_sums([3, 5], [(1, 1), (5, 0)], 8)
    checks.panel_run_lower_bound(100.5, 100, 1.0)
    with pytest.raises(CheckFailed):
        checks.panel_run_lower_bound(99.0, 100, 1.0)
    checks.controller_beats_static(1, 60.0, 80.0)
    with pytest.raises(CheckFailed):
        checks.controller_beats_static(0, 60.0, 80.0)
    with pytest.raises(CheckFailed):
        checks.controller_beats_static(2, 80.0, 80.0)
    checks.drop_recovered(("a", "gpu"), (16, 0), "gpu", 16)
    with pytest.raises(CheckFailed):
        checks.drop_recovered(("a", "gpu"), (15, 1), "gpu", 16)


def test_tail_needs_ten_samples_beyond_it():
    assert tail(list(range(1000)), 99) == pytest.approx(989.01)
    with pytest.raises(ValueError):
        tail(list(range(999)), 99)


def test_importtime_is_folded_per_top_level_package():
    stderr = (
        "import time: self [us] | cumulative | imported package\n"
        "import time:       100 |        100 |   numpy.core\n"
        "import time:        50 |        150 | numpy\n"
        "import time:      2000 |       2000 |     scipy.stats\n"
    )
    assert fold_importtime(stderr) == pytest.approx({"numpy": 0.15, "scipy": 2.0})


def test_result_line_carries_every_metric_of_the_manifest():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER
    outcome = Outcome(attempted=3, metrics={name: 1.0 for name in END_TO_END})
    line = json.loads(result_line(outcome, trace=False))
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert set(line["metrics"]) == set(END_TO_END)
    traced = json.loads(result_line(Outcome(attempted=1), trace=True))
    assert set(traced["metrics"]) == set(PER_LAYER)
    with pytest.raises(RuntimeError):
        result_line(Outcome(attempted=1), trace=False)

