"""The properties every workload checks its outputs against.

Each check is computed from the method's own definition or from an
independent computation, never from a stored copy of earlier output, and
raises :class:`CheckFailed` with the offending numbers.  ``test_checks.py``
feeds each one a deliberately wrong input.
"""

from __future__ import annotations

import math
import re

from harness import CheckFailed

#: Allocations are floats from the FPM solver; their sum may differ from
#: the total by rounding in the last bits only.
SUM_RTOL = 1e-9
#: Predicted unit times of a continuous FPM solve agree to the solver's
#: root tolerance; this bound is fixed well above it and far below any
#: real imbalance.
EQUAL_TIME_RTOL = 1e-6
#: The report's shape-check section: exactly these many claims.
REPORT_SHAPE_CHECKS = 9


def allocation_sum(allocations, total: float) -> None:
    """The allocation covers the whole problem, no more, no less."""
    got = math.fsum(allocations)
    if abs(got - total) > SUM_RTOL * max(1.0, abs(total)):
        raise CheckFailed(f"allocations sum to {got!r}, total is {total!r}")


def integer_allocation_sum(allocations, total: int) -> None:
    """An integer allocation sums exactly to the total."""
    if any(int(a) != a for a in allocations):
        raise CheckFailed(f"allocation {list(allocations)} is not integral")
    if sum(int(a) for a in allocations) != total:
        raise CheckFailed(
            f"allocations sum to {sum(allocations)}, total is {total}"
        )


def equal_predicted_times(models, allocations) -> float:
    """Every unit's predicted time ``model.time(alloc)`` is the same.

    That is the FPM partitioning criterion itself (paper Section IV):
    the continuous solve puts all units on one ray through the origin.
    Returns the common time.
    """
    times = [m.time(a) for m, a in zip(models, allocations, strict=True)]
    low, high = min(times), max(times)
    if not low > 0 or (high - low) > EQUAL_TIME_RTOL * high:
        raise CheckFailed(
            f"predicted unit times differ: min {low!r}, max {high!r}"
        )
    return high


_SHAPE_LINE = re.compile(r"^\s*\[(PASS|FAIL)\]", re.MULTILINE)


def report_passes(text: str) -> None:
    """The report ends with all nine shape checks and each one PASSes."""
    if "FAIL" in text:
        line = next(l for l in text.splitlines() if "FAIL" in l)
        raise CheckFailed(f"report contains a failure: {line.strip()}")
    verdicts = _SHAPE_LINE.findall(text)
    if verdicts != ["PASS"] * REPORT_SHAPE_CHECKS:
        raise CheckFailed(
            f"report has {len(verdicts)} shape verdicts, expected "
            f"{REPORT_SHAPE_CHECKS} PASS"
        )
    tail = text.rstrip().splitlines()[-1]
    if not tail.lstrip().startswith("[PASS]"):
        raise CheckFailed(f"report does not end with its shape checks: {tail!r}")


#: Request class -> the ``source`` the partition service must answer with.
EXPECTED_SOURCE = {
    "cold": "built",
    "warm": "warm",
    "hot": "hot",
    "restart": "built",
}


def served_from(op_class: str, status: int, source: str | None) -> None:
    """A service answer came back 200 from its class's cache tier."""
    if status != 200:
        raise CheckFailed(f"{op_class} request answered {status}")
    if source != EXPECTED_SOURCE[op_class]:
        raise CheckFailed(
            f"{op_class} request served from {source!r}, expected "
            f"{EXPECTED_SOURCE[op_class]!r}"
        )


def store_counts(phase: str, hits: float, misses: float, *, cold: bool) -> None:
    """Cold builds never read the store; restarts read it and never miss."""
    if cold and hits:
        raise CheckFailed(f"{phase}: {hits:g} store hits on fresh specs")
    if not cold and (misses or not hits):
        raise CheckFailed(
            f"{phase}: restart read {hits:g} hits and {misses:g} misses; "
            "every model must come from disk"
        )


def same_answer(served: dict, direct: dict) -> None:
    """The service's allocation equals the direct library computation."""
    if served != direct:
        raise CheckFailed(f"service answered {served}, library gives {direct}")


def resolve_matches_cold(warm, cold) -> None:
    """A warm exact-mode resolve is bit-identical to the cold solve."""
    if tuple(warm) != tuple(cold):
        diffs = [i for i, (w, c) in enumerate(zip(warm, cold)) if w != c]
        raise CheckFailed(
            f"resolve differs from the cold solve at {len(diffs)} of "
            f"{len(cold)} devices (first: {diffs[:3]})"
        )


def hierarchy_sums(node_allocations, unit_allocations, total: int) -> None:
    """Nodes share the total; each node's units share the node's blocks."""
    integer_allocation_sum(node_allocations, total)
    for i, (node, units) in enumerate(zip(node_allocations, unit_allocations, strict=True)):
        if sum(units) != node:
            raise CheckFailed(f"node {i}: units sum to {sum(units)}, node has {node}")


def panel_run_lower_bound(finish_s: float, panels: int, slowest_s: float) -> None:
    """A run of ``panels`` panels cannot beat its slowest device per panel."""
    bound = panels * slowest_s
    if finish_s < bound * (1.0 - 1e-12):
        raise CheckFailed(
            f"{panels}-panel run finished at {finish_s!r} s, before "
            f"{panels} x slowest device ({bound!r} s)"
        )


def controller_beats_static(commits: int, controller_s: float, static_s: float) -> None:
    """On a drifting device the controller repartitions and wins."""
    if commits < 1:
        raise CheckFailed("controller never committed a repartition on the ramp")
    if not controller_s < static_s:
        raise CheckFailed(
            f"controller makespan {controller_s!r} s does not beat static "
            f"{static_s!r} s"
        )


def drop_recovered(unit_names, allocations, dropped: str, total: int) -> None:
    """The dropped device ends empty and the survivors hold the problem."""
    by_name = dict(zip(unit_names, allocations, strict=True))
    if by_name[dropped] != 0:
        raise CheckFailed(f"dropped {dropped} still holds {by_name[dropped]} blocks")
    integer_allocation_sum(allocations, total)
