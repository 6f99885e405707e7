"""Shared machinery of the benchmark: paths, child launches, statistics,
layer timing and the result line.

Nothing here imports ``repro``: ``run.py`` must be able to report a
missing source tree with a plain error before any workload is loaded.
"""

from __future__ import annotations

import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Everything a run writes (stores, child output, ledgers) lives here.
OUT = ROOT / ".perfbench-out"

#: Name -> unit of every end-to-end metric (printed with ``--trace 0``).
END_TO_END = {
    "setup_s": "s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "ops_per_s": "1/s",
    "peak_rss_mb": "MB",
    "cold_p50_ms": "ms",
    "warm_p50_ms": "ms",
    "hot_p50_ms": "ms",
    "restart_p50_ms": "ms",
    "sim_makespan_s": "sim_s",
    "slowest_rank_s": "sim_s",
}

#: Name -> unit of every per-layer metric (printed with ``--trace 1``).
#: ``*_ms`` values are the median of one call into the layer; counts are
#: per traced op.  A layer a workload never enters reads 0.
PER_LAYER = {
    "import.scipy_ms": "ms",
    "import.numpy_ms": "ms",
    "import.repro_ms": "ms",
    **{
        f"experiments.{name}_ms": "ms"
        for name in ("fig2", "fig3", "fig5", "table2", "table3", "fig6", "fig7")
    },
    "measurement.build_models_ms": "ms",
    "measurement.samples": "count/op",
    "fpm.models_built": "count/op",
    "core.solve_ms": "ms",
    "core.resolve_ms": "ms",
    "core.hierarchical_ms": "ms",
    "core.solver_evaluations": "count/op",
    "core.geometry_ms": "ms",
    "app.execute_ms": "ms",
    "service.parse_ms": "ms",
    "service.keys_ms": "ms",
    "store.get_ms": "ms",
    "store.put_ms": "ms",
    "store.hits": "count/op",
    "store.misses": "count/op",
    "store.puts": "count/op",
    "runtime.panel_loop_ms": "ms",
    "runtime.drift_control_ms": "ms",
    "runtime.recovery_ms": "ms",
    "runtime.sim_events": "count/op",
    "runtime.drift_commits": "count/op",
    "trace.overhead_pct": "%",
}

#: Per-layer count metric -> the ``repro.obs`` counter it reads.
COUNTERS = {
    "measurement.samples": "measure.samples.accepted",
    "fpm.models_built": "fpm.models_built",
    "core.solver_evaluations": "partition.solver.evaluations",
    "store.hits": "store.hit",
    "store.misses": "store.miss",
    "store.puts": "store.put",
    "runtime.sim_events": "sim.events.processed",
    "runtime.drift_commits": "runtime.drift.commits",
}

#: A child that runs longer than this is killed (and the op fails).
CHILD_TIMEOUT_S = 120.0
#: Fresh interpreters behind each set-up time and import fold.
LAUNCHES = 3


class CheckFailed(Exception):
    """An output of the program broke a property the benchmark checks."""


# --------------------------------------------------------------- statistics
def median(values) -> float:
    return float(statistics.median(values))


def percentile(values, q: float) -> float:
    """The ``q``-th percentile, to a tenth (inclusive method, as
    ``statistics.quantiles`` gives it)."""
    cut = round(q * 10)
    return float(statistics.quantiles(values, n=1000, method="inclusive")[cut - 1])


def tail(values, q: float) -> float:
    """The ``q``-th percentile, refused unless ten samples lie beyond it."""
    beyond = len(values) * (100 - q) / 100
    if beyond < 10:
        raise ValueError(
            f"p{q:g} of {len(values)} samples has {beyond:g} beyond it; need 10"
        )
    return percentile(values, q)


# ------------------------------------------------------------------ children
def child_env(workdir: Path) -> dict:
    """The environment of every child: this checkout's source, a private
    artifact-store root, nothing read from the caller's PYTHONPATH."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["REPRO_CACHE_DIR"] = str(workdir / "repro-cache")
    return env


@dataclass(frozen=True)
class Launch:
    """One finished child process."""

    wall_s: float
    returncode: int
    peak_rss_mb: float
    stdout: str
    stderr: str


def launch(argv: list[str], workdir: Path) -> Launch:
    """Run one child to completion; wall time from spawn to reap.

    ``os.wait4`` reaps the child and returns its own resource usage, so
    the peak RSS is that child's alone.  Output goes to files, never to
    pipes, so a chatty child (``-X importtime``) cannot block on a full
    pipe while the parent waits.
    """
    fd_out, out_path = tempfile.mkstemp(dir=workdir, suffix=".out")
    fd_err, err_path = tempfile.mkstemp(dir=workdir, suffix=".err")
    try:
        with os.fdopen(fd_out, "wb") as out, os.fdopen(fd_err, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(
                argv, stdout=out, stderr=err, cwd=ROOT, env=child_env(workdir)
            )
            killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                killer.cancel()
            wall_s = time.perf_counter() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
        return Launch(
            wall_s=wall_s,
            returncode=proc.returncode,
            peak_rss_mb=usage.ru_maxrss / 1024.0,
            stdout=Path(out_path).read_text(encoding="utf-8", errors="replace"),
            stderr=Path(err_path).read_text(encoding="utf-8", errors="replace"),
        )
    finally:
        os.unlink(out_path)
        os.unlink(err_path)


def setup_seconds(argv: list[str], workdir: Path) -> float:
    """Median wall time of ``LAUNCHES`` fresh interpreters running ``argv``."""
    walls = []
    for _ in range(LAUNCHES):
        result = launch(argv, workdir)
        if result.returncode != 0:
            raise RuntimeError(
                f"set-up probe {argv[1:]} exited {result.returncode}: "
                f"{result.stderr.strip()[-400:]}"
            )
        walls.append(result.wall_s)
    return median(walls)


def fold_importtime(stderr: str) -> dict[str, float]:
    """Self import time (ms) summed per top-level package, from
    ``python -X importtime`` output."""
    totals: dict[str, float] = defaultdict(float)
    for line in stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        parts = line[len("import time:"):].split("|")
        if len(parts) != 3 or not parts[0].strip().isdigit():
            continue  # the header line
        package = parts[2].strip().split(".")[0]
        totals[package] += int(parts[0]) / 1000.0
    return dict(totals)


def import_layers(workdir: Path) -> dict[str, float]:
    """``import.{scipy,numpy,repro}_ms``: medians over fresh launches."""
    folds = []
    for _ in range(LAUNCHES):
        result = launch(
            [sys.executable, "-X", "importtime", "-c", "import repro"], workdir
        )
        if result.returncode != 0:
            raise RuntimeError(f"import repro failed: {result.stderr[-400:]}")
        folds.append(fold_importtime(result.stderr))
    return {
        f"import.{pkg}_ms": median([fold.get(pkg, 0.0) for fold in folds])
        for pkg in ("scipy", "numpy", "repro")
    }


# ------------------------------------------------------------- layer timing
class Ledger:
    """Per-layer call durations, recorded around calls into ``repro``.

    A call into a layer that is already open on the same thread (a key
    helper calling another key helper) is part of the outer call and is
    not recorded twice.
    """

    def __init__(self) -> None:
        self.calls: dict[str, list[float]] = defaultdict(list)
        self._local = threading.local()

    def timed(self, layer: str, fn):
        def wrapper(*args, **kwargs):
            open_layers = self._local.__dict__.setdefault("open", set())
            if layer in open_layers:
                return fn(*args, **kwargs)
            open_layers.add(layer)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.calls[layer].append(time.perf_counter() - start)
                open_layers.discard(layer)

        return wrapper

    def call(self, layer: str, fn, *args, **kwargs):
        return self.timed(layer, fn)(*args, **kwargs)

    @contextmanager
    def patched(self, *targets: tuple[object, str, str]):
        """Time every call to ``owner.attr`` as ``layer`` while open."""
        saved = []
        try:
            for owner, attr, layer in targets:
                original = getattr(owner, attr)
                saved.append((owner, attr, original))
                setattr(owner, attr, self.timed(layer, original))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def median_ms(self, layer: str) -> float:
        calls = self.calls.get(layer)
        return median(calls) * 1e3 if calls else 0.0

    def summary(self) -> dict:
        return {
            layer: {
                "calls": len(calls),
                "median_ms": median(calls) * 1e3,
                "total_ms": sum(calls) * 1e3,
            }
            for layer, calls in sorted(self.calls.items())
        }


def counts_per_op(counters: dict[str, float], ops: int) -> dict[str, float]:
    """The count metrics, from summed ``repro.obs`` counter values."""
    return {
        metric: counters.get(counter, 0.0) / ops
        for metric, counter in COUNTERS.items()
    }


def add_counters(total: dict[str, float], tracer) -> None:
    """Accumulate a ``repro.obs`` tracer's counter values into ``total``."""
    for name, counter in tracer.metrics.counters.items():
        total[name] = total.get(name, 0.0) + float(counter.value)


# -------------------------------------------------------------------- result
@dataclass
class Outcome:
    """What one workload run measured and checked."""

    attempted: int = 0
    failed: int = 0
    metrics: dict[str, float] = field(default_factory=dict)
    #: ``{class: [attempted, failed]}`` for the per-class accounting lines
    classes: dict[str, list[int]] = field(default_factory=dict)
    ledger: dict = field(default_factory=dict)

    def count(self, op_class: str, ok: bool) -> None:
        tally = self.classes.setdefault(op_class, [0, 0])
        tally[0] += 1
        self.attempted += 1
        if not ok:
            tally[1] += 1
            self.failed += 1


def result_line(outcome: Outcome, trace: bool) -> str:
    """The final JSON line of a run whose every op and check held."""
    units = PER_LAYER if trace else END_TO_END
    values = dict(outcome.metrics)
    if trace:
        for name in units:
            values.setdefault(name, 0.0)  # a layer the workload never enters
    missing = sorted(set(units) - set(values))
    if missing:
        raise RuntimeError(f"workload did not measure {missing}")
    return json.dumps(
        {
            "correct": True,
            "attempted": outcome.attempted,
            "failed": outcome.failed,
            "metrics": {
                name: {"value": float(values[name]), "unit": unit}
                for name, unit in units.items()
            },
        }
    )


@contextmanager
def workdir():
    """A fresh scratch directory under ``OUT``, removed afterwards."""
    OUT.mkdir(exist_ok=True)
    path = Path(tempfile.mkdtemp(prefix="run-", dir=OUT))
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
