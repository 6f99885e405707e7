"""Workload ``service-mix``: one closed-loop client of the partition service.

The client drives ``PartitionService.handle`` in process and waits for
each answer before sending the next, as a job scheduler does.  Its
traffic is the repository's own load model: each round replays
``repro.service.loadgen.build_schedule`` at the loadgen defaults (a pool
of 8 fresh specs, zipf-distributed over 100 clients x 5 requests, totals
400, 900 and 1600) with the model knobs left at the service defaults.
A spec's first request is cold (``built``), a first request at another
total is warm (models in memory, solve only) and a repeated request is
hot (answer cache).  After every round a second service over the same
store root replays each spec's cold request from disk (``restart``).
The solve pool has one thread.

Every round's pool has the same make-up by spec shape (``POOL``) and a
CPU-only spec at its zipf head, so every run has the same multimodal mix
of answers whatever the seed; the seed picks the round seeds, and
loadgen's own draw orders the other specs into zipf ranks.  Rounds are
drawn lazily, so a faster service is measured on more rounds.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import resource
import sys
import tempfile
import time
from collections import Counter
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
from repro import api
from repro.core.solver import Solver
from repro.platform.presets import ig_icl_node
from repro.platform.spec import NodeSpec
from repro.service import core as service_core
from repro.service.core import PartitionService
from repro.service.loadgen import LoadgenConfig, build_schedule, spec_pool
from repro.service.protocol import PartitionRequest
from repro.store import ResultStore, use_store
from repro.util.rng import RngStream
from repro.util.serde import from_jsonable, to_jsonable

#: One round's pool, by shape (sockets, with or without a GPU): every
#: shape, and 3 GPU nodes of 8, as in 22% of loadgen pools.  GPU and
#: CPU-only nodes answer in two separate modes (cold builds about 29-62
#: vs 9-23 ms, hot hits about 2.1 vs 1.3 ms, since a GPU spec is twice
#: as long to parse), so an even split would put each class median on
#: the gap between them, and it would swing from run to run.  For the
#: same reason the zipf head, 43% of a round's requests, is a CPU-only
#: spec: with a GPU head in some rounds, the median request lands in
#: either mode depending on the run.
POOL = Counter(cpu1=2, cpu2=3, gpu1=1, gpu2=2)
#: The total of the set-up probe's first cold answer.
SETUP_TOTAL = 1600.0
#: p99.5 needs ten requests beyond it; it lies inside the GPU cold
#: builds (0.6% of requests).
TAIL_PERCENTILE = 99.5
MIN_REQUESTS = 2000
#: The warm-up round's specs come from another seed.
WARMUP_SEED_OFFSET = 1_000_003
#: The paper node (Fig. 6 and Fig. 7 sizes), asked during the warm-up so
#: the quality of the service's answer is tracked on a fixed input.
PAPER_TOTALS = (3600.0, 6400.0)
CLASSES = ("cold", "warm", "hot", "restart")


def _shape(spec) -> str:
    return f"{'gpu' if spec.gpus else 'cpu'}{spec.num_sockets}"


def classify(schedule: list[list[dict]]) -> list[tuple[str, dict, float]]:
    """The schedule's requests in client order as (class, node, total)."""
    seen: set[str] = set()
    asked: set[tuple[str, float]] = set()
    requests = []
    for client in schedule:
        for request in client:
            node, total = request["node"], request["total_blocks"]
            key = json.dumps(node, sort_keys=True)
            if key not in seen:
                op_class = "cold"
            elif (key, total) not in asked:
                op_class = "warm"
            else:
                op_class = "hot"
            seen.add(key)
            asked.add((key, total))
            requests.append((op_class, node, total))
    return requests


def rounds(seed: int):
    """The seed's rounds, drawn lazily: loadgen schedules at the
    loadgen defaults whose pool has make-up ``POOL`` and a CPU-only spec
    at its zipf head (about one round seed in 60)."""
    draw = RngStream(seed, ("perfbench", "service-mix")).generator
    while True:
        config = LoadgenConfig(seed=int(draw.integers(0, 2**31)))
        pool = spec_pool(config)
        if not pool[0].gpus and Counter(_shape(spec) for spec in pool) == POOL:
            yield classify(build_schedule(config))


def body(node: dict, total: float) -> bytes:
    return json.dumps({"node": node, "total_blocks": total}).encode("utf-8")


class TimedStore(ResultStore):
    """A ``ResultStore`` whose reads and writes the ledger times."""

    def __init__(self, root, ledger: Ledger):
        super().__init__(root)
        self._ledger = ledger

    def get(self, kind, key):
        return self._ledger.call("store.get", super().get, kind, key)

    def put(self, kind, key, payload):
        return self._ledger.call("store.put", super().put, kind, key, payload)


#: The service's layers the traced run times, as (owner, attribute, layer).
LAYER_TARGETS = (
    (service_core, "parse_partition_request", "service.parse"),
    (PartitionRequest, "answer_key", "service.keys"),
    (PartitionRequest, "model_key", "service.keys"),
    (Solver, "solve", "core.solve"),
    (Solver, "resolve", "core.resolve"),
)
#: Model building is timed in cold rounds only: after a restart the same
#: call reads the models back from the store.
BUILD_TARGET = (api, "build_models", "measurement.build_models")


def _layers(ledger: Ledger | None, *, cold: bool):
    if ledger is None:
        return contextlib.nullcontext()
    return ledger.patched(*LAYER_TARGETS, *((BUILD_TARGET,) if cold else ()))


class Client:
    """The closed-loop client: one request in flight, every answer kept."""

    def __init__(self, store_root: Path, outcome: Outcome):
        self.store_root = store_root
        self.outcome = outcome
        self.latencies: dict[str, list[float]] = {c: [] for c in CLASSES}
        self.traced_latencies: list[float] = []
        #: (node spec, total, class, allocation) of every answer
        self.answers: list[tuple[dict, float, str, dict]] = []
        self.counters: dict[str, float] = {}

    async def ask(self, service, op_class: str, node: dict, total: float, traced: bool) -> None:
        raw = body(node, total)
        start = time.perf_counter()
        response = await service.handle("POST", "/partition", raw)
        latency = time.perf_counter() - start
        self.outcome.count(op_class, response.status == 200)
        answer = response.json
        checks.served_from(op_class, response.status, answer.get("source"))
        (self.traced_latencies if traced else self.latencies[op_class]).append(latency)
        self.answers.append((node, total, op_class, answer["allocation"]))

    def _store(self, ledger: Ledger | None) -> ResultStore:
        if ledger is None:
            return ResultStore(self.store_root)
        return TimedStore(self.store_root, ledger)

    async def round(self, requests, ledger: Ledger | None = None) -> None:
        traced = ledger is not None
        with _layers(ledger, cold=True):
            service = PartitionService(store=self._store(ledger), workers=1)
            await service.start()
            try:
                for op_class, node, total in requests:
                    await self.ask(service, op_class, node, total, traced)
            finally:
                await service.aclose()
        self._store_phase("cold round", service, cold=True, traced=traced)

        with _layers(ledger, cold=False):
            restarted = PartitionService(store=self._store(ledger), workers=1)
            await restarted.start()
            try:
                for op_class, node, total in requests:
                    if op_class == "cold":
                        await self.ask(restarted, "restart", node, total, traced)
            finally:
                await restarted.aclose()
        self._store_phase("restart", restarted, cold=False, traced=traced)

    def _store_phase(self, phase, service, *, cold: bool, traced: bool) -> None:
        counts = {n: c.value for n, c in service.tracer.metrics.counters.items()}
        checks.store_counts(
            phase, counts.get("store.hit", 0), counts.get("store.miss", 0), cold=cold
        )
        if traced:
            add_counters(self.counters, service.tracer)


async def _ask_paper_node(client: Client) -> None:
    node = to_jsonable(ig_icl_node())
    service = PartitionService(store=ResultStore(client.store_root), workers=1)
    await service.start()
    try:
        for i, total in enumerate(PAPER_TOTALS):
            await client.ask(service, "cold" if i == 0 else "warm", node, total, False)
    finally:
        await service.aclose()


def first_answer(seed: int, out_dir: str) -> None:
    """Service start and the first cold answer (the ``setup_s`` probe)."""
    node = to_jsonable(spec_pool(LoadgenConfig(seed=seed, spec_pool=1))[0])
    root = tempfile.mkdtemp(prefix="setup-", dir=out_dir)

    async def go() -> None:
        async with PartitionService(store=ResultStore(root), workers=1) as service:
            response = await service.handle("POST", "/partition", body(node, SETUP_TOTAL))
            checks.served_from("cold", response.status, response.json.get("source"))

    asyncio.run(go())


def run(seed: int, seconds: float, trace: bool, work: Path) -> Outcome:
    outcome = Outcome()
    if not trace:
        outcome.metrics["setup_s"] = setup_seconds(
            [sys.executable, str(Path(__file__).with_name("probe.py")),
             "service-setup", "--seed", str(seed), "--out", str(work)],
            work,
        )
    warmup = Client(work / "warmup-store", Outcome())
    client = Client(work / "store", outcome)
    ledger = Ledger()

    async def measure() -> None:
        await warmup.round(next(rounds(seed + WARMUP_SEED_OFFSET)))
        await _ask_paper_node(warmup)
        walk = rounds(seed)
        start = time.perf_counter()
        done = 0
        while time.perf_counter() - start < seconds or (not trace and outcome.attempted < MIN_REQUESTS):
            # the traced run alternates plain and traced rounds so the
            # tracing overhead is measured under the same machine load
            await client.round(next(walk), ledger if trace and done % 2 else None)
            done += 1

    asyncio.run(measure())
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    unit_times = check_answers(warmup.answers + client.answers, work / "check-store")
    paper_node = json.dumps(to_jsonable(ig_icl_node()))
    makespan_s = unit_times[(paper_node, PAPER_TOTALS[1])]
    slowest_s = unit_times[(paper_node, PAPER_TOTALS[0])]

    plain = [lat for c in CLASSES for lat in client.latencies[c]]
    if not trace:
        outcome.metrics.update(
            op_p50_ms=median(plain) * 1e3,
            op_tail_ms=tail(plain, TAIL_PERCENTILE) * 1e3,
            ops_per_s=len(plain) / sum(plain),
            peak_rss_mb=peak_rss_mb,
            sim_makespan_s=makespan_s,
            slowest_rank_s=slowest_s,
            **{f"{c}_p50_ms": median(client.latencies[c]) * 1e3 for c in CLASSES},
        )
        return outcome

    traced = client.traced_latencies
    outcome.metrics.update(counts_per_op(client.counters, max(1, len(traced))))
    outcome.metrics.update(import_layers(work))
    for layer in (
        "measurement.build_models", "core.solve", "core.resolve",
        "service.parse", "service.keys", "store.get", "store.put",
    ):
        outcome.metrics[f"{layer}_ms"] = ledger.median_ms(layer)
    outcome.metrics["trace.overhead_pct"] = 100.0 * (median(traced) / median(plain) - 1.0)
    outcome.ledger = {
        "layers": ledger.summary(),
        "counters_total": client.counters,
        "ops": {"plain": len(plain), "traced": len(traced)},
        "op_p50_ms": {"plain": median(plain) * 1e3, "traced": median(traced) * 1e3},
    }
    return outcome


def check_answers(answers, check_root: Path) -> dict:
    """Every answer against ``api.partition_node`` run without the service.

    Also checks each allocation's sum and the equal predicted unit times
    of the continuous FPM solve.  Returns the common predicted unit time
    per (spec, total).  The check store is this function's own, so the
    library builds every model set afresh.
    """
    direct: dict = {}
    unit_times: dict = {}
    models: dict = {}
    with use_store(ResultStore(check_root)):
        for node_json, total, _, allocation in answers:
            key = (json.dumps(node_json), total)
            if key not in direct:
                node = from_jsonable(NodeSpec, node_json)
                if key[0] not in models:
                    models = {key[0]: api.build_models(node=node)}
                built = models[key[0]]
                direct[key] = api.partition_node(node=node, total_blocks=total)
                names = sorted(built)
                checks.allocation_sum(direct[key].values(), total)
                unit_times[key] = checks.equal_predicted_times(
                    [built[n] for n in names], [direct[key][n] for n in names]
                )
            checks.same_answer(allocation, direct[key])
    return unit_times
