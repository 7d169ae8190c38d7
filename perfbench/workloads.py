"""The three benchmark workloads and the passes that measure them.

Each workload generates its records from the seed, splits them by
session with anomaly-free training (the paper's deployment regime),
fits pipelines on the history, and then replays the live split
through fresh copies of a fitted pipeline.  A pass is one replay of
the whole live split; every pass starts from an identical fitted state,
so every pass must deliver identical alerts.

* ``cloud-deeplog`` -- closed-loop batch job, default spec (drain with
  masking, deeplog, classifier and pools) over the three-source cloud
  platform; a simulated administrator reviews each alert as ``run()``
  yields it, so the classifier learns while it classifies.
* ``bgl-pca`` -- closed-loop batch job, drain with masking and pca over
  the BGL-like stream; parsing dominates and the masked-content cache
  mostly misses.
* ``hdfs-pca-stream`` -- open-loop stream: a separate generator process
  (``loadgen.py``) offers JSON-lines records over one TCP connection at
  a fixed rate into ``SocketSource`` and ``IngestService``, feeding the
  streaming spec with pca.
"""

from __future__ import annotations

import asyncio
import copy
import gc
import hashlib
import json
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro.api.pipeline import Pipeline
from repro.api.spec import PipelineSpec
from repro.classify.feedback import AdministratorSimulator, source_based_policy
from repro.datasets import (
    generate_bgl,
    generate_cloud_platform,
    generate_hdfs,
    train_test_split,
)
from repro.ingest.service import IngestService
from repro.ingest.sources import SocketSource, render_json_line

from layers import LayerClock, Slowdown

LOADGEN = Path(__file__).resolve().parent / "loadgen.py"

#: A stream pass is invalid (not slow) when the generator itself ran
#: this late: its own scheduling lag, not back-pressure from the
#: system under test.
GENERATOR_LATE_P99_MS = 10.0
GENERATOR_LATE_MAX_MS = 50.0


def alert_digest(alerts) -> str:
    """Hash of the ordered alerts: report id, session, pool, criticality."""
    digest = hashlib.sha256()
    for alert in alerts:
        digest.update(
            f"{alert.report.report_id}|{alert.report.session_id}|"
            f"{alert.pool}|{alert.criticality}\n".encode()
        )
    return digest.hexdigest()[:16]


def detection_identity(alerts) -> list[tuple[int, str]]:
    return [(alert.report.report_id, alert.report.session_id)
            for alert in alerts]


def f1_score(alerted: set[str], truth: set[str]) -> float:
    hits = len(alerted & truth)
    if not hits:
        return 0.0
    precision, recall = hits / len(alerted), hits / len(truth)
    return 2 * precision * recall / (precision + recall)


def percentile(values: list[float], share: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(share * len(ordered)))]


@dataclass
class Pass:
    """One replay of the live split through one fitted pipeline."""

    wall: float
    cpu: float
    records: int
    alerts: list
    latencies: list[float]
    #: Seconds inside the pipeline's entry call (``run`` steps or
    #: ``process_batch``/``flush``); the rest of ``cpu`` is front end.
    pipeline_s: float
    failed_records: int = 0
    invalid: str | None = None
    extra: dict = field(default_factory=dict)
    cache: dict = field(default_factory=dict)

    @property
    def digest(self) -> str:
        return alert_digest(self.alerts)


def cache_counters(pipeline) -> dict:
    cache = pipeline.parser.cache
    return {"hits": cache.hits, "misses": cache.misses,
            "line_hits": cache.line_hits, "line_misses": cache.line_misses}


class Workload:
    """Shared set-up and measurement plumbing; subclasses add the pass."""

    name = ""
    #: Pipeline set-ups per untraced run; ``setup_s`` is their median.
    setups = 3
    #: At least this many passes, however short ``--seconds`` is.
    min_passes = 3
    #: Open-loop workloads idle between arrivals: their busy time is
    #: process CPU, not wall time.
    open_loop = False

    def __init__(self, seed: int, slow: str | None = None) -> None:
        self.seed = seed
        self.slow = slow
        self.history, self.live, self.truth = self.generate(seed)
        self.policy = source_based_policy(self.pool_of_source)

    # -- definition ----------------------------------------------------------

    spec: PipelineSpec
    pool_of_source: dict[str, str]

    def generate(self, seed: int):
        """Return (history records, live records, anomalous live ids)."""
        raise NotImplementedError

    def run_pass(self, pipeline) -> Pass:
        raise NotImplementedError

    def reference_identity(self, pipeline) -> list[tuple[int, str]]:
        """Detection identity through the pipeline's direct batch path."""
        raise NotImplementedError

    # -- shared plumbing -----------------------------------------------------

    def build(self) -> Pipeline:
        pipeline = Pipeline(self.spec)
        for pool in sorted(set(self.pool_of_source.values())):
            pipeline.pools.create_pool(pool)
        return pipeline

    def setup(self, clock: LayerClock | None = None) -> tuple[Pipeline, float]:
        """Construct and fit one pipeline; returns it and the wall time.

        Wrappers (the layer clock, a slowdown) live only for the fit:
        the returned pipeline is clean, so it can be deep-copied.
        """
        gc.collect()
        start = time.perf_counter()
        pipeline = self.build()
        patches = self.instrument(pipeline, clock)
        try:
            pipeline.fit(self.history)
        finally:
            for patch in reversed(patches):
                patch.remove()
        return pipeline, time.perf_counter() - start

    def instrument(self, pipeline, clock: LayerClock | None) -> list:
        """Install the slowdown (inner) and the layer clock (outer)."""
        patches = []
        if self.slow is not None:
            patches.append(Slowdown(self.slow).install(pipeline))
        if clock is not None:
            patches.append(clock.install(pipeline))
        return patches

    def measured_pass(self, fitted, clock: LayerClock | None = None) -> Pass:
        pipeline = copy.deepcopy(fitted)
        # Start every pass from an empty collector: garbage left by the
        # previous pass is not this pass's cost.
        gc.collect()
        before = cache_counters(pipeline)
        patches = self.instrument(pipeline, clock)
        try:
            result = self.run_pass(pipeline)
        except Exception as error:  # a raised pass is a failed operation
            print(f"pass raised: {error!r}", file=sys.stderr)
            self.close()  # a stream restarts its generator in sync
            result = Pass(wall=0.0, cpu=0.0, records=len(self.live),
                          alerts=[], latencies=[], pipeline_s=0.0,
                          failed_records=len(self.live),
                          invalid=f"pass raised {type(error).__name__}")
        finally:
            for patch in reversed(patches):
                patch.remove()
        after = cache_counters(pipeline)
        result.cache = {key: after[key] - before[key] for key in after}
        result.extra["templates"] = pipeline.parser.template_count
        return result

    def routed_correctly(self, alerts) -> int:
        return sum(alert.pool == self.policy.correct_pool(alert.report)
                   for alert in alerts)

    def detect_f1(self, alerts) -> float:
        return f1_score({alert.report.session_id for alert in alerts},
                        self.truth)

    def close(self) -> None:
        """Release per-workload resources (the stream's generator)."""


class BatchWorkload(Workload):
    """A closed-loop batch job: ``run()`` over the live split."""

    def run_pass(self, pipeline) -> Pass:
        admin = AdministratorSimulator(pipeline.pools, self.policy,
                                       seed=self.seed)
        alerts, latencies = [], []
        clock_now = time.perf_counter
        inside = 0.0
        cpu = time.process_time()
        start = clock_now()
        stream = pipeline.run(self.live)
        while True:
            entered = clock_now()
            alert = next(stream, None)
            now = clock_now()
            inside += now - entered
            if alert is None:
                break
            latencies.append(now - start)
            alerts.append(alert)
            admin.review(alert)
        wall = clock_now() - start
        # No alert: the job's (empty) result arrives when the pass ends.
        return Pass(wall=wall, cpu=time.process_time() - cpu,
                    records=len(self.live), alerts=alerts,
                    latencies=latencies or [wall], pipeline_s=inside)

    def reference_identity(self, pipeline) -> list[tuple[int, str]]:
        return detection_identity(pipeline.process(self.live))


class CloudDeeplog(BatchWorkload):
    name = "cloud-deeplog"
    spec = PipelineSpec(detector="deeplog", executor="serial")
    pool_of_source = {"api": "team-api", "network": "team-infra",
                      "storage": "team-infra"}

    def generate(self, seed: int):
        dataset = generate_cloud_platform(sessions=1500, seed=seed)
        history, live = train_test_split(
            dataset, anomaly_free_training=True, seed=seed)
        return history.records, live.records, set(live.anomalous_sessions())


class BglPca(BatchWorkload):
    name = "bgl-pca"
    setups = 5
    spec = PipelineSpec(detector="pca", executor="serial")
    pool_of_source = {"bgl": "team-bgl"}

    def generate(self, seed: int):
        dataset = generate_bgl(records=40_000, alert_episodes=60, seed=seed)
        history, live = train_test_split(
            dataset, anomaly_free_training=True, seed=seed)
        return history.records, live.records, set(live.anomalous_sessions())


class _TimedTarget:
    """The ``process_batch`` object handed to ``IngestService``.

    Stamps each batch's return time (latency is measured from each
    record's scheduled send time to this stamp) and sums the time spent
    inside the pipeline.
    """

    def __init__(self, pipeline) -> None:
        self.pipeline = pipeline
        self.completions: list[tuple[list[int], float]] = []
        self.inside = 0.0

    def process_batch(self, records):
        start = time.monotonic()
        alerts = self.pipeline.process_batch(records)
        end = time.monotonic()
        self.inside += end - start
        self.completions.append(([record.sequence for record in records], end))
        return alerts

    def flush(self):
        start = time.monotonic()
        alerts = self.pipeline.flush()
        self.inside += time.monotonic() - start
        return alerts


class HdfsPcaStream(Workload):
    name = "hdfs-pca-stream"
    spec = PipelineSpec(detector="pca", streaming=True, executor="serial")
    pool_of_source = {"hdfs": "team-hdfs"}
    setups = 5
    min_passes = 2
    open_loop = True
    #: Offered load, records/s: well under capacity (the process uses
    #: about half a core at this rate on a 2-core box), where p50
    #: latency holds steady run to run; near capacity it swings.
    rate = 2000.0

    def __init__(self, seed: int, slow: str | None = None) -> None:
        super().__init__(seed, slow)
        self._loadgen: subprocess.Popen | None = None
        self._port = 0

    def generate(self, seed: int):
        dataset = generate_hdfs(sessions=2400, anomaly_rate=0.05, seed=seed)
        history, live = train_test_split(
            dataset, anomaly_free_training=True, train_fraction=0.75,
            seed=seed)
        return history.records, live.records, set(live.anomalous_sessions())

    def _generator(self) -> int:
        if self._loadgen is None:
            self._loadgen = subprocess.Popen(
                [sys.executable, str(LOADGEN), "--rate", str(self.rate)],
                stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            )
            payload = "".join(render_json_line(record) + "\n"
                              for record in self.live)
            self._loadgen.stdin.write(payload.encode())
            self._loadgen.stdin.close()
            self._port = json.loads(self._loadgen.stdout.readline())["port"]
        return self._port

    def close(self) -> None:
        if self._loadgen is not None:
            self._loadgen.terminate()
            self._loadgen.wait(timeout=30)
            self._loadgen.stdout.close()
            self._loadgen = None

    def run_pass(self, pipeline) -> Pass:
        port = self._generator()
        admin = AdministratorSimulator(pipeline.pools, self.policy,
                                       seed=self.seed)
        alerts: list = []

        def on_alert(alert) -> None:
            alerts.append(alert)
            admin.review(alert)

        source = SocketSource("127.0.0.1", port, name="loadgen",
                              framing="jsonl", reconnect=False,
                              max_connect_attempts=100)
        target = _TimedTarget(pipeline)
        service = IngestService([source], target,
                                config=pipeline.spec.ingest_config(),
                                on_alert=on_alert)
        cpu = time.process_time()
        asyncio.run(service.run())
        cpu = time.process_time() - cpu
        generator = json.loads(self._loadgen.stdout.readline())
        return self._score(target, service, generator, alerts, cpu)

    def _score(self, target, service, generator, alerts, cpu) -> Pass:
        interval = 1.0 / self.rate
        t0, sent = generator["t0"], generator["sent"]
        latencies: list[float] = []
        seen: set[int] = set()
        processed = backlog_peak = 0
        for sequences, end in target.completions:
            due = min(sent, int((end - t0) / interval) + 1)
            backlog_peak = max(backlog_peak, due - processed)
            processed += len(sequences)
            seen.update(sequences)
            latencies.extend(end - (t0 + sequence * interval)
                             for sequence in sequences)
        # Never processed, or processed twice: both lose the record.
        failed = (sent - len(seen)) + (processed - len(seen))
        end = target.completions[-1][1] if target.completions else t0
        invalid = None if latencies else "no record was processed"
        if (generator["late_p99_ms"] > GENERATOR_LATE_P99_MS
                or generator["late_max_ms"] > GENERATOR_LATE_MAX_MS):
            invalid = (f"generator lagged: p99 {generator['late_p99_ms']:.2f}"
                       f" ms, max {generator['late_max_ms']:.2f} ms")
        stats = service.stats()
        return Pass(
            wall=end - t0, cpu=cpu, records=sent, alerts=alerts,
            latencies=latencies, pipeline_s=target.inside,
            failed_records=failed, invalid=invalid,
            extra={
                "generator_late_max_ms": generator["late_max_ms"],
                "generator_late_p99_ms": generator["late_p99_ms"],
                "generator_send_s": generator["send_s"],
                "backlog_peak": backlog_peak,
                "ingest": {
                    "batches": stats.batches,
                    "size_flushes": stats.size_flushes,
                    "age_flushes": stats.age_flushes,
                    "credit_waits": stats.credit_waits,
                    "credit_wait_s": stats.credit_wait_seconds,
                    "late_records": stats.late_records,
                    "peak_depth": stats.peak_depth,
                },
            },
        )

    def reference_identity(self, pipeline) -> list[tuple[int, str]]:
        size = pipeline.spec.ingest_batch_size
        alerts = []
        for start in range(0, len(self.live), size):
            alerts += pipeline.process_batch(self.live[start:start + size])
        alerts += pipeline.flush()
        return detection_identity(alerts)


WORKLOADS = {workload.name: workload
             for workload in (CloudDeeplog, BglPca, HdfsPcaStream)}
