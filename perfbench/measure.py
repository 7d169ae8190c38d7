"""Measurement loops: end-to-end runs and traced per-layer runs.

Imported by ``run.py`` once ``src/`` is on the path.
"""

from __future__ import annotations

import copy
import resource
import time
from statistics import fmean, median

from calibrate import calibrate, slowness
from layers import LayerClock
from workloads import detection_identity, percentile

#: Layers whose self times add up to the covered share of a pass.
COVERED_LAYERS = ("parse", "parse.mask", "sessionize", "detect", "classify",
                  "classify.deliver", "classify.feedback")

#: Per-layer times, scaled to the reference machine like the
#: end-to-end ones (``calibrate.py``).
LAYER_TIMES = ("parse.s", "parse.mask_s", "parse.self_s", "detect.s",
               "detect.us_per_window", "sessionize.s",
               "ingest.frontend_us_per_record", "classify.s",
               "classify.deliver_s", "classify.feedback_s")


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def busy(workload, result) -> float:
    """Seconds the process worked in a pass.

    Wall time for the closed-loop batch jobs; process CPU time on the
    open-loop stream, whose wall time is set by the offered schedule.
    """
    return result.cpu if workload.open_loop else result.wall


def scale(workload, speeds) -> float:
    """What a pass's work-bound times are divided by: the slowness of
    the machine over the run, so they read as on the reference machine.

    1 on the open-loop stream: its rate and latencies are set by the
    offered schedule, and its passes idle between arrivals, so one
    calibration per 4.6 s pass samples too little of the pass to track
    its CPU time (scaled, its ``cpu_us_per_record`` spread wider across
    runs than unscaled).
    """
    return 1.0 if workload.open_loop else slowness(speeds)


def frontend_s(workload, result, feedback_s: float) -> float:
    """Time outside the pipeline's entry call (and outside feedback).

    On the stream this is the asyncio ingest front end: process CPU
    minus time inside ``process_batch``.  Batch jobs have no ingest
    layer; there it is the wall time of the loop that feeds ``run()``.
    """
    return busy(workload, result) - result.pipeline_s - feedback_s


class Tally:
    """Failed and attempted records, against one reference run."""

    def __init__(self, reference_identity) -> None:
        self.reference_identity = reference_identity
        self.digest: str | None = None
        self.attempted = 0
        self.failed = 0
        self.mismatches = 0

    def check(self, result) -> None:
        self.attempted += result.records
        if result.failed_records >= result.records:
            self.failed += result.records
            return
        if self.digest is None:
            self.digest = result.digest
        if (result.digest != self.digest or detection_identity(result.alerts)
                != self.reference_identity):
            self.mismatches += 1
            self.failed += result.records
        else:
            self.failed += result.failed_records


def run_passes(workload, seconds: float, make_pass, tally: Tally) -> list:
    """Repeat ``make_pass`` for ``seconds`` (at least ``min_passes``
    valid ones; invalid stream passes are retried, within a cap)."""
    results = []
    start = time.perf_counter()
    # Room to retry invalid stream passes through a burst of host
    # contention, within the 180 s a run may take.
    deadline = start + 3 * seconds + 30
    while True:
        result = make_pass(len(results))
        results.append(result)
        for item in _items(result):
            tally.check(item)
        valid = [item for item in results if _valid(item)]
        elapsed = time.perf_counter() - start
        if elapsed >= seconds and len(valid) >= workload.min_passes:
            return valid
        if time.perf_counter() > deadline:
            if not valid:
                reasons = sorted({item.invalid for result in results
                                  for item in _items(result) if item.invalid})
                raise SystemExit(f"perfbench: no valid pass: {reasons}")
            return valid


def _items(result) -> tuple:
    """A pass, or the (untraced, traced) pair of a traced run."""
    return result if isinstance(result, tuple) else (result,)


def _valid(result) -> bool:
    return all(item.invalid is None for item in _items(result))


def end_to_end(workload, seconds: float, meta: dict):
    fitted, setup_times, setup_speeds = [], [], [calibrate()]
    for _ in range(workload.setups):
        pipeline, elapsed = workload.setup()
        fitted.append(pipeline)
        setup_times.append(elapsed)
        setup_speeds.append(calibrate())
    tally = Tally(workload.reference_identity(copy.deepcopy(fitted[0])))
    pass_speeds = []

    def measured(index):
        pass_speeds.append(calibrate())
        return workload.measured_pass(fitted[index % len(fitted)])

    passes = run_passes(workload, seconds, measured, tally)
    # Totals and per-pass means, not medians: the shared machine flips
    # between a fast and a slow regime for tens of seconds at a time,
    # and a median jumps with the mix of regimes a run happened to see
    # where a mean only moves in proportion to it.
    records = sum(result.records for result in passes)
    first = passes[0]
    raw = {
        "run_rps": records / sum(result.wall for result in passes),
        "latency_p50_ms": fmean(percentile(result.latencies, 0.50)
                                for result in passes) * 1e3,
        "latency_p99_ms": fmean(percentile(result.latencies, 0.99)
                                for result in passes) * 1e3,
        "cpu_us_per_record": sum(result.cpu for result in passes)
        / records * 1e6,
    }
    machine = scale(workload, pass_speeds)
    metrics = {
        # Each set-up is scaled by the calibrations on either side of it.
        "setup_s": median(elapsed / slowness(setup_speeds[index:index + 2])
                          for index, elapsed in enumerate(setup_times)),
        "run_rps": raw["run_rps"] * machine,
        "latency_p50_ms": raw["latency_p50_ms"] / machine,
        "latency_p99_ms": raw["latency_p99_ms"] / machine,
        "cpu_us_per_record": raw["cpu_us_per_record"] / machine,
        "peak_rss_mb": peak_rss_mb(),
        "detect_f1": workload.detect_f1(first.alerts),
        "routing_accuracy": (workload.routed_correctly(first.alerts)
                             / max(1, len(first.alerts))),
    }
    meta.update(slowness=slowness(pass_speeds),
                unscaled=dict(raw, setup_s=median(setup_times)),
                setup_times=setup_times,
                latency_samples_per_pass=len(first.latencies))
    _stream_meta(passes, meta)
    return metrics, tally, passes


def per_layer(workload, seconds: float, meta: dict):
    fit_clock = LayerClock()
    fit_speeds = [calibrate()]
    fitted, _ = workload.setup(clock=fit_clock)
    fit_speeds.append(calibrate())
    tally = Tally(workload.reference_identity(copy.deepcopy(fitted)))
    pair_speeds = []

    def pair(index):
        pair_speeds.append(calibrate())
        plain = workload.measured_pass(fitted)
        clock = LayerClock()
        traced = workload.measured_pass(fitted, clock)
        traced.extra["clock"] = clock
        return plain, traced

    pairs = run_passes(workload, seconds, pair, tally)
    rows = [_layer_row(workload, traced) for _, traced in pairs]
    metrics = {name: median(row[name] for row in rows) for name in rows[0]}
    machine = scale(workload, pair_speeds)
    for name in LAYER_TIMES:
        metrics[name] /= machine
    metrics["detect.fit_s"] = (fit_clock.inclusive["detect.fit"]
                               / slowness(fit_speeds))
    metrics["trace.overhead"] = (
        median(busy(workload, traced) for _, traced in pairs)
        / median(busy(workload, plain) for plain, _ in pairs))
    metrics["ingest.backlog_peak"] = median(
        plain.extra.get("backlog_peak", 0) for plain, _ in pairs)
    metrics["error_rate"] = tally.failed / max(1, tally.attempted)
    meta.update(slowness=slowness(pair_speeds))
    _stream_meta([plain for plain, _ in pairs], meta)
    return metrics, tally, [traced for _, traced in pairs]


def _layer_row(workload, result) -> dict:
    clock = result.extra["clock"]
    inclusive, self_time = clock.inclusive, clock.self_time
    cache = result.cache
    ingest = result.extra.get("ingest", {})
    front = frontend_s(workload, result, inclusive["classify.feedback"])
    covered = sum(self_time[layer] for layer in COVERED_LAYERS) + front
    windows = clock.calls["detect"]
    return {
        "parse.s": inclusive["parse"],
        "parse.mask_s": inclusive["parse.mask"],
        "parse.self_s": self_time["parse"],
        "parse.cache_hit_ratio": _ratio(cache["hits"], cache["misses"]),
        "parse.line_hit_ratio": _ratio(cache["line_hits"],
                                       cache["line_misses"]),
        "parse.templates": result.extra["templates"],
        "detect.s": inclusive["detect"],
        "detect.us_per_window": inclusive["detect"] / max(1, windows) * 1e6,
        "detect.windows": windows,
        "detect.anomalous": len(result.alerts),
        "sessionize.s": self_time["sessionize"],
        "sessionize.open_peak": clock.open_peak,
        "ingest.frontend_us_per_record": front / result.records * 1e6,
        "ingest.batches": ingest.get("batches", 0),
        "ingest.size_flushes": ingest.get("size_flushes", 0),
        "ingest.age_flushes": ingest.get("age_flushes", 0),
        "ingest.credit_waits": ingest.get("credit_waits", 0),
        "ingest.late_records": ingest.get("late_records", 0),
        "ingest.peak_depth": ingest.get("peak_depth", 0),
        "classify.s": inclusive["classify"],
        "classify.deliver_s": inclusive["classify.deliver"],
        "classify.feedback_s": inclusive["classify.feedback"],
        "classify.feedback_events": clock.calls["classify.feedback"],
        "trace.coverage": covered / busy(workload, result),
    }


def _ratio(hits: int, misses: int) -> float:
    return hits / (hits + misses) if hits + misses else 0.0


def _stream_meta(passes, meta: dict) -> None:
    if "backlog_peak" not in passes[0].extra:
        return
    for key in ("generator_late_max_ms", "generator_late_p99_ms",
                "generator_send_s", "backlog_peak"):
        meta[key] = max(result.extra[key] for result in passes)
    meta["ingest_credit_wait_s"] = max(
        result.extra["ingest"]["credit_wait_s"] for result in passes)
