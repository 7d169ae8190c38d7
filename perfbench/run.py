"""End-to-end and per-layer benchmark of the MoniLog pipeline.

Run from the repository root:

    python3 perfbench/run.py --workload cloud-deeplog --seed 1 --seconds 10 --trace 0

``--trace 0`` prints the end-to-end metrics, measured with no
wrappers installed; ``--trace 1`` prints the per-layer metrics from a
run that alternates untraced and traced passes.  The last stdout line
is one JSON object: ``correct``, ``attempted``, ``failed`` (records),
and ``metrics`` (name -> value and unit).  The line before it carries
run metadata: the calibration loop, the alert digest, pass counts and,
on the stream, how late the load generator ran.

``--slow parse|detect`` makes that layer twice as slow from the
benchmark side; the sensitivity self-test (``perfbench/tests``) uses it.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

WORKLOAD_NAMES = ("cloud-deeplog", "bgl-pca", "hdfs-pca-stream")

#: Default seed, and the second seed a claimed gain must also hold on.
DEFAULT_SEED = 1
CONFIRM_SEED = 2

END_TO_END_UNITS = {
    "setup_s": "s",
    "run_rps": "1/s",
    "latency_p50_ms": "ms",
    "latency_p99_ms": "ms",
    "cpu_us_per_record": "us",
    "peak_rss_mb": "MB",
    "detect_f1": "ratio",
    "routing_accuracy": "ratio",
}

PER_LAYER_UNITS = {
    "parse.s": "s",
    "parse.mask_s": "s",
    "parse.self_s": "s",
    "parse.cache_hit_ratio": "ratio",
    "parse.line_hit_ratio": "ratio",
    "parse.templates": "count",
    "detect.s": "s",
    "detect.us_per_window": "us",
    "detect.windows": "count",
    "detect.anomalous": "count",
    "detect.fit_s": "s",
    "sessionize.s": "s",
    "sessionize.open_peak": "count",
    "ingest.frontend_us_per_record": "us",
    "ingest.batches": "count",
    "ingest.size_flushes": "count",
    "ingest.age_flushes": "count",
    "ingest.credit_waits": "count",
    "ingest.late_records": "count",
    "ingest.peak_depth": "count",
    "ingest.backlog_peak": "count",
    "classify.s": "s",
    "classify.deliver_s": "s",
    "classify.feedback_s": "s",
    "classify.feedback_events": "count",
    "trace.coverage": "ratio",
    "trace.overhead": "ratio",
    "error_rate": "ratio",
}

def load_program():
    """Import the program from ``src/`` of the checkout, or fail."""
    source = ROOT / "src"
    if not (source / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no program sources under {source}")
    sys.path.insert(0, str(source))
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import measure
    import workloads
    return measure, workloads


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="MoniLog end-to-end and per-layer benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help=f"input seed (default {DEFAULT_SEED}; confirm "
                             f"claims on {CONFIRM_SEED})")
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="how long to repeat measured passes")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0,
                        help="0: end-to-end metrics; 1: per-layer metrics")
    parser.add_argument("--slow", choices=["parse", "detect"],
                        help="make one layer 2x slower (self-test only)")
    args = parser.parse_args(argv)

    # A terminated run still stops its load generator (``finally``).
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    # Serial and steady: one BLAS thread, set before numpy is imported.
    for variable in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                     "MKL_NUM_THREADS"):
        os.environ[variable] = "1"
    measure, workloads = load_program()
    from calibrate import calibrate
    meta = {"workload": args.workload, "seed": args.seed,
            "trace": args.trace, "slow": args.slow,
            "calibration": calibrate()}
    workload = workloads.WORKLOADS[args.workload](args.seed, slow=args.slow)
    try:
        run = measure.per_layer if args.trace else measure.end_to_end
        metrics, tally, passes = run(workload, args.seconds, meta)
    finally:
        workload.close()
    units = PER_LAYER_UNITS if args.trace else END_TO_END_UNITS
    meta.update(digest=tally.digest, passes=len(passes),
                pass_seconds=[round(result.wall, 4) for result in passes],
                digest_mismatches=tally.mismatches,
                live_records=len(workload.live),
                alerts=len(passes[0].alerts))
    print(json.dumps({"meta": meta}))
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
