"""A fixed calibration loop: the machine's speed beside the measured work.

The same pure-Python tokenize-and-count work and the same numpy
matmuls on every commit: when these slow down, the machine changed,
not the code.  The loop runs before every set-up and every measured
pass; work-bound times are reported scaled to ``REFERENCE_S``, so a
shared host that drifts between a fast and a slow core for tens of
seconds at a time moves them far less.  The loop is never a metric.
"""

from __future__ import annotations

import time

import numpy as np

#: Seconds one ``calibrate()`` (both loops) takes on the reference
#: machine, a 2.0 GHz Xeon VM core running Python 3.11 at its usual
#: speed.  Work-bound times are reported as they would read there.
REFERENCE_S = 0.2

_LINE = ("081109 203615 148 INFO dfs.DataNode$PacketResponder: "
         "PacketResponder 1 for block blk_38865049064139660 terminating "
         "from 10.251.42.84:50010 size 67108864 user=u42 status=ok")


def calibrate() -> dict[str, float]:
    """Seconds for the Python loop and the numpy loop (~0.1 s each)."""
    start = time.perf_counter()
    counts: dict[str, int] = {}
    for index in range(24000):
        for token in f"{_LINE} seq={index % 512}".split():
            counts[token] = counts.get(token, 0) + 1
    python_s = time.perf_counter() - start

    matrix = np.random.default_rng(0).standard_normal((192, 192))
    start = time.perf_counter()
    product = matrix
    for _ in range(210):
        product = np.tanh(product @ matrix)
    numpy_s = time.perf_counter() - start
    if not np.isfinite(product).all() or len(counts) < 512:
        raise RuntimeError("calibration loop computed a wrong result")
    return {"python_s": python_s, "numpy_s": numpy_s}


def slowness(samples: list[dict[str, float]]) -> float:
    """How much slower than the reference the machine ran while the
    ``calibrate()`` results ``samples`` were taken (> 1 is slower)."""
    total = sum(sample["python_s"] + sample["numpy_s"] for sample in samples)
    return total / (len(samples) * REFERENCE_S)
