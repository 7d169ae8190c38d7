"""Self-tests of the benchmark itself (not part of the tier-1 suite).

Run from the repository root:

    python3 -m pytest perfbench/tests -q

* sensitivity: a bench-side 2x slowdown of parse on ``bgl-pca`` and of
  detect on ``cloud-deeplog`` must move the slowed layer's time and
  ``run_rps`` beyond the benchmark's bound, and leave the other
  layer's time inside it.  Plain and slowed runs are paired over a
  few rounds and the median change is compared, because single runs
  on a shared machine swing by tens of percent;
* the metric tables in ``run.py`` match ``BENCHMARK.json``;
* with no program sources next to it, the benchmark fails without
  printing a result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path
from statistics import median

import pytest

ROOT = Path(__file__).resolve().parents[2]
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
BOUND = {metric["name"]: metric["bound"] for metric in BENCH["end_to_end"]}
#: Seconds of measured passes per self-test run, and paired rounds of
#: traced runs (the untraced ``run_rps`` check needs only two).
SECONDS = "6"
ROUNDS = 5


def bench(workload: str, trace: int, slow: str | None = None) -> dict:
    command = [sys.executable, "perfbench/run.py", "--workload", workload,
               "--seed", "1", "--seconds", SECONDS, "--trace", str(trace)]
    if slow is not None:
        command += ["--slow", slow]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                          timeout=300, check=True)
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0, done.stdout
    return {name: metric["value"] for name, metric in result["metrics"].items()}


def moved_by(after: float, before: float) -> float:
    return after / before - 1.0


def paired_changes(workload: str, trace: int, slowed: str, rounds: int,
                   metrics: tuple[str, ...]) -> dict:
    """Median over rounds of each metric's change, slowed over plain.

    Each round runs a plain and a slowed run back to back (alternating
    which goes first), so both sides of a ratio usually see the same
    machine; the median over rounds drops the rounds that did not.
    """
    changes = []
    for round_index in range(rounds):
        order = (None, slowed) if round_index % 2 == 0 else (slowed, None)
        runs = {slow: bench(workload, trace, slow) for slow in order}
        changes.append({metric: moved_by(runs[slowed][metric],
                                         runs[None][metric])
                        for metric in metrics})
    return {metric: median(change[metric] for change in changes)
            for metric in metrics}


@pytest.mark.parametrize("workload, slowed, other", [
    ("bgl-pca", "parse", "detect"),
    ("cloud-deeplog", "detect", "parse"),
])
def test_a_slower_layer_moves_its_metrics_beyond_the_bound(
        workload, slowed, other):
    bound = BOUND["run_rps"]
    untraced = paired_changes(workload, 0, slowed, 2, ("run_rps",))
    assert untraced["run_rps"] < -bound
    layers = paired_changes(workload, 1, slowed, ROUNDS,
                            (f"{slowed}.s", f"{other}.s"))
    assert layers[f"{slowed}.s"] > bound
    assert abs(layers[f"{other}.s"]) <= bound


def test_metric_tables_match_benchmark_json():
    sys.path.insert(0, str(ROOT / "perfbench"))
    try:
        import run
    finally:
        sys.path.remove(str(ROOT / "perfbench"))
    declared = {metric["name"]: metric["unit"] for metric in BENCH["end_to_end"]}
    assert declared == run.END_TO_END_UNITS
    declared = {metric["name"]: metric["unit"] for metric in BENCH["per_layer"]}
    assert declared == run.PER_LAYER_UNITS
    assert sorted(w["name"] for w in BENCH["workloads"]) == sorted(
        run.WORKLOAD_NAMES)


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "bgl-pca",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
