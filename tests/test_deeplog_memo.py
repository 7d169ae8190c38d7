"""DeepLog's top-g memo: determinism, lifecycle and cost.

``DeepLogDetector`` ranks each distinct history once and serves repeats
from a memo.  A memo is only safe when a history's ranking depends on
nothing but (fitted weights, history): not on the other rows sharing
its LSTM block, not on its row position, not on which sessions came
first.  These tests pin that contract, the memo's lifecycle (refit,
pickling, bound) and the cost claim itself — one forward row per
distinct history, not one forward per session.
"""

from __future__ import annotations

import copy
import pickle
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro.detection.deeplog as deeplog
from repro.api import Pipeline, PipelineSpec
from repro.core.executors import ProcessExecutor, SerialExecutor, ThreadedExecutor
from repro.detection import DeepLogDetector, LogAnomalyDetector
from repro.detection.deeplog import _BLOCK, _SequenceModel
from repro.eval.harness import DetectionExperiment
from repro.logs.record import ParsedLog

from conftest import make_record

_WINDOW = 10
_VOCABULARY = 40
_MODEL = _SequenceModel(_VOCABULARY, 16, 32, seed=3)


def _detect_all(detector, sessions):
    return [detector.detect(session) for session in sessions]


@pytest.fixture(scope="module")
def cloud_experiment(cloud_small):
    return DetectionExperiment.from_dataset(cloud_small, train_fraction=0.5,
                                            seed=11)


@pytest.fixture(scope="module")
def cloud_detector(cloud_experiment):
    return DeepLogDetector(epochs=2).fit(cloud_experiment.train_sessions)


def _cold(detector):
    clone = copy.deepcopy(detector)
    assert not clone._top_g_memo
    return clone


class TestBlockInvariance:
    """A history's logits are a function of the history alone."""

    _row = st.lists(st.integers(0, _VOCABULARY - 1), min_size=_WINDOW,
                    max_size=_WINDOW)

    @settings(max_examples=40, deadline=None)
    @given(history=_row, position=st.integers(0, _BLOCK - 1),
           neighbours=st.integers(0, 2**32 - 1))
    def test_row_logits_independent_of_neighbours_and_position(
        self, history, position, neighbours
    ):
        alone = np.zeros((_BLOCK, _WINDOW), dtype=int)
        alone[0] = history
        crowd = np.random.default_rng(neighbours).integers(
            0, _VOCABULARY, size=(_BLOCK, _WINDOW))
        crowd[position] = history
        expected = _MODEL.logits(alone)[0]
        assert np.array_equal(_MODEL.logits(crowd)[position], expected)


class TestMemoDeterminism:
    def test_cold_warm_and_reversed_order_agree(self, cloud_experiment,
                                                cloud_detector):
        sessions = cloud_experiment.test_sessions
        detector = _cold(cloud_detector)
        cold = _detect_all(detector, sessions)
        warm = _detect_all(detector, sessions)
        backwards = _detect_all(_cold(cloud_detector), sessions[::-1])[::-1]
        assert any(result.anomalous for result in cold)
        assert warm == cold
        assert backwards == cold

    def test_each_distinct_history_is_ranked_at_most_once(
        self, cloud_experiment, cloud_detector, monkeypatch
    ):
        detector = _cold(cloud_detector)
        rows: Counter = Counter()
        logits = _SequenceModel.logits

        def counting(model, windows):
            assert windows.shape == (_BLOCK, detector.window)
            rows.update(tuple(row) for row in windows.tolist() if any(row))
            return logits(model, windows)

        monkeypatch.setattr(_SequenceModel, "logits", counting)
        _detect_all(detector, cloud_experiment.test_sessions)
        distinct = {
            history
            for session in cloud_experiment.test_sessions
            for history in detector._pairs(detector._indices(session))[0]
        }
        assert set(rows) == distinct
        assert max(rows.values()) == 1
        # The point of the memo: far fewer histories than windows.
        windows = sum(len(session) - 1
                      for session in cloud_experiment.test_sessions)
        assert len(distinct) * 10 < windows


class TestMemoLifecycle:
    def test_refit_matches_a_fresh_detector(self, cloud_experiment,
                                            hdfs_small):
        other = DetectionExperiment.from_dataset(hdfs_small, seed=11)
        refitted = DeepLogDetector(epochs=2)
        refitted.fit(cloud_experiment.train_sessions)
        _detect_all(refitted, cloud_experiment.test_sessions)
        assert refitted._top_g_memo
        refitted.fit(other.train_sessions)
        fresh = DeepLogDetector(epochs=2).fit(other.train_sessions)
        assert (_detect_all(refitted, other.test_sessions)
                == _detect_all(fresh, other.test_sessions))

    def test_flood_past_the_cap_changes_no_result(
        self, cloud_experiment, cloud_detector, monkeypatch
    ):
        sessions = cloud_experiment.test_sessions
        expected = _detect_all(_cold(cloud_detector), sessions)
        cap = 5
        monkeypatch.setattr(deeplog, "_MEMO_CAP", cap)
        detector = _cold(cloud_detector)
        sizes = []
        results = []
        for session in sessions:
            results.append(detector.detect(session))
            sizes.append(len(detector._top_g_memo))
        assert results == expected
        assert max(sizes) == cap

    def test_memo_is_not_pickled(self, cloud_experiment, cloud_detector):
        detector = _cold(cloud_detector)
        expected = _detect_all(detector, cloud_experiment.test_sessions)
        assert detector._top_g_memo
        payload = pickle.dumps(detector)
        memo = dict(detector._top_g_memo)
        detector._top_g_memo.clear()
        assert pickle.dumps(detector) == payload
        restored = pickle.loads(payload)
        assert restored._top_g_memo == {}
        assert _detect_all(restored, cloud_experiment.test_sessions) == expected


class TestShardedExecutors:
    @staticmethod
    def _alerts(records, cut, executor):
        spec = PipelineSpec(shards=2, detector_shards=2, detector="deeplog",
                            detector_options={"epochs": 2})
        pipeline = Pipeline(spec, executor=executor).fit(records[:cut])
        return [
            (alert.report.report_id, alert.report.session_id, alert.pool,
             alert.criticality, alert.report.detection)
            for alert in pipeline.run_all(records[cut:])
        ]

    def test_alerts_identical_across_executors(self, hdfs_small):
        records = hdfs_small.records
        cut = len(records) * 6 // 10
        expected = self._alerts(records, cut, SerialExecutor())
        assert expected
        for executor_type in (ThreadedExecutor, ProcessExecutor):
            executor = executor_type(max_workers=2)
            try:
                assert self._alerts(records, cut, executor) == expected
            finally:
                executor.close()


class _TiedModel:
    """Stands in for a fitted model: every row gets the same logits."""

    def __init__(self, row, heads=1):
        self.row = np.asarray(row, dtype=float)
        self.heads = heads

    def logits(self, *inputs):
        block = np.tile(self.row, (len(inputs[0]), 1))
        return block if self.heads == 1 else (block, block)


def _event(template_id, session="s"):
    return ParsedLog(record=make_record(f"event {template_id}",
                                        session_id=session),
                     template_id=template_id, template=f"event {template_id}")


class TestTiedRanking:
    """An exact tie goes to the lower index.

    Logits ``[0, 0, 1, 1, 1]`` tie three ways at the top; numpy's
    default (unstable) argsort ranks index 3 first on this pattern.
    """

    _TIED = [0.0, 0.0, 1.0, 1.0, 1.0]

    def test_deeplog_breaks_ties_by_index(self):
        detector = DeepLogDetector(window=3, top_g=1, epochs=1,
                                   quantitative=False)
        detector.fit([[_event(0), _event(1), _event(2)]] * 3)
        # Indices: pad 0, templates 0..2 at 1..3, unknown 4.
        detector._model = _TiedModel(self._TIED)
        assert detector._ranked([(0, 0, 1)]) == [(2,)]
        assert not detector.detect([_event(0), _event(1)]).anomalous
        assert detector.detect([_event(0), _event(2)]).anomalous

    def test_loganomaly_breaks_ties_by_index(self):
        detector = LogAnomalyDetector(window=3, top_g=1, epochs=1)
        detector.fit([[_event(template) for template in range(5)]] * 3)
        # Indices: templates 0..4 at 0..4; the fused ranking ties too.
        detector._model = _TiedModel(self._TIED, heads=2)
        assert not detector.detect([_event(0), _event(2)]).anomalous
        assert detector.detect([_event(0), _event(3)]).anomalous
