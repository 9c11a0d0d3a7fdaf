"""Ranking metrics against brute-force oracles and hand enumerations."""

import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from robustseq.errors import MetricUndefinedError, ValidationError
from robustseq.gru import ModelConfig, NoiseSpec
from robustseq.metrics import (EvalReport, evaluate_cohort, micro_auc,
                               pooled_scores, top_k_recall)
from robustseq.model import init_model

from conftest import random_cohort


def brute_force_auc(scores, labels, ties="positive"):
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels, dtype=float)
    pos = scores[labels == 1.0]
    neg = scores[labels == 0.0]
    wins = 0.0
    for p in pos:
        for n in neg:
            if p > n:
                wins += 1.0
            elif p == n:
                wins += 1.0 if ties == "positive" else 0.5
    return wins / (pos.size * neg.size)


class TestMicroAuc:
    def test_single_positive_between_two_negatives(self):
        scores = np.array([[0.7, 0.5, 0.9]])
        labels = np.array([[1.0, 0.0, 0.0]])
        assert micro_auc(scores, labels) == 0.5

    def test_perfect_and_inverted_ranking(self):
        scores = np.array([[0.9, 0.1], [0.8, 0.2]])
        labels = np.array([[1.0, 0.0], [1.0, 0.0]])
        assert micro_auc(scores, labels) == 1.0
        assert micro_auc(scores, 1.0 - labels) == 0.0

    def test_tie_goes_to_positive_by_default(self):
        scores = np.array([[0.5, 0.5]])
        labels = np.array([[1.0, 0.0]])
        assert micro_auc(scores, labels) == 1.0
        assert micro_auc(scores, labels, ties="half") == 0.5

    def test_pools_across_instances(self):
        # positives {0.9, 0.45}, negatives {0.5, 0.4}: three of four ordered
        # pairs favor the positive (0.45 only beats 0.4)
        scores = np.array([[0.9, 0.5], [0.45, 0.4]])
        labels = np.array([[1.0, 0.0], [1.0, 0.0]])
        assert micro_auc(scores, labels) == 0.75

    def test_matches_brute_force_on_random_instances(self, rng):
        for _ in range(60):
            n = int(rng.integers(1, 12))
            c = int(rng.integers(2, 8))
            scores = np.round(rng.random((n, c)), 2)  # force some ties
            labels = (rng.random((n, c)) < 0.4).astype(float)
            if labels.sum() in (0, labels.size):
                continue
            for ties in ("positive", "half"):
                got = micro_auc(scores, labels, ties=ties)
                want = brute_force_auc(scores, labels, ties=ties)
                assert got == pytest.approx(want, abs=1e-12)

    def test_single_class_pools_are_undefined(self):
        with pytest.raises(MetricUndefinedError):
            micro_auc(np.array([[0.5, 0.6]]), np.array([[1.0, 1.0]]))
        with pytest.raises(MetricUndefinedError):
            micro_auc(np.array([[0.5, 0.6]]), np.array([[0.0, 0.0]]))

    def test_input_validation(self):
        with pytest.raises(ValidationError):
            micro_auc(np.array([[np.nan, 0.5]]), np.array([[1.0, 0.0]]))
        with pytest.raises(ValidationError):
            micro_auc(np.array([[0.5, 0.5]]), np.array([[2.0, 0.0]]))
        with pytest.raises(ValidationError):
            micro_auc(np.array([[0.5]]), np.array([[1.0, 0.0]]))
        with pytest.raises(ValidationError):
            micro_auc(np.array([[0.1, 0.9]]), np.array([[1.0, 0.0]]),
                      ties="optimistic")

    @given(seed=st.integers(0, 10_000), shift=st.floats(-5, 5),
           scale=st.floats(0.1, 10))
    @settings(max_examples=40)
    def test_invariance_under_increasing_affine_transform(self, seed, shift,
                                                          scale):
        r = np.random.default_rng(seed)
        scores = r.random((4, 5))
        labels = (r.random((4, 5)) < 0.5).astype(float)
        if labels.sum() in (0, labels.size):
            return
        base = micro_auc(scores, labels)
        moved = micro_auc(scale * scores + shift, labels)
        assert moved == pytest.approx(base, abs=1e-12)

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=40)
    def test_negating_scores_complements_auc_under_half_ties(self, seed):
        r = np.random.default_rng(seed)
        scores = np.round(r.random((3, 6)), 1)
        labels = (r.random((3, 6)) < 0.5).astype(float)
        if labels.sum() in (0, labels.size):
            return
        a = micro_auc(scores, labels, ties="half")
        b = micro_auc(-scores, labels, ties="half")
        assert a + b == pytest.approx(1.0, abs=1e-12)


class TestTopKRecall:
    def test_pooled_hand_enumeration(self):
        # first row retrieves one of its two positives at k=2, second row
        # retrieves both: pooled recall 3/4
        scores = np.array([[0.9, 0.8, 0.1, 0.7],
                           [0.9, 0.8, 0.2, 0.1]])
        labels = np.array([[1.0, 0.0, 0.0, 1.0],
                           [1.0, 1.0, 0.0, 0.0]])
        assert top_k_recall(scores, labels, 2) == 0.75

    def test_k_equal_to_code_count_retrieves_everything(self, rng):
        scores = rng.random((5, 4))
        labels = (rng.random((5, 4)) < 0.5).astype(float)
        labels[0, 0] = 1.0
        assert top_k_recall(scores, labels, 4) == 1.0

    def test_equal_scores_break_toward_lower_index(self):
        scores = np.array([[0.5, 0.5, 0.5]])
        labels = np.array([[0.0, 1.0, 1.0]])
        # top-1 picks index 0, missing both positives
        assert top_k_recall(scores, labels, 1) == 0.0
        assert top_k_recall(scores, labels, 2) == 0.5

    def test_monotone_in_k(self, rng):
        for _ in range(100):
            n = int(rng.integers(1, 8))
            c = int(rng.integers(2, 9))
            scores = rng.random((n, c))
            labels = (rng.random((n, c)) < 0.3).astype(float)
            if labels.sum() == 0:
                labels[0, 0] = 1.0
            values = [top_k_recall(scores, labels, k) for k in range(1, c + 1)]
            assert all(a <= b + 1e-15 for a, b in zip(values, values[1:]))
            assert values[-1] == 1.0

    def test_no_positives_is_undefined(self):
        with pytest.raises(MetricUndefinedError):
            top_k_recall(np.array([[0.4, 0.6]]), np.zeros((1, 2)), 1)

    def test_k_out_of_range_rejected(self):
        scores, labels = np.array([[0.4, 0.6]]), np.array([[1.0, 0.0]])
        with pytest.raises(ValidationError):
            top_k_recall(scores, labels, 0)
        with pytest.raises(ValidationError):
            top_k_recall(scores, labels, 3)


class TestEvalReport:
    def test_lines_are_sorted_and_complete(self):
        report = EvalReport(micro_auc=0.75, recalls={20: 0.9, 10: 0.8},
                            positives=5, negatives=7, instances=4)
        text = report.lines()
        assert text[0] == f"micro_auc\t{0.75!r}"
        assert text[1].startswith("recall@10") and text[2].startswith("recall@20")
        assert any(line == "positives\t5" for line in text)

    def test_to_dict_round_trips_through_json(self):
        import json

        report = EvalReport(micro_auc=0.5, recalls={10: 1.0}, positives=1,
                            negatives=1, instances=1, ties="half")
        doc = json.loads(json.dumps(report.to_dict()))
        assert doc["ties"] == "half"
        assert doc["recalls"]["10"] == 1.0
        assert doc["counts"]["instances"] == 1


class TestPooledEvaluation:
    def model_and_cohort(self, n=6):
        rng = np.random.default_rng(0)
        cohort = random_cohort(rng, n=n, d=4, c=3)
        config = ModelConfig(input_size=4, num_codes=3, hidden_size=5,
                             noise=NoiseSpec(mode="eval"))
        state = init_model(config)
        return state, cohort

    def test_rows_pool_in_cohort_order(self):
        state, cohort = self.model_and_cohort()
        scores, labels = pooled_scores(state, cohort)
        want_rows = sum(s.num_steps - 1 for s in cohort)
        assert scores.shape == (want_rows, 3)
        np.testing.assert_array_equal(labels[:cohort[0].num_steps - 1],
                                      cohort[0].labels[1:])

    def test_single_visit_only_cohort_is_undefined(self, rng):
        from conftest import random_series

        state, _ = self.model_and_cohort()
        cohort = [random_series(rng, t_len=1, d=4, c=3)]
        with pytest.raises(MetricUndefinedError):
            pooled_scores(state, cohort)

    def test_oversized_k_reports_under_requested_key(self):
        state, cohort = self.model_and_cohort()
        report = evaluate_cohort(state, cohort, ks=(2, 30))
        assert set(report.recalls) == {2, 30}
        assert report.recalls[30] == 1.0

    def test_counts_are_consistent(self):
        state, cohort = self.model_and_cohort()
        report = evaluate_cohort(state, cohort, ks=(1,))
        assert report.positives + report.negatives == report.instances * 3
