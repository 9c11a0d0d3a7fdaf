"""Prediction head, cross-entropy objective, and its exact gradients."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import expit

from robustseq.errors import ValidationError
from robustseq.objective import (PROB_CLAMP, HeadParams, head_backward,
                                 head_probs, next_visit_loss)


def random_head(rng, c=3, h=4):
    return HeadParams(W_code=rng.standard_normal((c, h)),
                      b_code=rng.standard_normal(c))


class TestHead:
    def test_logits_match_affine_map(self, rng):
        head = random_head(rng)
        states = rng.standard_normal((5, 4))
        logits = states @ head.W_code.T + head.b_code
        np.testing.assert_array_equal(
            head_probs(head, states),
            np.clip(expit(logits), PROB_CLAMP, 1.0 - PROB_CLAMP))

    def test_probs_are_clamped_sigmoids(self, rng):
        head = random_head(rng)
        states = rng.standard_normal((5, 4))
        np.testing.assert_allclose(head_probs(head, states),
                                   expit(states @ head.W_code.T + head.b_code))
        extreme = HeadParams(W_code=np.array([[1000.0]]), b_code=np.array([0.0]))
        p = head_probs(extreme, np.array([[-1.0], [1.0]]))
        assert 0.0 < p.min() and p.max() < 1.0

    def test_predict_probs_is_single_row(self, rng):
        head = random_head(rng)
        states = rng.standard_normal((5, 4))
        single = head_probs(head, states[-1:])
        assert single.shape == (1, 3)
        np.testing.assert_allclose(single[0], head_probs(head, states)[-1])
        with pytest.raises(ValidationError):
            head_probs(head, rng.standard_normal((2, 5)))

    def test_shape_validation(self):
        with pytest.raises(ValidationError):
            HeadParams(W_code=np.ones((2, 3)), b_code=np.ones(3))
        with pytest.raises(ValidationError):
            HeadParams(W_code=np.full((2, 3), np.nan), b_code=np.zeros(2))


def two_visit_loss(head, logits, targets, l2=0.0):
    """next_visit_loss for one prediction step whose head input is zero,
    so the code logits are the head bias."""
    head = HeadParams(W_code=head.W_code, b_code=np.asarray(logits, dtype=float))
    states = np.zeros((2, head.hidden_size))
    labels = np.vstack([np.zeros(head.num_codes), targets])
    return next_visit_loss(head, states, labels, l2).loss


class TestLossPieces:
    def test_bce_hand_value(self):
        head = HeadParams(W_code=np.zeros((2, 3)), b_code=np.zeros(2))
        logits = np.log([0.8 / 0.2, 0.25 / 0.75])
        want = -np.log(0.8) - np.log(0.75)
        assert abs(two_visit_loss(head, logits, [1.0, 0.0]) - want) < 1e-14

    def test_bce_survives_saturated_probabilities(self):
        head = HeadParams(W_code=np.zeros((2, 3)), b_code=np.zeros(2))
        loss = two_visit_loss(head, [-1e4, 1e4], [1.0, 0.0])
        assert np.isfinite(loss)
        assert abs(loss + 2.0 * np.log(PROB_CLAMP)) < 1e-3

    def test_l2_penalty_counts_weights_only(self, rng):
        head = random_head(rng)
        logits = rng.standard_normal(3)
        targets = [1.0, 0.0, 1.0]
        want = 0.01 * float((head.W_code ** 2).sum())
        got = (two_visit_loss(head, logits, targets, 0.01)
               - two_visit_loss(head, logits, targets))
        assert abs(got - want) < 1e-14
        assert abs(two_visit_loss(head, logits + 100.0, targets, 0.01)
                   - two_visit_loss(head, logits + 100.0, targets)
                   - want) < 1e-12
        with pytest.raises(ValidationError):
            next_visit_loss(head, np.zeros((1, 4)), np.zeros((1, 3)), -0.01)

    def test_sequence_loss_is_bce_plus_penalty(self, rng):
        head = random_head(rng)
        states = rng.standard_normal((5, 4))
        labels = (rng.random((5, 3)) < 0.5).astype(float)
        cache = next_visit_loss(head, states, labels, 0.02)
        p = np.clip(cache.probs, PROB_CLAMP, 1.0 - PROB_CLAMP)
        t = labels[1:]
        want = float(-np.sum(t * np.log(p) + (1.0 - t) * np.log1p(-p)))
        want += float(0.02 * np.sum(head.W_code ** 2))
        assert cache.loss == want

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=25)
    def test_loss_is_nonnegative(self, seed):
        r = np.random.default_rng(seed)
        head = random_head(r)
        states = r.standard_normal((5, 4))
        labels = (r.random((5, 3)) < 0.5).astype(float)
        assert next_visit_loss(head, states, labels, 0.001).loss >= 0.0


class TestNextVisitAlignment:
    def test_predicts_strictly_next_visit(self, rng):
        head = random_head(rng)
        states = rng.standard_normal((4, 4))
        labels = (rng.random((4, 3)) < 0.5).astype(float)
        cache = next_visit_loss(head, states, labels)
        np.testing.assert_array_equal(cache.states, states[:-1])
        np.testing.assert_array_equal(cache.targets, labels[1:])
        np.testing.assert_allclose(cache.probs, head_probs(head, states[:-1]))

    def test_single_visit_yields_zero_loss(self, rng):
        head = random_head(rng)
        cache = next_visit_loss(head, rng.standard_normal((1, 4)),
                                np.zeros((1, 3)), l2=0.5)
        assert cache.loss == 0.0
        assert cache.probs.shape == (0, 3)

    def test_loss_value_matches_manual_sum(self, rng):
        head = random_head(rng)
        states = rng.standard_normal((3, 4))
        labels = (rng.random((3, 3)) < 0.4).astype(float)
        cache = next_visit_loss(head, states, labels, l2=0.01)
        p = expit(states[:-1] @ head.W_code.T + head.b_code)
        manual = -(labels[1:] * np.log(p) + (1 - labels[1:]) * np.log(1 - p)).sum()
        manual += 0.01 * (head.W_code ** 2).sum()
        assert abs(cache.loss - manual) < 1e-12


class TestHeadBackward:
    def loss_fn(self, w_flat, states, labels, l2, shape):
        head = HeadParams(W_code=w_flat[:shape[0] * shape[1]].reshape(shape),
                          b_code=w_flat[shape[0] * shape[1]:])
        return next_visit_loss(head, states, labels, l2).loss

    def test_parameter_gradients_match_finite_differences(self, rng):
        c, h, t = 3, 4, 5
        head = random_head(rng, c, h)
        states = rng.standard_normal((t, h))
        labels = (rng.random((t, c)) < 0.5).astype(float)
        l2 = 0.01
        cache = next_visit_loss(head, states, labels, l2)
        _, grads = head_backward(cache, head, l2)

        theta = np.concatenate([head.W_code.ravel(), head.b_code])
        analytic = np.concatenate([grads.dW_code.ravel(), grads.db_code])
        step = 1e-6
        for i in range(theta.size):
            up, down = theta.copy(), theta.copy()
            up[i] += step
            down[i] -= step
            fd = (self.loss_fn(up, states, labels, l2, (c, h))
                  - self.loss_fn(down, states, labels, l2, (c, h))) / (2 * step)
            assert abs(analytic[i] - fd) < 1e-6 * max(1.0, abs(fd))

    def test_state_gradients_match_finite_differences(self, rng):
        c, h, t = 2, 3, 4
        head = random_head(rng, c, h)
        states = rng.standard_normal((t, h))
        labels = (rng.random((t, c)) < 0.5).astype(float)
        cache = next_visit_loss(head, states, labels)
        dstates, _ = head_backward(cache, head, 0.0)
        assert dstates.shape == (t - 1, h)
        step = 1e-6
        for i in range(t - 1):
            for j in range(h):
                up, down = states.copy(), states.copy()
                up[i, j] += step
                down[i, j] -= step
                fd = (next_visit_loss(head, up, labels).loss
                      - next_visit_loss(head, down, labels).loss) / (2 * step)
                assert abs(dstates[i, j] - fd) < 1e-6 * max(1.0, abs(fd))

    def test_empty_prediction_window_zeroes_gradients(self, rng):
        head = random_head(rng)
        cache = next_visit_loss(head, rng.standard_normal((1, 4)),
                                np.zeros((1, 3)))
        dstates, grads = head_backward(cache, head, 0.0)
        assert dstates.shape == (0, 4)
        np.testing.assert_array_equal(grads.dW_code, 0.0)
        np.testing.assert_array_equal(grads.db_code, 0.0)

    def test_l2_term_shows_up_only_in_weight_gradient(self, rng):
        head = random_head(rng)
        states = rng.standard_normal((4, 4))
        labels = (rng.random((4, 3)) < 0.5).astype(float)
        _, plain = head_backward(next_visit_loss(head, states, labels), head, 0.0)
        _, ridged = head_backward(next_visit_loss(head, states, labels, 0.1),
                                  head, 0.1)
        np.testing.assert_allclose(ridged.dW_code - plain.dW_code,
                                   0.2 * head.W_code)
        np.testing.assert_array_equal(ridged.db_code, plain.db_code)
