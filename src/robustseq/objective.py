"""Multi-label prediction head and training objective.

The hidden state after visit t scores the code set of visit t+1 through
independent per-code sigmoids, so a sequence of T visits contributes T-1
prediction steps. The loss is summed (not averaged) binary cross-entropy
with probabilities clamped away from {0, 1}, plus an L2 penalty on the
head weight matrix only.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import expit

from .errors import ValidationError

PROB_CLAMP = 1e-12


@dataclass
class HeadParams:
    """Linear read-out from the top hidden state to code logits."""

    W_code: np.ndarray  # (C, H)
    b_code: np.ndarray  # (C,)

    def __post_init__(self):
        self.W_code = np.asarray(self.W_code, dtype=float)
        self.b_code = np.asarray(self.b_code, dtype=float)
        if self.W_code.ndim != 2:
            raise ValidationError("W_code must be 2-D")
        if self.b_code.shape != (self.W_code.shape[0],):
            raise ValidationError("b_code must have one entry per code")
        if not (np.isfinite(self.W_code).all() and np.isfinite(self.b_code).all()):
            raise ValidationError("head parameters contain non-finite entries")

    @property
    def num_codes(self) -> int:
        return self.W_code.shape[0]

    @property
    def hidden_size(self) -> int:
        return self.W_code.shape[1]


def head_probs(head: HeadParams, states: np.ndarray) -> np.ndarray:
    """Per-code probabilities for a batch of hidden states, shape (N, C),
    clamped to [PROB_CLAMP, 1 - PROB_CLAMP]."""
    states = np.atleast_2d(np.asarray(states, dtype=float))
    if states.shape[1] != head.hidden_size:
        raise ValidationError(
            f"states must have width {head.hidden_size}, got {states.shape[1]}")
    logits = states @ head.W_code.T + head.b_code
    return np.clip(expit(logits), PROB_CLAMP, 1.0 - PROB_CLAMP)


@dataclass
class LossCache:
    """Forward quantities reused by the head backward pass."""

    loss: float
    probs: np.ndarray    # (T-1, C)
    targets: np.ndarray  # (T-1, C)
    states: np.ndarray   # (T-1, H) head inputs h_1 .. h_{T-1}


def next_visit_loss(head: HeadParams, top_states: np.ndarray,
                    labels: np.ndarray, l2: float = 0.0) -> LossCache:
    """Next-visit objective for one sequence.

    top_states holds h_1..h_T (after any dropout); labels holds the code
    indicators of visits 1..T. State t scores the labels of visit t+1.
    The loss is the summed cross-entropy of the clamped probabilities
    plus l2 * ||W_code||_F^2; biases and recurrent weights are exempt. A
    single-visit sequence has no prediction step and contributes exactly
    zero loss, penalty included.
    """
    if not l2 >= 0.0:
        raise ValidationError("l2 must be non-negative")
    top_states = np.asarray(top_states, dtype=float)
    labels = np.asarray(labels, dtype=float)
    if top_states.ndim != 2 or labels.ndim != 2:
        raise ValidationError("top_states and labels must be 2-D")
    if top_states.shape[0] != labels.shape[0]:
        raise ValidationError("top_states and labels must cover the same visits")
    if labels.shape[1] != head.num_codes:
        raise ValidationError(
            f"labels must have {head.num_codes} columns, got {labels.shape[1]}")
    t_len = top_states.shape[0]
    if t_len < 2:
        empty = np.zeros((0, head.num_codes))
        return LossCache(loss=0.0, probs=empty, targets=empty,
                         states=np.zeros((0, head.hidden_size)))
    states = top_states[:-1]
    targets = labels[1:]
    p = head_probs(head, states)
    loss = float(-np.sum(targets * np.log(p) + (1.0 - targets) * np.log1p(-p)))
    loss += float(l2 * np.sum(head.W_code ** 2))
    return LossCache(loss=loss, probs=p, targets=targets, states=states)


@dataclass
class HeadGrads:
    dW_code: np.ndarray
    db_code: np.ndarray


def head_backward(cache: LossCache, head: HeadParams,
                  l2: float = 0.0) -> tuple[np.ndarray, HeadGrads]:
    """Gradients of the sequence loss w.r.t. head params and its inputs.

    d(loss)/d(logit) for clamped sigmoid cross-entropy is probs - targets
    wherever the clamp is inactive; the clamp binds only at |logit| above
    ~27.6 where the difference is below the clamp width, so the unclamped
    expression is used throughout.
    """
    dlogits = cache.probs - cache.targets
    dW = dlogits.T @ cache.states + 2.0 * l2 * head.W_code
    db = dlogits.sum(axis=0)
    dstates = dlogits @ head.W_code
    if cache.states.shape[0] == 0:
        dW = np.zeros_like(head.W_code)
        db = np.zeros_like(head.b_code)
    return dstates, HeadGrads(dW_code=dW, db_code=db)
