"""Micro-averaged AUC and top-k recall over multi-label scores.

Both metrics pool every (instance, label) cell: AUC counts ordered
positive/negative pairs, with ties awarded to the positive by default;
recall counts pooled true positives retrieved in each instance's top k.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import MetricUndefinedError, ValidationError
from .model import ModelState, score_series
from .temporal import VisitSeries, _binary

TIE_MODES = ("positive", "half")
RECALL_KS = (10, 20, 30)  # stock recall cutoffs
# padded patient-steps (B * T) per scoring block: many patients share
# each step's products, and a block's (T, B, H) arrays stay small
_BLOCK_STEPS = 1024


def _validated(scores, labels) -> tuple[np.ndarray, np.ndarray]:
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels, dtype=float)
    if scores.shape != labels.shape or scores.ndim != 2:
        raise ValidationError("scores and labels must be matching 2-D arrays")
    if scores.size == 0:
        raise ValidationError("scores are empty")
    if not np.isfinite(scores).all():
        raise ValidationError("scores contain non-finite entries")
    if not _binary(labels):
        raise ValidationError("labels must be binary")
    return scores, labels


def micro_auc(scores, labels, ties: str = "positive") -> float:
    """Pairwise ranking accuracy over the pooled label cells.

    Counts pairs with positive score >= negative score over all
    positive/negative pairs; ties="half" scores tied pairs 0.5 instead
    for comparison with conventional AUC tooling.
    """
    if ties not in TIE_MODES:
        raise ValidationError(f"unknown tie mode {ties!r}")
    scores, labels = _validated(scores, labels)
    pos = scores[labels == 1.0]
    neg = scores[labels == 0.0]
    if pos.size == 0 or neg.size == 0:
        raise MetricUndefinedError(
            "micro AUC needs at least one positive and one negative cell")
    neg_sorted = np.sort(neg)
    at_most = np.searchsorted(neg_sorted, pos, side="right")
    if ties == "positive":
        wins = float(at_most.sum())
    else:
        below = np.searchsorted(neg_sorted, pos, side="left")
        wins = float(below.sum()) + 0.5 * float((at_most - below).sum())
    return wins / (pos.size * neg.size)


def top_k_recall(scores, labels, k: int) -> float:
    """Pooled fraction of positives retrieved in each row's top k.

    Ties are broken toward the lower label index, so the result is
    deterministic for equal scores.
    """
    scores, labels = _validated(scores, labels)
    n, c = scores.shape
    if not 1 <= k <= c:
        raise ValidationError(f"k must lie in [1, {c}], got {k}")
    total_pos = labels.sum()
    if total_pos == 0:
        raise MetricUndefinedError("top-k recall needs at least one positive label")
    top = np.argsort(-scores, axis=1, kind="stable")[:, :k]
    hits = labels[np.arange(n)[:, None], top].sum()
    return float(hits) / float(total_pos)


@dataclass
class EvalReport:
    """Cohort-level ranking quality plus the pool sizes behind it."""

    micro_auc: float
    recalls: dict[int, float]
    positives: int
    negatives: int
    instances: int
    ties: str = "positive"

    def lines(self) -> list[str]:
        out = [f"micro_auc\t{self.micro_auc!r}"]
        for k in sorted(self.recalls):
            out.append(f"recall@{k}\t{self.recalls[k]!r}")
        out.append(f"positives\t{self.positives}")
        out.append(f"negatives\t{self.negatives}")
        out.append(f"instances\t{self.instances}")
        return out

    def to_dict(self) -> dict:
        return {
            "micro_auc": self.micro_auc,
            "recalls": {str(k): v for k, v in sorted(self.recalls.items())},
            "counts": {"positives": self.positives, "negatives": self.negatives,
                       "instances": self.instances},
            "ties": self.ties,
        }


def pooled_scores(state: ModelState, cohort: list[VisitSeries],
                  ) -> tuple[np.ndarray, np.ndarray]:
    """Eval-mode next-visit scores for a cohort, pooled row-wise.

    Rows are (patient, step) prediction instances in cohort order;
    single-visit patients contribute none. The cohort is stably sorted
    by length and cut into blocks of at most _BLOCK_STEPS padded
    patient-steps (or one longer patient), so a block pads little, and
    each block is scored by one score_series call. A score may differ
    from scoring its patient alone in the last bits.
    """
    if not cohort:
        raise ValidationError("cohort is empty")
    order = sorted(range(len(cohort)), key=lambda i: cohort[i].num_steps)
    blocks = [[]]
    for i in order:
        # sorted ascending, so patient i sets the block's padded length
        if blocks[-1] and (len(blocks[-1]) + 1) * cohort[i].num_steps > _BLOCK_STEPS:
            blocks.append([])
        blocks[-1].append(i)
    pairs = [None] * len(cohort)
    for rows in blocks:
        for i, pair in zip(rows, score_series(state, [cohort[i] for i in rows])):
            pairs[i] = pair
    kept = [(p, t) for p, t in pairs if p.shape[0] > 0]
    if not kept:
        raise MetricUndefinedError("cohort has no prediction steps (all T=1)")
    scores = np.concatenate([p for p, _ in kept], axis=0)
    labels = np.concatenate([t for _, t in kept], axis=0)
    return scores, labels


def evaluate_cohort(state: ModelState, cohort: list[VisitSeries],
                    ks: tuple[int, ...] = RECALL_KS,
                    ties: str = "positive") -> EvalReport:
    """Score a cohort and compute AUC plus recall at each requested k.

    A requested k above the number of codes is evaluated at k = C (every
    label retrieved, recall 1.0) and reported under the requested key.
    """
    scores, labels = pooled_scores(state, cohort)
    c = scores.shape[1]
    auc = micro_auc(scores, labels, ties=ties)
    recalls = {int(k): top_k_recall(scores, labels, min(int(k), c)) for k in ks}
    positives = int(labels.sum())
    return EvalReport(micro_auc=auc, recalls=recalls, positives=positives,
                      negatives=int(labels.size - positives),
                      instances=int(scores.shape[0]), ties=ties)
