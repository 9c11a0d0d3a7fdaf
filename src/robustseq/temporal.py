"""Per-variable observation gaps, learned decay rates, and input imputation.

A missing cell is pulled from its most recent observation toward the
variable's empirical mean, with a learned per-variable rate that shrinks
as the gap since the last observation grows. impute_with_cache also
keeps the gaps and the two factors that the decay backward reads;
impute_inputs, which evaluation runs, forms neither. The inputs-only
imputations also take a list of series, padded into one time-major
block, (T, B, D).
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError


def _binary(a: np.ndarray) -> bool:
    return bool(np.isin(a, (0.0, 1.0)).all())


@dataclass
class VisitSeries:
    """One patient's irregularly sampled multivariate series.

    values[t, d] is meaningful only where mask[t, d] == 1; unobserved cells
    are forced to NaN so that any read outside the imputation path poisons
    downstream numbers instead of silently passing.
    """

    timestamps: np.ndarray  # (T,) hours, non-decreasing
    values: np.ndarray      # (T, D), NaN where mask == 0
    mask: np.ndarray        # (T, D), 1 = observed
    labels: np.ndarray      # (T, C), 0/1 code indicators per visit
    patient_id: str = ""
    latent_states: np.ndarray | None = None  # generator diagnostics only

    def __post_init__(self):
        self.timestamps = np.asarray(self.timestamps, dtype=float)
        self.values = np.asarray(self.values, dtype=float).copy()
        self.mask = np.asarray(self.mask, dtype=float)
        self.labels = np.asarray(self.labels, dtype=float)
        who = f"patient {self.patient_id!r}: " if self.patient_id else ""
        if self.timestamps.ndim != 1:
            raise ValidationError(who + "timestamps must be 1-D")
        t = self.timestamps.shape[0]
        if t == 0:
            raise ValidationError(who + "series needs at least one visit")
        if self.values.ndim != 2 or self.values.shape[0] != t:
            raise ValidationError(who + "values must be (T, D)")
        if self.mask.shape != self.values.shape:
            raise ValidationError(who + "mask shape must match values")
        if self.labels.ndim != 2 or self.labels.shape[0] != t:
            raise ValidationError(who + "labels must be (T, C)")
        if not np.isfinite(self.timestamps).all():
            raise ValidationError(who + "timestamps must be finite")
        if t > 1 and np.any(np.diff(self.timestamps) < 0):
            raise ValidationError(who + "timestamps must be non-decreasing")
        if not _binary(self.mask):
            raise ValidationError(who + "mask entries must be 0 or 1")
        if not _binary(self.labels):
            raise ValidationError(who + "label entries must be 0 or 1")
        observed = self.mask > 0
        if not np.isfinite(self.values[observed]).all():
            raise ValidationError(who + "observed values must be finite")
        self.values[~observed] = np.nan
        if self.latent_states is not None:
            self.latent_states = np.asarray(self.latent_states, dtype=int)

    @property
    def num_steps(self) -> int:
        return self.values.shape[0]

    @property
    def num_variables(self) -> int:
        return self.values.shape[1]

    @property
    def num_codes(self) -> int:
        return self.labels.shape[1]


@dataclass
class DecayParams:
    """Trainable decay parameters; the rate matrix is diagonal by
    construction, so only its diagonal is stored."""

    w_gamma: np.ndarray  # (D,)
    b_gamma: np.ndarray  # (D,)

    def __post_init__(self):
        self.w_gamma = np.asarray(self.w_gamma, dtype=float)
        self.b_gamma = np.asarray(self.b_gamma, dtype=float)
        if self.w_gamma.shape != self.b_gamma.shape or self.w_gamma.ndim != 1:
            raise ValidationError("decay parameters must be matching 1-D vectors")
        if not (np.isfinite(self.w_gamma).all() and np.isfinite(self.b_gamma).all()):
            raise ValidationError("decay parameters must be finite")


@dataclass
class EmpiricalMeans:
    """Per-variable means of observed training-split values (0 where a
    variable was never observed)."""

    means: np.ndarray  # (D,)

    def __post_init__(self):
        self.means = np.asarray(self.means, dtype=float)
        if not np.isfinite(self.means).all():
            raise ValidationError("means must be finite")


def _time_major(series: VisitSeries | Sequence[VisitSeries],
                ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """timestamps, values and mask of one series, (T,), (T, D), (T, D),
    or of a list of B series padded into one time-major block, (T, B),
    (T, B, D), (T, B, D), with T the longest length.

    Padding repeats a series' last timestamp and is observed zero. Every
    step reads only earlier rows, so rows past a series' own length
    change none of its own.
    """
    if isinstance(series, VisitSeries):
        return series.timestamps, series.values, series.mask
    if not series:
        raise ValidationError("a block needs at least one series")
    t_len = max(s.num_steps for s in series)
    widths = {s.num_variables for s in series}
    if len(widths) != 1:
        raise ValidationError(f"block mixes variable counts {sorted(widths)}")
    shape = (t_len, len(series), widths.pop())
    timestamps = np.empty(shape[:2])
    values = np.zeros(shape)
    mask = np.ones(shape)
    for i, s in enumerate(series):
        n = s.num_steps
        timestamps[:n, i] = s.timestamps
        timestamps[n:, i] = s.timestamps[-1]
        values[:n, i] = s.values
        mask[:n, i] = s.mask
    return timestamps, values, mask


def compute_intervals(series: VisitSeries) -> np.ndarray:
    """Gap since each variable's last observation, per step.

    Row 0 is zero. For t > 0 the gap is the raw timestamp difference when
    the variable was observed at t-1, and accumulates the previous gap
    otherwise.
    """
    return _intervals(series.timestamps, series.mask)


def _intervals(timestamps: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """compute_intervals over time-major arrays, one series or a block."""
    deltas = np.zeros(mask.shape)
    gaps = np.diff(timestamps, axis=0)
    # a block's per-row gaps broadcast over its variables
    gaps = gaps.reshape(gaps.shape + (1,) * (mask.ndim - 2))
    unobserved = mask == 0
    for t in range(1, mask.shape[0]):
        np.add(deltas[t - 1] * unobserved[t - 1], gaps[t - 1], out=deltas[t])
    return deltas


def empirical_means(cohort: list[VisitSeries]) -> EmpiricalMeans:
    """Pooled mean of observed values per variable over a training cohort."""
    if not cohort:
        raise ValidationError("empirical means need at least one series")
    d = cohort[0].num_variables
    total = np.zeros(d)
    count = np.zeros(d)
    for s in cohort:
        if s.num_variables != d:
            raise ValidationError("cohort has inconsistent variable counts")
        observed = s.mask > 0
        total += np.where(observed, s.values, 0.0).sum(axis=0)
        count += observed.sum(axis=0)
    means = np.divide(total, count, out=np.zeros(d), where=count > 0)
    return EmpiricalMeans(means)


def decay_rates(deltas: np.ndarray, params: DecayParams) -> np.ndarray:
    """Per-variable decay rate in (0, 1]: exp(-max(0, w * delta + b)).

    Broadcasts over leading axes, so a (T, D) interval matrix yields a
    (T, D) rate matrix.
    """
    pre = params.w_gamma * np.asarray(deltas, dtype=float) + params.b_gamma
    return np.exp(-np.maximum(0.0, pre))


@dataclass
class ImputationCache:
    """Imputed inputs, plus what the decay backward reads.

    A missing cell is gamma * fallback + (1 - gamma) * mean, with fallback
    its last observation (else the mean), gamma = exp(-max(0, pre)) and
    pre = w * delta + b, so its derivative in pre is -lift * slope (the
    rectifier's subgradient is 0 at the kink). Only impute_with_cache
    fills deltas, lift and slope; mean imputation leaves them None.
    """

    inputs: np.ndarray    # (T, D) imputed model inputs
    missing: np.ndarray   # (T, D) bool
    deltas: np.ndarray | None = None  # (T, D) gaps, compute_intervals
    lift: np.ndarray | None = None    # (T, D) (fallback - mean) * missing
    slope: np.ndarray | None = None   # (T, D) gamma * (pre > 0)


def _decay_impute(series: VisitSeries | Sequence[VisitSeries], params: DecayParams,
                  means: EmpiricalMeans):
    """The decay imputation of ImputationCache's formula: imputed inputs,
    the missing mask, the gaps, pre = w * delta + b, gamma and the
    fallback, each time-major as _time_major lays the series out."""
    timestamps, values, mask = _time_major(series)
    deltas = _intervals(timestamps, mask)
    pre = params.w_gamma * deltas + params.b_gamma
    gamma = np.exp(-np.maximum(0.0, pre))
    observed = mask > 0
    missing = ~observed
    # index of the most recent observed step per cell (-1 if none yet);
    # at a missing step this is strictly earlier than the step itself
    steps = np.arange(values.shape[0]).reshape((-1,) + (1,) * (values.ndim - 1))
    last_row = np.maximum.accumulate(np.where(observed, steps, -1), axis=0)
    prior = np.take_along_axis(values, np.maximum(last_row, 0), axis=0)
    fallback = np.where(last_row >= 0, prior, means.means)
    imputed = gamma * fallback + (1.0 - gamma) * means.means
    inputs = np.where(missing, imputed, values)
    return inputs, missing, deltas, pre, gamma, fallback


def impute_with_cache(series: VisitSeries, params: DecayParams,
                      means: EmpiricalMeans) -> ImputationCache:
    """Decay imputation plus the factors the decay backward reads."""
    inputs, missing, deltas, pre, gamma, fallback = _decay_impute(series, params, means)
    return ImputationCache(inputs=inputs, missing=missing, deltas=deltas,
                           lift=(fallback - means.means) * missing,
                           slope=gamma * (pre > 0))


def impute_inputs(series: VisitSeries | Sequence[VisitSeries], params: DecayParams,
                  means: EmpiricalMeans) -> np.ndarray:
    """Replace missing cells by gamma * last_observation + (1 - gamma) * mean.

    Observed cells pass through untouched. A missing cell with no prior
    observation falls back to the empirical mean. One series gives
    (T, D); a list gives its padded time-major block, (T, B, D). Nothing
    the decay backward reads is formed.
    """
    return _decay_impute(series, params, means)[0]


def mean_impute_inputs(series: VisitSeries | Sequence[VisitSeries],
                       means: EmpiricalMeans) -> np.ndarray:
    """Ablation imputation: missing cells take the empirical mean directly.
    Laid out as impute_inputs lays its result out."""
    _, values, mask = _time_major(series)
    return np.where(mask > 0, values, means.means)
