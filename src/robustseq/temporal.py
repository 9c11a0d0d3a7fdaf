"""Per-variable observation gaps, learned decay rates, and input imputation.

A missing cell is pulled from its most recent observation toward the
variable's empirical mean, with a learned per-variable rate that shrinks
as the gap since the last observation grows.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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


def compute_intervals(series: VisitSeries) -> np.ndarray:
    """Gap since each variable's last observation, per step.

    Row 0 is zero. For t > 0 the gap is the raw timestamp difference when
    the variable was observed at t-1, and accumulates the previous gap
    otherwise.
    """
    t_len, d = series.values.shape
    deltas = np.zeros((t_len, d))
    gaps = np.diff(series.timestamps)
    for t in range(1, t_len):
        carry = np.where(series.mask[t - 1] > 0, 0.0, deltas[t - 1])
        deltas[t] = gaps[t - 1] + carry
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
    """Forward-pass byproducts needed to push gradients into the decay
    parameters (missing cells only)."""

    inputs: np.ndarray    # (T, D) imputed model inputs
    deltas: np.ndarray    # (T, D)
    gamma: np.ndarray     # (T, D)
    active: np.ndarray    # (T, D) bool, rectifier pre-activation > 0
    fallback: np.ndarray  # (T, D) last observation, or the mean if none yet
    missing: np.ndarray   # (T, D) bool
    means: np.ndarray = field(repr=False, default=None)


def impute_with_cache(series: VisitSeries, params: DecayParams,
                      means: EmpiricalMeans) -> ImputationCache:
    t_len, d = series.values.shape
    deltas = compute_intervals(series)
    pre = params.w_gamma * deltas + params.b_gamma
    gamma = np.exp(-np.maximum(0.0, pre))
    observed = series.mask > 0
    # index of the most recent observed step per cell (-1 if none yet);
    # at a missing step this is strictly earlier than the step itself
    row = np.where(observed, np.arange(t_len)[:, None], -1)
    last_row = np.maximum.accumulate(row, axis=0)
    cols = np.broadcast_to(np.arange(d), (t_len, d))
    prior = series.values[np.maximum(last_row, 0), cols]
    fallback = np.where(last_row >= 0, prior, means.means)
    imputed = gamma * fallback + (1.0 - gamma) * means.means
    inputs = np.where(observed, series.values, imputed)
    return ImputationCache(inputs=inputs, deltas=deltas, gamma=gamma,
                           active=pre > 0, fallback=fallback,
                           missing=~observed, means=means.means)


def impute_inputs(series: VisitSeries, params: DecayParams,
                  means: EmpiricalMeans) -> np.ndarray:
    """Replace missing cells by gamma * last_observation + (1 - gamma) * mean.

    Observed cells pass through untouched. A missing cell with no prior
    observation falls back to the empirical mean.
    """
    return impute_with_cache(series, params, means).inputs


def mean_impute_inputs(series: VisitSeries, means: EmpiricalMeans) -> np.ndarray:
    """Ablation imputation: missing cells take the empirical mean directly."""
    return np.where(series.mask > 0, series.values, means.means)
