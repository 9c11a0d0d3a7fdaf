"""Per-variable observation gaps, learned decay rates, and input imputation.

A missing cell is pulled from its most recent observation toward the
variable's empirical mean, with a learned per-variable rate that shrinks
as the gap since the last observation grows. The gaps and the last
observations are fixed properties of a series: VisitSeries derives each
once, on first use, as the read-only intervals and last_observed.
impute_with_cache is the one imputation function, decay or (with no
decay parameters) mean imputation, for one series or a list padded into
one time-major block, (T, B, D); its cache keeps the values the decay
backward reads. impute_inputs and mean_impute_inputs read its inputs.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ValidationError


def _binary(a: np.ndarray) -> bool:
    return bool(((a == 0.0) | (a == 1.0)).all())


@dataclass
class VisitSeries:
    """One patient's irregularly sampled multivariate series.

    values[t, d] is meaningful only where mask[t, d] == 1; unobserved cells
    are forced to NaN so that any read outside the imputation path poisons
    downstream numbers instead of silently passing. intervals and
    last_observed are derived on first use and kept, so the arrays must
    not change after that.
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

    @cached_property
    def intervals(self) -> np.ndarray:
        """Gap since each variable's last observation, per step, (T, D),
        read-only.

        Row 0 is zero. For t > 0 the gap is the raw timestamp difference
        when the variable was observed at t-1, and accumulates the
        previous gap otherwise.
        """
        deltas = np.zeros(self.mask.shape)
        gaps = np.diff(self.timestamps)
        unobserved = self.mask == 0
        for t in range(1, self.num_steps):
            np.add(deltas[t - 1] * unobserved[t - 1], gaps[t - 1], out=deltas[t])
        deltas.flags.writeable = False
        return deltas

    @cached_property
    def last_observed(self) -> np.ndarray:
        """Each cell's most recent observed value at or before its step,
        NaN where the variable has not been observed yet; (T, D),
        read-only."""
        steps = np.arange(self.num_steps)[:, None]
        # before a variable's first observation this reads row 0, which is NaN
        last_row = np.maximum.accumulate(np.where(self.mask > 0, steps, 0), axis=0)
        last = np.take_along_axis(self.values, last_row, axis=0)
        last.flags.writeable = False
        return last


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
                *names: str) -> list[np.ndarray]:
    """The named (T, D) fields of one series, or of a list of B series
    padded with zeros into time-major blocks, (T, B, D), with T the
    longest length.

    Padding is unobserved, so it imputes to finite values. Every step
    reads only earlier rows, so rows past a series' own length change
    none of its own.
    """
    if isinstance(series, VisitSeries):
        return [getattr(series, name) for name in names]
    if not series:
        raise ValidationError("a block needs at least one series")
    widths = {s.num_variables for s in series}
    if len(widths) != 1:
        raise ValidationError(f"block mixes variable counts {sorted(widths)}")
    shape = (max(s.num_steps for s in series), len(series), widths.pop())
    blocks = [np.zeros(shape) for _ in names]
    for i, s in enumerate(series):
        for block, name in zip(blocks, names):
            block[:s.num_steps, i] = getattr(s, name)
    return blocks


def compute_intervals(series: VisitSeries) -> np.ndarray:
    """A writable copy of series.intervals, the gap since each variable's
    last observation, per step."""
    return series.intervals.copy()


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
    pre = w * delta + b, so its derivative in pre is
    -((fallback - mean) * missing) * (gamma * (pre > 0)) (the rectifier's
    subgradient is 0 at the kink). Mean imputation leaves deltas, pre,
    gamma and fallback None. Arrays are (T, D) for one series and
    (T, B, D) for a block.
    """

    inputs: np.ndarray    # imputed model inputs
    missing: np.ndarray   # bool, mask == 0
    deltas: np.ndarray | None = None    # gaps, VisitSeries.intervals
    pre: np.ndarray | None = None       # w * delta + b
    gamma: np.ndarray | None = None     # exp(-max(0, pre))
    fallback: np.ndarray | None = None  # last observation, else the mean


def impute_with_cache(series: VisitSeries | Sequence[VisitSeries],
                      params: DecayParams | None,
                      means: EmpiricalMeans) -> ImputationCache:
    """Replace missing cells by gamma * last_observation + (1 - gamma) * mean,
    or, with params None, by the mean itself.

    Observed cells pass through untouched. A missing cell with no prior
    observation falls back to the empirical mean. One series gives (T, D)
    arrays; a list gives its padded time-major block, (T, B, D). Mean
    imputation reads neither intervals nor last_observed.
    """
    values, mask = _time_major(series, "values", "mask")
    missing = mask == 0
    if params is None:
        return ImputationCache(inputs=np.where(missing, means.means, values),
                               missing=missing)
    deltas, last = _time_major(series, "intervals", "last_observed")
    pre = params.w_gamma * deltas + params.b_gamma
    gamma = np.exp(-np.maximum(0.0, pre))
    fallback = np.where(np.isnan(last), means.means, last)
    imputed = gamma * fallback + (1.0 - gamma) * means.means
    return ImputationCache(inputs=np.where(missing, imputed, values),
                           missing=missing, deltas=deltas, pre=pre,
                           gamma=gamma, fallback=fallback)


def impute_inputs(series: VisitSeries | Sequence[VisitSeries], params: DecayParams,
                  means: EmpiricalMeans) -> np.ndarray:
    """Decay-imputed inputs, (T, D) or a block's (T, B, D)
    (impute_with_cache)."""
    return impute_with_cache(series, params, means).inputs


def mean_impute_inputs(series: VisitSeries | Sequence[VisitSeries],
                       means: EmpiricalMeans) -> np.ndarray:
    """Ablation imputation: missing cells take the empirical mean directly.
    Laid out as impute_inputs lays its result out."""
    return impute_with_cache(series, None, means).inputs
