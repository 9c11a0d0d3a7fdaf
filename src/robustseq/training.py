"""Analytic backpropagation through time and the training loop.

The backward pass is hand-derived: head cross-entropy, inter-layer
dropout, the noisy convex-combination step, both gates, the candidate,
and the decay-imputation path into missing input cells. Truncation
zeroes the recurrent gradient carry at window boundaries while the
forward pass stays continuous. Updates are plain SGD with global-norm
clipping; the exported parameters are the tail average of the iterates
(averaged SGD), accumulated once per update from a configurable start
epoch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .data_io import split_cohort
from .errors import TrainingDivergedError, ValidationError
from .gru import ModelConfig, NoiseSpec, SequenceNoise, sample_sequence_noise
from .model import (ModelState, forward_series, init_model, named_parameters,
                    state_from_tensors)
from .objective import head_backward, next_visit_loss
from .seeding import rng_stream
from .temporal import VisitSeries, compute_intervals, empirical_means


@dataclass
class TrainConfig:
    """Optimization settings for the epoch loop."""

    learning_rate: float
    epochs: int = 50
    clip_norm: float = 0.25
    l2_lambda: float = 1e-5
    averaging_start_epoch: int | None = None  # None: final quarter of epochs
    split_fraction: float = 0.85
    bptt_window: int | None = None  # None: backpropagate the full sequence
    seed: int = 0

    def __post_init__(self):
        if self.learning_rate <= 0.0:
            raise ValidationError("learning_rate must be positive")
        if self.epochs < 1:
            raise ValidationError("epochs must be >= 1")
        if self.clip_norm <= 0.0:
            raise ValidationError("clip_norm must be positive")
        if self.l2_lambda < 0.0:
            raise ValidationError("l2_lambda must be non-negative")
        if not 0.0 < self.split_fraction < 1.0:
            raise ValidationError("split_fraction must lie in (0, 1)")
        if self.averaging_start_epoch is not None and not (
                1 <= self.averaging_start_epoch <= self.epochs):
            raise ValidationError(
                "averaging_start_epoch must lie in [1, epochs]")
        if self.bptt_window is not None and self.bptt_window < 1:
            raise ValidationError("bptt_window must be >= 1")
        if self.seed < 0:
            raise ValidationError("seed must be non-negative")

    def resolved_averaging_start(self) -> int:
        if self.averaging_start_epoch is not None:
            return self.averaging_start_epoch
        return math.ceil(0.75 * self.epochs)


def bptt_gradients(state: ModelState, series: VisitSeries,
                   rng: np.random.Generator | None = None,
                   noise: SequenceNoise | None = None,
                   window: int | None = None,
                   l2: float = 0.0) -> tuple[float, dict[str, np.ndarray]]:
    """Loss and analytic gradients for one sequence.

    Train-mode stochasticity comes from rng unless a frozen SequenceNoise
    is supplied (the replay hook the gradient checker relies on). window
    limits how far the recurrent carry propagates; None means the full
    sequence. A single-visit sequence returns loss 0 and all-zero
    gradients since no prediction step exists.
    """
    if window is not None and window < 1:
        raise ValidationError("window must be >= 1")
    imp, fwd = forward_series(state, series, rng=rng, noise=noise)
    cache = next_visit_loss(state.head, fwd.top, series.labels, l2)
    if not np.isfinite(cache.loss):
        raise TrainingDivergedError(
            f"non-finite loss {cache.loss!r} on patient {series.patient_id!r}")
    grads = {name: np.zeros_like(arr) for name, arr in named_parameters(state)}

    dstates, head_grads = head_backward(cache, state.head, l2)
    grads["head.W_code"][...] = head_grads.dW_code
    grads["head.b_code"][...] = head_grads.db_code

    t_len = series.num_steps
    hidden = state.config.hidden_size
    # gradient w.r.t. the dropped output of the layer below; top layer
    # output feeds the head, whose last state scores nothing
    dout = np.zeros((t_len, hidden))
    if t_len >= 2:
        dout[:-1] = dstates

    for li in reversed(range(state.config.num_layers)):
        lc = fwd.layers[li]
        p = state.layers[li]
        eps = fwd.noise.eps[li]
        drop = fwd.noise.drop[li]
        da_z_all = np.empty((t_len, hidden))
        da_r_all = np.empty((t_len, hidden))
        da_c_all = np.empty((t_len, hidden))
        dcarry = np.zeros(hidden)
        for t in reversed(range(t_len)):
            dh = dout[t] * drop[t] + dcarry
            ds = dh * eps[t]
            hp = lc.h[t]
            z, r, c = lc.z[t], lc.r[t], lc.h_cand[t]
            dz = ds * (c - hp)
            dhp = ds * (1.0 - z)
            da_c = ds * z * (1.0 - c * c)
            d_rh = p.U_h.T @ da_c
            dhp += d_rh * r
            da_r = d_rh * hp * r * (1.0 - r)
            da_z = dz * z * (1.0 - z)
            dhp += p.U_z.T @ da_z + p.U_r.T @ da_r
            da_z_all[t], da_r_all[t], da_c_all[t] = da_z, da_r, da_c
            if window is not None and t % window == 0:
                dcarry = np.zeros(hidden)
            else:
                dcarry = dhp
        hprev = lc.h[:-1]
        rh = lc.r * hprev
        grads[f"layers.{li}.W_z"][...] = da_z_all.T @ lc.xin
        grads[f"layers.{li}.U_z"][...] = da_z_all.T @ hprev
        grads[f"layers.{li}.b_z"][...] = da_z_all.sum(axis=0)
        grads[f"layers.{li}.W_r"][...] = da_r_all.T @ lc.xin
        grads[f"layers.{li}.U_r"][...] = da_r_all.T @ hprev
        grads[f"layers.{li}.b_r"][...] = da_r_all.sum(axis=0)
        grads[f"layers.{li}.W_h"][...] = da_c_all.T @ lc.xin
        grads[f"layers.{li}.U_h"][...] = da_c_all.T @ rh
        grads[f"layers.{li}.b_h"][...] = da_c_all.sum(axis=0)
        dout = da_z_all @ p.W_z + da_r_all @ p.W_r + da_c_all @ p.W_h

    if state.config.imputation == "decay":
        # missing cell = gamma * fallback + (1 - gamma) * mean, with
        # gamma = exp(-relu(w * delta + b)); rectifier subgradient is 0
        # on the inactive side and at the kink
        dgamma = dout * (imp.fallback - imp.means) * imp.missing
        dpre = -(dgamma * imp.gamma) * imp.active
        grads["decay.w_gamma"][...] = (dpre * imp.deltas).sum(axis=0)
        grads["decay.b_gamma"][...] = dpre.sum(axis=0)
    return cache.loss, grads


def global_norm(grads: dict[str, np.ndarray]) -> float:
    return float(np.sqrt(sum(float(np.sum(g * g)) for g in grads.values())))


def clip_gradients(grads: dict[str, np.ndarray], clip_norm: float) -> float:
    """Scale all gradients in place so the global L2 norm is <= clip_norm.

    Returns the applied scale factor (1.0 when the norm was already small
    enough), which doubles as a step-size diagnostic.
    """
    if clip_norm <= 0.0:
        raise ValidationError("clip_norm must be positive")
    norm = global_norm(grads)
    if norm <= clip_norm:
        return 1.0
    scale = clip_norm / norm
    for g in grads.values():
        g *= scale
    return scale


@dataclass
class ParameterAverage:
    """Running mean of parameter snapshots (the ASGD export)."""

    sums: dict[str, np.ndarray] = field(default_factory=dict)
    count: int = 0

    def accumulate(self, state: ModelState) -> None:
        for name, arr in named_parameters(state):
            if name in self.sums:
                self.sums[name] += arr
            else:
                self.sums[name] = arr.copy()
        self.count += 1

    def export(self) -> dict[str, np.ndarray]:
        if self.count == 0:
            raise ValidationError("no parameter snapshots accumulated")
        return {name: s / self.count for name, s in self.sums.items()}


def asgd_step(state: ModelState, grads: dict[str, np.ndarray],
              train_config: TrainConfig,
              average: ParameterAverage | None = None) -> ModelState:
    """One SGD update; snapshots into the tail average when one is given."""
    lr = train_config.learning_rate
    for name, arr in named_parameters(state):
        if name not in grads:
            raise ValidationError(f"missing gradient for {name!r}")
        arr -= lr * grads[name]
    state.step_count += 1
    if average is not None:
        average.accumulate(state)
    return state


@dataclass
class TrainResult:
    state: ModelState
    loss_history: list[float]


def train(cohort: list[VisitSeries], model_config: ModelConfig,
          train_config: TrainConfig) -> TrainResult:
    """Split, fit empirical means, and run per-patient SGD epochs.

    Patients are split by seeded shuffle; means come from the training
    side only. Every epoch visits each training patient once in a
    seeded, epoch-dependent order with one clipped update per patient.
    The recorded history is the mean per-patient loss of each epoch.
    After the final epoch the tail-averaged parameters replace the raw
    iterate.
    """
    if not cohort:
        raise ValidationError("cohort is empty")
    train_set, _ = split_cohort(cohort, train_config.split_fraction,
                                train_config.seed)
    means = empirical_means(train_set)
    state = init_model(model_config, means)
    start = train_config.resolved_averaging_start()
    average = ParameterAverage()
    history: list[float] = []
    for epoch in range(1, train_config.epochs + 1):
        order = rng_stream(train_config.seed, "order", epoch).permutation(
            len(train_set))
        active_average = average if epoch >= start else None
        total = 0.0
        for idx in order:
            series = train_set[int(idx)]
            noise_rng = rng_stream(model_config.seed, "noise", epoch, int(idx))
            loss, grads = bptt_gradients(state, series, rng=noise_rng,
                                         window=train_config.bptt_window,
                                         l2=train_config.l2_lambda)
            clip_gradients(grads, train_config.clip_norm)
            asgd_step(state, grads, train_config, active_average)
            total += loss
        history.append(total / len(train_set))
    if average.count:
        state = state_from_tensors(model_config, average.export(), means,
                                   state.step_count)
    return TrainResult(state=state, loss_history=history)


def loss_under_noise(state: ModelState, series: VisitSeries,
                       noise: SequenceNoise, l2: float = 0.0) -> float:
    """Forward-only loss under frozen noise (finite-difference probe)."""
    _, fwd = forward_series(state, series, noise=noise)
    return next_visit_loss(state.head, fwd.top, series.labels, l2).loss


@dataclass
class GradCheckReport:
    max_rel_error: float
    per_tensor: dict[str, float]
    loss: float
    num_parameters: int

    def lines(self) -> list[str]:
        out = [f"{name}: rel_error {err:.3e}" for name, err in self.per_tensor.items()]
        out.append(f"parameters checked: {self.num_parameters}")
        out.append(f"max relative error: {self.max_rel_error:.3e}")
        return out


def finite_difference_check(state: ModelState, series: VisitSeries,
                            noise: SequenceNoise, l2: float = 0.0,
                            step: float = 1e-5,
                            window: int | None = None) -> GradCheckReport:
    """Compare every analytic gradient entry against central differences.

    Relative error uses a 1e-4 denominator floor so near-zero gradient
    pairs are compared on an absolute scale instead of amplifying float
    noise. Noise must be frozen; truncation must be off (a truncated
    carry is deliberately not the derivative of the full loss).
    """
    if window is not None:
        raise ValidationError("gradient checking requires full backpropagation")
    loss, grads = bptt_gradients(state, series, noise=noise, l2=l2)
    per: dict[str, float] = {}
    count = 0
    for name, arr in named_parameters(state):
        analytic = grads[name]
        worst = 0.0
        for ix in np.ndindex(arr.shape):
            orig = arr[ix]
            arr[ix] = orig + step
            up = loss_under_noise(state, series, noise, l2)
            arr[ix] = orig - step
            down = loss_under_noise(state, series, noise, l2)
            arr[ix] = orig
            fd = (up - down) / (2.0 * step)
            a = float(analytic[ix])
            rel = abs(a - fd) / max(abs(a), abs(fd), 1e-4)
            worst = max(worst, rel)
            count += 1
        per[name] = worst
    return GradCheckReport(max_rel_error=max(per.values()), per_tensor=per,
                           loss=loss, num_parameters=count)


def default_gradcheck_setup(seed: int = 1,
                            ) -> tuple[ModelState, VisitSeries, SequenceNoise]:
    """Small randomized model, sequence, and frozen noise for checking.

    Decay parameters are re-drawn until every nonzero-interval cell's
    pre-activation clears the rectifier kink by 1e-2, so a central
    difference with step 1e-5 never straddles the nondifferentiable
    point. Interval-zero cells sit exactly at the kink when b = 0, but
    they impute to the mean for every gamma, so no gradient flows there
    on either path.
    """
    rng = rng_stream(seed, "gradcheck")
    d, hidden, codes, t_len = 5, 7, 4, 6
    config = ModelConfig(
        input_size=d, num_codes=codes, hidden_size=hidden, num_layers=2,
        interlayer_dropout=0.3,
        noise=NoiseSpec(kind="scaled_bernoulli", drop_prob=0.33, mode="train"),
        seed=seed)
    state = init_model(config)
    for _, arr in named_parameters(state):
        arr += 0.3 * rng.standard_normal(arr.shape)
    state.means.means[:] = rng.standard_normal(d)

    gaps = 0.3 + rng.random(t_len - 1)
    timestamps = np.concatenate([[0.0], np.cumsum(gaps)])
    values = rng.standard_normal((t_len, d))
    mask = (rng.random((t_len, d)) < 0.6).astype(float)
    labels = (rng.random((t_len, codes)) < 0.4).astype(float)
    series = VisitSeries(timestamps=timestamps, values=values, mask=mask,
                         labels=labels, patient_id="gradcheck")
    deltas = compute_intervals(series)
    moving = deltas > 0.0
    while True:
        pre = state.decay.w_gamma * deltas + state.decay.b_gamma
        if not moving.any() or np.min(np.abs(pre[moving])) >= 1e-2:
            break
        state.decay.w_gamma[:] = 1.0 + 0.3 * rng.standard_normal(d)
        state.decay.b_gamma[:] = 0.4 * rng.standard_normal(d)
    noise = sample_sequence_noise(config, t_len, rng_stream(seed, "gradcheck-noise"))
    return state, series, noise


def run_gradcheck(seed: int = 1, step: float = 1e-5,
                  l2: float = 1e-3) -> GradCheckReport:
    """The stock small-model gradient check (also behind the CLI)."""
    state, series, noise = default_gradcheck_setup(seed)
    return finite_difference_check(state, series, noise, l2=l2, step=step)
