"""Analytic backpropagation through time and the training loop.

The backward pass is hand-derived: head cross-entropy, inter-layer
dropout, the noisy convex-combination step, both gates, the candidate,
and the decay-imputation path into missing input cells, which runs
when the imputation cache holds the decay's values and forms the two
backward-only factors from them. Truncation zeroes the recurrent
gradient carry at window boundaries while the forward pass stays
continuous. Updates are plain SGD with global-norm clipping; the
exported parameters are the tail average of the iterates (averaged
SGD), accumulated once per update from a configurable start epoch.

Each update has one way through: train draws the patient's noise with
sample_sequence_noise, bptt_gradients runs the forward pass under it and
returns the loss and gradients, clip_gradients scales them and asgd_step
applies them. Gradients come back as one zeroed vector laid out like the
model's flat parameter store (model.FlatTensors), so clipping scales one
vector, an SGD step subtracts one vector from ModelState.flat, and the
running average adds one vector per update.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .data_io import split_cohort
from .errors import TrainingDivergedError, ValidationError
from .gru import (ModelConfig, NoiseSpec, SequenceNoise, forward_sequence,
                   sample_sequence_noise)
from .model import (FlatTensors, ModelState, forward_series, init_model,
                    named_parameters)
from .objective import head_backward, next_visit_loss
from .seeding import rng_stream
from .temporal import VisitSeries, empirical_means


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
        for name in ("learning_rate", "clip_norm", "l2_lambda"):
            if not math.isfinite(getattr(self, name)):
                raise ValidationError(f"{name} must be finite")
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


def bptt_gradients(state: ModelState, series: VisitSeries, noise: SequenceNoise,
                   window: int | None = None,
                   l2: float = 0.0) -> tuple[float, FlatTensors]:
    """Loss and analytic gradients for one sequence under the given noise.

    The gradients are one zeroed vector laid out like state.flat, read
    by parameter name. noise is the sequence's pre-sampled hidden-state
    noise and dropout (sample_sequence_noise), read by both passes; the
    gradient checker replays the same frozen draw. window limits how far
    the recurrent carry propagates; None means the full sequence. A
    single-visit sequence returns loss 0 and all-zero gradients since no
    prediction step exists.
    """
    if window is not None and window < 1:
        raise ValidationError("window must be >= 1")
    imp, fwd = forward_series(state, series, noise)
    cache = next_visit_loss(state.head, fwd.top, series.labels, l2)
    if not np.isfinite(cache.loss):
        raise TrainingDivergedError(
            f"non-finite loss {cache.loss!r} on patient {series.patient_id!r}")
    grads = state.params.like(np.zeros(state.flat.size))

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
    no_carry = np.zeros(hidden)

    for li in reversed(range(state.config.num_layers)):
        lc = fwd.layers[li]
        p = state.layers[li]
        eps = noise.eps[li]
        hprev = lc.h[:-1]
        z, r, c = lc.z, lc.r, lc.h_cand
        # step-invariant factors, each formed as the step formula forms it
        dout_drop = dout * noise.drop[li]
        c_minus_h = c - hprev
        one_minus_z = 1.0 - z
        one_minus_c2 = 1.0 - c * c
        one_minus_r = 1.0 - r
        u_h_t, u_z_t, u_r_t = p.U_h.T, p.U_z.T, p.U_r.T
        # gate pre-activation gradients, one column block per gate
        da = np.empty((t_len, 3 * hidden))
        da_z, da_r, da_c = da[:, :hidden], da[:, hidden:2 * hidden], da[:, 2 * hidden:]
        dcarry = no_carry
        for t in reversed(range(t_len)):
            dac, dar, daz = da_c[t], da_r[t], da_z[t]
            ds = (dout_drop[t] + dcarry) * eps[t]
            dz = ds * c_minus_h[t]
            dhp = ds * one_minus_z[t]
            np.multiply(ds, z[t], out=dac)
            dac *= one_minus_c2[t]
            d_rh = u_h_t.dot(dac)
            dhp += d_rh * r[t]
            np.multiply(d_rh, hprev[t], out=dar)
            dar *= r[t]
            dar *= one_minus_r[t]
            np.multiply(dz, z[t], out=daz)
            daz *= one_minus_z[t]
            dhp += u_z_t.dot(daz) + u_r_t.dot(dar)
            dcarry = no_carry if window is not None and t % window == 0 else dhp
        dw = da.T @ lc.xin
        du_zr = da[:, :2 * hidden].T @ hprev
        db = da.sum(axis=0)
        for k, gate in enumerate("zrh"):
            rows = slice(k * hidden, (k + 1) * hidden)
            grads[f"layers.{li}.W_{gate}"][...] = dw[rows]
            grads[f"layers.{li}.b_{gate}"][...] = db[rows]
        grads[f"layers.{li}.U_z"][...] = du_zr[:hidden]
        grads[f"layers.{li}.U_r"][...] = du_zr[hidden:]
        grads[f"layers.{li}.U_h"][...] = da_c.T @ (r * hprev)
        dout = da_z @ p.W_z + da_r @ p.W_r + da_c @ p.W_h

    if imp.gamma is not None:
        # d(missing cell) / d(w * delta + b), as ImputationCache gives it
        lift = (imp.fallback - state.means.means) * imp.missing
        dpre = -((dout * lift) * (imp.gamma * (imp.pre > 0)))
        grads["decay.w_gamma"][...] = (dpre * imp.deltas).sum(axis=0)
        grads["decay.b_gamma"][...] = dpre.sum(axis=0)
    return cache.loss, grads


def global_norm(grads: FlatTensors) -> float:
    """L2 norm over every tensor.

    Each tensor's squares are summed on their own, then the per-tensor
    sums in order; one reduction over the whole vector would round
    differently.
    """
    sq = grads.flat * grads.flat
    return float(np.sqrt(sum(float(np.add.reduce(sq[a:b]))
                             for a, b in grads.bounds)))


def clip_gradients(grads: FlatTensors, clip_norm: float) -> float:
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
    grads.flat *= scale
    return scale


@dataclass
class ParameterAverage:
    """Running mean of parameter snapshots (the ASGD export).

    sums is one vector laid out like ModelState.flat.
    """

    sums: FlatTensors | None = None
    count: int = 0

    def accumulate(self, state: ModelState) -> None:
        if self.sums is None:
            self.sums = state.params.like(state.flat.copy())
        else:
            self.sums.flat += state.flat
        self.count += 1

    def export(self) -> FlatTensors:
        if self.count == 0:
            raise ValidationError("no parameter snapshots accumulated")
        return self.sums.like(self.sums.flat / self.count)


def asgd_step(state: ModelState, grads: FlatTensors,
              train_config: TrainConfig,
              average: ParameterAverage | None = None) -> ModelState:
    """One SGD update; snapshots into the tail average when one is given."""
    if list(grads.shapes.items()) != list(state.params.shapes.items()):
        raise ValidationError("gradients are not laid out like the parameters")
    state.flat -= train_config.learning_rate * grads.flat
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
            noise = sample_sequence_noise(
                model_config, series.num_steps,
                rng_stream(model_config.seed, "noise", epoch, int(idx)))
            loss, grads = bptt_gradients(state, series, noise,
                                         window=train_config.bptt_window,
                                         l2=train_config.l2_lambda)
            clip_gradients(grads, train_config.clip_norm)
            asgd_step(state, grads, train_config, active_average)
            total += loss
        history.append(total / len(train_set))
    if average.count:
        state = ModelState(config=model_config, params=average.export(),
                           means=means, step_count=state.step_count)
    return TrainResult(state=state, loss_history=history)


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
                            step: float = 1e-5) -> GradCheckReport:
    """Compare every analytic gradient entry against central differences.

    Relative error uses a 1e-4 denominator floor so near-zero gradient
    pairs are compared on an absolute scale instead of amplifying float
    noise; a non-finite error counts as inf, so it fails any tolerance.
    Noise is frozen and the full sequence is backpropagated (a truncated
    carry is deliberately not the derivative of the full loss). A
    perturbed loss reruns only the stages its tensor feeds, from one kept
    unperturbed pass, with the full pass's operations: the report is that
    of full passes bit for bit. Each entry is restored even on a raise.
    """
    if not (math.isfinite(step) and step > 0.0):
        raise ValidationError("step must be finite and positive")
    loss, grads = bptt_gradients(state, series, noise, l2=l2)
    _, fwd = forward_series(state, series, noise)

    def from_layer(i: int):
        xin, depth = fwd.layers[i].xin, state.config.num_layers - i
        config = replace(state.config, input_size=xin.shape[-1], num_layers=depth)
        rest = SequenceNoise(eps=noise.eps[i:], drop=noise.drop[i:])
        return lambda: forward_sequence(config, state.layers[i:], xin, rest).top

    # the head input under a perturbation, recomputed from the tensor's stage
    tops = {f"layers.{i}": from_layer(i) for i in range(state.config.num_layers)}
    tops.update(head=lambda: fwd.top,
                decay=lambda: forward_series(state, series, noise)[1].top)
    per: dict[str, float] = {}
    count = 0
    for name, arr in named_parameters(state):
        top = tops[name.rpartition(".")[0]]
        analytic = grads[name]
        worst = 0.0
        for ix in np.ndindex(arr.shape):
            orig = arr[ix]
            try:
                arr[ix] = orig + step
                up = next_visit_loss(state.head, top(), series.labels, l2).loss
                arr[ix] = orig - step
                down = next_visit_loss(state.head, top(), series.labels, l2).loss
            finally:
                arr[ix] = orig
            fd = (up - down) / (2.0 * step)
            a = float(analytic[ix])
            rel = abs(a - fd) / max(abs(a), abs(fd), 1e-4)
            worst = max(worst, rel if math.isfinite(rel) else math.inf)
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
    deltas = series.intervals
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
