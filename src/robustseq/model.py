"""Model state: decay imputer, stacked GRU, prediction head.

Parameters live in small dataclasses; a single ordered name -> array walk
(named_parameters) is shared by gradient clipping, weight averaging, and
checkpoint serialization so every component agrees on parameter identity.
Its inverse, state_from_tensors, is the one way to build a state from a
name -> array map: loading a checkpoint and exporting the tail average
both go through it, so only this module knows the parameter layout.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .gru import ForwardCache, GruParams, ModelConfig, SequenceNoise, forward_sequence
from .objective import HeadParams
from .seeding import rng_stream
from .temporal import (DecayParams, EmpiricalMeans, ImputationCache, VisitSeries,
                       impute_with_cache, mean_impute_inputs)


def orthogonal_init(rows: int, cols: int, rng: np.random.Generator) -> np.ndarray:
    """Orthonormal rows x cols matrix via SVD of a Gaussian draw.

    The shorter side is orthonormal: wide matrices have orthonormal rows,
    tall ones orthonormal columns, square ones both.
    """
    if rows < 1 or cols < 1:
        raise ValidationError("matrix dimensions must be positive")
    m = rng.standard_normal((rows, cols))
    u, _, vt = np.linalg.svd(m, full_matrices=False)
    return u @ vt


def orthonormality_residual(m: np.ndarray) -> float:
    """Max abs deviation of the Gram matrix (smaller side) from identity."""
    m = np.asarray(m, dtype=float)
    gram = m @ m.T if m.shape[0] <= m.shape[1] else m.T @ m
    return float(np.max(np.abs(gram - np.eye(gram.shape[0]))))


@dataclass
class ModelState:
    """All trainable parameters plus the imputation statistics.

    step_count tracks how many gradient updates the state has absorbed;
    means are the training-split variable means the imputer falls back
    to, carried here so a persisted model can score unseen patients.
    """

    config: ModelConfig
    layers: list[GruParams]
    head: HeadParams
    decay: DecayParams
    means: EmpiricalMeans
    step_count: int = 0

    def __post_init__(self):
        if self.decay.w_gamma.shape != (self.config.input_size,):
            raise ValidationError("decay parameters must match input_size")
        if self.means.means.shape != (self.config.input_size,):
            raise ValidationError("means must match input_size")
        if self.head.num_codes != self.config.num_codes \
                or self.head.hidden_size != self.config.hidden_size:
            raise ValidationError("head shape does not match config")


def init_model(config: ModelConfig, means: EmpiricalMeans | None = None) -> ModelState:
    """Fresh parameters: orthogonal weight matrices, zero biases.

    Decay weights start at one and decay biases at zero (the 1-D analogue
    of an orthogonal diagonal), so early training sees a bounded,
    non-degenerate decay profile. Means default to zero when no cohort
    statistics are supplied.
    """
    rng = rng_stream(config.seed, "init")
    layers = []
    for i in range(config.num_layers):
        d_in = config.input_size if i == 0 else config.hidden_size
        h = config.hidden_size
        layers.append(GruParams(
            W_z=orthogonal_init(h, d_in, rng), U_z=orthogonal_init(h, h, rng),
            b_z=np.zeros(h),
            W_r=orthogonal_init(h, d_in, rng), U_r=orthogonal_init(h, h, rng),
            b_r=np.zeros(h),
            W_h=orthogonal_init(h, d_in, rng), U_h=orthogonal_init(h, h, rng),
            b_h=np.zeros(h)))
    head = HeadParams(
        W_code=orthogonal_init(config.num_codes, config.hidden_size, rng),
        b_code=np.zeros(config.num_codes))
    decay = DecayParams(w_gamma=np.ones(config.input_size),
                        b_gamma=np.zeros(config.input_size))
    if means is None:
        means = EmpiricalMeans(means=np.zeros(config.input_size))
    return ModelState(config=config, layers=layers, head=head, decay=decay,
                      means=means)


LAYER_FIELDS = ("W_z", "U_z", "b_z", "W_r", "U_r", "b_r", "W_h", "U_h", "b_h")


def named_parameters(state: ModelState) -> list[tuple[str, np.ndarray]]:
    """Canonical (name, array) walk over every trainable tensor.

    Arrays are the live model buffers, so in-place updates through this
    view update the model.
    """
    out = []
    for i, layer in enumerate(state.layers):
        for field_name in LAYER_FIELDS:
            out.append((f"layers.{i}.{field_name}", getattr(layer, field_name)))
    out.append(("head.W_code", state.head.W_code))
    out.append(("head.b_code", state.head.b_code))
    out.append(("decay.w_gamma", state.decay.w_gamma))
    out.append(("decay.b_gamma", state.decay.b_gamma))
    return out


def clone_parameters(state: ModelState) -> dict[str, np.ndarray]:
    return {name: arr.copy() for name, arr in named_parameters(state)}


def _parameter_shapes(config: ModelConfig) -> dict[str, tuple[int, ...]]:
    """Expected shape of every tensor, keyed and ordered as named_parameters."""
    h, d, c = config.hidden_size, config.input_size, config.num_codes
    shapes = {}
    for i in range(config.num_layers):
        by_kind = {"W": (h, d if i == 0 else h), "U": (h, h), "b": (h,)}
        for field_name in LAYER_FIELDS:
            shapes[f"layers.{i}.{field_name}"] = by_kind[field_name[0]]
    shapes["head.W_code"] = (c, h)
    shapes["head.b_code"] = (c,)
    shapes["decay.w_gamma"] = (d,)
    shapes["decay.b_gamma"] = (d,)
    return shapes


def state_from_tensors(config: ModelConfig, tensors: dict[str, np.ndarray],
                       means: EmpiricalMeans, step_count: int = 0) -> ModelState:
    """Build a validated state from a name -> array map.

    The map must hold exactly the names named_parameters yields for this
    config, each with the shape the config implies and finite values;
    errors name the offending tensor. Arrays are copied, so the state
    owns its buffers.
    """
    shapes = _parameter_shapes(config)
    for name in shapes:
        if name not in tensors:
            raise ValidationError(f"missing tensor {name!r}")
    extra = set(tensors) - set(shapes)
    if extra:
        raise ValidationError(f"unexpected tensors: {sorted(extra)}")
    arrays = {}
    for name, shape in shapes.items():
        arr = np.array(tensors[name], dtype=float)
        if arr.shape != shape:
            raise ValidationError(
                f"tensor {name!r} has shape {arr.shape}, expected {shape}")
        if not np.isfinite(arr).all():
            raise ValidationError(f"tensor {name!r} contains non-finite entries")
        arrays[name] = arr
    layers = [GruParams(**{f: arrays[f"layers.{i}.{f}"] for f in LAYER_FIELDS})
              for i in range(config.num_layers)]
    return ModelState(
        config=config, layers=layers,
        head=HeadParams(W_code=arrays["head.W_code"], b_code=arrays["head.b_code"]),
        decay=DecayParams(w_gamma=arrays["decay.w_gamma"],
                          b_gamma=arrays["decay.b_gamma"]),
        means=means, step_count=step_count)


def impute_series(state: ModelState, series: VisitSeries) -> ImputationCache:
    """Fill missing cells per the configured imputation mode."""
    if series.num_variables != state.config.input_size:
        raise ValidationError(
            f"series has {series.num_variables} variables, model expects "
            f"{state.config.input_size}")
    if state.config.imputation == "mean":
        inputs = mean_impute_inputs(series, state.means)
        t_len, d = inputs.shape
        zeros = np.zeros((t_len, d))
        return ImputationCache(inputs=inputs, deltas=zeros, gamma=zeros,
                               active=np.zeros((t_len, d), dtype=bool),
                               fallback=np.broadcast_to(state.means.means,
                                                        (t_len, d)).copy(),
                               missing=series.mask == 0, means=state.means.means)
    return impute_with_cache(series, state.decay, state.means)


def forward_series(state: ModelState, series: VisitSeries,
                   rng: np.random.Generator | None = None,
                   noise: SequenceNoise | None = None,
                   ) -> tuple[ImputationCache, ForwardCache]:
    imp = impute_series(state, series)
    fwd = forward_sequence(state.config, state.layers, imp.inputs, rng=rng,
                           noise=noise)
    return imp, fwd


def eval_forward(state: ModelState, series: VisitSeries) -> ForwardCache:
    """Deterministic forward pass: noise and dropout forced off."""
    config = state.config
    imp = impute_series(state, series)
    noise = SequenceNoise.ones(config.num_layers, series.num_steps,
                               config.hidden_size)
    return forward_sequence(config, state.layers, imp.inputs, noise=noise)


def score_series(state: ModelState, series: VisitSeries,
                 ) -> tuple[np.ndarray, np.ndarray]:
    """Eval-mode next-visit probabilities and their binary targets.

    Returns (probs, targets), each (T-1, C); a single-visit series yields
    empty arrays since it has no next visit to predict.
    """
    from .objective import head_probs

    if series.num_steps < 2:
        empty = np.zeros((0, state.config.num_codes))
        return empty, empty.copy()
    fwd = eval_forward(state, series)
    probs = head_probs(state.head, fwd.top[:-1])
    return probs, series.labels[1:].astype(float)


def predict_next(state: ModelState, series: VisitSeries) -> np.ndarray:
    """Code probabilities for the visit after the series' last one."""
    from .objective import head_probs

    fwd = eval_forward(state, series)
    return head_probs(state.head, fwd.top[-1:])[0]
