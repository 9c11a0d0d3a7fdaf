"""GRU cell, mean-1 multiplicative hidden-state noise, and the stacked
sequence forward pass.

Noise multiplies the whole convex-combination output of a step, so a
noisy step factors exactly as eps * plain_step. Inter-layer dropout uses
the same scaled-Bernoulli construction and is applied to each layer's
output on its way up (to the next layer, or to the prediction head for
the top layer); the recurrent connection itself is never dropped.

Noise is drawn by sample_sequence_noise, the one sampler, once per
sequence, and handed to forward_sequence; a forward pass without noise
is the deterministic evaluation pass. The forward cache does not keep
the noise: a backward pass takes the same draw as its own argument.

The step formula is written once, in the layer kernel _gru_layer, which
forward_sequence, noisy_gru_step and gru_step all run. Its inputs are
time-major with an optional batch axis: (T, D) for one series, as
training and single-patient prediction pass it, or (T, B, D) for a block
of series padded to one length, which cohort scoring runs so that each
step's matrix products serve the whole block.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

import numpy as np
from scipy.special import expit

from .errors import ValidationError

NOISE_KINDS = ("scaled_bernoulli", "gaussian")


@dataclass
class NoiseSpec:
    """Distribution of the multiplicative hidden-state noise.

    Both families have unit mean: scaled Bernoulli takes 0 with
    probability drop_prob and 1/(1-drop_prob) otherwise; Gaussian is
    1 + sigma * N(0, 1). Eval mode always yields all-ones.
    """

    kind: str = "scaled_bernoulli"
    drop_prob: float = 0.0
    sigma: float = 0.0
    mode: str = "train"

    def __post_init__(self):
        if self.kind not in NOISE_KINDS:
            raise ValidationError(f"unknown noise kind {self.kind!r}")
        if not 0.0 <= self.drop_prob < 1.0:
            raise ValidationError("drop_prob must lie in [0, 1)")
        if not math.isfinite(self.sigma) or self.sigma < 0.0:
            raise ValidationError("sigma must be finite and non-negative")
        if self.mode not in ("train", "eval"):
            raise ValidationError(f"unknown mode {self.mode!r}")


@dataclass
class GruParams:
    """One recurrent layer's trainable parameters."""

    W_z: np.ndarray  # (H, D_in)
    U_z: np.ndarray  # (H, H)
    b_z: np.ndarray  # (H,)
    W_r: np.ndarray
    U_r: np.ndarray
    b_r: np.ndarray
    W_h: np.ndarray
    U_h: np.ndarray
    b_h: np.ndarray

    def __post_init__(self):
        h, d_in = np.shape(self.W_z)
        for name in (f.name for f in fields(self)):
            arr = np.asarray(getattr(self, name), dtype=float)
            setattr(self, name, arr)
            want = (h, d_in) if name.startswith("W") else (h, h) if name.startswith("U") else (h,)
            if arr.shape != want:
                raise ValidationError(f"{name} must have shape {want}, got {arr.shape}")
            if not np.isfinite(arr).all():
                raise ValidationError(f"{name} contains non-finite entries")

    @property
    def hidden_size(self) -> int:
        return self.W_z.shape[0]

    @property
    def input_size(self) -> int:
        return self.W_z.shape[1]


@dataclass
class ModelConfig:
    """Architecture and regularization settings for the stacked model."""

    input_size: int
    num_codes: int
    hidden_size: int = 64
    num_layers: int = 1
    interlayer_dropout: float = 0.3
    noise: NoiseSpec = field(default_factory=NoiseSpec)
    imputation: str = "decay"  # "decay", or "mean" for the ablated model
    seed: int = 0

    def __post_init__(self):
        if self.input_size < 1 or self.num_codes < 1 or self.hidden_size < 1:
            raise ValidationError("sizes must be positive")
        if self.num_layers < 1:
            raise ValidationError("num_layers must be >= 1")
        if not 0.0 <= self.interlayer_dropout < 1.0:
            raise ValidationError("interlayer_dropout must lie in [0, 1)")
        if self.imputation not in ("decay", "mean"):
            raise ValidationError(f"unknown imputation mode {self.imputation!r}")
        if isinstance(self.noise, dict):
            self.noise = NoiseSpec(**self.noise)


def gru_step(params: GruParams, x: np.ndarray, h_prev: np.ndarray) -> np.ndarray:
    """Single GRU update: convex combination of h_prev and the candidate."""
    return noisy_gru_step(params, x, h_prev, np.ones(params.hidden_size))


def noisy_gru_step(params: GruParams, x: np.ndarray, h_prev: np.ndarray,
                   eps: np.ndarray) -> np.ndarray:
    """GRU update with multiplicative noise on the step output.

    Both terms of the convex combination share the noise factor, which
    multiplies last, so this is exactly eps * gru_step(...).
    """
    x, h_prev, eps = (np.asarray(a, dtype=float) for a in (x, h_prev, eps))
    want = ((params.input_size,), (params.hidden_size,), (params.hidden_size,))
    if (x.shape, h_prev.shape, eps.shape) != want:
        raise ValidationError(
            f"expected x, h_prev and eps of shapes {want}, got "
            f"{x.shape}, {h_prev.shape} and {eps.shape}")
    return _gru_layer(params, x[None], eps[None], h_prev)[0][1]


@dataclass
class SequenceNoise:
    """Pre-sampled per-step, per-layer noise for one sequence."""

    eps: np.ndarray   # (L, T, H) hidden-state noise
    drop: np.ndarray  # (L, T, H) inter-layer dropout masks

    @classmethod
    def ones(cls, num_layers: int, t_len: int, hidden: int) -> "SequenceNoise":
        shape = (num_layers, t_len, hidden)
        return cls(eps=np.ones(shape), drop=np.ones(shape))


def sample_sequence_noise(config: ModelConfig, t_len: int,
                          rng: np.random.Generator) -> SequenceNoise:
    """Sample all stochastic factors for one train-mode forward pass.

    Draw order is fixed for reproducibility: steps ascending, layers
    ascending, hidden-state noise before the dropout mask, each a block of
    hidden_size draws: uniforms u give scaled-Bernoulli factors
    (u >= p) / (1 - p), standard normals n give Gaussian factors
    1 + sigma * n. Scaled-Bernoulli noise and the dropout mask both use
    uniform draws only, so that whole stream is one (T, L, 2, H) block;
    Gaussian noise interleaves normal and uniform draws, so it is drawn
    step by step into preallocated rows and transformed once afterwards.
    """
    layers, hidden = config.num_layers, config.hidden_size
    if config.noise.mode == "eval":
        return SequenceNoise.ones(layers, t_len, hidden)
    spec = config.noise
    if spec.kind == "scaled_bernoulli":
        u = rng.random((t_len, layers, 2, hidden))
        eps = _scaled_keep(u[:, :, 0].swapaxes(0, 1), spec.drop_prob)
        u_drop = u[:, :, 1].swapaxes(0, 1)
    else:
        eps = np.empty((layers, t_len, hidden))
        u_drop = np.empty((layers, t_len, hidden))
        for t in range(t_len):
            for layer in range(layers):
                rng.standard_normal(out=eps[layer, t])
                rng.random(out=u_drop[layer, t])
        eps *= spec.sigma
        eps += 1.0
    return SequenceNoise(eps=eps,
                         drop=_scaled_keep(u_drop, config.interlayer_dropout))


def _scaled_keep(u: np.ndarray, drop_prob: float) -> np.ndarray:
    """Scaled-Bernoulli factors from uniforms: 0 where u < drop_prob,
    1 / (1 - drop_prob) elsewhere, as a new C-ordered array."""
    return np.divide(u >= drop_prob, 1.0 - drop_prob, out=np.empty(u.shape))


@dataclass
class LayerCache:
    """Everything a layer's backward pass needs. Shapes are those of one
    series; a block's cache has a batch axis after the time axis."""

    xin: np.ndarray      # (T, D_in) input rows actually consumed
    h: np.ndarray        # (T+1, H), h[0] = 0
    z: np.ndarray        # (T, H)
    r: np.ndarray        # (T, H)
    h_cand: np.ndarray   # (T, H)


@dataclass
class ForwardCache:
    layers: list[LayerCache]
    top: np.ndarray  # (T, H) dropped top-layer hidden states (head input)


def _check_layer_shapes(config: ModelConfig, layers: list[GruParams]) -> None:
    if len(layers) != config.num_layers:
        raise ValidationError(
            f"config expects {config.num_layers} layers, got {len(layers)}")
    for i, p in enumerate(layers):
        want_in = config.input_size if i == 0 else config.hidden_size
        if p.hidden_size != config.hidden_size or p.input_size != want_in:
            raise ValidationError(
                f"layer {i} has shape ({p.hidden_size}, {p.input_size}), "
                f"expected ({config.hidden_size}, {want_in})")


def _gru_layer(p: GruParams, x: np.ndarray, eps: np.ndarray | None, h0: np.ndarray,
               ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """One layer's recurrence over time-major inputs x, (T, D_in) for one
    sequence or (T, B, D_in) for a block of B, under noise eps of x's
    shape with H columns, or none: h (T+1, ..., H) with h[0] = h0
    (..., H), and z, r, h_cand (T, ..., H).

    The input projections of all steps and rows are formed at once, each
    gate with its own (T*B, D_in) product (a stacked or 3-D one rounds
    some rows differently); the loop carries the recurrent terms as row
    products, z and r share one buffer and one expit, and eps, when
    given, multiplies the step output last. A block's row rounds as that
    sequence alone does when B = 1; with more rows the recurrent products
    may round differently in the last bits.
    """
    t_len = x.shape[0]
    step_shape = x.shape[1:-1] + (p.hidden_size,)  # one step's h: (H,) or (B, H)
    rows = x.reshape(-1, x.shape[-1])
    # step-major, so that a step's z and r terms are one contiguous block
    px = np.empty((t_len, 3) + step_shape)
    for k, (w, b) in enumerate(((p.W_z, p.b_z), (p.W_r, p.b_r), (p.W_h, p.b_h))):
        np.add((rows @ w.T).reshape((t_len,) + step_shape), b, out=px[:, k])
    px_zr, px_h = px[:, :2], px[:, 2]
    u_z, u_r, u_h = p.U_z.T, p.U_r.T, p.U_h.T
    h = np.empty((t_len + 1,) + step_shape)
    h[0] = h0
    zr = np.empty((t_len, 2) + step_shape)
    z, r = zr[:, 0], zr[:, 1]
    h_cand = np.empty((t_len,) + step_shape)
    for t in range(t_len):
        hp, gates, zt, ct, ht = h[t], zr[t], z[t], h_cand[t], h[t + 1]
        np.dot(hp, u_z, out=zt)
        np.dot(hp, u_r, out=r[t])
        gates += px_zr[t]
        expit(gates, out=gates)
        np.add(px_h[t], (r[t] * hp).dot(u_h), out=ct)
        np.tanh(ct, out=ct)
        np.add((1.0 - zt) * hp, zt * ct, out=ht)
        if eps is not None:
            ht *= eps[t]
    return h, z, r, h_cand


def forward_sequence(config: ModelConfig, layers: list[GruParams],
                     inputs: np.ndarray,
                     noise: SequenceNoise | None = None) -> ForwardCache:
    """Run the stacked recurrence over one (already imputed) series,
    inputs (T, D_in), or over a time-major block of B of them, padded to
    a common length, inputs (T, B, D_in).

    noise is the pre-sampled hidden-state noise and dropout of a training
    pass, each (L,) + inputs.shape[:-1] + (H,); None runs the
    deterministic evaluation pass, which multiplies by no factor at all.
    Initial hidden state is zero for every layer and row. The cache keeps
    the input's layout: (T, H) arrays for one series, (T, B, H) for a
    block, whose rows past a series' own length are padding.
    """
    inputs = np.asarray(inputs, dtype=float)
    if inputs.ndim not in (2, 3) or inputs.shape[-1] != config.input_size:
        raise ValidationError(f"inputs must be (T, {config.input_size}) "
                              f"or (T, B, {config.input_size})")
    if not np.isfinite(inputs).all():
        raise ValidationError("inputs contain non-finite sentinel values")
    _check_layer_shapes(config, layers)
    want = (config.num_layers,) + inputs.shape[:-1] + (config.hidden_size,)
    if noise is not None and (noise.eps.shape != want or noise.drop.shape != want):
        raise ValidationError("pre-sampled noise has the wrong shape")

    caches = []
    x = inputs
    no_state = np.zeros(want[2:])
    for li, p in enumerate(layers):
        eps = None if noise is None else noise.eps[li]
        h, z, r, h_cand = _gru_layer(p, x, eps, no_state)
        caches.append(LayerCache(xin=x, h=h, z=z, r=r, h_cand=h_cand))
        # the output after inter-layer dropout: the next layer's xin, or top
        x = h[1:] if noise is None else h[1:] * noise.drop[li]
    return ForwardCache(layers=caches, top=x)
