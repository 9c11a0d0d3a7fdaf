"""Model state: decay imputer, stacked GRU, prediction head.

Every trainable tensor lives in one contiguous float64 vector,
ModelState.flat, laid out in named_parameters order. FlatTensors is the
name -> view mapping over such a vector, and a ModelState is built from
one: the per-layer, head and decay dataclasses it hands to the forward
and backward passes are views of that store, so a whole-model operation
(an SGD step, a running average) is one vector operation while the
passes still address tensors by role. Gradients use the same layout.
init_model fills a fresh store; state_from_tensors copies a name ->
array map into one (loading a checkpoint); only this module knows the
parameter layout.

impute_series is the one place that reads the configured imputation
mode. It and the evaluation passes, eval_forward and score_series, take
one series or a list of them; a list is imputed and run as one padded
time-major block through the same imputation and layer kernels that
training runs on one series.
"""

from __future__ import annotations

import math
from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field, fields
from functools import lru_cache
from types import MappingProxyType

import numpy as np

from .errors import ValidationError
from .gru import ForwardCache, GruParams, ModelConfig, SequenceNoise, forward_sequence
from .objective import HeadParams, head_probs
from .seeding import rng_stream
from .temporal import (DecayParams, EmpiricalMeans, ImputationCache, VisitSeries,
                       impute_with_cache)


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


class FlatTensors(Mapping):
    """Name -> array views over one contiguous float64 vector.

    The vector holds the tensors back to back, row-major, in the order of
    the shapes map; iteration yields names in that order. Every value is
    a live view, so writing through a view writes the vector and the
    other way round.
    """

    def __init__(self, flat: np.ndarray, shapes: Mapping[str, tuple[int, ...]]):
        self.shapes = shapes
        self._spans = []  # (name, start, stop, shape), in order
        start = 0
        for name, shape in shapes.items():
            stop = start + math.prod(shape)
            self._spans.append((name, start, stop, shape))
            start = stop
        self._attach(flat)

    def like(self, flat: np.ndarray) -> "FlatTensors":
        """Views with this layout over another vector of the same size."""
        out = object.__new__(FlatTensors)
        out.shapes, out._spans = self.shapes, self._spans
        out._attach(flat)
        return out

    def _attach(self, flat: np.ndarray) -> None:
        size = self._spans[-1][2] if self._spans else 0
        if flat.dtype != np.float64 or flat.shape != (size,) \
                or not flat.flags.c_contiguous:
            raise ValidationError(
                f"expected a contiguous float64 vector of {size} values")
        self.flat = flat
        self._views = {name: flat[a:b].reshape(shape)
                       for name, a, b, shape in self._spans}

    @property
    def bounds(self) -> list[tuple[int, int]]:
        """(start, stop) of each tensor in the vector, in order."""
        return [(a, b) for _, a, b, _ in self._spans]

    def __getitem__(self, name: str) -> np.ndarray:
        return self._views[name]

    def __iter__(self):
        return iter(self._views)

    def __len__(self) -> int:
        return len(self._views)


@dataclass
class ModelState:
    """All trainable parameters plus the imputation statistics.

    params is the flat store, laid out for config; layers, head and decay
    are built from its views, and flat is its vector. step_count tracks
    how many gradient updates the state has absorbed; means are the
    training-split variable means the imputer falls back to, carried
    here so a persisted model can score unseen patients.
    """

    config: ModelConfig
    params: FlatTensors
    means: EmpiricalMeans
    step_count: int = 0
    layers: list[GruParams] = field(init=False, repr=False)
    head: HeadParams = field(init=False, repr=False)
    decay: DecayParams = field(init=False, repr=False)
    flat: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if list(self.params.shapes.items()) \
                != list(_parameter_shapes(self.config).items()):
            raise ValidationError("parameter store is not laid out for this config")
        if self.means.means.shape != (self.config.input_size,):
            raise ValidationError("means must match input_size")
        p = self.params
        self.layers = [GruParams(**{f: p[f"layers.{i}.{f}"] for f in LAYER_FIELDS})
                       for i in range(self.config.num_layers)]
        self.head = HeadParams(W_code=p["head.W_code"], b_code=p["head.b_code"])
        self.decay = DecayParams(w_gamma=p["decay.w_gamma"],
                                 b_gamma=p["decay.b_gamma"])
        self.flat = p.flat


def init_model(config: ModelConfig, means: EmpiricalMeans | None = None) -> ModelState:
    """Fresh parameters: orthogonal weight matrices, zero biases.

    Decay weights start at one and decay biases at zero (the 1-D analogue
    of an orthogonal diagonal), so early training sees a bounded,
    non-degenerate decay profile. Means default to zero when no cohort
    statistics are supplied.
    """
    rng = rng_stream(config.seed, "init")
    params = _zero_store(config)
    for name, shape in params.shapes.items():
        if len(shape) == 2:
            params[name][...] = orthogonal_init(*shape, rng)
    params["decay.w_gamma"][...] = 1.0
    if means is None:
        means = EmpiricalMeans(means=np.zeros(config.input_size))
    return ModelState(config=config, params=params, means=means)


LAYER_FIELDS = tuple(f.name for f in fields(GruParams))


def named_parameters(state: ModelState) -> list[tuple[str, np.ndarray]]:
    """Canonical (name, array) walk over every trainable tensor.

    Arrays are the live model buffers, so in-place updates through this
    view update the model.
    """
    return list(state.params.items())


@lru_cache(maxsize=64)
def _shapes(d: int, c: int, h: int, num_layers: int) -> Mapping[str, tuple[int, ...]]:
    shapes = {}
    for i in range(num_layers):
        by_kind = {"W": (h, d if i == 0 else h), "U": (h, h), "b": (h,)}
        for field_name in LAYER_FIELDS:
            shapes[f"layers.{i}.{field_name}"] = by_kind[field_name[0]]
    shapes["head.W_code"] = (c, h)
    shapes["head.b_code"] = (c,)
    shapes["decay.w_gamma"] = (d,)
    shapes["decay.b_gamma"] = (d,)
    return MappingProxyType(shapes)


def _parameter_shapes(config: ModelConfig) -> Mapping[str, tuple[int, ...]]:
    """Expected shape of every tensor, keyed and ordered as named_parameters
    (a read-only map, cached per architecture)."""
    return _shapes(config.input_size, config.num_codes, config.hidden_size,
                   config.num_layers)


def _zero_store(config: ModelConfig) -> FlatTensors:
    shapes = _parameter_shapes(config)
    return FlatTensors(np.zeros(sum(math.prod(s) for s in shapes.values())),
                       shapes)


def state_from_tensors(config: ModelConfig, tensors: Mapping[str, np.ndarray],
                       means: EmpiricalMeans, step_count: int = 0) -> ModelState:
    """Build a validated state from a name -> array map.

    The map must hold exactly the names named_parameters yields for this
    config, each with the shape the config implies and finite values;
    errors name the offending tensor. The arrays are copied into a new
    flat store, so the state shares no memory with them.
    """
    params = _zero_store(config)
    for name in params:
        if name not in tensors:
            raise ValidationError(f"missing tensor {name!r}")
    extra = set(tensors) - set(params)
    if extra:
        raise ValidationError(f"unexpected tensors: {sorted(extra)}")
    for name, shape in params.shapes.items():
        arr = np.asarray(tensors[name], dtype=float)
        if arr.shape != shape:
            raise ValidationError(
                f"tensor {name!r} has shape {arr.shape}, expected {shape}")
        if not np.isfinite(arr).all():
            raise ValidationError(f"tensor {name!r} contains non-finite entries")
        params[name][...] = arr
    return ModelState(config=config, params=params, means=means,
                      step_count=step_count)


def _check_variables(state: ModelState, series: Sequence[VisitSeries]) -> None:
    for s in series:
        if s.num_variables != state.config.input_size:
            raise ValidationError(
                f"patient {s.patient_id!r}: series has {s.num_variables} "
                f"variables, model expects {state.config.input_size}")


def impute_series(state: ModelState, series: VisitSeries | Sequence[VisitSeries],
                  ) -> ImputationCache:
    """Fill missing cells per the configured imputation mode, for one
    series or a padded block (temporal.impute_with_cache); mean mode
    leaves the cache's decay fields None."""
    _check_variables(state, [series] if isinstance(series, VisitSeries) else series)
    decay = state.decay if state.config.imputation == "decay" else None
    return impute_with_cache(series, decay, state.means)


def forward_series(state: ModelState, series: VisitSeries, noise: SequenceNoise,
                   ) -> tuple[ImputationCache, ForwardCache]:
    """Imputation and the forward pass under the given noise."""
    imp = impute_series(state, series)
    return imp, forward_sequence(state.config, state.layers, imp.inputs, noise)


def eval_forward(state: ModelState, series: VisitSeries | Sequence[VisitSeries],
                 ) -> ForwardCache:
    """Deterministic forward pass: noise and dropout off.

    One series runs as itself, its cache (T, H) per layer; a list runs as
    one padded time-major block, its cache (T, B, H) with T the longest
    length.
    """
    inputs = impute_series(state, series).inputs
    return forward_sequence(state.config, state.layers, inputs)


def score_series(state: ModelState, series: VisitSeries | Sequence[VisitSeries],
                 ) -> tuple[np.ndarray, np.ndarray] | list[tuple[np.ndarray, np.ndarray]]:
    """Eval-mode next-visit probabilities and their binary targets.

    One series gives (probs, targets), each (T-1, C); a single-visit
    series yields empty arrays since it has no next visit to predict. A
    list is scored as one padded block through one eval_forward and
    gives one such pair per series, in list order; a block of several
    series may round the last bits of a score differently from that
    series scored alone. A series whose code count is not the model's
    is rejected, naming the patient.
    """
    block = [series] if isinstance(series, VisitSeries) else list(series)
    codes = state.config.num_codes
    for s in block:
        if s.num_codes != codes:
            raise ValidationError(f"patient {s.patient_id!r}: series has "
                                  f"{s.num_codes} codes, model expects {codes}")
    top = eval_forward(state, block).top[:-1]
    probs = head_probs(state.head, top.reshape(-1, top.shape[-1]))
    probs = probs.reshape(top.shape[:2] + (codes,))
    pairs = [(probs[:s.num_steps - 1, i], s.labels[1:].astype(float))
             for i, s in enumerate(block)]
    return pairs[0] if isinstance(series, VisitSeries) else pairs


def predict_next(state: ModelState, series: VisitSeries) -> np.ndarray:
    """Code probabilities for the visit after the series' last one."""
    fwd = eval_forward(state, series)
    return head_probs(state.head, fwd.top[-1:])[0]
