"""Synthetic cohort generation, cohort files, splits, and checkpoints.

The generator draws one latent Markov chain per patient; the chain state
drives both the Gaussian emission means of the observed variables and
the Bernoulli probabilities of the label codes, so next-visit codes are
learnable from the measurements. Missingness combines an MCAR floor with
an optional MNAR term that preferentially drops high-magnitude values.

Cohort files are newline-delimited records, one patient per line, after
a single header line carrying the variable/code counts. Checkpoints are
one structured document with explicit tensor dimensions and row-major
values; both formats round-trip floats exactly via shortest-repr text.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import asdict, dataclass, is_dataclass
from pathlib import Path

import numpy as np

from .errors import CheckpointError, ValidationError
from .gru import ModelConfig
from .model import ModelState, named_parameters, state_from_tensors
from .seeding import rng_stream
from .temporal import EmpiricalMeans, VisitSeries

EMISSION_SPREAD = 1.5   # sd of state-conditional means across states
EMISSION_NOISE = 0.5    # sd of a measurement around its state mean
GAP_FLOOR_HOURS = 0.1   # minimum gap between visits
GAP_MEAN_HOURS = 1.0    # exponential part of the gap
DROP_CAP = 0.95         # MNAR can never fully censor a variable

COHORT_FORMAT_VERSION = 1
CHECKPOINT_FORMAT_VERSION = 1


@dataclass
class GenConfig:
    """Synthetic cohort shape and missingness controls.

    ``patient_offset_scale`` adds a per-patient, per-variable constant
    baseline (sd in value units) under the state-dependent means:
    nuisance variation that individualizes measurements without touching
    the state-code law.
    """

    num_patients: int
    num_variables: int = 20
    num_codes: int = 10
    min_visits: int = 4
    max_visits: int = 12
    latent_states: int = 4
    missing_rate: float = 0.3
    mnar_strength: float = 0.0
    gap_state_coupling: float = 0.0
    self_transition: float = 0.95
    code_on: float = 0.97
    code_off: float = 0.02
    emission_spread: float = EMISSION_SPREAD
    emission_noise: float = EMISSION_NOISE
    patient_offset_scale: float = 0.0
    seed: int = 0

    def __post_init__(self):
        for name in ("mnar_strength", "gap_state_coupling", "emission_spread",
                     "emission_noise", "patient_offset_scale"):
            if not math.isfinite(getattr(self, name)):
                raise ValidationError(f"{name} must be finite")
        if self.num_patients < 1:
            raise ValidationError("num_patients must be >= 1")
        if self.num_variables < 1 or self.num_codes < 1 or self.latent_states < 1:
            raise ValidationError("dimensions must be >= 1")
        if self.min_visits < 2:
            raise ValidationError("min_visits must be >= 2 (next-visit targets)")
        if self.max_visits < self.min_visits:
            raise ValidationError("max_visits must be >= min_visits")
        if not 0.0 <= self.missing_rate < 1.0:
            raise ValidationError("missing_rate must lie in [0, 1)")
        if self.mnar_strength < 0.0:
            raise ValidationError("mnar_strength must be non-negative")
        if self.gap_state_coupling < 0.0:
            raise ValidationError("gap_state_coupling must be non-negative")
        if not 0.0 < self.self_transition <= 1.0:
            raise ValidationError("self_transition must lie in (0, 1]")
        for p in (self.code_on, self.code_off):
            if not 0.0 <= p <= 1.0:
                raise ValidationError("code probabilities must lie in [0, 1]")
        if self.emission_spread <= 0.0 or self.emission_noise <= 0.0:
            raise ValidationError("emission scales must be positive")
        if self.patient_offset_scale < 0.0:
            raise ValidationError("patient_offset_scale must be non-negative")


def state_code_probs(gen: GenConfig) -> np.ndarray:
    """(K, C) matrix of P(code active | latent state).

    Code c belongs to state c mod K, giving every state a distinct block
    of high-probability codes; all other codes fire at the low rate.
    """
    probs = np.full((gen.latent_states, gen.num_codes), gen.code_off)
    for c in range(gen.num_codes):
        probs[c % gen.latent_states, c] = gen.code_on
    return probs


def state_emission_means(gen: GenConfig) -> np.ndarray:
    """(K, D) state-conditional measurement means, shared by the cohort."""
    rng = rng_stream(gen.seed, "generator", "emissions")
    return gen.emission_spread * rng.standard_normal(
        (gen.latent_states, gen.num_variables))


def state_gap_scales(gen: GenConfig) -> np.ndarray:
    """(K,) mean inter-visit gap by latent state.

    With zero coupling every state shares GAP_MEAN_HOURS; otherwise the
    scales fan out geometrically around it, making visit timing itself
    informative of the underlying state.
    """
    k = gen.latent_states
    if k == 1:
        offsets = np.zeros(1)
    else:
        offsets = np.linspace(-0.5, 0.5, k)
    return GAP_MEAN_HOURS * np.exp(gen.gap_state_coupling * offsets)


def generate_cohort(gen: GenConfig) -> list[VisitSeries]:
    """Sample a cohort; identical configs give identical cohorts.

    Per-patient draw order is fixed (visit count, states, gaps, baseline,
    values, labels, missingness) and each patient owns a seeded stream, so
    the cohort is reproducible and insensitive to generation order.
    """
    probs = state_code_probs(gen)
    mus = state_emission_means(gen)
    gap_scales = state_gap_scales(gen)
    k = gen.latent_states
    cohort = []
    for i in range(gen.num_patients):
        rng = rng_stream(gen.seed, "generator", "patient", i)
        t_len = int(rng.integers(gen.min_visits, gen.max_visits + 1))
        states = np.empty(t_len, dtype=int)
        states[0] = rng.integers(k)
        for t in range(1, t_len):
            if k == 1 or rng.random() < gen.self_transition:
                states[t] = states[t - 1]
            else:
                hop = rng.integers(k - 1)
                states[t] = hop if hop < states[t - 1] else hop + 1
        gaps = GAP_FLOOR_HOURS + rng.exponential(1.0, t_len - 1) * gap_scales[states[:-1]]
        timestamps = np.concatenate([[0.0], np.cumsum(gaps)])
        baseline = gen.patient_offset_scale * rng.standard_normal(gen.num_variables)
        values = baseline + mus[states] + gen.emission_noise * rng.standard_normal(
            (t_len, gen.num_variables))
        labels = (rng.random((t_len, gen.num_codes)) < probs[states]).astype(float)
        drop = gen.missing_rate + gen.mnar_strength * (
            np.abs(values) / (1.0 + np.abs(values)))
        drop = np.minimum(drop, DROP_CAP)
        mask = (rng.random((t_len, gen.num_variables)) >= drop).astype(float)
        cohort.append(VisitSeries(
            timestamps=timestamps, values=values, mask=mask, labels=labels,
            patient_id=f"p{i:05d}", latent_states=states))
    return cohort


def split_cohort(cohort: list[VisitSeries], fraction: float,
                 seed: int) -> tuple[list[VisitSeries], list[VisitSeries]]:
    """Seeded shuffle, then prefix split by patient."""
    if not 0.0 < fraction < 1.0:
        raise ValidationError("fraction must lie in (0, 1)")
    n = len(cohort)
    n_train = int(round(fraction * n))
    if n_train == 0 or n_train == n:
        raise ValidationError(
            f"fraction {fraction} leaves an empty side for {n} patients")
    perm = rng_stream(seed, "split").permutation(n)
    train = [cohort[int(i)] for i in perm[:n_train]]
    test = [cohort[int(i)] for i in perm[n_train:]]
    return train, test


def _dump(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def save_cohort(cohort: list[VisitSeries], path: str | Path) -> None:
    """Write header plus one patient record per line.

    Missing cells are represented by absent observation keys; floats are
    written with shortest round-tripping repr, so save -> load is exact.
    """
    if not cohort:
        raise ValidationError("refusing to write an empty cohort")
    d = cohort[0].num_variables
    c = cohort[0].num_codes
    lines = [_dump({"record": "cohort", "format_version": COHORT_FORMAT_VERSION,
                    "num_variables": d, "num_codes": c})]
    for series in cohort:
        if series.num_variables != d or series.num_codes != c:
            raise ValidationError(
                f"patient {series.patient_id!r} disagrees with cohort dimensions")
        values, mask = series.values.tolist(), series.mask.tolist()
        visits = [{"time_hours": time,
                   "observations": {str(j): v for j, (v, m)
                                    in enumerate(zip(row, seen)) if m > 0}}
                  for time, row, seen in zip(series.timestamps.tolist(),
                                             values, mask)]
        record = {
            "patient_id": series.patient_id,
            "visits": visits,
            "labels": [[j for j, x in enumerate(row) if x]
                       for row in series.labels.tolist()],
        }
        if series.latent_states is not None:
            record["latent_states"] = series.latent_states.tolist()
        lines.append(_dump(record))
    _write_text(path, "\n".join(lines) + "\n")


def _write_text(path: str | Path, text: str) -> None:
    """Replace path's contents with text, never leaving it half-written.

    The text goes to a new file beside the target, which is then renamed
    over it, so a failed or killed write leaves the previous file intact.
    Durability across power loss (fsync) is not attempted.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.urandom(6).hex()}.tmp")
    try:
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as f:
                f.write(text)
            os.replace(tmp, path)
        except BaseException:
            tmp.unlink(missing_ok=True)
            raise
    except OSError as e:
        raise ValidationError(f"cannot write {path}: {e}") from e


def _read_text(path: str | Path) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as e:
        raise ValidationError(f"cannot read {path}: {e}") from e


def _parse_error(line_no: int, patient: str | None, msg: str) -> ValidationError:
    who = f" patient {patient!r}" if patient else ""
    return ValidationError(f"line {line_no}{who}: {msg}")


def load_cohort(path: str | Path) -> list[VisitSeries]:
    """Parse a cohort file back into validated series."""
    text = _read_text(path)
    lines = text.splitlines()
    if not lines:
        raise ValidationError(f"{path}: empty cohort file")
    try:
        header = json.loads(lines[0])
    except json.JSONDecodeError as e:
        raise _parse_error(1, None, f"malformed header: {e}") from e
    if not isinstance(header, dict) or header.get("record") != "cohort":
        raise _parse_error(1, None, "expected a cohort header record")
    if header.get("format_version") != COHORT_FORMAT_VERSION:
        raise _parse_error(1, None,
                           f"unsupported format_version {header.get('format_version')!r}")
    d, c = header.get("num_variables"), header.get("num_codes")
    if not (isinstance(d, int) and d >= 1 and isinstance(c, int) and c >= 1):
        raise _parse_error(1, None, "header needs positive num_variables/num_codes")

    cohort = []
    for line_no, raw in enumerate(lines[1:], start=2):
        if not raw.strip():
            continue
        try:
            rec = json.loads(raw)
        except json.JSONDecodeError as e:
            raise _parse_error(line_no, None, f"malformed record: {e}") from e
        pid = rec.get("patient_id") if isinstance(rec, dict) else None
        if not isinstance(rec, dict) or not isinstance(pid, str):
            raise _parse_error(line_no, None, "record needs a string patient_id")
        visits = rec.get("visits")
        label_lists = rec.get("labels")
        if not isinstance(visits, list) or not visits:
            raise _parse_error(line_no, pid, "record needs a non-empty visits list")
        if not isinstance(label_lists, list) or len(label_lists) != len(visits):
            raise _parse_error(line_no, pid, "labels must align with visits")
        t_len = len(visits)
        timestamps = np.empty(t_len)
        values = np.full((t_len, d), np.nan)
        mask = np.zeros((t_len, d))
        labels = np.zeros((t_len, c))
        for t, visit in enumerate(visits):
            if not isinstance(visit, dict) or "time_hours" not in visit:
                raise _parse_error(line_no, pid, f"visit {t} needs time_hours")
            try:
                timestamps[t] = float(visit["time_hours"])
            except (TypeError, ValueError):
                raise _parse_error(line_no, pid,
                                   f"visit {t} time_hours is not a number")
            obs = visit.get("observations", {})
            if not isinstance(obs, dict):
                raise _parse_error(line_no, pid, f"visit {t} observations must be a map")
            for key, val in obs.items():
                try:
                    j = int(key)
                except ValueError:
                    raise _parse_error(line_no, pid,
                                       f"observation key {key!r} is not an index")
                if not 0 <= j < d:
                    raise _parse_error(
                        line_no, pid,
                        f"variable index {j} out of range for {d} variables")
                try:
                    values[t, j] = float(val)
                except (TypeError, ValueError):
                    raise _parse_error(line_no, pid,
                                       f"observation {key!r} is not a number")
                mask[t, j] = 1.0
            if not isinstance(label_lists[t], list):
                raise _parse_error(line_no, pid, f"labels[{t}] must be a list")
            for code in label_lists[t]:
                if not isinstance(code, int) or not 0 <= code < c:
                    raise _parse_error(line_no, pid,
                                       f"code index {code!r} out of range for {c} codes")
                labels[t, code] = 1.0
        latent = rec.get("latent_states")
        if latent is not None and (not isinstance(latent, list)
                                   or len(latent) != t_len):
            raise _parse_error(line_no, pid, "latent_states must align with visits")
        if latent is not None and any(isinstance(k, bool) or not isinstance(k, int)
                                      for k in latent):
            raise _parse_error(line_no, pid, "latent_states entries must be integers")
        try:
            cohort.append(VisitSeries(
                timestamps=timestamps, values=values, mask=mask, labels=labels,
                patient_id=pid,
                latent_states=None if latent is None else np.asarray(latent, dtype=int)))
        except ValidationError as e:
            raise _parse_error(line_no, pid, str(e)) from e
    if not cohort:
        raise ValidationError(f"{path}: cohort file has no patient records")
    return cohort


def _tensor_doc(arr: np.ndarray) -> dict:
    return {"dims": list(arr.shape), "values": arr.ravel().tolist()}


def _tensor_from_doc(name: str, doc) -> np.ndarray:
    if not isinstance(doc, dict) or "dims" not in doc or "values" not in doc:
        raise CheckpointError(f"tensor {name!r} needs dims and values")
    try:
        dims = tuple(int(x) for x in doc["dims"])
        values = np.asarray(doc["values"], dtype=float)
    except (TypeError, ValueError) as e:
        raise CheckpointError(f"tensor {name!r}: non-numeric dims or values") from e
    if any(n < 0 for n in dims) or values.size != int(np.prod(dims)):
        raise CheckpointError(
            f"tensor {name!r}: {values.size} values do not fill dims {list(dims)}")
    return values.reshape(dims)


def save_checkpoint(state: ModelState, path: str | Path,
                    train_config=None) -> None:
    """Persist config, means, and every parameter tensor as one document."""
    doc = {
        "format_version": CHECKPOINT_FORMAT_VERSION,
        "model_config": asdict(state.config),
        "train_config": asdict(train_config) if is_dataclass(train_config) else None,
        "step_count": state.step_count,
        "means": _tensor_doc(state.means.means),
        "tensors": {name: _tensor_doc(arr)
                    for name, arr in named_parameters(state)},
    }
    _write_text(path, _dump(doc) + "\n")


def load_checkpoint(path: str | Path) -> ModelState:
    """Rebuild a ModelState; every stored byte is checked for consistency."""
    try:
        doc = json.loads(_read_text(path))
    except json.JSONDecodeError as e:
        raise CheckpointError(f"{path}: corrupted checkpoint: {e}") from e
    if not isinstance(doc, dict):
        raise CheckpointError(f"{path}: checkpoint must be a document")
    version = doc.get("format_version")
    if version != CHECKPOINT_FORMAT_VERSION:
        raise CheckpointError(
            f"{path}: unsupported format_version {version!r} "
            f"(expected {CHECKPOINT_FORMAT_VERSION})")
    raw_config = doc.get("model_config")
    if not isinstance(raw_config, dict):
        raise CheckpointError(f"{path}: missing model_config")
    try:
        config = ModelConfig(**raw_config)
    except (TypeError, ValidationError) as e:
        raise CheckpointError(f"{path}: bad model_config: {e}") from e
    means_arr = _tensor_from_doc("means", doc.get("means"))
    step_count = doc.get("step_count", 0)
    if isinstance(step_count, bool) or not isinstance(step_count, int) \
            or step_count < 0:
        raise CheckpointError(
            f"{path}: step_count must be a non-negative integer, "
            f"got {step_count!r}")
    tensors_doc = doc.get("tensors")
    if not isinstance(tensors_doc, dict):
        raise CheckpointError(f"{path}: missing tensors")
    tensors = {name: _tensor_from_doc(name, td) for name, td in tensors_doc.items()}
    try:
        return state_from_tensors(config, tensors, EmpiricalMeans(means=means_arr),
                                  step_count)
    except ValidationError as e:
        raise CheckpointError(f"{path}: {e}") from e
