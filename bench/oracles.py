"""Correctness oracles and checks, written apart from the program.

The reference forward is built from the paper's equations and reads the
parameters straight from the checkpoint JSON, so it shares no code with
robustseq: per-variable gaps, decay gamma = exp(-max(0, w * delta + b)),
the decayed fill toward the training mean, the GRU step, and the sigmoid
head. The AUC oracle is the Mann-Whitney rank sum; the top-k oracle
sorts each row by hand. Every check raises CheckFailed with what it saw.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np
from scipy.stats import rankdata

PROB_CLAMP = 1e-12  # the head's documented clamp of probabilities


class CheckFailed(AssertionError):
    pass


def _sigmoid(a: np.ndarray) -> np.ndarray:
    return np.exp(-np.logaddexp(0.0, -a))


def checkpoint_tensors(doc: dict) -> dict[str, np.ndarray]:
    return {name: np.asarray(t["values"], dtype=float).reshape(t["dims"])
            for name, t in doc["tensors"].items()}


def reference_inputs(doc: dict, series) -> np.ndarray:
    """Model inputs after imputation, one visit and variable at a time."""
    cfg = doc["model_config"]
    means = np.asarray(doc["means"]["values"], dtype=float)
    tensors = checkpoint_tensors(doc)
    w, b = tensors["decay.w_gamma"], tensors["decay.b_gamma"]
    ts, values, mask = series.timestamps, series.values, series.mask
    t_len, d = values.shape
    x = np.empty((t_len, d))
    for j in range(d):
        last = None
        delta = 0.0
        for t in range(t_len):
            if t > 0:
                gap = ts[t] - ts[t - 1]
                delta = gap if mask[t - 1, j] > 0 else gap + delta
            if mask[t, j] > 0:
                x[t, j] = values[t, j]
                last = values[t, j]
            elif last is None or cfg["imputation"] == "mean":
                x[t, j] = means[j]
            else:
                gamma = math.exp(-max(0.0, w[j] * delta + b[j]))
                x[t, j] = gamma * last + (1.0 - gamma) * means[j]
    return x


def reference_probs(doc: dict, series) -> np.ndarray:
    """Eval-mode code probabilities after every visit, shape (T, C).

    Row t scores the visit after visit t. Evaluation draws no noise and
    applies no inter-layer dropout: both have mean 1.
    """
    cfg = doc["model_config"]
    p = checkpoint_tensors(doc)
    x = reference_inputs(doc, series)
    t_len = x.shape[0]
    hidden = cfg["hidden_size"]
    h = [np.zeros(hidden) for _ in range(cfg["num_layers"])]
    out = np.empty((t_len, cfg["num_codes"]))
    for t in range(t_len):
        below = x[t]
        for li in range(cfg["num_layers"]):
            g = lambda k: p[f"layers.{li}.{k}"]  # noqa: E731
            hp = h[li]
            z = _sigmoid(g("W_z") @ below + g("U_z") @ hp + g("b_z"))
            r = _sigmoid(g("W_r") @ below + g("U_r") @ hp + g("b_r"))
            c = np.tanh(g("W_h") @ below + g("U_h") @ (r * hp) + g("b_h"))
            h[li] = (1.0 - z) * hp + z * c
            below = h[li]
        logits = p["head.W_code"] @ below + p["head.b_code"]
        out[t] = np.clip(_sigmoid(logits), PROB_CLAMP, 1.0 - PROB_CLAMP)
    return out


def rank_sum_auc(scores, labels) -> float:
    """Mann-Whitney U over the pooled cells, ties at average rank."""
    s = np.asarray(scores, dtype=float).ravel()
    pos = np.asarray(labels, dtype=float).ravel() == 1.0
    n_pos = int(pos.sum())
    n_neg = s.size - n_pos
    ranks = rankdata(s)
    u = float(ranks[pos].sum()) - n_pos * (n_pos + 1) / 2.0
    return u / (n_pos * n_neg)


def brute_top_k_recall(scores, labels, k: int) -> float:
    """Pooled recall@k, sorting each row by hand; ties go to the lower code."""
    hits = 0.0
    total = 0.0
    for srow, lrow in zip(np.asarray(scores).tolist(), np.asarray(labels).tolist()):
        top = sorted(range(len(srow)), key=lambda j: (-srow[j], j))[:k]
        hits += sum(lrow[j] for j in top)
        total += sum(lrow)
    return hits / total


def check_forward(doc: dict, series, probs, next_probs, tol: float = 1e-9) -> float:
    """score_series rows and predict_next against the reference forward."""
    ref = reference_probs(doc, series)
    probs = np.asarray(probs)
    if probs.shape != ref[:-1].shape:
        raise CheckFailed(f"{series.patient_id}: score_series shape {probs.shape},"
                          f" reference {ref[:-1].shape}")
    err = max(float(np.max(np.abs(probs - ref[:-1]), initial=0.0)),
              float(np.max(np.abs(np.asarray(next_probs) - ref[-1]))))
    if not err <= tol:
        raise CheckFailed(f"{series.patient_id}: forward differs from the "
                          f"reference by {err:.3e} > {tol:.0e}")
    return err


def check_auc(scores, labels, auc: float, tol: float = 1e-12) -> float:
    ref = rank_sum_auc(scores, labels)
    if not abs(ref - auc) <= tol:
        raise CheckFailed(f"micro_auc {auc!r} differs from the rank-sum AUC {ref!r}")
    return ref


def check_top_k(scores, labels, k: int, recall: float, tol: float = 1e-12) -> float:
    ref = brute_top_k_recall(scores, labels, k)
    if not abs(ref - recall) <= tol:
        raise CheckFailed(f"top_k_recall@{k} {recall!r} differs from brute force {ref!r}")
    return ref


def check_auc_bounds(auc: float, floor: float, oracle_auc: float) -> None:
    if not floor < auc <= oracle_auc:
        raise CheckFailed(f"held-out AUC {auc!r} outside ({floor}, "
                          f"Bayes oracle {oracle_auc!r}]")


def check_loss_history(history) -> None:
    h = np.asarray(history, dtype=float)
    if h.size < 2 or not np.isfinite(h).all():
        raise CheckFailed(f"loss history must be finite and span 2+ epochs: {history}")
    if not h[-1] < h[0]:
        raise CheckFailed(f"last epoch loss {h[-1]!r} is not below the first {h[0]!r}")


def relative_error(analytic: float, fd: float) -> float:
    """|a - fd| on the scale of the larger of the two, floored at 1e-4."""
    return abs(analytic - fd) / max(abs(analytic), abs(fd), 1e-4)


def check_gradients(pairs, tol: float = 1e-4) -> float:
    """pairs: (label, analytic, finite difference) at sampled coordinates."""
    worst = 0.0
    for label, analytic, fd in pairs:
        err = relative_error(analytic, fd)
        if not err < tol:
            raise CheckFailed(f"gradient {label}: analytic {analytic!r}, "
                              f"finite difference {fd!r}, rel error {err:.3e}")
        worst = max(worst, err)
    return worst


def finite_difference_pairs(rs, state, series, l2: float, rng,
                            per_tensor: int = 2, step: float = 1e-5):
    """bptt_gradients against central differences of the loss.

    Noise is drawn once for the workload's own config and frozen, and the
    full sequence is backpropagated (a truncated carry is deliberately not
    the derivative of the loss). per_tensor coordinates of every tensor
    are sampled; a decay column with a cell within 1e-3 of the rectifier
    kink is not, since a difference there would straddle it. Returns
    (label, analytic, finite difference) triples.
    """
    config = state.config
    noise = rs.sample_sequence_noise(config, series.num_steps, rng)
    _, grads = rs.bptt_gradients(state, series, noise=noise, l2=l2)

    def loss() -> float:
        if config.imputation == "decay":
            x = rs.impute_inputs(series, state.decay, state.means)
        else:
            x = rs.mean_impute_inputs(series, state.means)
        fwd = rs.forward_sequence(config, state.layers, x, noise=noise)
        return rs.next_visit_loss(state.head, fwd.top, series.labels, l2).loss

    deltas = rs.compute_intervals(series)
    pre = state.decay.w_gamma * deltas + state.decay.b_gamma
    near_kink = (np.abs(pre) < 1e-3) & (deltas > 0)
    safe_cols = np.flatnonzero(~near_kink.any(axis=0))
    pairs = []
    for name, arr in rs.named_parameters(state):
        pool = safe_cols if name.startswith("decay.") else np.arange(arr.size)
        picks = rng.choice(pool, size=min(per_tensor, pool.size), replace=False)
        for flat in picks:
            ix = np.unravel_index(int(flat), arr.shape)
            orig = arr[ix]
            arr[ix] = orig + step
            up = loss()
            arr[ix] = orig - step
            down = loss()
            arr[ix] = orig
            pairs.append((f"{name}{[int(i) for i in ix]}", float(grads[name][ix]),
                          (up - down) / (2.0 * step)))
    return pairs


def _series_arrays(s):
    return (s.patient_id, s.timestamps, s.values, s.mask, s.labels,
            s.latent_states)


def check_cohort_roundtrip(written, read) -> None:
    """Every array of every patient comes back bit for bit (NaN = missing)."""
    if len(written) != len(read):
        raise CheckFailed(f"wrote {len(written)} patients, read {len(read)}")
    for a, b in zip(written, read):
        for x, y in zip(_series_arrays(a), _series_arrays(b)):
            same = (x == y) if isinstance(x, str) or x is None or y is None \
                else (x.shape == y.shape and x.dtype == y.dtype
                      and np.array_equal(x, y, equal_nan=True))
            if not same:
                raise CheckFailed(f"patient {a.patient_id!r} changed in the "
                                  "cohort round trip")


def check_checkpoint_roundtrip(rs, state, path: Path, resave_path: Path):
    """Load the checkpoint at path and compare it bit for bit with state.

    Returns the loaded state. Re-saving it must reproduce the file's bytes.
    """
    try:
        loaded = rs.load_checkpoint(path)
    except rs.ValidationError as e:
        raise CheckFailed(f"checkpoint does not load: {e}") from e
    if loaded.config != state.config or loaded.step_count != state.step_count:
        raise CheckFailed("checkpoint config or step count changed")
    tensors = dict(rs.named_parameters(loaded))
    pairs = [("means", state.means.means, loaded.means.means)]
    pairs += [(name, arr, tensors.get(name, np.empty(0)))
              for name, arr in rs.named_parameters(state)]
    for name, a, b in pairs:
        if a.shape != b.shape or a.tobytes() != b.tobytes():
            raise CheckFailed(f"tensor {name} changed in the checkpoint round trip")
    rs.save_checkpoint(loaded, resave_path, train_config=_train_config(rs, path))
    if Path(path).read_bytes() != Path(resave_path).read_bytes():
        raise CheckFailed("re-saving the loaded checkpoint changed its bytes")
    return loaded


def _train_config(rs, path: Path):
    raw = json.loads(Path(path).read_text())["train_config"]
    return None if raw is None else rs.TrainConfig(**raw)
