"""Shared builders for randomized series and small cohorts, and
test-local references: a GRU step written out from its formula, a
one-vector noise sampler, a parameter snapshot, and the gradient audit
with every perturbed loss a full forward pass."""

import numpy as np
import pytest
from scipy.special import expit

from robustseq.model import forward_series, named_parameters
from robustseq.objective import next_visit_loss
from robustseq.temporal import VisitSeries
from robustseq.training import GradCheckReport, bptt_gradients


def reference_gru_step(p, x, h_prev):
    """The GRU step as the formula reads, independent of the library's
    kernel: z, r, candidate, convex combination."""
    z = expit(p.W_z @ x + p.U_z @ h_prev + p.b_z)
    r = expit(p.W_r @ x + p.U_r @ h_prev + p.b_r)
    c = np.tanh(p.W_h @ x + p.U_h @ (r * h_prev) + p.b_h)
    return (1 - z) * h_prev + z * c


def sample_noise(spec, size, rng):
    """Draw one noise vector; every component has expectation 1."""
    if spec.mode == "eval":
        return np.ones(size)
    if spec.kind == "scaled_bernoulli":
        keep = rng.random(size) >= spec.drop_prob
        return keep / (1.0 - spec.drop_prob)
    return 1.0 + spec.sigma * rng.standard_normal(size)


def clone_parameters(state):
    return {name: arr.copy() for name, arr in named_parameters(state)}


def loss_under_noise(state, series, noise, l2=0.0):
    """Forward-only loss under frozen noise: imputation and every layer
    rerun from the current parameters."""
    _, fwd = forward_series(state, series, noise)
    return next_visit_loss(state.head, fwd.top, series.labels, l2).loss


def reference_gradcheck(state, series, noise, l2=0.0, step=1e-5):
    """finite_difference_check's report, computed the naive way, and the
    (up, down) perturbed losses of every coordinate in order: each from a
    full loss_under_noise pass."""
    loss, grads = bptt_gradients(state, series, noise, l2=l2)
    per, probes = {}, []
    for name, arr in named_parameters(state):
        worst = 0.0
        for ix in np.ndindex(arr.shape):
            orig = arr[ix]
            arr[ix] = orig + step
            up = loss_under_noise(state, series, noise, l2)
            arr[ix] = orig - step
            down = loss_under_noise(state, series, noise, l2)
            arr[ix] = orig
            probes += [up, down]
            fd = (up - down) / (2.0 * step)
            a = float(grads[name][ix])
            worst = max(worst, abs(a - fd) / max(abs(a), abs(fd), 1e-4))
        per[name] = worst
    report = GradCheckReport(max_rel_error=max(per.values()), per_tensor=per,
                             loss=loss, num_parameters=grads.flat.size)
    return report, probes


def random_series(rng, t_len=6, d=4, c=3, patient_id="p0", with_states=False,
                  observed_rate=0.7):
    timestamps = np.concatenate([[0.0], np.cumsum(0.1 + rng.exponential(1.0, t_len - 1))])
    values = rng.standard_normal((t_len, d))
    mask = (rng.random((t_len, d)) < observed_rate).astype(float)
    labels = (rng.random((t_len, c)) < 0.4).astype(float)
    states = rng.integers(0, 3, t_len) if with_states else None
    return VisitSeries(timestamps=timestamps, values=values, mask=mask,
                       labels=labels, patient_id=patient_id,
                       latent_states=states)


def random_cohort(rng, n=8, d=4, c=3, max_len=7):
    return [random_series(rng, t_len=int(rng.integers(2, max_len + 1)), d=d,
                          c=c, patient_id=f"p{i:03d}") for i in range(n)]


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
