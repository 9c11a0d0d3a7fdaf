"""Acceptance gate: one test per shipped guarantee.

Each test prints a single ``criterion N (label): PASS|FAIL`` line on the
real terminal (bypassing capture) so a ``pytest -v`` run yields a
readable scorecard. Tolerances are pinned here and nowhere else; the
heavier criteria share one generated benchmark cohort.
"""

import time
from contextlib import contextmanager

import numpy as np
import pytest

from robustseq.cli import main
from robustseq.data_io import (GenConfig, generate_cohort, load_checkpoint,
                               save_checkpoint)
from robustseq.experiments import (BERNOULLI_DROPS, GAUSSIAN_SIGMAS, DESK_LR,
                                   bayes_oracle_scores, desk_gen_config,
                                   format_table, noise_sweep,
                                   robust_model_config, robustness_benchmark)
from robustseq.gru import (ModelConfig, NoiseSpec, SequenceNoise, gru_step,
                           noisy_gru_step)
from robustseq.metrics import micro_auc, top_k_recall
from robustseq.model import (eval_forward, forward_series, impute_series,
                             init_model, named_parameters,
                             orthonormality_residual, score_series)
from robustseq.seeding import rng_stream
from robustseq.temporal import DecayParams, VisitSeries, decay_rates
from robustseq.training import (TrainConfig, default_gradcheck_setup,
                                finite_difference_check, train)

from conftest import random_series

GRADCHECK_TOL = 1e-4
GRADCHECK_BUDGET_S = 60.0
LOSS_RATIO_BOUND = 0.50
TRAIN_BUDGET_S = 600.0
BENCH_MIN_WINS = 4
ORTHO_TOL = 1e-8


@pytest.fixture
def announce(capsys):
    """Context manager printing the criterion verdict past pytest capture."""

    @contextmanager
    def _named(number, label):
        try:
            yield
        except BaseException:
            with capsys.disabled():
                print(f"\ncriterion {number} ({label}): FAIL", flush=True)
            raise
        with capsys.disabled():
            print(f"\ncriterion {number} ({label}): PASS", flush=True)

    return _named


@pytest.fixture(scope="module")
def bench_cohort():
    cohort = generate_cohort(desk_gen_config())
    scores, labels = bayes_oracle_scores(desk_gen_config(), cohort)
    assert micro_auc(scores, labels) > 0.9  # generated task is learnable
    return cohort


def test_criterion_1_gradient_fidelity(announce):
    with announce(1, "gradient fidelity"):
        state, series, noise = default_gradcheck_setup(seed=1)
        assert state.config.input_size == 5
        assert state.config.hidden_size == 7
        assert state.config.num_codes == 4
        assert state.config.num_layers == 2
        assert series.num_steps == 6
        started = time.monotonic()
        report = finite_difference_check(state, series, noise, l2=1e-3,
                                         step=1e-5)
        elapsed = time.monotonic() - started
        assert report.max_rel_error < GRADCHECK_TOL, report.per_tensor
        assert elapsed < GRADCHECK_BUDGET_S


def test_criterion_2_noise_factoring(announce):
    with announce(2, "noise factoring"):
        rng = rng_stream(7, "acceptance", "factoring")
        params = None
        for trial in range(1000):
            if trial % 50 == 0:
                config = ModelConfig(input_size=6, num_codes=3, hidden_size=5,
                                     seed=int(rng.integers(2 ** 31)))
                params = init_model(config).layers[0]
            x = rng.standard_normal(6)
            h = rng.standard_normal(5)
            eps = rng.choice([0.0, 1.5], size=5) if trial % 2 else \
                rng.normal(1.0, 1.1, size=5)
            noisy = noisy_gru_step(params, x, h, eps)
            assert np.array_equal(noisy, eps * gru_step(params, x, h))

        config = ModelConfig(
            input_size=4, num_codes=3, hidden_size=6, num_layers=2,
            interlayer_dropout=0.0,
            noise=NoiseSpec(kind="scaled_bernoulli", drop_prob=0.33,
                            mode="train"),
            seed=3)
        state = init_model(config)
        series = random_series(np.random.default_rng(5), t_len=7, d=4, c=3)
        unit = SequenceNoise.ones(2, series.num_steps, 6)
        _, train_fwd = forward_series(state, series, noise=unit)
        eval_fwd = eval_forward(state, series)
        assert np.array_equal(train_fwd.top, eval_fwd.top)
        for lt, le in zip(train_fwd.layers, eval_fwd.layers):
            assert np.array_equal(lt.h, le.h)


def test_criterion_3_decay_contract(announce):
    with announce(3, "decay contract"):
        rng = rng_stream(11, "acceptance", "decay")
        checked = 0
        for _ in range(100):
            deltas = np.where(rng.random((10, 10)) < 0.2, 0.0,
                              rng.exponential(2.0, (10, 10)))
            params = DecayParams(w_gamma=rng.normal(0.0, 2.0, 10),
                                 b_gamma=rng.normal(0.0, 2.0, 10))
            gamma = decay_rates(deltas, params)
            assert np.all(gamma > 0.0)
            assert np.all(gamma <= 1.0)
            checked += gamma.size

            nonneg = DecayParams(w_gamma=np.abs(params.w_gamma),
                                 b_gamma=params.b_gamma.copy())
            ordered = np.sort(deltas, axis=0)
            assert np.all(np.diff(decay_rates(ordered, nonneg), axis=0) <= 0.0)
        assert checked >= 10_000

        state = init_model(ModelConfig(input_size=8, num_codes=3,
                                       hidden_size=4, seed=2))
        state.means.means[:] = rng.standard_normal(8)
        for trial in range(20):
            series = random_series(rng, t_len=6, d=8, c=3,
                                   observed_rate=0.5)
            cache = impute_series(state, series)
            observed = series.mask == 1.0
            assert np.array_equal(cache.inputs[observed],
                                  series.values[observed])


def test_criterion_4_metric_oracles(announce):
    def brute_force_auc(scores, labels, ties):
        pos = scores[labels == 1.0]
        neg = scores[labels == 0.0]
        beats = pos[:, None] > neg[None, :]
        tied = pos[:, None] == neg[None, :]
        credit = 1.0 if ties == "positive" else 0.5
        return (beats.sum() + credit * tied.sum()) / (pos.size * neg.size)

    with announce(4, "metric oracles"):
        rng = rng_stream(13, "acceptance", "metrics")
        done = 0
        while done < 200:
            n = int(rng.integers(1, 40))
            c = int(rng.integers(1, 26))
            if n * c > 1000:
                continue
            scores = np.round(rng.random((n, c)), 1)  # coarse grid forces ties
            labels = (rng.random((n, c)) < 0.35).astype(float)
            if labels.sum() in (0.0, float(labels.size)):
                continue
            for ties in ("positive", "half"):
                assert micro_auc(scores, labels, ties=ties) == \
                    brute_force_auc(scores, labels, ties)
            done += 1

        scores = np.array([[0.7, 0.5, 0.9]])
        labels = np.array([[1.0, 0.0, 0.0]])
        assert micro_auc(scores, labels) == 0.5

        scores = np.array([[0.9, 0.8, 0.1, 0.7], [0.9, 0.8, 0.2, 0.1]])
        labels = np.array([[1.0, 0.0, 0.0, 1.0], [1.0, 1.0, 0.0, 0.0]])
        assert top_k_recall(scores, labels, 2) == 0.75
        tied = np.array([[0.5, 0.5, 0.5]])
        tied_labels = np.array([[0.0, 1.0, 1.0]])
        assert top_k_recall(tied, tied_labels, 1) == 0.0
        assert top_k_recall(tied, tied_labels, 2) == 0.5

        for _ in range(100):
            n = int(rng.integers(1, 8))
            c = int(rng.integers(2, 9))
            scores = rng.random((n, c))
            labels = (rng.random((n, c)) < 0.3).astype(float)
            if labels.sum() == 0:
                labels[0, 0] = 1.0
            curve = [top_k_recall(scores, labels, k) for k in range(1, c + 1)]
            assert all(a <= b for a, b in zip(curve, curve[1:]))
            assert curve[-1] == 1.0


def test_criterion_5_learning_progress(announce, bench_cohort):
    with announce(5, "learning progress"):
        gen = desk_gen_config()
        assert (gen.num_patients, gen.num_variables, gen.num_codes,
                gen.latent_states, gen.missing_rate) == (2000, 20, 10, 4, 0.3)
        config = robust_model_config(20, 10, seed=0)
        assert config.hidden_size == 64
        started = time.monotonic()
        result = train(bench_cohort, config,
                       TrainConfig(learning_rate=DESK_LR, epochs=50, seed=0))
        elapsed = time.monotonic() - started
        ratio = result.loss_history[-1] / result.loss_history[0]
        assert ratio <= LOSS_RATIO_BOUND, (
            f"loss ratio {ratio:.3f} (epoch 1 {result.loss_history[0]:.2f}, "
            f"epoch 50 {result.loss_history[-1]:.2f})")
        assert elapsed < TRAIN_BUDGET_S


def test_criterion_6_robustness_benefit(announce, bench_cohort, capsys):
    with announce(6, "robustness benefit"):
        rows = robustness_benchmark(bench_cohort)
        with capsys.disabled():
            print()
            print(format_table(rows, ("seed", "robust_auc", "ablated_auc",
                                      "robust_recall3", "ablated_recall3")),
                  flush=True)
        wins = sum(row["robust_auc"] >= row["ablated_auc"] for row in rows)
        assert wins >= BENCH_MIN_WINS, rows


def test_criterion_7_noise_sweep(announce, bench_cohort, capsys):
    with announce(7, "noise sweep"):
        rows = noise_sweep(bench_cohort, epochs=2)
        with capsys.disabled():
            print()
            print(format_table(rows, ("kind", "spread", "micro_auc")),
                  flush=True)
        grid = [(row["kind"], row["spread"]) for row in rows]
        assert grid == [("gaussian", s) for s in GAUSSIAN_SIGMAS] + \
            [("scaled_bernoulli", p) for p in BERNOULLI_DROPS]
        for row in rows:
            assert 0.0 <= row["micro_auc"] <= 1.0


def test_criterion_8_determinism_and_persistence(announce, tmp_path):
    with announce(8, "determinism and persistence"):
        data = tmp_path / "cohort.jsonl"
        assert main(["gen", "--patients", "60", "--vars", "6", "--codes", "5",
                     "--seed", "4", "--out", str(data)]) == 0
        argv = ["train", "--data", str(data), "--epochs", "3", "--hidden",
                "8", "--seed", "9"]
        first, second = tmp_path / "a.json", tmp_path / "b.json"
        assert main(argv + ["--out", str(first)]) == 0
        assert main(argv + ["--out", str(second)]) == 0
        assert first.read_bytes() == second.read_bytes()
        first_hist = (tmp_path / "a.json.loss.txt").read_bytes()
        second_hist = (tmp_path / "b.json.loss.txt").read_bytes()
        assert first_hist == second_hist

        cohort = generate_cohort(GenConfig(num_patients=6, num_variables=6,
                                           num_codes=5, seed=8))
        config = ModelConfig(input_size=6, num_codes=5, hidden_size=8,
                             num_layers=2, seed=1)
        result = train(cohort, config,
                       TrainConfig(learning_rate=0.05, epochs=2,
                                   split_fraction=0.5, seed=0))
        path = tmp_path / "roundtrip.json"
        save_checkpoint(result.state, path)
        loaded = load_checkpoint(path)
        for series in cohort:
            before, _ = score_series(result.state, series)
            after, _ = score_series(loaded, series)
            assert np.array_equal(before, after)


def test_criterion_9_initialization(announce):
    with announce(9, "initialization"):
        shapes = [(5, 7, 4, 1), (6, 16, 3, 2), (3, 4, 2, 3)]
        for d, h, c, layers in shapes:
            state = init_model(ModelConfig(input_size=d, num_codes=c,
                                           hidden_size=h, num_layers=layers,
                                           seed=d + layers))
            matrices = 0
            biases = 0
            for name, arr in named_parameters(state):
                leaf = name.rsplit(".", 1)[1]
                if leaf.startswith(("W_", "U_")):
                    assert orthonormality_residual(arr) <= ORTHO_TOL, name
                    matrices += 1
                elif leaf.startswith("b_"):
                    assert np.all(arr == 0.0), name
                    biases += 1
            assert matrices == 6 * layers + 1
            assert biases == 3 * layers + 2
