"""BPTT gradients, clipping, averaged SGD, and the training loop."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from robustseq.data_io import split_cohort
from robustseq.errors import TrainingDivergedError, ValidationError
from robustseq.gru import ModelConfig, NoiseSpec, sample_sequence_noise
from robustseq.model import (FlatTensors, impute_series, init_model,
                             named_parameters, state_from_tensors)
from robustseq.objective import next_visit_loss
from robustseq.seeding import rng_stream
from robustseq.temporal import (EmpiricalMeans, VisitSeries, compute_intervals,
                                empirical_means)
from robustseq.training import (GradCheckReport, ParameterAverage, TrainConfig,
                                asgd_step, bptt_gradients, clip_gradients,
                                default_gradcheck_setup,
                                finite_difference_check, global_norm, train)

from conftest import (clone_parameters, random_cohort, random_series,
                      reference_gradcheck, reference_gru_step)


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

    @pytest.mark.parametrize("name", ["learning_rate", "clip_norm", "l2_lambda"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_values_rejected(self, name, value):
        kw = {"learning_rate": 0.1, name: value}
        with pytest.raises(ValidationError, match=name):
            TrainConfig(**kw)


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


class TestGradientsAcrossConfigurations:
    """Analytic gradients against central differences over the model's
    configuration space, with variable 0 never observed."""

    @staticmethod
    def case(layers, imputation, kind, t_len, seed):
        rng = np.random.default_rng(seed)
        d, hidden, codes = 3, 3, 2
        config = ModelConfig(input_size=d, num_codes=codes, hidden_size=hidden,
                             num_layers=layers, interlayer_dropout=0.3,
                             noise=NoiseSpec(kind=kind, drop_prob=0.3, sigma=0.3),
                             imputation=imputation, seed=seed)
        tensors = {name: arr + 0.3 * rng.standard_normal(arr.shape)
                   for name, arr in clone_parameters(init_model(config)).items()}
        drawn = random_series(rng, t_len=t_len, d=d, c=codes, observed_rate=0.6)
        mask = drawn.mask.copy()
        mask[:, 0] = 0.0
        series = VisitSeries(timestamps=drawn.timestamps, values=drawn.values,
                             mask=mask, labels=drawn.labels)
        # keep every moving cell's decay pre-activation off the rectifier
        # kink, as default_gradcheck_setup does
        deltas = compute_intervals(series)
        moving = deltas > 0.0
        while True:
            pre = tensors["decay.w_gamma"] * deltas + tensors["decay.b_gamma"]
            if not moving.any() or np.min(np.abs(pre[moving])) >= 1e-2:
                break
            tensors["decay.w_gamma"] = 1.0 + 0.3 * rng.standard_normal(d)
            tensors["decay.b_gamma"] = 0.4 * rng.standard_normal(d)
        state = state_from_tensors(config, tensors,
                                   EmpiricalMeans(rng.standard_normal(d)))
        noise = sample_sequence_noise(config, t_len, rng)
        return state, series, noise

    @given(layers=st.integers(1, 3), imputation=st.sampled_from(["decay", "mean"]),
           kind=st.sampled_from(["scaled_bernoulli", "gaussian"]),
           t_len=st.integers(2, 8), seed=st.integers(0, 2**16))
    @settings(max_examples=30, deadline=None)
    def test_match_finite_differences(self, layers, imputation, kind, t_len, seed):
        state, series, noise = self.case(layers, imputation, kind, t_len, seed)
        report = finite_difference_check(state, series, noise, l2=1e-3)
        assert report.max_rel_error < 1e-4

    @given(layers=st.integers(1, 3), imputation=st.sampled_from(["decay", "mean"]),
           kind=st.sampled_from(["scaled_bernoulli", "gaussian"]),
           t_len=st.integers(1, 8), l2=st.sampled_from([0.0, 1e-3]),
           seed=st.integers(0, 2**16))
    @settings(max_examples=30, deadline=None)
    def test_staged_audit_equals_full_passes(self, layers, imputation, kind,
                                             t_len, l2, seed):
        """Every perturbed loss of the lockstep passes, in the reference's
        coordinate order, is the full forward pass's loss bit for bit."""
        from robustseq import training

        state, series, noise = self.case(layers, imputation, kind, t_len, seed)
        before = state.flat.tobytes()
        want, want_probes = reference_gradcheck(state, series, noise, l2=l2)
        real, probes = training._probe_losses, []

        def recording(*args):
            for name, losses in real(*args):
                probes.extend(losses.tolist())
                yield name, losses

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(training, "_probe_losses", recording)
            got = finite_difference_check(state, series, noise, l2=l2)
        assert probes == want_probes
        assert got.per_tensor == want.per_tensor
        assert got.loss == want.loss
        assert got.num_parameters == want.num_parameters
        assert state.flat.tobytes() == before

    def test_single_visit_series_probes_exactly_zero(self):
        """No prediction step: every loss is exactly zero, penalty
        included, and so is every error."""
        from robustseq import training

        state, series, noise = self.case(2, "decay", "gaussian", 1, seed=5)
        probes = [v for _, losses in training._probe_losses(
            state, series, noise, 0.5, 1e-5) for v in losses.tolist()]
        assert probes == [0.0] * (2 * state.flat.size)
        report = finite_difference_check(state, series, noise, l2=0.5)
        assert report.loss == 0.0
        assert set(report.per_tensor.values()) == {0.0}


class TestTruncatedCarry:
    """bptt_gradients(window=k) is the exact gradient of a loss whose
    recurrent input is held at its unperturbed value at every step t >= 1
    with t % k == 0, built here from the test-local reference step."""

    @staticmethod
    def held_carry_loss(state, series, noise, k, held, l2):
        """Loss and each layer's recurrent inputs; held (one list per
        layer) replaces the recurrent input at the cut steps."""
        x = impute_series(state, series).inputs
        carries = []
        for li, p in enumerate(state.layers):
            h = np.zeros(state.config.hidden_size)
            seen, outputs = [], []
            for t in range(series.num_steps):
                if held is not None and t >= 1 and t % k == 0:
                    h = held[li][t]
                seen.append(h)
                h = noise.eps[li, t] * reference_gru_step(p, x[t], h)
                outputs.append(h * noise.drop[li, t])
            carries.append(seen)
            x = np.array(outputs)
        return next_visit_loss(state.head, x, series.labels, l2).loss, carries

    @pytest.mark.parametrize("imputation", ["decay", "mean"])
    @pytest.mark.parametrize("layers", [1, 2])
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_window_matches_held_carry_finite_differences(self, k, layers,
                                                          imputation):
        rng = np.random.default_rng(17 + 5 * k + layers)
        t_len, l2, step = 7, 1e-3, 1e-5
        config = ModelConfig(input_size=3, num_codes=2, hidden_size=3,
                             num_layers=layers, interlayer_dropout=0.3,
                             noise=NoiseSpec(kind="gaussian", sigma=0.3),
                             imputation=imputation)
        tensors = {name: arr + 0.3 * rng.standard_normal(arr.shape)
                   for name, arr in clone_parameters(init_model(config)).items()}
        series = random_series(rng, t_len=t_len, d=3, c=2, observed_rate=0.6)
        deltas = compute_intervals(series)
        moving = deltas > 0.0
        while True:  # decay pre-activations off the rectifier kink
            pre = tensors["decay.w_gamma"] * deltas + tensors["decay.b_gamma"]
            if np.min(np.abs(pre[moving])) >= 1e-2:
                break
            tensors["decay.w_gamma"] = 1.0 + 0.3 * rng.standard_normal(3)
            tensors["decay.b_gamma"] = 0.4 * rng.standard_normal(3)
        state = state_from_tensors(config, tensors,
                                   EmpiricalMeans(rng.standard_normal(3)))
        noise = sample_sequence_noise(config, t_len, rng)

        _, held = self.held_carry_loss(state, series, noise, k, None, l2)
        _, grads = bptt_gradients(state, series, noise, window=k, l2=l2)
        _, full = bptt_gradients(state, series, noise, l2=l2)
        fd = np.empty(state.flat.size)
        for i in range(state.flat.size):
            orig = state.flat[i]
            state.flat[i] = orig + step
            up, _ = self.held_carry_loss(state, series, noise, k, held, l2)
            state.flat[i] = orig - step
            down, _ = self.held_carry_loss(state, series, noise, k, held, l2)
            state.flat[i] = orig
            fd[i] = (up - down) / (2.0 * step)

        def rel_error(analytic):
            floor = np.maximum(np.maximum(np.abs(analytic), np.abs(fd)), 1e-4)
            return np.max(np.abs(analytic - fd) / floor)

        assert rel_error(grads.flat) < 1e-4
        # the held loss tells a truncated carry from the full one
        assert rel_error(full.flat) > 1e-2


class TestClipping:
    def test_norm_above_threshold_scales_to_threshold(self):
        grads = FlatTensors(np.array([3.0, 4.0]), {"a": (2,)})
        scale = clip_gradients(grads, 0.5)
        assert abs(global_norm(grads) - 0.5) < 1e-12
        assert abs(scale - 0.1) < 1e-12

    def test_norm_below_threshold_untouched(self):
        grads = FlatTensors(np.array([0.03, 0.04]), {"a": (2,)})
        clip_gradients(grads, 0.25)
        np.testing.assert_array_equal(grads["a"], [0.03, 0.04])

    def test_global_norm_pools_all_tensors(self):
        grads = FlatTensors(np.full(9, 1.0), {"a": (2, 2), "b": (5,)})
        assert abs(global_norm(grads) - 3.0) < 1e-12

    def test_global_norm_sums_each_tensor_then_the_tensors(self):
        state, series, noise = tiny_setup(t_len=7, layers=2)
        _, grads = bptt_gradients(state, series, noise=noise, l2=1e-3)
        want = float(np.sqrt(sum(float(np.sum(g * g)) for g in grads.values())))
        assert global_norm(grads) == want

    @given(scale=st.floats(1e-3, 1e3), clip=st.floats(0.01, 10))
    @settings(max_examples=40)
    def test_clipped_norm_never_exceeds_threshold(self, scale, clip):
        rng = np.random.default_rng(0)
        grads = FlatTensors(scale * rng.standard_normal(13),
                            {"a": (7,), "b": (3, 2)})
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

    def test_step_matches_per_tensor_update_bit_for_bit(self):
        state, series, noise = tiny_setup(layers=2)
        before = clone_parameters(state)
        _, grads = bptt_gradients(state, series, noise=noise)
        asgd_step(state, grads, TrainConfig(learning_rate=0.1, epochs=2))
        for name, arr in named_parameters(state):
            assert arr.tobytes() == (before[name] - 0.1 * grads[name]).tobytes(), name

    def test_step_rejects_gradients_of_another_layout(self):
        state, _, _ = tiny_setup()
        tc = TrainConfig(learning_rate=0.1, epochs=2)
        grads = FlatTensors(np.zeros(state.flat.size), {"a": (state.flat.size,)})
        with pytest.raises(ValidationError):
            asgd_step(state, grads, tc)
        # same names and shapes, other order: the vector would be misread
        reversed_shapes = dict(reversed(list(state.params.shapes.items())))
        grads = FlatTensors(np.zeros(state.flat.size), reversed_shapes)
        with pytest.raises(ValidationError):
            asgd_step(state, grads, tc)

    def test_average_export_is_mean_of_snapshots_bit_for_bit(self):
        state, _, _ = tiny_setup(layers=2)
        rng = np.random.default_rng(5)
        avg = ParameterAverage()
        snapshots = []
        for _ in range(4):
            state.flat += rng.standard_normal(state.flat.size)
            avg.accumulate(state)
            snapshots.append(clone_parameters(state))
        exported = avg.export()
        assert list(exported) == list(snapshots[0])
        for name in exported:
            want = np.mean(np.stack([s[name] for s in snapshots]), axis=0)
            assert exported[name].tobytes() == want.tobytes(), name

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

    def test_epoch_is_noise_then_gradients_then_clip_then_step(self):
        cohort = self.make_cohort(n=10)
        config = self.config(seed=4)
        tc = TrainConfig(learning_rate=0.05, epochs=1, seed=3, l2_lambda=1e-3,
                         bptt_window=2)
        result = train(cohort, config, tc)

        train_set, _ = split_cohort(cohort, tc.split_fraction, tc.seed)
        state = init_model(config, empirical_means(train_set))
        average = ParameterAverage()
        total = 0.0
        for idx in rng_stream(tc.seed, "order", 1).permutation(len(train_set)):
            series = train_set[int(idx)]
            noise = sample_sequence_noise(
                config, series.num_steps, rng_stream(config.seed, "noise", 1,
                                                     int(idx)))
            loss, grads = bptt_gradients(state, series, noise,
                                         window=tc.bptt_window, l2=tc.l2_lambda)
            clip_gradients(grads, tc.clip_norm)
            asgd_step(state, grads, tc, average)
            total += loss
        assert result.loss_history == [total / len(train_set)]
        assert result.state.step_count == state.step_count == len(train_set)
        assert result.state.flat.tobytes() == average.export().flat.tobytes()

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
        before = state.flat.tobytes()
        report = finite_difference_check(state, series, noise, l2=1e-3)
        text = "\n".join(report.lines())
        assert "decay.w_gamma" in text
        assert "max relative error" in text
        assert state.flat.tobytes() == before  # the audit never writes the state

    @pytest.mark.parametrize("step", [0.0, -1e-5, math.nan, math.inf])
    def test_bad_step_rejected_before_touching_the_state(self, step, monkeypatch):
        from robustseq import training

        def must_not_run(*args, **kwargs):
            raise AssertionError("ran before the step was checked")

        state, series, noise = default_gradcheck_setup(seed=1)
        before = state.flat.tobytes()
        monkeypatch.setattr(training, "bptt_gradients", must_not_run)
        monkeypatch.setattr(training, "_probe_losses", must_not_run)
        with pytest.raises(ValidationError, match="step"):
            finite_difference_check(state, series, noise, l2=1e-3, step=step)
        assert state.flat.tobytes() == before

    def test_state_restored_when_a_perturbed_loss_raises(self):
        """A raise anywhere in the probes leaves the state's bytes as they
        were: in the first lockstep tensor's kernel or loss, in a decay
        copy's imputation, or in the last tensor's loss (the analytic
        pass makes the first next_visit_loss call)."""
        from robustseq import training

        state, series, noise = default_gradcheck_setup(seed=1)
        before = state.flat.tobytes()
        last = 1 + len(state.params)
        for target, fail_at in [("next_visit_loss", 2), ("_gru_layer", 2),
                                ("impute_series", 4), ("next_visit_loss", last)]:
            real, calls = getattr(training, target), []

            def failing(*args, real=real, calls=calls, fail_at=fail_at, **kwargs):
                calls.append(1)
                if len(calls) == fail_at:
                    raise RuntimeError("probe failed")
                return real(*args, **kwargs)

            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(training, target, failing)
                with pytest.raises(RuntimeError, match="probe failed"):
                    finite_difference_check(state, series, noise, l2=1e-3)
            assert state.flat.tobytes() == before, (target, fail_at)
        assert len(calls) == last  # the raise came from the last tensor's loss

    def test_nan_analytic_entry_is_an_infinite_error(self, monkeypatch):
        from robustseq import training

        state, series, noise = default_gradcheck_setup(seed=1)
        clean = finite_difference_check(state, series, noise, l2=1e-3)
        real = training.bptt_gradients

        def with_nan(*args, **kwargs):
            loss, grads = real(*args, **kwargs)
            grads["layers.1.U_h"][0, 0] = np.nan
            return loss, grads

        monkeypatch.setattr(training, "bptt_gradients", with_nan)
        report = finite_difference_check(state, series, noise, l2=1e-3)
        assert report.per_tensor["layers.1.U_h"] == math.inf
        assert report.max_rel_error == math.inf
        assert {k: v for k, v in report.per_tensor.items() if k != "layers.1.U_h"} \
            == {k: v for k, v in clean.per_tensor.items() if k != "layers.1.U_h"}

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("name, copy", [("layers.0.W_r", 3), ("head.b_code", 0),
                                            ("decay.w_gamma", 9)])
    def test_non_finite_perturbed_loss_is_an_infinite_error(self, monkeypatch,
                                                            bad, name, copy):
        from robustseq import training

        state, series, noise = default_gradcheck_setup(seed=1)
        clean = finite_difference_check(state, series, noise, l2=1e-3)
        real = training._probe_losses

        def spoiled(*args):
            for probed, losses in real(*args):
                if probed == name:
                    losses[copy] = bad
                yield probed, losses

        monkeypatch.setattr(training, "_probe_losses", spoiled)
        report = finite_difference_check(state, series, noise, l2=1e-3)
        assert report.per_tensor[name] == math.inf
        assert report.max_rel_error == math.inf
        assert {k: v for k, v in report.per_tensor.items() if k != name} \
            == {k: v for k, v in clean.per_tensor.items() if k != name}
