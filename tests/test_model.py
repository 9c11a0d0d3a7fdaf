"""Initialization, parameter plumbing, and whole-series model passes."""

import numpy as np
import pytest

from robustseq.errors import ValidationError
from robustseq.gru import ModelConfig, NoiseSpec
from robustseq.model import (ModelState, eval_forward, impute_series,
                             init_model, named_parameters, orthogonal_init,
                             orthonormality_residual, predict_next,
                             score_series, state_from_tensors)
from robustseq.objective import head_probs
from robustseq.temporal import EmpiricalMeans, mean_impute_inputs

from conftest import clone_parameters, random_series


def small_config(**kw):
    base = dict(input_size=4, num_codes=3, hidden_size=5, num_layers=2,
                interlayer_dropout=0.3,
                noise=NoiseSpec(kind="scaled_bernoulli", drop_prob=0.33,
                                mode="train"),
                imputation="decay", seed=7)
    base.update(kw)
    return ModelConfig(**base)


class TestOrthogonalInit:
    @pytest.mark.parametrize("rows,cols", [(5, 5), (3, 8), (8, 3), (1, 4)])
    def test_residual_tiny_for_any_aspect(self, rows, cols, rng):
        m = orthogonal_init(rows, cols, rng)
        assert m.shape == (rows, cols)
        assert orthonormality_residual(m) <= 1e-12

    def test_residual_detects_non_orthogonal(self, rng):
        m = rng.standard_normal((4, 4))
        assert orthonormality_residual(m) > 1e-6

    def test_deterministic_per_stream(self):
        a = orthogonal_init(4, 6, np.random.default_rng(3))
        b = orthogonal_init(4, 6, np.random.default_rng(3))
        np.testing.assert_array_equal(a, b)


class TestInitModel:
    def test_biases_exactly_zero_and_gates_orthonormal(self):
        state = init_model(small_config())
        for name, arr in named_parameters(state):
            if name.endswith(("b_z", "b_r", "b_h", "b_code", "b_gamma")):
                assert np.all(arr == 0.0), name
            elif "W" in name or "U" in name:
                assert orthonormality_residual(arr) <= 1e-8, name

    def test_decay_weights_start_at_one(self):
        state = init_model(small_config())
        np.testing.assert_array_equal(state.decay.w_gamma, 1.0)

    def test_same_seed_reproduces_every_tensor(self):
        a = init_model(small_config())
        b = init_model(small_config())
        for (name, pa), (_, pb) in zip(named_parameters(a), named_parameters(b)):
            np.testing.assert_array_equal(pa, pb, err_msg=name)

    def test_different_seed_changes_weights(self):
        a = init_model(small_config())
        b = init_model(small_config(seed=8))
        assert not np.array_equal(a.layers[0].W_z, b.layers[0].W_z)

    def test_layer_shapes_stack(self):
        state = init_model(small_config())
        assert state.layers[0].W_z.shape == (5, 4)
        assert state.layers[1].W_z.shape == (5, 5)
        assert state.head.W_code.shape == (3, 5)

    def test_means_default_to_zero(self):
        state = init_model(small_config())
        np.testing.assert_array_equal(state.means.means, np.zeros(4))

    def test_custom_means_are_kept(self):
        means = EmpiricalMeans(np.arange(4.0))
        state = init_model(small_config(), means)
        np.testing.assert_array_equal(state.means.means, means.means)

    def test_step_count_starts_at_zero(self):
        assert init_model(small_config()).step_count == 0


class TestParameterPlumbing:
    def test_named_parameters_are_live_views(self):
        state = init_model(small_config())
        params = dict(named_parameters(state))
        params["head.b_code"][0] = 5.0
        assert state.head.b_code[0] == 5.0

    def test_parameters_are_views_of_one_flat_vector(self):
        state = init_model(small_config())
        offset = 0
        for name, arr in named_parameters(state):
            assert np.shares_memory(arr, state.flat), name
            np.testing.assert_array_equal(
                state.flat[offset:offset + arr.size], arr.ravel(), err_msg=name)
            offset += arr.size
        assert offset == state.flat.size
        state.flat[:] = 0.5
        for name, arr in named_parameters(state):
            assert np.all(arr == 0.5), name

    def test_flat_store_does_not_alias_its_inputs(self):
        state = init_model(small_config())
        tensors = clone_parameters(state)
        other = state_from_tensors(small_config(), tensors, state.means)
        for name, arr in tensors.items():
            assert not np.shares_memory(arr, other.flat), name
        assert not np.shares_memory(state.flat, other.flat)

    @pytest.mark.parametrize("field,value", [("hidden_size", 6),
                                             ("num_layers", 1),
                                             ("num_codes", 4)])
    def test_state_rejects_store_of_another_config(self, field, value):
        state = init_model(small_config())
        with pytest.raises(ValidationError, match="laid out"):
            ModelState(config=small_config(**{field: value}),
                       params=state.params, means=state.means)

    def test_state_views_its_store(self):
        state = init_model(small_config())
        other = ModelState(config=state.config, params=state.params,
                           means=state.means, step_count=3)
        assert other.flat is state.params.flat and other.step_count == 3
        for name, arr in named_parameters(other):
            assert np.shares_memory(arr, state.flat), name
        np.testing.assert_array_equal(other.layers[1].U_r, state.layers[1].U_r)

    def test_clone_is_detached(self):
        state = init_model(small_config())
        snapshot = clone_parameters(state)
        state.head.W_code += 1.0
        assert not np.array_equal(snapshot["head.W_code"], state.head.W_code)

    def test_load_round_trip(self, rng):
        state = init_model(small_config())
        tensors = clone_parameters(state)
        other = state_from_tensors(small_config(seed=99), tensors, state.means,
                                   step_count=4)
        assert other.step_count == 4
        for (name, pa), (_, pb) in zip(named_parameters(state),
                                       named_parameters(other)):
            np.testing.assert_array_equal(pa, pb, err_msg=name)
        tensors["head.b_code"][0] = 7.0
        assert other.head.b_code[0] != 7.0  # the state owns its buffers

    def test_load_rejects_missing_and_extra_and_misshapen(self):
        state = init_model(small_config())
        good = clone_parameters(state)

        def build(tensors):
            return state_from_tensors(small_config(), tensors, state.means)

        missing = dict(good)
        missing.pop("decay.w_gamma")
        with pytest.raises(ValidationError, match="decay.w_gamma"):
            build(missing)
        extra = dict(good)
        extra["bogus"] = np.zeros(1)
        with pytest.raises(ValidationError, match="bogus"):
            build(extra)
        bad = dict(good)
        bad["head.W_code"] = np.zeros((1, 1))
        with pytest.raises(ValidationError, match="head.W_code"):
            build(bad)
        flat = dict(good)
        flat["layers.1.W_z"] = np.zeros(5)
        with pytest.raises(ValidationError, match="layers.1.W_z"):
            build(flat)

    @pytest.mark.parametrize("name", ["layers.0.U_h", "layers.1.b_r",
                                      "head.W_code", "decay.b_gamma"])
    def test_non_finite_tensor_rejected_by_name(self, name):
        state = init_model(small_config())
        tensors = clone_parameters(state)
        tensors[name].flat[0] = np.nan
        with pytest.raises(ValidationError, match=name):
            state_from_tensors(small_config(), tensors, state.means)


class TestSeriesPasses:
    def test_mean_mode_matches_mean_imputation(self, rng):
        series = random_series(rng, t_len=6, d=4, c=3, observed_rate=0.5)
        state = init_model(small_config(imputation="mean"),
                           EmpiricalMeans(rng.standard_normal(4)))
        cache = impute_series(state, series)
        np.testing.assert_array_equal(
            cache.inputs, mean_impute_inputs(series, state.means))
        np.testing.assert_array_equal(cache.missing, series.mask == 0)
        for name in ("deltas", "pre", "gamma", "fallback"):
            assert getattr(cache, name) is None, name

    def test_decay_mode_blends(self, rng):
        series = random_series(rng, t_len=6, d=4, c=3, observed_rate=0.5)
        state = init_model(small_config(),
                           EmpiricalMeans(rng.standard_normal(4)))
        cache = impute_series(state, series)
        observed = series.mask > 0
        np.testing.assert_array_equal(cache.inputs[observed],
                                      series.values[observed])
        assert np.isfinite(cache.inputs).all()

    def test_eval_forward_is_deterministic_even_in_train_config(self, rng):
        series = random_series(rng, t_len=5, d=4, c=3)
        state = init_model(small_config())
        a = eval_forward(state, series)
        b = eval_forward(state, series)
        np.testing.assert_array_equal(a.top, b.top)

    def test_score_series_aligns_predictions_with_targets(self, rng):
        series = random_series(rng, t_len=6, d=4, c=3)
        state = init_model(small_config())
        probs, targets = score_series(state, series)
        assert probs.shape == (5, 3)
        np.testing.assert_array_equal(targets, series.labels[1:])
        assert np.all((0 < probs) & (probs < 1))

    def test_score_series_single_visit_is_empty(self, rng):
        series = random_series(rng, t_len=1, d=4, c=3)
        state = init_model(small_config())
        probs, targets = score_series(state, series)
        assert probs.shape == (0, 3) and targets.shape == (0, 3)

    def test_predict_next_scores_last_state(self, rng):
        series = random_series(rng, t_len=6, d=4, c=3)
        state = init_model(small_config())
        probs = predict_next(state, series)
        assert probs.shape == (3,)
        cache = eval_forward(state, series)
        np.testing.assert_allclose(probs,
                                   head_probs(state.head, cache.top[-1:])[0])

    def test_dimension_mismatch_rejected(self, rng):
        series = random_series(rng, t_len=4, d=3, c=3)
        state = init_model(small_config())
        with pytest.raises(ValidationError):
            eval_forward(state, series)

    @pytest.mark.parametrize("passes", [predict_next, score_series,
                                        eval_forward, impute_series])
    def test_code_count_mismatch_rejected_by_every_pass(self, rng, passes):
        series = random_series(rng, t_len=4, d=4, c=2, patient_id="p7")
        state = init_model(small_config())
        with pytest.raises(ValidationError,
                           match="patient 'p7': series has 2 codes, "
                                 "model expects 3"):
            passes(state, series)


class TestModelConfigChecks:
    @pytest.mark.parametrize("field, bad", [
        ("input_size", 4.0), ("num_codes", "3"), ("hidden_size", 4.5),
        ("num_layers", True), ("hidden_size", False), ("seed", "x"),
        ("seed", 1.0), ("seed", None)])
    def test_counts_and_seed_must_be_integers(self, field, bad):
        with pytest.raises(ValidationError, match=field):
            small_config(**{field: bad})

    def test_seed_must_be_non_negative(self):
        with pytest.raises(ValidationError, match="seed"):
            small_config(seed=-1)

    @pytest.mark.parametrize("bad", [5, "abc", None, [0.3]])
    def test_noise_must_be_a_spec_or_a_dict(self, bad):
        with pytest.raises(ValidationError, match="noise"):
            small_config(noise=bad)

    def test_noise_dict_becomes_a_spec(self):
        config = small_config(noise={"kind": "gaussian", "sigma": 0.5})
        assert config.noise == NoiseSpec(kind="gaussian", sigma=0.5)
