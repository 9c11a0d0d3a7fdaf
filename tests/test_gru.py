"""GRU step algebra, multiplicative noise, and the stacked forward pass."""

from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from robustseq.errors import ValidationError
from robustseq.gru import (NOISE_KINDS, GruParams, ModelConfig, NoiseSpec,
                           SequenceNoise, _gru_layer, forward_sequence,
                           gru_step, noisy_gru_step, sample_sequence_noise)

from conftest import reference_gru_step, sample_noise


def random_params(rng, h, d_in):
    def m(r, c):
        return 0.4 * rng.standard_normal((r, c))
    return GruParams(W_z=m(h, d_in), U_z=m(h, h), b_z=rng.standard_normal(h),
                     W_r=m(h, d_in), U_r=m(h, h), b_r=rng.standard_normal(h),
                     W_h=m(h, d_in), U_h=m(h, h), b_h=rng.standard_normal(h))


class TestNoiseSpec:
    def test_drop_prob_bounds(self):
        with pytest.raises(ValidationError):
            NoiseSpec(drop_prob=1.0)
        with pytest.raises(ValidationError):
            NoiseSpec(drop_prob=-0.1)

    def test_negative_sigma_rejected(self):
        with pytest.raises(ValidationError):
            NoiseSpec(kind="gaussian", sigma=-1.0)

    @pytest.mark.parametrize("sigma", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_sigma_rejected(self, sigma):
        with pytest.raises(ValidationError, match="sigma"):
            NoiseSpec(kind="gaussian", sigma=sigma)

    def test_unknown_kind_and_mode_rejected(self):
        with pytest.raises(ValidationError):
            NoiseSpec(kind="cauchy")
        with pytest.raises(ValidationError):
            NoiseSpec(mode="test")


class TestSampleNoise:
    """Support and moments of the sampler that training draws from."""

    def draw(self, rng, t_len=50, hidden=5, dropout=0.0, **noise):
        config = ModelConfig(input_size=3, num_codes=2, hidden_size=hidden,
                             num_layers=2, interlayer_dropout=dropout,
                             noise=NoiseSpec(**noise))
        return sample_sequence_noise(config, t_len, rng)

    def test_eval_mode_is_all_ones(self, rng):
        noise = self.draw(rng, dropout=0.9, kind="scaled_bernoulli",
                          drop_prob=0.9, mode="eval")
        np.testing.assert_array_equal(noise.eps, 1.0)
        np.testing.assert_array_equal(noise.drop, 1.0)

    def test_bernoulli_support(self, rng):
        noise = self.draw(rng, t_len=1000, dropout=0.5,
                          kind="scaled_bernoulli", drop_prob=0.25)
        assert set(np.unique(noise.eps)) <= {0.0, 1.0 / 0.75}
        assert set(np.unique(noise.drop)) <= {0.0, 2.0}

    def test_bernoulli_mean_is_one(self, rng):
        p = 0.4
        noise = self.draw(rng, t_len=1000, hidden=100, dropout=p,
                          kind="scaled_bernoulli", drop_prob=p)
        for draws in (noise.eps, noise.drop):
            # Var = p / (1 - p); allow three standard errors around unit mean
            se = np.sqrt(p / (1 - p) / draws.size)
            assert abs(draws.mean() - 1.0) < 3 * se

    def test_gaussian_mean_is_one(self, rng):
        p = 0.4
        noise = self.draw(rng, t_len=1000, hidden=100, dropout=p,
                          kind="gaussian", sigma=1.1)
        assert abs(noise.eps.mean() - 1.0) < 3 * 1.1 / np.sqrt(noise.eps.size)
        se = np.sqrt(p / (1 - p) / noise.drop.size)
        assert abs(noise.drop.mean() - 1.0) < 3 * se

    def test_zero_drop_prob_is_deterministic_ones(self, rng):
        noise = self.draw(rng, kind="scaled_bernoulli", drop_prob=0.0)
        np.testing.assert_array_equal(noise.eps, 1.0)
        np.testing.assert_array_equal(noise.drop, 1.0)


class TestGruStep:
    def test_matches_direct_formula(self, rng):
        p = random_params(rng, h=5, d_in=3)
        x = rng.standard_normal(3)
        h_prev = rng.standard_normal(5)
        # the kernel sums U @ h + (W @ x + b), the formula (W @ x + U @ h) + b
        tol = 8 * np.finfo(float).eps
        np.testing.assert_allclose(gru_step(p, x, h_prev),
                                   reference_gru_step(p, x, h_prev),
                                   rtol=tol, atol=tol)

    def test_fixed_point_from_rest_with_zero_input(self, rng):
        # from h = 0 and x = 0 with zero biases the candidate is 0, so the
        # state stays at rest regardless of the gate values
        p = random_params(rng, h=4, d_in=2)
        p.b_h[:] = 0.0
        out = gru_step(p, np.zeros(2), np.zeros(4))
        np.testing.assert_allclose(out, 0.0, atol=1e-15)

    def test_shape_mismatch_rejected(self, rng):
        p = random_params(rng, h=4, d_in=2)
        with pytest.raises(ValidationError):
            gru_step(p, np.zeros(3), np.zeros(4))
        with pytest.raises(ValidationError):
            gru_step(p, np.zeros(2), np.zeros(5))

    @settings(max_examples=30)
    @given(seed=st.integers(0, 10_000))
    def test_output_strictly_inside_unit_box_from_bounded_state(self, seed):
        r = np.random.default_rng(seed)
        p = random_params(r, h=6, d_in=4)
        h_prev = np.tanh(r.standard_normal(6))
        out = gru_step(p, 3.0 * r.standard_normal(4), h_prev)
        assert np.all(np.abs(out) <= 1.0)


class TestNoisyStep:
    def test_factors_exactly(self, rng):
        p = random_params(rng, h=5, d_in=3)
        x = rng.standard_normal(3)
        h_prev = rng.standard_normal(5)
        eps = sample_noise(NoiseSpec(drop_prob=0.3), 5, rng)
        np.testing.assert_array_equal(noisy_gru_step(p, x, h_prev, eps),
                                      eps * gru_step(p, x, h_prev))

    def test_unit_noise_recovers_plain_step(self, rng):
        p = random_params(rng, h=4, d_in=2)
        x, h_prev = rng.standard_normal(2), rng.standard_normal(4)
        np.testing.assert_array_equal(noisy_gru_step(p, x, h_prev, np.ones(4)),
                                      gru_step(p, x, h_prev))

    def test_wrong_eps_length_rejected(self, rng):
        p = random_params(rng, h=4, d_in=2)
        with pytest.raises(ValidationError):
            noisy_gru_step(p, np.zeros(2), np.zeros(4), np.ones(3))


def assert_same_bits(a, b):
    assert a.shape == b.shape
    assert a.tobytes() == b.tobytes()


def reference_sequence_noise(config, t_len, rng):
    """The documented draw order, one sample_noise call per block."""
    drop_spec = NoiseSpec(kind="scaled_bernoulli",
                          drop_prob=config.interlayer_dropout)
    shape = (config.num_layers, t_len, config.hidden_size)
    eps, drop = np.empty(shape), np.empty(shape)
    for t in range(t_len):
        for layer in range(config.num_layers):
            eps[layer, t] = sample_noise(config.noise, config.hidden_size, rng)
            drop[layer, t] = sample_noise(drop_spec, config.hidden_size, rng)
    return eps, drop


class TestSequenceNoise:
    def config(self, layers=2, mode="train"):
        return ModelConfig(input_size=3, num_codes=2, hidden_size=4,
                           num_layers=layers, interlayer_dropout=0.3,
                           noise=NoiseSpec(kind="scaled_bernoulli",
                                           drop_prob=0.33, mode=mode))

    def test_shapes(self, rng):
        noise = sample_sequence_noise(self.config(), 5, rng)
        assert noise.eps.shape == (2, 5, 4)
        assert noise.drop.shape == (2, 5, 4)

    def test_eval_mode_returns_ones(self, rng):
        noise = sample_sequence_noise(self.config(mode="eval"), 5, rng)
        np.testing.assert_array_equal(noise.eps, 1.0)
        np.testing.assert_array_equal(noise.drop, 1.0)

    def test_same_stream_reproduces(self):
        a = sample_sequence_noise(self.config(), 6, np.random.default_rng(7))
        b = sample_sequence_noise(self.config(), 6, np.random.default_rng(7))
        np.testing.assert_array_equal(a.eps, b.eps)
        np.testing.assert_array_equal(a.drop, b.drop)

    @pytest.mark.parametrize("kind", NOISE_KINDS)
    @pytest.mark.parametrize("layers", [1, 2, 3])
    @pytest.mark.parametrize("t_len", [1, 7])
    @pytest.mark.parametrize("drop_prob", [0.0, 0.35])
    def test_matches_reference_draw_order(self, kind, layers, t_len, drop_prob):
        config = ModelConfig(input_size=3, num_codes=2, hidden_size=5,
                             num_layers=layers, interlayer_dropout=drop_prob,
                             noise=NoiseSpec(kind=kind, drop_prob=drop_prob,
                                             sigma=0.4))
        rng, ref_rng = np.random.default_rng(11), np.random.default_rng(11)
        noise = sample_sequence_noise(config, t_len, rng)
        eps, drop = reference_sequence_noise(config, t_len, ref_rng)
        assert_same_bits(noise.eps, eps)
        assert_same_bits(noise.drop, drop)
        # both consumed the same number of draws
        assert rng.random() == ref_rng.random()

    def test_ones_constructor(self):
        noise = SequenceNoise.ones(3, 2, 5)
        assert noise.eps.shape == (3, 2, 5)
        np.testing.assert_array_equal(noise.eps, 1.0)


class TestForwardSequence:
    def setup_model(self, rng, layers=2, d=3, h=4, mode="eval"):
        config = ModelConfig(input_size=d, num_codes=2, hidden_size=h,
                             num_layers=layers, interlayer_dropout=0.3,
                             noise=NoiseSpec(kind="scaled_bernoulli",
                                             drop_prob=0.33, mode=mode))
        params = [random_params(rng, h, d if i == 0 else h)
                  for i in range(layers)]
        return config, params

    def test_matches_stepwise_recurrence(self, rng):
        config, params = self.setup_model(rng, layers=1)
        x = rng.standard_normal((6, 3))
        cache = forward_sequence(config, params, x)
        h = np.zeros(4)
        for t in range(6):
            h = reference_gru_step(params[0], x[t], h)
            np.testing.assert_allclose(cache.layers[0].h[t + 1], h,
                                       rtol=1e-12, atol=1e-15)

    @pytest.mark.parametrize("layers", [1, 2, 3])
    def test_matches_stepwise_noisy_recurrence_with_dropout(self, rng, layers):
        config, params = self.setup_model(rng, layers=layers, mode="train")
        x = rng.standard_normal((7, 3))
        noise = sample_sequence_noise(config, 7, rng)
        cache = forward_sequence(config, params, x, noise=noise)
        inputs = x
        for li, p in enumerate(params):
            h = np.zeros(4)
            outputs = []
            for t in range(7):
                h = noise.eps[li, t] * reference_gru_step(p, inputs[t], h)
                np.testing.assert_allclose(cache.layers[li].h[t + 1], h,
                                           rtol=1e-12, atol=1e-15)
                outputs.append(h * noise.drop[li, t])
            inputs = np.array(outputs)
        np.testing.assert_allclose(cache.top, inputs, rtol=1e-12, atol=1e-15)

    def test_initial_state_is_zero(self, rng):
        config, params = self.setup_model(rng)
        cache = forward_sequence(config, params, rng.standard_normal((4, 3)))
        for layer in cache.layers:
            np.testing.assert_array_equal(layer.h[0], 0.0)

    def test_eval_hidden_states_bounded_by_one(self, rng):
        config, params = self.setup_model(rng, layers=2)
        cache = forward_sequence(config, params,
                                 5.0 * rng.standard_normal((30, 3)))
        for layer in cache.layers:
            assert np.all(np.abs(layer.h) <= 1.0)

    def test_layers_consume_dropped_outputs(self, rng):
        config, params = self.setup_model(rng, layers=2, mode="train")
        noise = sample_sequence_noise(config, 5, rng)
        cache = forward_sequence(config, params, rng.standard_normal((5, 3)),
                                 noise=noise)
        np.testing.assert_array_equal(cache.layers[1].xin,
                                      cache.layers[0].h[1:] * noise.drop[0])
        np.testing.assert_array_equal(cache.top,
                                      cache.layers[1].h[1:] * noise.drop[1])

    def test_train_mode_applies_presampled_eps(self, rng):
        config, params = self.setup_model(rng, layers=1, mode="train")
        x = rng.standard_normal((4, 3))
        noise = sample_sequence_noise(config, 4, rng)
        cache = forward_sequence(config, params, x, noise=noise)
        h = np.zeros(4)
        for t in range(4):
            h = noise.eps[0, t] * reference_gru_step(params[0], x[t], h)
            np.testing.assert_allclose(cache.layers[0].h[t + 1], h, rtol=1e-12)

    def test_no_noise_is_the_all_ones_pass(self, rng):
        config, params = self.setup_model(rng, layers=2, mode="train")
        x = rng.standard_normal((5, 3))
        plain = forward_sequence(config, params, x)
        ones = forward_sequence(config, params, x,
                                noise=SequenceNoise.ones(2, 5, 4))
        for a, b in zip(plain.layers, ones.layers):
            for name in ("xin", "h", "z", "r", "h_cand"):
                assert_same_bits(getattr(a, name), getattr(b, name))
        assert_same_bits(plain.top, ones.top)

    @pytest.mark.parametrize("kind", NOISE_KINDS)
    def test_series_is_row_zero_of_its_one_row_block(self, rng, kind):
        config, params = self.setup_model(rng, layers=2, mode="train")
        config.noise = NoiseSpec(kind=kind, drop_prob=0.33, sigma=0.5)
        x = rng.standard_normal((6, 3))
        drawn = sample_sequence_noise(config, 6, rng)
        for noise, block_noise in [
                (None, None),
                (drawn, SequenceNoise(eps=drawn.eps[:, :, None],
                                      drop=drawn.drop[:, :, None]))]:
            one = forward_sequence(config, params, x, noise=noise)
            block = forward_sequence(config, params, x[:, None], noise=block_noise)
            for a, b in zip(one.layers, block.layers):
                for name in ("xin", "h", "z", "r", "h_cand"):
                    assert_same_bits(getattr(a, name), getattr(b, name)[:, 0])
            assert_same_bits(one.top, block.top[:, 0])

    def test_non_finite_inputs_rejected(self, rng):
        config, params = self.setup_model(rng)
        x = np.zeros((3, 3))
        x[1, 2] = np.nan
        with pytest.raises(ValidationError):
            forward_sequence(config, params, x)

    def test_wrong_noise_shape_rejected(self, rng):
        config, params = self.setup_model(rng, mode="train")
        with pytest.raises(ValidationError):
            forward_sequence(config, params, np.zeros((3, 3)),
                             noise=SequenceNoise.ones(2, 4, 4))

    @pytest.mark.parametrize("drop_shape", [(2, 5, 1), (1,)])
    def test_wrong_drop_shape_rejected(self, rng, drop_shape):
        config, params = self.setup_model(rng, mode="train")
        noise = SequenceNoise(eps=np.ones((2, 5, 4)),
                              drop=np.full(drop_shape, 0.5))
        with pytest.raises(ValidationError):
            forward_sequence(config, params, np.zeros((5, 3)), noise=noise)

    def test_layer_count_mismatch_rejected(self, rng):
        config, params = self.setup_model(rng, layers=2)
        with pytest.raises(ValidationError):
            forward_sequence(config, params[:1], np.zeros((3, 3)))


def stack_runs(params):
    return GruParams(**{f.name: np.stack([getattr(p, f.name) for p in params])
                        for f in fields(GruParams)})


def broadcast_runs(p, lead):
    return GruParams(**{k: np.broadcast_to(v, lead + v.shape) for k, v in vars(p).items()})


class TestRunAxis:
    """The layer kernel with a leading run axis on the weights steps K
    independent runs; each run's h, z, r and h_cand are those of the
    kernel run on that run's weights alone, bit for bit."""

    @staticmethod
    def assert_run_is_alone(got, k, want):
        for name, g, w in zip(("h", "z", "r", "h_cand"), got, want):
            assert g[:, k].tobytes() == w.tobytes(), name

    @pytest.mark.parametrize("hidden", [1, 3, 7, 33, 64])
    @pytest.mark.parametrize("d_in", [1, 5])
    @pytest.mark.parametrize("t_len", [1, 2, 7])
    @pytest.mark.parametrize("runs", [1, 6])
    @pytest.mark.parametrize("noisy", [False, True])
    def test_each_run_is_that_run_alone(self, hidden, d_in, t_len, runs, noisy):
        rng = np.random.default_rng([hidden, d_in, t_len, runs, noisy])
        alone = [random_params(rng, hidden, d_in) for _ in range(runs)]
        eps = 1.0 + 0.5 * rng.standard_normal((t_len, runs, hidden)) if noisy else None
        shared = rng.standard_normal((t_len, d_in))
        per_run = rng.standard_normal((t_len, runs, d_in))
        for x in (shared, per_run):
            got = _gru_layer(stack_runs(alone), x, eps, np.zeros((runs, hidden)))
            for k, p in enumerate(alone):
                x_k = x if x is shared else np.ascontiguousarray(x[:, k])
                eps_k = None if eps is None else np.ascontiguousarray(eps[:, k])
                want = _gru_layer(p, x_k, eps_k, np.zeros(hidden))
                self.assert_run_is_alone(got, k, want)

    @pytest.mark.parametrize("hidden", [3, 64])
    def test_broadcast_weights_give_each_run_the_shared_path(self, rng, hidden):
        p, runs, t_len = random_params(rng, hidden, 5), 4, 6
        broadcast = broadcast_runs(p, (runs,))
        x = rng.standard_normal((t_len, runs, 5))
        eps = 1.0 + 0.5 * rng.standard_normal((t_len, hidden))
        got = _gru_layer(broadcast, x, eps, np.zeros((runs, hidden)))
        for k in range(runs):
            want = _gru_layer(p, np.ascontiguousarray(x[:, k]), eps, np.zeros(hidden))
            self.assert_run_is_alone(got, k, want)

    def test_more_than_one_run_axis_rejected(self, rng):
        p = random_params(rng, 3, 2)
        with pytest.raises(ValidationError, match="run axis"):
            broadcast_runs(p, (2, 2))
