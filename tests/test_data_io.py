"""Generator statistics, cohort file round trips, splits, and checkpoints."""

import errno
import json
import os
import tempfile
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from robustseq.data_io import (CHECKPOINT_FORMAT_VERSION,
                               COHORT_FORMAT_VERSION, DROP_CAP, EMISSION_SPREAD,
                               GenConfig, generate_cohort, load_checkpoint,
                               load_cohort, save_checkpoint, save_cohort,
                               split_cohort, state_code_probs,
                               state_emission_means, state_gap_scales)
from robustseq.errors import CheckpointError, ValidationError
from robustseq.gru import ModelConfig, NoiseSpec
from robustseq.model import eval_forward, init_model, named_parameters
from robustseq.seeding import rng_stream
from robustseq.temporal import EmpiricalMeans, VisitSeries
from robustseq.training import TrainConfig


def small_gen(**kw):
    base = dict(num_patients=30, num_variables=5, num_codes=4, min_visits=2,
                max_visits=6, latent_states=3, missing_rate=0.3, seed=9)
    base.update(kw)
    return GenConfig(**base)


class TestGenConfig:
    @pytest.mark.parametrize("name", ["mnar_strength", "gap_state_coupling",
                                      "patient_offset_scale"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_values_rejected(self, name, value):
        with pytest.raises(ValidationError, match=name):
            small_gen(**{name: value})

    def test_validation(self):
        with pytest.raises(ValidationError):
            small_gen(num_patients=0)
        with pytest.raises(ValidationError):
            small_gen(min_visits=1)
        with pytest.raises(ValidationError):
            small_gen(max_visits=1)
        with pytest.raises(ValidationError):
            small_gen(missing_rate=1.0)
        with pytest.raises(ValidationError):
            small_gen(mnar_strength=-0.5)
        with pytest.raises(ValidationError):
            small_gen(gap_state_coupling=-1.0)
        with pytest.raises(ValidationError):
            small_gen(self_transition=0.0)
        with pytest.raises(ValidationError):
            small_gen(patient_offset_scale=-0.1)

    def test_emission_means_scale_with_spread(self):
        gen = small_gen()
        unit = rng_stream(gen.seed, "generator", "emissions").standard_normal(
            (gen.latent_states, gen.num_variables))
        assert np.array_equal(state_emission_means(gen), EMISSION_SPREAD * unit)

    def test_state_code_probs_blocks(self):
        gen = small_gen(num_codes=7, latent_states=3)
        probs = state_code_probs(gen)
        assert probs.shape == (3, 7)
        for c in range(7):
            assert probs[c % 3, c] == gen.code_on
        off = probs[probs != gen.code_on]
        assert np.all(off == gen.code_off)

    def test_gap_scales_flat_without_coupling(self):
        scales = state_gap_scales(small_gen())
        np.testing.assert_allclose(scales, scales[0])

    def test_gap_scales_fan_out_with_coupling(self):
        scales = state_gap_scales(small_gen(gap_state_coupling=2.0))
        assert scales[0] < scales[-1]
        assert np.all(np.diff(scales) > 0)


class TestGenerateCohort:
    def test_reproducible_and_shaped(self):
        gen = small_gen()
        a = generate_cohort(gen)
        b = generate_cohort(gen)
        assert len(a) == 30
        for sa, sb in zip(a, b):
            assert 2 <= sa.num_steps <= 6
            assert sa.num_variables == 5 and sa.num_codes == 4
            np.testing.assert_array_equal(sa.mask, sb.mask)
            np.testing.assert_array_equal(sa.labels, sb.labels)
            np.testing.assert_array_equal(
                np.nan_to_num(sa.values), np.nan_to_num(sb.values))

    def test_seed_changes_draws(self):
        a = generate_cohort(small_gen())
        b = generate_cohort(small_gen(seed=10))
        assert not np.array_equal(a[0].mask, b[0].mask)

    def test_timestamps_strictly_increasing(self):
        for s in generate_cohort(small_gen()):
            assert np.all(np.diff(s.timestamps) >= 0.1)

    def test_zero_missing_rate_observes_everything(self):
        cohort = generate_cohort(small_gen(missing_rate=0.0))
        assert all(np.all(s.mask == 1.0) for s in cohort)

    def test_missing_rate_is_roughly_respected(self):
        cohort = generate_cohort(small_gen(num_patients=300, missing_rate=0.4))
        rate = 1.0 - np.mean([s.mask.mean() for s in cohort])
        assert abs(rate - 0.4) < 0.03

    def test_mnar_prefers_dropping_extreme_values(self):
        gen = small_gen(num_patients=400, missing_rate=0.1, mnar_strength=2.0)
        mus = state_emission_means(gen)
        cohort = generate_cohort(gen)
        observed_abs, all_abs = [], []
        for s in cohort:
            truth = np.abs(mus[s.latent_states])
            observed_abs.append(truth[s.mask > 0])
            all_abs.append(truth.ravel())
        # surviving observations skew toward small-magnitude cells
        assert (np.concatenate(observed_abs).mean()
                < np.concatenate(all_abs).mean() - 0.05)

    def test_drop_cap_leaves_some_observations(self):
        gen = small_gen(num_patients=200, missing_rate=0.9, mnar_strength=10.0)
        cohort = generate_cohort(gen)
        observed = sum(int(s.mask.sum()) for s in cohort)
        total = sum(s.mask.size for s in cohort)
        assert observed / total > (1.0 - DROP_CAP) / 2

    def test_latent_states_attached_and_markov_sticky(self):
        cohort = generate_cohort(small_gen(num_patients=200,
                                           self_transition=0.9))
        stays = moves = 0
        for s in cohort:
            d = np.diff(s.latent_states)
            stays += int((d == 0).sum())
            moves += int((d != 0).sum())
        rate = stays / (stays + moves)
        assert abs(rate - 0.9) < 0.03

    def test_gap_coupling_orders_mean_gaps_by_state(self):
        gen = small_gen(num_patients=400, gap_state_coupling=2.0,
                        min_visits=4, max_visits=8)
        scales = state_gap_scales(gen)
        sums = np.zeros(gen.latent_states)
        counts = np.zeros(gen.latent_states)
        for s in generate_cohort(gen):
            gaps = np.diff(s.timestamps)
            for state, gap in zip(s.latent_states[:-1], gaps):
                sums[state] += gap
                counts[state] += 1
        means = sums / counts
        assert np.all(np.diff(means) > 0)
        np.testing.assert_allclose(means, 0.1 + scales, rtol=0.12)

    def test_patient_offsets_disperse_patient_means(self):
        def per_patient_spread(tau):
            gen = small_gen(num_patients=150, latent_states=1, missing_rate=0.0,
                            min_visits=6, max_visits=6,
                            patient_offset_scale=tau)
            centers = np.array([s.values.mean(axis=0)
                                for s in generate_cohort(gen)])
            return centers.std(axis=0).mean()

        without = per_patient_spread(0.0)
        with_offsets = per_patient_spread(2.0)
        assert with_offsets > 4.0 * without
        assert with_offsets == pytest.approx(2.0, rel=0.2)


class TestSplitCohort:
    def test_sizes_match_rounded_fraction(self):
        cohort = generate_cohort(small_gen(num_patients=100))
        train, test = split_cohort(cohort, 0.85, seed=0)
        assert (len(train), len(test)) == (85, 15)

    def test_two_patients_split_in_half(self):
        cohort = generate_cohort(small_gen(num_patients=2))
        train, test = split_cohort(cohort, 0.5, seed=0)
        assert (len(train), len(test)) == (1, 1)

    def test_partition_preserves_patients(self):
        cohort = generate_cohort(small_gen(num_patients=20))
        train, test = split_cohort(cohort, 0.7, seed=3)
        ids = sorted(s.patient_id for s in train + test)
        assert ids == sorted(s.patient_id for s in cohort)

    def test_deterministic_per_seed_and_sensitive_to_it(self):
        cohort = generate_cohort(small_gen(num_patients=40))
        a1 = [s.patient_id for s in split_cohort(cohort, 0.8, seed=1)[0]]
        a2 = [s.patient_id for s in split_cohort(cohort, 0.8, seed=1)[0]]
        b = [s.patient_id for s in split_cohort(cohort, 0.8, seed=2)[0]]
        assert a1 == a2
        assert a1 != b

    def test_degenerate_splits_rejected(self):
        cohort = generate_cohort(small_gen(num_patients=3))
        with pytest.raises(ValidationError):
            split_cohort(cohort, 0.05, seed=0)
        with pytest.raises(ValidationError):
            split_cohort(cohort, 0.99, seed=0)
        with pytest.raises(ValidationError):
            split_cohort(cohort, 1.5, seed=0)


class TestCohortFiles:
    def test_round_trip_is_exact(self, tmp_path):
        cohort = generate_cohort(small_gen(num_patients=12, mnar_strength=0.5))
        path = tmp_path / "cohort.jsonl"
        save_cohort(cohort, path)
        loaded = load_cohort(path)
        assert len(loaded) == len(cohort)
        for a, b in zip(cohort, loaded):
            assert a.patient_id == b.patient_id
            np.testing.assert_array_equal(a.timestamps, b.timestamps)
            np.testing.assert_array_equal(a.mask, b.mask)
            np.testing.assert_array_equal(a.labels, b.labels)
            np.testing.assert_array_equal(np.nan_to_num(a.values),
                                          np.nan_to_num(b.values))
            np.testing.assert_array_equal(a.latent_states, b.latent_states)

    def test_missing_cells_have_no_keys_on_disk(self, tmp_path):
        cohort = generate_cohort(small_gen(num_patients=2, missing_rate=0.6))
        path = tmp_path / "cohort.jsonl"
        save_cohort(cohort, path)
        lines = path.read_text().splitlines()
        header = json.loads(lines[0])
        assert header["record"] == "cohort"
        assert header["format_version"] == COHORT_FORMAT_VERSION
        rec = json.loads(lines[1])
        for t, visit in enumerate(rec["visits"]):
            assert len(visit["observations"]) == int(cohort[0].mask[t].sum())

    def test_save_then_save_again_is_byte_identical(self, tmp_path):
        cohort = generate_cohort(small_gen(num_patients=5))
        p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        save_cohort(cohort, p1)
        save_cohort(load_cohort(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_record_lines_are_pinned(self, tmp_path):
        a = VisitSeries(timestamps=[0.0, 1.5],
                        values=[[-0.0, 5e-324, 7.0], [1e300, 2.0, 3.0]],
                        mask=[[1, 1, 0], [1, 0, 1]], labels=[[1, 0], [0, 1]],
                        patient_id="a", latent_states=[2, 0])
        b = VisitSeries(timestamps=[4.25], values=[[0.5, -1.0, 0.0]],
                        mask=[[0, 1, 1]], labels=[[0, 0]], patient_id="b")
        path = tmp_path / "pinned.jsonl"
        save_cohort([a, b], path)
        assert path.read_text().splitlines() == [
            '{"format_version":1,"num_codes":2,"num_variables":3,"record":"cohort"}',
            '{"labels":[[0],[1]],"latent_states":[2,0],"patient_id":"a","visits":'
            '[{"observations":{"0":-0.0,"1":5e-324},"time_hours":0.0},'
            '{"observations":{"0":1e+300,"2":3.0},"time_hours":1.5}]}',
            '{"labels":[[]],"patient_id":"b","visits":'
            '[{"observations":{"1":-1.0,"2":0.0},"time_hours":4.25}]}',
        ]

    def test_load_errors_name_the_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        good = json.dumps({"record": "cohort", "format_version": 1,
                           "num_variables": 2, "num_codes": 2})
        path.write_text(good + "\n{not json\n")
        with pytest.raises(ValidationError, match="line 2"):
            load_cohort(path)

    def test_load_rejects_wrong_version_and_bad_indices(self, tmp_path):
        path = tmp_path / "v9.jsonl"
        path.write_text(json.dumps({"record": "cohort", "format_version": 9,
                                    "num_variables": 2, "num_codes": 2}) + "\n")
        with pytest.raises(ValidationError, match="format_version"):
            load_cohort(path)

        path2 = tmp_path / "idx.jsonl"
        header = json.dumps({"record": "cohort", "format_version": 1,
                             "num_variables": 2, "num_codes": 2})
        rec = json.dumps({"patient_id": "p0",
                          "visits": [{"time_hours": 0.0,
                                      "observations": {"5": 1.0}}],
                          "labels": [[0]]})
        path2.write_text(header + "\n" + rec + "\n")
        with pytest.raises(ValidationError, match="p0"):
            load_cohort(path2)

    def test_load_rejects_garbage_values_with_position(self, tmp_path):
        header = json.dumps({"record": "cohort", "format_version": 1,
                             "num_variables": 2, "num_codes": 2})
        rec = json.dumps({"patient_id": "p0",
                          "visits": [{"time_hours": "soon",
                                      "observations": {}}],
                          "labels": [[]]})
        path = tmp_path / "t.jsonl"
        path.write_text(header + "\n" + rec + "\n")
        with pytest.raises(ValidationError, match="time_hours"):
            load_cohort(path)

    def test_load_rejects_non_finite_time_with_position(self, tmp_path):
        header = json.dumps({"record": "cohort", "format_version": 1,
                             "num_variables": 2, "num_codes": 2})
        rec = json.dumps({"patient_id": "p0",
                          "visits": [{"time_hours": 0.0, "observations": {}},
                                     {"time_hours": float("nan"),
                                      "observations": {}}],
                          "labels": [[], []]})
        assert "NaN" in rec
        path = tmp_path / "t.jsonl"
        path.write_text(header + "\n" + rec + "\n")
        with pytest.raises(ValidationError, match="line 2.*timestamps must be finite"):
            load_cohort(path)

    @pytest.mark.parametrize("bad", ["x", 1.5, True, None, [1]])
    def test_load_rejects_non_integer_latent_states(self, tmp_path, bad):
        header = json.dumps({"record": "cohort", "format_version": 1,
                             "num_variables": 2, "num_codes": 2})
        rec = json.dumps({"patient_id": "p0",
                          "visits": [{"time_hours": 0.0, "observations": {}},
                                     {"time_hours": 1.0, "observations": {}}],
                          "labels": [[], []], "latent_states": [0, bad]})
        path = tmp_path / "t.jsonl"
        path.write_text(header + "\n" + rec + "\n")
        with pytest.raises(ValidationError,
                           match="line 2 patient 'p0'.*latent_states"):
            load_cohort(path)

    def test_missing_file_is_validation_error(self, tmp_path):
        with pytest.raises(ValidationError, match="cannot read"):
            load_cohort(tmp_path / "nope.jsonl")

    def test_empty_cohort_refused_on_save(self, tmp_path):
        with pytest.raises(ValidationError):
            save_cohort([], tmp_path / "empty.jsonl")


def trained_state(seed=0):
    config = ModelConfig(input_size=3, num_codes=2, hidden_size=4,
                         num_layers=2, interlayer_dropout=0.25,
                         noise=NoiseSpec(kind="gaussian", sigma=1.1,
                                         mode="train"),
                         imputation="decay", seed=seed)
    rng = np.random.default_rng(seed)
    state = init_model(config, EmpiricalMeans(rng.standard_normal(3)))
    for _, arr in named_parameters(state):
        arr += 0.1 * rng.standard_normal(arr.shape)
    state.step_count = 17
    return state


class TestCheckpoints:
    def test_round_trip_restores_everything(self, tmp_path, rng):
        from conftest import random_series

        state = trained_state()
        path = tmp_path / "model.json"
        save_checkpoint(state, path, TrainConfig(learning_rate=0.05, epochs=3))
        loaded = load_checkpoint(path)
        assert loaded.step_count == 17
        assert loaded.config == state.config
        np.testing.assert_array_equal(loaded.means.means, state.means.means)
        for name, arr in named_parameters(state):
            np.testing.assert_array_equal(arr, dict(named_parameters(loaded))[name],
                                          err_msg=name)
        series = random_series(rng, t_len=5, d=3, c=2)
        np.testing.assert_array_equal(eval_forward(state, series).top,
                                      eval_forward(loaded, series).top)

    def test_resave_is_byte_identical(self, tmp_path):
        state = trained_state()
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        save_checkpoint(state, p1)
        save_checkpoint(load_checkpoint(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_train_config_is_recorded(self, tmp_path):
        path = tmp_path / "m.json"
        save_checkpoint(trained_state(), path,
                        TrainConfig(learning_rate=0.07, epochs=9))
        doc = json.loads(path.read_text())
        assert doc["format_version"] == CHECKPOINT_FORMAT_VERSION
        assert doc["train_config"]["learning_rate"] == 0.07
        assert doc["train_config"]["epochs"] == 9

    def test_version_mismatch_rejected(self, tmp_path):
        path = tmp_path / "m.json"
        save_checkpoint(trained_state(), path)
        doc = json.loads(path.read_text())
        doc["format_version"] = 99
        path.write_text(json.dumps(doc))
        with pytest.raises(CheckpointError, match="format_version"):
            load_checkpoint(path)

    def test_dimension_mismatch_rejected(self, tmp_path):
        path = tmp_path / "m.json"
        save_checkpoint(trained_state(), path)
        doc = json.loads(path.read_text())
        doc["tensors"]["head.W_code"]["dims"] = [1, 1]
        path.write_text(json.dumps(doc))
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_truncated_file_rejected(self, tmp_path):
        path = tmp_path / "m.json"
        save_checkpoint(trained_state(), path)
        path.write_text(path.read_text()[:50])
        with pytest.raises(CheckpointError, match="corrupted"):
            load_checkpoint(path)

    def test_missing_tensor_rejected(self, tmp_path):
        path = tmp_path / "m.json"
        save_checkpoint(trained_state(), path)
        doc = json.loads(path.read_text())
        del doc["tensors"]["decay.w_gamma"]
        path.write_text(json.dumps(doc))
        with pytest.raises(CheckpointError, match="decay.w_gamma"):
            load_checkpoint(path)

    def test_missing_file_is_validation_error(self, tmp_path):
        with pytest.raises(ValidationError):
            load_checkpoint(tmp_path / "ghost.json")

    @pytest.mark.parametrize("name", ["layers.0.W_z", "layers.1.U_r",
                                      "head.W_code", "head.b_code",
                                      "decay.w_gamma"])
    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_tensor_rejected(self, tmp_path, name, bad):
        path = tmp_path / "m.json"
        save_checkpoint(trained_state(), path)
        doc = json.loads(path.read_text())
        doc["tensors"][name]["values"][-1] = bad
        path.write_text(json.dumps(doc))
        with pytest.raises(CheckpointError, match=name):
            load_checkpoint(path)

    def test_non_finite_means_rejected(self, tmp_path):
        path = tmp_path / "m.json"
        save_checkpoint(trained_state(), path)
        doc = json.loads(path.read_text())
        doc["means"]["values"][0] = float("nan")
        path.write_text(json.dumps(doc))
        with pytest.raises(CheckpointError, match="means must be finite"):
            load_checkpoint(path)

    @pytest.mark.parametrize("bad", ["abc", "17", -1, 1.5, True, None])
    def test_bad_step_count_rejected(self, tmp_path, bad):
        path = tmp_path / "m.json"
        save_checkpoint(trained_state(), path)
        doc = json.loads(path.read_text())
        doc["step_count"] = bad
        path.write_text(json.dumps(doc))
        with pytest.raises(CheckpointError, match="step_count"):
            load_checkpoint(path)

    @pytest.mark.parametrize("field, bad", [("values", ["x", 1.0]),
                                            ("dims", "ab"), ("dims", [-1, -2])])
    def test_malformed_tensor_doc_rejected(self, tmp_path, field, bad):
        path = tmp_path / "m.json"
        save_checkpoint(trained_state(), path)
        doc = json.loads(path.read_text())
        doc["tensors"]["head.b_code"][field] = bad
        path.write_text(json.dumps(doc))
        with pytest.raises(CheckpointError, match="head.b_code"):
            load_checkpoint(path)


class TestAtomicWrites:
    def failing_fdopen(self, monkeypatch):
        """Make the next text write stop half way with a disk-full error."""
        real_fdopen = os.fdopen

        class HalfWriter:
            def __init__(self, f):
                self.f = f

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.f.close()

            def write(self, text):
                self.f.write(text[:len(text) // 2])
                self.f.flush()
                raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr(os, "fdopen",
                            lambda fd, *a, **kw: HalfWriter(real_fdopen(fd, *a, **kw)))

    def test_failed_write_keeps_previous_checkpoint(self, tmp_path, monkeypatch):
        path = tmp_path / "model.json"
        save_checkpoint(trained_state(seed=0), path)
        before = path.read_bytes()
        self.failing_fdopen(monkeypatch)
        with pytest.raises(ValidationError, match="cannot write"):
            save_checkpoint(trained_state(seed=1), path)
        assert path.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["model.json"]
        monkeypatch.undo()
        load_checkpoint(path)

    def test_interrupted_write_leaves_no_temporary_file(self, tmp_path,
                                                        monkeypatch):
        path = tmp_path / "cohort.jsonl"
        save_cohort(generate_cohort(small_gen()), path)
        before = path.read_bytes()

        def interrupt(src, dst):
            raise KeyboardInterrupt

        monkeypatch.setattr(os, "replace", interrupt)
        with pytest.raises(KeyboardInterrupt):
            save_cohort(generate_cohort(small_gen(seed=10)), path)
        assert path.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cohort.jsonl"]

    def test_write_replaces_existing_file(self, tmp_path):
        path = tmp_path / "model.json"
        save_checkpoint(trained_state(seed=0), path)
        save_checkpoint(trained_state(seed=1), path)
        assert load_checkpoint(path).config.seed == 1
        assert sorted(p.name for p in tmp_path.iterdir()) == ["model.json"]


HUGE = 10 ** 400  # a JSON integer beyond float range


def cohort_text(header=None, **record):
    head = {"record": "cohort", "format_version": 1, "num_variables": 2,
            "num_codes": 3}
    head.update(header or {})
    rec = {"patient_id": "p0",
           "visits": [{"time_hours": 0.0, "observations": {"0": 1.0}},
                      {"time_hours": 1.0, "observations": {"1": 2.0}}],
           "labels": [[0], [2]]}
    rec.update(record)
    return json.dumps(head) + "\n" + json.dumps(rec) + "\n"


class TestLoaderFaults:
    """Inputs that used to exit 2 or misread silently: each must be a
    ValidationError (exit 1) that names what is wrong."""

    @pytest.mark.parametrize("text, match", [
        pytest.param(cohort_text(labels=[[True], []]), "code index True",
                     id="label-true"),
        pytest.param(cohort_text(labels=[[0], [False]]), "code index False",
                     id="label-false"),
        pytest.param(cohort_text(header={"num_variables": True}),
                     "num_variables", id="header-variables-true"),
        pytest.param(cohort_text(header={"num_codes": False}), "num_codes",
                     id="header-codes-false"),
        pytest.param(cohort_text(header={"num_variables": HUGE}),
                     "cannot hold", id="header-variables-huge"),
        pytest.param(cohort_text(visits=[
            {"time_hours": HUGE, "observations": {}},
            {"time_hours": 1.0, "observations": {}}]), "time_hours",
            id="time-huge"),
        pytest.param(cohort_text(visits=[
            {"time_hours": 0.0, "observations": {"0": HUGE}},
            {"time_hours": 1.0, "observations": {}}]), "observation '0'",
            id="observation-huge"),
        pytest.param(cohort_text(header={"num_variables": 12}, visits=[
            {"time_hours": 0.0, "observations": {"1_0": 1.0}},
            {"time_hours": 1.0, "observations": {}}]),
            "'1_0' is not an index", id="key-underscore"),
        pytest.param(cohort_text(visits=[
            {"time_hours": 0.0, "observations": {" 1": 1.0}},
            {"time_hours": 1.0, "observations": {}}]),
            "' 1' is not an index", id="key-space"),
        pytest.param(cohort_text(visits=[
            {"time_hours": 0.0, "observations": {"01": 1.0}},
            {"time_hours": 1.0, "observations": {}}]),
            "'01' is not an index", id="key-leading-zero"),
        pytest.param(cohort_text(latent_states=[0, HUGE]),
                     "latent_states|too large", id="latent-huge"),
    ])
    def test_cohort_file(self, tmp_path, text, match):
        path = tmp_path / "c.jsonl"
        path.write_text(text)
        with pytest.raises(ValidationError, match=match):
            load_cohort(path)

    def test_undecodable_bytes(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_bytes(cohort_text().encode().replace(b"p0", b"p\xff"))
        with pytest.raises(ValidationError, match="cannot read"):
            load_cohort(path)

    @pytest.mark.parametrize("field, bad, match", [
        ("hidden_size", 4.5, "hidden_size"), ("noise", 5, "noise"),
        ("noise", "abc", "noise"), ("num_layers", True, "num_layers"),
        ("input_size", 3.0, "input_size"), ("seed", -1, "seed"),
        ("seed", "x", "seed"), ("noise", {"sigma": HUGE}, "model_config")])
    def test_checkpoint_config(self, tmp_path, field, bad, match):
        path = tmp_path / "m.json"
        save_checkpoint(trained_state(), path)
        doc = json.loads(path.read_text())
        doc["model_config"][field] = bad
        path.write_text(json.dumps(doc))
        with pytest.raises(CheckpointError, match=match):
            load_checkpoint(path)

    def test_checkpoint_dims_beyond_float_range(self, tmp_path):
        path = tmp_path / "m.json"
        save_checkpoint(trained_state(), path)
        doc = json.loads(path.read_text())
        doc["tensors"]["head.b_code"]["dims"] = "DIMS"
        path.write_text(json.dumps(doc).replace('"DIMS"', "[1e999]"))
        with pytest.raises(CheckpointError, match="head.b_code"):
            load_checkpoint(path)

    def test_checkpoint_size_beyond_memory_is_rejected_before_allocating(
            self, tmp_path):
        path = tmp_path / "m.json"
        save_checkpoint(trained_state(), path)
        doc = json.loads(path.read_text())
        doc["model_config"]["hidden_size"] = HUGE
        path.write_text(json.dumps(doc))
        with pytest.raises(CheckpointError, match="shape"):
            load_checkpoint(path)


# replacement values for one JSON field
SWAPS = [True, False, None, 0, 7, -1, HUGE, -HUGE, 2.5, 1e300, "", "x", "1",
         [], [1], [True], {}, {"0": 1.0}]


def json_paths(obj, prefix=()):
    """Every key or index path inside a parsed JSON value."""
    items = obj.items() if isinstance(obj, dict) else \
        enumerate(obj) if isinstance(obj, list) else ()
    for key, child in items:
        yield prefix + (key,)
        yield from json_paths(child, prefix + (key,))


def swapped(obj, path, value):
    if not path:
        return value
    out = dict(obj) if isinstance(obj, dict) else list(obj)
    out[path[0]] = swapped(obj[path[0]], path[1:], value)
    return out


@lru_cache(maxsize=None)
def valid_cohort_text() -> str:
    cohort = generate_cohort(small_gen(num_patients=2, num_variables=3,
                                       num_codes=3, max_visits=3))
    with tempfile.TemporaryDirectory() as root:
        save_cohort(cohort, Path(root) / "c.jsonl")
        return (Path(root) / "c.jsonl").read_text()


@lru_cache(maxsize=None)
def valid_checkpoint_text() -> str:
    state = init_model(ModelConfig(input_size=2, num_codes=2, hidden_size=2,
                                   noise=NoiseSpec(drop_prob=0.25), seed=3))
    with tempfile.TemporaryDirectory() as root:
        save_checkpoint(state, Path(root) / "m.json",
                        TrainConfig(learning_rate=0.05, epochs=2))
        return (Path(root) / "m.json").read_text()


def mutations(text: str, split_lines: bool):
    """Truncation at any byte, one edited byte, or one JSON field swapped
    for a value of another type."""
    data = text.encode()
    truncated = st.integers(0, len(data) - 1).map(lambda n: data[:n])
    edited = st.tuples(st.integers(0, len(data) - 1), st.integers(0, 255)).map(
        lambda e: data[:e[0]] + bytes([e[1]]) + data[e[0] + 1:])
    docs = [json.loads(line) for line in text.splitlines()] if split_lines \
        else [json.loads(text)]
    targets = [(i, path) for i, doc in enumerate(docs)
               for path in json_paths(doc)]

    def swap(choice):
        (i, path), value = choice
        out = list(docs)
        out[i] = swapped(docs[i], path, value)
        return "\n".join(json.dumps(doc) for doc in out).encode() + b"\n"

    swaps = st.tuples(st.sampled_from(targets), st.sampled_from(SWAPS)).map(swap)
    return st.one_of(truncated, edited, swaps)


def load_bytes(loader, data: bytes):
    with tempfile.TemporaryDirectory() as root:
        path = Path(root) / "f"
        path.write_bytes(data)
        return loader(path)


class TestFuzzedLoaders:
    """Whatever the bytes, a loader either returns validated data or raises
    ValidationError (CheckpointError for checkpoints), so the CLI exits 1."""

    @settings(max_examples=300, deadline=None)
    @given(data=mutations(valid_cohort_text(), split_lines=True))
    def test_cohort_loader(self, data):
        try:
            cohort = load_bytes(load_cohort, data)
        except ValidationError:
            return
        records = [json.loads(line) for line in data.decode().splitlines()[1:]
                   if line.strip()]
        assert len(records) == len(cohort)
        for record, series in zip(records, cohort):
            for listed, row in zip(record["labels"], series.labels):
                assert row.sum() <= len(listed)

    @settings(max_examples=300, deadline=None)
    @given(data=mutations(valid_checkpoint_text(), split_lines=False))
    def test_checkpoint_loader(self, data):
        try:
            state = load_bytes(load_checkpoint, data)
        except CheckpointError:
            return
        except ValidationError as e:
            assert "cannot read" in str(e)
            return
        with tempfile.TemporaryDirectory() as root:
            save_checkpoint(state, Path(root) / "again.json")
            assert load_checkpoint(Path(root) / "again.json").config \
                == state.config
