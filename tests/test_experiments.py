"""Schema and plumbing checks for the benchmark harnesses.

Heavy benchmark numbers live in the acceptance suite; these tests run
miniature cohorts and assert wiring, schemas, and the oracle scorer.
"""

from dataclasses import asdict, fields, replace

import numpy as np
import pytest

from robustseq import experiments
from robustseq.data_io import GenConfig, generate_cohort, split_cohort
from robustseq.errors import ValidationError
from robustseq.experiments import (BERNOULLI_DROPS, GAUSSIAN_SIGMAS,
                                   bayes_oracle_scores, desk_gen_config,
                                   format_table, noise_sweep,
                                   robust_model_config, robustness_benchmark,
                                   train_and_evaluate)
from robustseq.gru import ModelConfig, NoiseSpec
from robustseq.metrics import evaluate_cohort, micro_auc
from robustseq.training import TrainConfig, train


@pytest.fixture(scope="module")
def mini_cohort():
    gen = GenConfig(num_patients=40, num_variables=6, num_codes=5,
                    min_visits=3, max_visits=6, latent_states=3,
                    missing_rate=0.3, self_transition=0.9, seed=5)
    return gen, generate_cohort(gen)


def planned_runs(monkeypatch, experiment, *args, **kwargs):
    """The (ModelConfig, TrainConfig) runs an experiment hands to its run
    loop, captured without training any of them."""
    seen = []

    def capture(cohort, runs, ks):
        seen.extend(runs)
        return [experiments.EvalReport(micro_auc=0.5, recalls={3: 0.5},
                                       positives=1, negatives=1, instances=1)
                for _ in runs]

    monkeypatch.setattr(experiments, "run_experiment", capture)
    experiment(*args, **kwargs)
    return seen


def hand_built_arm(seed, noise, imputation):
    """A desk arm written out field by field, with no experiments builder."""
    return ModelConfig(input_size=6, num_codes=5, hidden_size=8, num_layers=1,
                       interlayer_dropout=0.3, noise=noise,
                       imputation=imputation, seed=seed)


def hand_built_train(seed, epochs):
    return TrainConfig(learning_rate=0.05, epochs=epochs, clip_norm=0.25,
                       l2_lambda=1e-5, averaging_start_epoch=None,
                       split_fraction=0.85, bptt_window=None, seed=seed)


def held_out(cohort, model_config, train_config, ks):
    """Train, split and score by hand, as each experiment run must."""
    state = train(cohort, model_config, train_config).state
    _, test = split_cohort(cohort, train_config.split_fraction,
                           train_config.seed)
    return evaluate_cohort(state, test, ks=ks)


class TestConfigs:
    def test_desk_cohort_is_valid(self):
        gen = desk_gen_config()
        assert gen.num_patients == 2000
        assert gen.num_variables == 20
        assert gen.num_codes == 10
        assert gen.latent_states == 4
        assert gen.missing_rate == 0.3

    def test_arms_differ_only_in_mechanisms(self, mini_cohort, monkeypatch):
        _, cohort = mini_cohort
        (robust, robust_tc), (ablated, ablated_tc) = planned_runs(
            monkeypatch, robustness_benchmark, cohort, seeds=(3,), hidden=8)
        assert robust == hand_built_arm(
            3, NoiseSpec(kind="scaled_bernoulli", drop_prob=0.33), "decay")
        assert ablated == hand_built_arm(
            3, NoiseSpec(kind="scaled_bernoulli", drop_prob=0.0), "mean")
        assert robust.noise.drop_prob > 0.0
        assert ablated.noise.drop_prob == 0.0
        assert replace(robust, noise=ablated.noise,
                       imputation=ablated.imputation) == ablated
        assert robust_tc == ablated_tc

    def test_gaussian_arm(self, mini_cohort, monkeypatch):
        _, cohort = mini_cohort
        [(mc, _)] = planned_runs(monkeypatch, noise_sweep, cohort,
                                 sigmas=(0.92,), drop_probs=(), hidden=8)
        assert mc.noise.kind == "gaussian"
        assert mc.noise.sigma == 0.92
        assert mc.imputation == "decay"
        assert mc == replace(robust_model_config(6, 5, seed=0, hidden=8),
                             noise=NoiseSpec(kind="gaussian", sigma=0.92))

    def test_builder_writes_the_hand_built_config(self):
        robust = robust_model_config(6, 5, seed=3, hidden=8)
        by_hand = hand_built_arm(
            3, NoiseSpec(kind="scaled_bernoulli", drop_prob=0.33,
                         sigma=0.0, mode="train"), "decay")
        assert robust == by_hand
        assert asdict(robust) == asdict(by_hand)
        assert [f.name for f in fields(ModelConfig)] == [
            "input_size", "num_codes", "hidden_size", "num_layers",
            "interlayer_dropout", "noise", "imputation", "seed"]

    def test_pinned_sweep_grids(self):
        assert GAUSSIAN_SIGMAS == (0.53, 0.92, 1.10, 1.50)
        assert BERNOULLI_DROPS == (0.33, 0.41, 0.50, 0.80)


class TestHandBuiltReference:
    """Both experiments' rows equal runs trained from configs written out
    field by field, so the arms and the run loop change nothing."""

    def test_robustness_rows(self, mini_cohort):
        _, cohort = mini_cohort
        expected = []
        for seed in (0, 1):
            tc = hand_built_train(seed, epochs=1)
            robust = held_out(cohort, hand_built_arm(
                seed, NoiseSpec(kind="scaled_bernoulli", drop_prob=0.33,
                                sigma=0.0, mode="train"), "decay"), tc, (3,))
            ablated = held_out(cohort, hand_built_arm(
                seed, NoiseSpec(kind="scaled_bernoulli", drop_prob=0.0,
                                sigma=0.0, mode="train"), "mean"), tc, (3,))
            expected.append({"seed": seed,
                             "robust_auc": robust.micro_auc,
                             "ablated_auc": ablated.micro_auc,
                             "robust_recall3": robust.recalls[3],
                             "ablated_recall3": ablated.recalls[3]})
        assert robustness_benchmark(cohort, seeds=(0, 1), epochs=1,
                                    hidden=8) == expected

    def test_noise_sweep_rows(self, mini_cohort):
        _, cohort = mini_cohort
        tc = hand_built_train(2, epochs=1)
        arms = [("gaussian", 0.5, NoiseSpec(kind="gaussian", drop_prob=0.0,
                                            sigma=0.5, mode="train")),
                ("scaled_bernoulli", 0.41,
                 NoiseSpec(kind="scaled_bernoulli", drop_prob=0.41,
                           sigma=0.0, mode="train"))]
        expected = [{"kind": kind, "spread": spread,
                     "micro_auc": held_out(cohort, hand_built_arm(
                         2, noise, "decay"), tc, ()).micro_auc}
                    for kind, spread, noise in arms]
        assert noise_sweep(cohort, sigmas=(0.5,), drop_probs=(0.41,),
                           epochs=1, hidden=8, seed=2) == expected

    def test_sweep_scores_no_recall(self, mini_cohort, monkeypatch):
        _, cohort = mini_cohort
        asked = []
        real = experiments.train_and_evaluate

        def spy(cohort, model_config, train_config, ks):
            asked.append(ks)
            return real(cohort, model_config, train_config, ks=ks)

        monkeypatch.setattr(experiments, "train_and_evaluate", spy)
        noise_sweep(cohort, sigmas=(0.5,), drop_probs=(), epochs=1, hidden=8)
        assert asked == [()]


class TestHarnesses:
    def test_train_and_evaluate_scores_held_out(self, mini_cohort):
        _, cohort = mini_cohort
        tc = TrainConfig(learning_rate=0.05, epochs=1, seed=0)
        result, report = train_and_evaluate(
            cohort, robust_model_config(6, 5, seed=0, hidden=8), tc)
        assert len(result.loss_history) == 1
        assert 0.0 <= report.micro_auc <= 1.0

    def test_benchmark_rows(self, mini_cohort):
        _, cohort = mini_cohort
        rows = robustness_benchmark(cohort, seeds=(0, 1), epochs=1, hidden=8)
        assert [row["seed"] for row in rows] == [0, 1]
        for row in rows:
            assert set(row) == {"seed", "robust_auc", "ablated_auc",
                                "robust_recall3", "ablated_recall3"}
            assert 0.0 <= row["robust_auc"] <= 1.0
            assert 0.0 <= row["ablated_auc"] <= 1.0

    def test_benchmark_rejects_empty(self):
        with pytest.raises(ValueError, match="empty") as caught:
            robustness_benchmark([], seeds=(0,))
        assert caught.type is ValidationError

    def test_sweep_rejects_empty(self):
        with pytest.raises(ValidationError, match="empty"):
            noise_sweep([], sigmas=(0.5,), drop_probs=())

    def test_sweep_covers_both_families(self, mini_cohort):
        _, cohort = mini_cohort
        rows = noise_sweep(cohort, sigmas=(0.5,), drop_probs=(0.33, 0.5),
                           epochs=1, hidden=8)
        assert [(r["kind"], r["spread"]) for r in rows] == [
            ("gaussian", 0.5), ("scaled_bernoulli", 0.33),
            ("scaled_bernoulli", 0.5)]
        for row in rows:
            assert 0.0 <= row["micro_auc"] <= 1.0


class TestOracle:
    def test_oracle_ranks_generated_labels(self, mini_cohort):
        gen, cohort = mini_cohort
        scores, labels = bayes_oracle_scores(gen, cohort)
        assert scores.shape == labels.shape
        assert micro_auc(scores, labels) > 0.9

    def test_oracle_needs_latent_states(self, mini_cohort):
        gen, cohort = mini_cohort
        stripped = [type(s)(timestamps=s.timestamps, values=s.values,
                            mask=s.mask, labels=s.labels,
                            patient_id=s.patient_id)
                    for s in cohort]
        with pytest.raises(ValueError, match="latent") as caught:
            bayes_oracle_scores(gen, stripped)
        assert caught.type is ValidationError


class TestFormatTable:
    def test_rounds_floats_keeps_ints(self):
        rows = [{"seed": 3, "auc": 0.98765}]
        text = format_table(rows, ("seed", "auc"))
        assert text.splitlines() == ["seed\tauc", "3\t0.9877"]

    def test_column_order_respected(self):
        rows = [{"a": 1, "b": 2}]
        assert format_table(rows, ("b", "a")).splitlines()[1] == "2\t1"
