"""Schema and plumbing checks for the benchmark harnesses.

Heavy benchmark numbers live in the acceptance suite; these tests run
miniature cohorts and assert wiring, schemas, and the oracle scorer.
"""

import numpy as np
import pytest

from robustseq.data_io import GenConfig, generate_cohort
from robustseq.errors import ValidationError
from robustseq.experiments import (BERNOULLI_DROPS, GAUSSIAN_SIGMAS,
                                   ablated_model_config, bayes_oracle_scores,
                                   desk_gen_config, format_table,
                                   gaussian_model_config, noise_sweep,
                                   robust_model_config, robustness_benchmark,
                                   train_and_evaluate)
from robustseq.metrics import micro_auc
from robustseq.training import TrainConfig


@pytest.fixture(scope="module")
def mini_cohort():
    gen = GenConfig(num_patients=40, num_variables=6, num_codes=5,
                    min_visits=3, max_visits=6, latent_states=3,
                    missing_rate=0.3, self_transition=0.9, seed=5)
    return gen, generate_cohort(gen)


class TestConfigs:
    def test_desk_cohort_is_valid(self):
        gen = desk_gen_config()
        assert gen.num_patients == 2000
        assert gen.num_variables == 20
        assert gen.num_codes == 10
        assert gen.latent_states == 4
        assert gen.missing_rate == 0.3

    def test_arms_differ_only_in_mechanisms(self):
        robust = robust_model_config(6, 5, seed=3, hidden=8)
        ablated = ablated_model_config(6, 5, seed=3, hidden=8)
        assert robust.imputation == "decay"
        assert ablated.imputation == "mean"
        assert robust.noise.drop_prob > 0.0
        assert ablated.noise.drop_prob == 0.0
        for field in ("input_size", "num_codes", "hidden_size", "num_layers",
                      "interlayer_dropout", "seed"):
            assert getattr(robust, field) == getattr(ablated, field)

    def test_gaussian_arm(self):
        mc = gaussian_model_config(6, 5, seed=0, sigma=0.92)
        assert mc.noise.kind == "gaussian"
        assert mc.noise.sigma == 0.92
        assert mc.imputation == "decay"

    def test_pinned_sweep_grids(self):
        assert GAUSSIAN_SIGMAS == (0.53, 0.92, 1.10, 1.50)
        assert BERNOULLI_DROPS == (0.33, 0.41, 0.50, 0.80)


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
