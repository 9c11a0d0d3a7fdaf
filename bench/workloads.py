"""The benchmark's three workloads.

Each workload is a function of the seed alone: the same seed gives the
same cohort, split, initialisation and noise draws. Sizes are fixed so a
run's training work, and hence its checkpoint, does not depend on how
fast the machine is; only the repeated phases (scoring, predict calls,
checkpoint round trips, gradient audits) stretch to fill the run's time
budget.
"""

from __future__ import annotations

from dataclasses import dataclass

import robustseq as rs
from robustseq import experiments as ex


@dataclass(frozen=True)
class Workload:
    gen: rs.GenConfig
    model: rs.ModelConfig
    train: rs.TrainConfig
    ks: tuple[int, ...]       # recall cutoffs, all below num_codes
    auc_floor: float          # held-out micro-AUC must lie above this


def desk_train(seed: int) -> Workload:
    """Short sequences (4-16 visits): per-update overhead is a large share."""
    gen = ex.desk_gen_config(seed=seed)
    return Workload(
        gen=gen,
        model=ex.robust_model_config(gen.num_variables, gen.num_codes, seed),
        train=rs.TrainConfig(learning_rate=ex.DESK_LR, epochs=6,
                             averaging_start_epoch=6, seed=seed),
        ks=(3, 5), auc_floor=0.75)


def long_deep_train(seed: int) -> Workload:
    """Long sequences (24-72 visits), two layers, Gaussian noise, mean
    imputation and a truncated carry: the per-step recurrence dominates,
    and the decay backward and Bernoulli noise paths are bypassed."""
    gen = rs.GenConfig(num_patients=500, num_variables=20, num_codes=10,
                       min_visits=24, max_visits=72, latent_states=4,
                       missing_rate=0.6, mnar_strength=0.5,
                       gap_state_coupling=1.0, self_transition=0.97,
                       code_on=0.99, code_off=0.005, patient_offset_scale=1.0,
                       seed=seed)
    model = rs.ModelConfig(
        input_size=gen.num_variables, num_codes=gen.num_codes, hidden_size=32,
        num_layers=2, interlayer_dropout=0.3,
        noise=rs.NoiseSpec(kind="gaussian", sigma=0.5, mode="train"),
        imputation="mean", seed=seed)
    return Workload(
        gen=gen,
        model=model,
        train=rs.TrainConfig(learning_rate=ex.DESK_LR, epochs=6,
                             averaging_start_epoch=6, bptt_window=16,
                             seed=seed),
        ks=(3, 5), auc_floor=0.65)


def cohort_score(seed: int) -> Workload:
    """A large cohort (8000 patients, 4-32 visits, 20 codes) and a wide
    model trained briefly on a 5% split: scoring the held-out 95% and
    reading and writing the cohort file dominate."""
    gen = rs.GenConfig(num_patients=8000, num_variables=20, num_codes=20,
                       min_visits=4, max_visits=32, latent_states=5,
                       missing_rate=0.3, mnar_strength=0.5,
                       self_transition=0.97, code_on=0.99, code_off=0.005,
                       patient_offset_scale=1.0, seed=seed)
    return Workload(
        gen=gen,
        model=ex.robust_model_config(gen.num_variables, gen.num_codes, seed,
                                     hidden=128),
        train=rs.TrainConfig(learning_rate=ex.DESK_LR, epochs=3,
                             averaging_start_epoch=3, split_fraction=0.05,
                             seed=seed),
        ks=(5, 10), auc_floor=0.65)


WORKLOADS = {
    "desk-train": desk_train,
    "long-deep-train": long_deep_train,
    "cohort-score": cohort_score,
}
