"""Desk-scale experiments: learning progress on a synthetic cohort, the
robustness ablation and the noise-spread sweep.

robust_model_config builds the desk model; every other arm is that config
with only its noise and/or imputation replaced. Each experiment is a flat
list of independent (ModelConfig, TrainConfig) runs handed to the one run
loop, run_experiment: that list is where parallel or lockstep runs plug in.
The CLI subcommands and the acceptance suite share these entry points.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from .data_io import GenConfig, split_cohort, state_code_probs
from .errors import ValidationError
from .gru import ModelConfig, NoiseSpec
from .metrics import RECALL_KS, EvalReport, evaluate_cohort
from .temporal import VisitSeries
from .training import TrainConfig, TrainResult, train

GAUSSIAN_SIGMAS = (0.53, 0.92, 1.10, 1.50)
BERNOULLI_DROPS = (0.33, 0.41, 0.50, 0.80)

DESK_PATIENTS = 2000
DESK_GEN_SEED = 11
DESK_LR = 0.05
DESK_DROP_PROB = 0.33

BENCH_EPOCHS = 25
BENCH_SEEDS = (0, 1, 2, 3, 4)
SWEEP_EPOCHS = 5


def desk_gen_config(seed: int = DESK_GEN_SEED,
                    num_patients: int = DESK_PATIENTS) -> GenConfig:
    """The stock synthetic cohort the desk benchmarks run on.

    Sticky states and a crisp state-code law keep next-visit codes
    predictable from inferred state, so training loss has room to fall
    and held-out ranking quality reflects state tracking rather than
    label noise. Per-patient baseline offsets make the fill value matter:
    a global mean is the wrong baseline for most patients, while a decay
    fill anchored at the patient's own last observation is not. Every
    other setting is its GenConfig default.
    """
    return GenConfig(num_patients=num_patients, max_visits=16,
                     mnar_strength=0.5, self_transition=0.99, code_on=0.99,
                     code_off=0.005, patient_offset_scale=2.0, seed=seed)


def robust_model_config(num_variables: int, num_codes: int, seed: int,
                        hidden: int = ModelConfig.hidden_size,
                        drop_prob: float = DESK_DROP_PROB) -> ModelConfig:
    """The desk model: decay imputation plus scaled-Bernoulli hidden-state
    noise, every other setting at its ModelConfig default."""
    return ModelConfig(
        input_size=num_variables, num_codes=num_codes, hidden_size=hidden,
        noise=NoiseSpec(kind="scaled_bernoulli", drop_prob=drop_prob),
        imputation="decay", seed=seed)


def train_and_evaluate(cohort: list[VisitSeries], model_config: ModelConfig,
                       train_config: TrainConfig,
                       ks: tuple[int, ...] = RECALL_KS,
                       ) -> tuple[TrainResult, EvalReport]:
    """Train on the seeded split and score the held-out side."""
    result = train(cohort, model_config, train_config)
    _, test = split_cohort(cohort, train_config.split_fraction,
                           train_config.seed)
    report = evaluate_cohort(result.state, test, ks=ks)
    return result, report


def run_experiment(cohort: list[VisitSeries],
                   runs: list[tuple[ModelConfig, TrainConfig]],
                   ks: tuple[int, ...]) -> list[EvalReport]:
    """Held-out report of each run, in run order; a run seeds its own
    split, initialization and noise, so no run depends on another."""
    return [train_and_evaluate(cohort, mc, tc, ks=ks)[1] for mc, tc in runs]


def robustness_benchmark(cohort: list[VisitSeries],
                         seeds: tuple[int, ...] = BENCH_SEEDS,
                         epochs: int = BENCH_EPOCHS,
                         hidden: int = ModelConfig.hidden_size,
                         split: float = TrainConfig.split_fraction) -> list[dict]:
    """Per-seed held-out AUC and recall@3 of the robust model and its
    ablation.

    Each seed re-splits the cohort, re-initializes both models, and
    trains both with identical optimization settings; the ablated arm is
    the robust config with mean imputation and no hidden-state noise.
    """
    if not cohort:
        raise ValidationError("cohort is empty")
    runs = []
    for seed in seeds:
        robust = robust_model_config(cohort[0].num_variables,
                                     cohort[0].num_codes, seed, hidden=hidden)
        tc = TrainConfig(learning_rate=DESK_LR, epochs=epochs, seed=seed,
                         split_fraction=split)
        runs += [(robust, tc),
                 (replace(robust, noise=NoiseSpec(), imputation="mean"), tc)]
    reports = run_experiment(cohort, runs, ks=(3,))
    return [{"seed": seed,
             "robust_auc": robust.micro_auc,
             "ablated_auc": ablated.micro_auc,
             "robust_recall3": robust.recalls[3],
             "ablated_recall3": ablated.recalls[3]}
            for seed, robust, ablated in zip(seeds, reports[::2], reports[1::2])]


def noise_sweep(cohort: list[VisitSeries],
                sigmas: tuple[float, ...] = GAUSSIAN_SIGMAS,
                drop_probs: tuple[float, ...] = BERNOULLI_DROPS,
                epochs: int = SWEEP_EPOCHS,
                hidden: int = ModelConfig.hidden_size,
                seed: int = TrainConfig.seed) -> list[dict]:
    """Held-out AUC as a function of noise family and spread; each arm is
    the desk model with only its noise replaced."""
    if not cohort:
        raise ValidationError("cohort is empty")
    robust = robust_model_config(cohort[0].num_variables, cohort[0].num_codes,
                                 seed, hidden=hidden)
    tc = TrainConfig(learning_rate=DESK_LR, epochs=epochs, seed=seed)
    noises = [NoiseSpec(kind="gaussian", sigma=s) for s in sigmas] + \
        [NoiseSpec(kind="scaled_bernoulli", drop_prob=p) for p in drop_probs]
    reports = run_experiment(
        cohort, [(replace(robust, noise=noise), tc) for noise in noises], ks=())
    return [{"kind": noise.kind,
             "spread": float(noise.sigma if noise.kind == "gaussian"
                             else noise.drop_prob),
             "micro_auc": report.micro_auc}
            for noise, report in zip(noises, reports)]


def format_table(rows: list[dict], columns: tuple[str, ...]) -> str:
    """Plain text table for the experiment subcommands' output."""
    header = "\t".join(columns)
    lines = [header]
    for row in rows:
        cells = []
        for col in columns:
            v = row[col]
            cells.append(f"{v:.4f}" if isinstance(v, float) else str(v))
        lines.append("\t".join(cells))
    return "\n".join(lines)


def bayes_oracle_scores(gen: GenConfig, cohort: list[VisitSeries],
                        ) -> tuple[np.ndarray, np.ndarray]:
    """Next-visit scores from the generator's own state-code law.

    Uses the true latent state of the target visit, so this upper-bounds
    what any observation-driven model can achieve; the generated task is
    considered learnable when these scores rank well.
    """
    probs = state_code_probs(gen)
    scores = []
    labels = []
    for series in cohort:
        if series.latent_states is None or series.num_steps < 2:
            continue
        scores.append(probs[series.latent_states[1:]])
        labels.append(series.labels[1:])
    if not scores:
        raise ValidationError("cohort carries no latent states to score against")
    return np.concatenate(scores), np.concatenate(labels)
