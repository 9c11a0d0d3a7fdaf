"""Desk-scale benchmark harnesses.

Three reusable experiments: learning progress on a synthetic cohort, a
robustness ablation (decay imputation + hidden-state noise versus mean
imputation without noise), and the noise-spread sweep over both noise
families. The ``robustness`` and ``noise-sweep`` CLI subcommands and the
acceptance suite share these entry points, so reported numbers come from
one code path.
"""

from __future__ import annotations

import numpy as np

from .data_io import GenConfig, generate_cohort, split_cohort
from .errors import ValidationError
from .gru import ModelConfig, NoiseSpec
from .metrics import EvalReport, evaluate_cohort
from .temporal import VisitSeries
from .training import TrainConfig, TrainResult, train

GAUSSIAN_SIGMAS = (0.53, 0.92, 1.10, 1.50)
BERNOULLI_DROPS = (0.33, 0.41, 0.50, 0.80)

DESK_HIDDEN = 64
DESK_LR = 0.05
DESK_DROP_PROB = 0.33
DESK_DROPOUT = 0.3
DESK_MNAR = 0.5
DESK_STICKINESS = 0.99
DESK_CODE_ON = 0.99
DESK_CODE_OFF = 0.005
DESK_OFFSET = 2.0

BENCH_EPOCHS = 25
BENCH_SPLIT = 0.85


def desk_gen_config(seed: int = 11, num_patients: int = 2000) -> GenConfig:
    """The stock synthetic cohort the desk benchmarks run on.

    Sticky states and a crisp state-code law keep next-visit codes
    predictable from inferred state, so training loss has room to fall
    and held-out ranking quality reflects state tracking rather than
    label noise. Per-patient baseline offsets make the fill value matter:
    a global mean is the wrong baseline for most patients, while a decay
    fill anchored at the patient's own last observation is not.
    """
    return GenConfig(num_patients=num_patients, num_variables=20, num_codes=10,
                     min_visits=4, max_visits=16, latent_states=4,
                     missing_rate=0.3, mnar_strength=DESK_MNAR,
                     self_transition=DESK_STICKINESS, code_on=DESK_CODE_ON,
                     code_off=DESK_CODE_OFF,
                     patient_offset_scale=DESK_OFFSET, seed=seed)


def robust_model_config(num_variables: int, num_codes: int, seed: int,
                        hidden: int = DESK_HIDDEN,
                        drop_prob: float = DESK_DROP_PROB) -> ModelConfig:
    """Decay imputation plus scaled-Bernoulli hidden-state noise."""
    return ModelConfig(
        input_size=num_variables, num_codes=num_codes, hidden_size=hidden,
        num_layers=1, interlayer_dropout=DESK_DROPOUT,
        noise=NoiseSpec(kind="scaled_bernoulli", drop_prob=drop_prob,
                        mode="train"),
        imputation="decay", seed=seed)


def ablated_model_config(num_variables: int, num_codes: int, seed: int,
                         hidden: int = DESK_HIDDEN) -> ModelConfig:
    """Mean imputation, no hidden-state noise; dropout kept for parity."""
    return ModelConfig(
        input_size=num_variables, num_codes=num_codes, hidden_size=hidden,
        num_layers=1, interlayer_dropout=DESK_DROPOUT,
        noise=NoiseSpec(kind="scaled_bernoulli", drop_prob=0.0, mode="train"),
        imputation="mean", seed=seed)


def gaussian_model_config(num_variables: int, num_codes: int, seed: int,
                          sigma: float, hidden: int = DESK_HIDDEN) -> ModelConfig:
    """Decay imputation with mean-1 Gaussian hidden-state noise."""
    return ModelConfig(
        input_size=num_variables, num_codes=num_codes, hidden_size=hidden,
        num_layers=1, interlayer_dropout=DESK_DROPOUT,
        noise=NoiseSpec(kind="gaussian", sigma=sigma, mode="train"),
        imputation="decay", seed=seed)


def train_and_evaluate(cohort: list[VisitSeries], model_config: ModelConfig,
                       train_config: TrainConfig,
                       ks: tuple[int, ...] = (10, 20, 30),
                       ) -> tuple[TrainResult, EvalReport]:
    """Train on the seeded split and score the held-out side."""
    result = train(cohort, model_config, train_config)
    _, test = split_cohort(cohort, train_config.split_fraction,
                           train_config.seed)
    report = evaluate_cohort(result.state, test, ks=ks)
    return result, report


def robustness_benchmark(cohort: list[VisitSeries],
                         seeds: tuple[int, ...] = (0, 1, 2, 3, 4),
                         epochs: int = BENCH_EPOCHS, hidden: int = DESK_HIDDEN,
                         split: float = BENCH_SPLIT) -> list[dict]:
    """Per-seed held-out AUC and recall@3 of the robust model and its
    ablation.

    Each seed re-splits the cohort, re-initializes both models, and
    trains both with identical optimization settings; only imputation
    and hidden-state noise differ between the arms.
    """
    if not cohort:
        raise ValidationError("cohort is empty")
    d = cohort[0].num_variables
    c = cohort[0].num_codes
    rows = []
    for seed in seeds:
        tc = TrainConfig(learning_rate=DESK_LR, epochs=epochs, seed=seed,
                         split_fraction=split)
        _, robust = train_and_evaluate(
            cohort, robust_model_config(d, c, seed, hidden=hidden), tc,
            ks=(3,))
        _, ablated = train_and_evaluate(
            cohort, ablated_model_config(d, c, seed, hidden=hidden), tc,
            ks=(3,))
        rows.append({
            "seed": seed,
            "robust_auc": robust.micro_auc,
            "ablated_auc": ablated.micro_auc,
            "robust_recall3": robust.recalls[3],
            "ablated_recall3": ablated.recalls[3],
        })
    return rows


def noise_sweep(cohort: list[VisitSeries],
                sigmas: tuple[float, ...] = GAUSSIAN_SIGMAS,
                drop_probs: tuple[float, ...] = BERNOULLI_DROPS,
                epochs: int = 5, hidden: int = DESK_HIDDEN,
                seed: int = 0) -> list[dict]:
    """Held-out AUC as a function of noise family and spread."""
    if not cohort:
        raise ValidationError("cohort is empty")
    d = cohort[0].num_variables
    c = cohort[0].num_codes
    tc = TrainConfig(learning_rate=DESK_LR, epochs=epochs, seed=seed)
    rows = []
    for sigma in sigmas:
        _, report = train_and_evaluate(
            cohort, gaussian_model_config(d, c, seed, sigma, hidden=hidden), tc)
        rows.append({"kind": "gaussian", "spread": float(sigma),
                     "micro_auc": report.micro_auc})
    for drop in drop_probs:
        _, report = train_and_evaluate(
            cohort,
            robust_model_config(d, c, seed, hidden=hidden, drop_prob=drop), tc)
        rows.append({"kind": "scaled_bernoulli", "spread": float(drop),
                     "micro_auc": report.micro_auc})
    return rows


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
    from .data_io import state_code_probs

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
