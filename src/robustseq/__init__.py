"""Robust GRU sequence models for sparse, irregularly sampled series.

Missing variables are imputed by a learned per-variable temporal decay
toward the training-split mean; the recurrence is regularized by mean-1
multiplicative noise on the hidden states. Training is truncated BPTT
with clipped, tail-averaged SGD; evaluation reports micro-averaged AUC
and top-k recall over multi-label next-visit codes.
"""

from .data_io import (GenConfig, generate_cohort, load_checkpoint, load_cohort,
                      save_checkpoint, save_cohort, split_cohort,
                      state_code_probs)
from .errors import (CheckpointError, MetricUndefinedError,
                     TrainingDivergedError, ValidationError)
from .gru import (GruParams, ModelConfig, NoiseSpec, SequenceNoise,
                  forward_sequence, gru_step, noisy_gru_step,
                  sample_sequence_noise)
from .metrics import EvalReport, evaluate_cohort, micro_auc, top_k_recall
from .model import (FlatTensors, ModelState, eval_forward, init_model,
                    named_parameters, orthogonal_init, orthonormality_residual,
                    predict_next, score_series)
from .objective import HeadParams, head_probs, next_visit_loss
from .temporal import (DecayParams, EmpiricalMeans, VisitSeries,
                       compute_intervals, decay_rates, empirical_means,
                       impute_inputs, mean_impute_inputs)
from .training import (TrainConfig, TrainResult, asgd_step, bptt_gradients,
                       clip_gradients, finite_difference_check, run_gradcheck,
                       train)

__version__ = "0.1.0"

__all__ = [
    "CheckpointError", "DecayParams", "EmpiricalMeans", "EvalReport",
    "FlatTensors", "GenConfig", "GruParams", "HeadParams", "MetricUndefinedError",
    "ModelConfig", "ModelState", "NoiseSpec", "SequenceNoise", "TrainConfig",
    "TrainResult", "TrainingDivergedError", "ValidationError", "VisitSeries",
    "asgd_step", "bptt_gradients", "clip_gradients",
    "compute_intervals", "decay_rates", "empirical_means", "eval_forward",
    "evaluate_cohort", "finite_difference_check", "forward_sequence",
    "generate_cohort", "gru_step", "head_probs", "impute_inputs", "init_model",
    "load_checkpoint", "load_cohort", "mean_impute_inputs", "micro_auc",
    "named_parameters", "next_visit_loss", "noisy_gru_step", "orthogonal_init",
    "orthonormality_residual", "predict_next", "run_gradcheck",
    "sample_sequence_noise", "save_checkpoint",
    "save_cohort", "score_series", "split_cohort",
    "state_code_probs", "top_k_recall", "train",
]
