"""Command-line entry point.

Subcommands: gen (write a synthetic cohort), train (fit and checkpoint a
model), eval (score a cohort against a checkpoint), predict (ranked
next-visit codes for one patient), gradcheck (finite-difference audit of
the analytic gradients), robustness (the paper's ablation, per seed) and
noise-sweep (held-out AUC per noise family and spread), both on a
generated desk cohort. Exit codes: 0 success, 1 validation error
(including bad flags and malformed files), 2 runtime failure or a
gradcheck exceeding tolerance.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from .data_io import (GenConfig, _write_text, generate_cohort, load_checkpoint,
                      load_cohort, save_checkpoint, save_cohort, split_cohort)
from .errors import ValidationError
from .experiments import (BENCH_EPOCHS, BENCH_SEEDS, BERNOULLI_DROPS,
                          DESK_DROP_PROB, DESK_GEN_SEED, DESK_LR, DESK_PATIENTS,
                          GAUSSIAN_SIGMAS, SWEEP_EPOCHS, desk_gen_config,
                          format_table, noise_sweep, robustness_benchmark)
from .gru import ModelConfig, NoiseSpec
from .metrics import RECALL_KS, TIE_MODES, EvalReport, evaluate_cohort
from .model import predict_next
from .training import TrainConfig, run_gradcheck, train

GRADCHECK_TOLERANCE = 1e-4


class _Parser(argparse.ArgumentParser):
    """argparse maps all its own failures to exit code 2; route them
    through ValidationError so bad flags exit 1 per the contract."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise ValidationError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="robustseq",
                     description="Robust GRU sequence models over sparse "
                                 "clinical-style time series.")
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_Parser)

    gen = sub.add_parser("gen", help="generate a synthetic cohort file")
    gen.add_argument("--patients", type=int, required=True,
                     help="number of patients to sample")
    gen.add_argument("--vars", type=int, default=GenConfig.num_variables,
                     help="measured variables per visit")
    gen.add_argument("--codes", type=int, default=GenConfig.num_codes,
                     help="predictable label codes")
    gen.add_argument("--states", type=int, default=GenConfig.latent_states,
                     help="latent condition states")
    gen.add_argument("--min-visits", type=int, default=GenConfig.min_visits)
    gen.add_argument("--max-visits", type=int, default=GenConfig.max_visits)
    gen.add_argument("--missing", type=float, default=GenConfig.missing_rate,
                     help="base probability a cell is unobserved")
    gen.add_argument("--mnar", type=float, default=GenConfig.mnar_strength,
                     help="extra drop pressure on high-magnitude values")
    gen.add_argument("--seed", type=int, default=GenConfig.seed)
    gen.add_argument("--out", required=True, help="cohort file to write")
    gen.set_defaults(func=cmd_gen)

    tr = sub.add_parser("train", help="train a model on a cohort file")
    tr.add_argument("--data", required=True, help="cohort file")
    tr.add_argument("--out", required=True, help="checkpoint file to write")
    tr.add_argument("--epochs", type=int, default=TrainConfig.epochs)
    tr.add_argument("--lr", type=float, default=DESK_LR)
    tr.add_argument("--hidden", type=int, default=ModelConfig.hidden_size)
    tr.add_argument("--layers", type=int, default=ModelConfig.num_layers)
    tr.add_argument("--noise", choices=("bernoulli", "gaussian"),
                    default="bernoulli", help="hidden-state noise family")
    tr.add_argument("--drop-prob", type=float, default=DESK_DROP_PROB,
                    help="Bernoulli noise drop probability")
    tr.add_argument("--sigma", type=float, default=1.10,
                    help="Gaussian noise standard deviation")
    tr.add_argument("--dropout", type=float, default=ModelConfig.interlayer_dropout,
                    help="inter-layer dropout rate")
    tr.add_argument("--clip", type=float, default=TrainConfig.clip_norm,
                    help="global gradient norm ceiling")
    tr.add_argument("--l2", type=float, default=TrainConfig.l2_lambda,
                    help="L2 penalty on the head weights")
    tr.add_argument("--split", type=float, default=TrainConfig.split_fraction,
                    help="training fraction of the patient split")
    tr.add_argument("--seed", type=int, default=TrainConfig.seed)
    tr.add_argument("--imputation", choices=("decay", "mean"),
                    default=ModelConfig.imputation,
                    help="missing-cell filling strategy")
    tr.set_defaults(func=cmd_train)

    ev = sub.add_parser("eval", help="score a cohort with a checkpoint")
    ev.add_argument("--model", required=True, help="checkpoint file")
    ev.add_argument("--data", required=True, help="cohort file")
    ev.add_argument("--split", type=float, default=None,
                    help="if set, score only the held-out side of this split")
    ev.add_argument("--seed", type=int, default=TrainConfig.seed,
                    help="split shuffle seed (with --split)")
    ev.add_argument("--topk", type=int, nargs="+", default=list(RECALL_KS),
                    help="recall cutoffs")
    ev.add_argument("--ties", choices=TIE_MODES, default=EvalReport.ties,
                    help="how AUC scores tied pairs")
    ev.add_argument("--out", default=None, help="also write the report here")
    ev.set_defaults(func=cmd_eval)

    pr = sub.add_parser("predict",
                        help="rank next-visit codes for one patient")
    pr.add_argument("--model", required=True, help="checkpoint file")
    pr.add_argument("--data", required=True, help="cohort file")
    pr.add_argument("--patient", default=None,
                    help="patient_id to score (default: first in file)")
    pr.add_argument("--topk", type=int, default=10,
                    help="number of codes to list")
    pr.add_argument("--out", default=None, help="also write the ranking here")
    pr.set_defaults(func=cmd_predict)

    gc = sub.add_parser("gradcheck",
                        help="compare analytic gradients to finite differences")
    gc.add_argument("--seed", type=int, default=1)
    gc.set_defaults(func=cmd_gradcheck)

    desk = argparse.ArgumentParser(add_help=False)
    desk.add_argument("--patients", type=int, default=DESK_PATIENTS,
                      help="patients in the generated desk cohort")
    desk.add_argument("--gen-seed", type=int, default=DESK_GEN_SEED,
                      help="cohort generation seed")
    experiment = {"parents": [desk],
                  "formatter_class": argparse.ArgumentDefaultsHelpFormatter}

    rb = sub.add_parser("robustness", **experiment,
                        help="decay + noise against mean + no noise, per seed")
    rb.add_argument("--epochs", type=int, default=BENCH_EPOCHS,
                    help="training epochs per model")
    rb.add_argument("--split", type=float, default=TrainConfig.split_fraction,
                    help="training fraction of each seeded split")
    rb.add_argument("--seeds", type=int, nargs="+", default=list(BENCH_SEEDS),
                    help="one split and initialization per seed")
    rb.set_defaults(func=cmd_robustness)

    sw = sub.add_parser("noise-sweep", **experiment,
                        help="held-out AUC per noise family and spread")
    sw.add_argument("--epochs", type=int, default=SWEEP_EPOCHS,
                    help="training epochs per model")
    sw.add_argument("--seed", type=int, default=TrainConfig.seed,
                    help="training seed")
    sw.add_argument("--sigmas", type=float, nargs="+",
                    default=list(GAUSSIAN_SIGMAS),
                    help="Gaussian noise standard deviations")
    sw.add_argument("--drop-probs", type=float, nargs="+",
                    default=list(BERNOULLI_DROPS),
                    help="scaled-Bernoulli drop probabilities")
    sw.set_defaults(func=cmd_noise_sweep)
    return parser


def cmd_gen(args) -> int:
    gen = GenConfig(num_patients=args.patients, num_variables=args.vars,
                    num_codes=args.codes, min_visits=args.min_visits,
                    max_visits=args.max_visits, latent_states=args.states,
                    missing_rate=args.missing, mnar_strength=args.mnar,
                    seed=args.seed)
    cohort = generate_cohort(gen)
    save_cohort(cohort, args.out)
    print(f"wrote {len(cohort)} patients "
          f"({gen.num_variables} variables, {gen.num_codes} codes) to {args.out}")
    return 0


def cmd_train(args) -> int:
    cohort = load_cohort(args.data)
    if args.noise == "bernoulli":
        noise = NoiseSpec(kind="scaled_bernoulli", drop_prob=args.drop_prob)
    else:
        noise = NoiseSpec(kind="gaussian", sigma=args.sigma)
    model_config = ModelConfig(
        input_size=cohort[0].num_variables, num_codes=cohort[0].num_codes,
        hidden_size=args.hidden, num_layers=args.layers,
        interlayer_dropout=args.dropout, noise=noise,
        imputation=args.imputation, seed=args.seed)
    train_config = TrainConfig(
        learning_rate=args.lr, epochs=args.epochs, clip_norm=args.clip,
        l2_lambda=args.l2, split_fraction=args.split, seed=args.seed)
    result = train(cohort, model_config, train_config)
    save_checkpoint(result.state, args.out, train_config)
    loss_path = f"{args.out}.loss.txt"
    _write_text(loss_path, "".join(f"{epoch}\t{loss!r}\n" for epoch, loss
                                   in enumerate(result.loss_history, start=1)))
    print(f"trained {args.epochs} epochs on {len(cohort)} patients")
    print(f"epoch 1 mean loss\t{result.loss_history[0]!r}")
    print(f"final mean loss\t{result.loss_history[-1]!r}")
    print(f"checkpoint\t{args.out}")
    print(f"loss history\t{loss_path}")
    return 0


def cmd_eval(args) -> int:
    state = load_checkpoint(args.model)
    cohort = load_cohort(args.data)
    if args.split is not None:
        _, cohort = split_cohort(cohort, args.split, args.seed)
    report = evaluate_cohort(state, cohort, ks=tuple(args.topk), ties=args.ties)
    for line in report.lines():
        print(line)
    if args.out:
        _write_text(args.out,
                    json.dumps(report.to_dict(), sort_keys=True, indent=2) + "\n")
    return 0


def cmd_predict(args) -> int:
    if args.topk < 1:
        raise ValidationError(f"--topk must be >= 1, got {args.topk}")
    state = load_checkpoint(args.model)
    cohort = load_cohort(args.data)
    if args.patient is None:
        series = cohort[0]
    else:
        matches = [s for s in cohort if s.patient_id == args.patient]
        if not matches:
            raise ValidationError(f"patient {args.patient!r} not found in {args.data}")
        series = matches[0]
    probs = predict_next(state, series)
    order = np.argsort(-probs, kind="stable")[:args.topk]
    print(f"patient\t{series.patient_id}")
    print("rank\tcode\tprobability")
    for rank, code in enumerate(order, start=1):
        print(f"{rank}\t{int(code)}\t{probs[code]:.6f}")
    if args.out:
        doc = {"patient_id": series.patient_id,
               "ranking": [{"code": int(code), "probability": float(probs[code])}
                           for code in order]}
        _write_text(args.out, json.dumps(doc, sort_keys=True, indent=2) + "\n")
    return 0


def cmd_gradcheck(args) -> int:
    report = run_gradcheck(seed=args.seed)
    for line in report.lines():
        print(line)
    if report.max_rel_error < GRADCHECK_TOLERANCE:
        print(f"PASS (tolerance {GRADCHECK_TOLERANCE:.0e})")
        return 0
    print(f"FAIL (tolerance {GRADCHECK_TOLERANCE:.0e})")
    return 2


def _desk_cohort(args):
    return generate_cohort(desk_gen_config(seed=args.gen_seed,
                                           num_patients=args.patients))


def cmd_robustness(args) -> int:
    rows = robustness_benchmark(_desk_cohort(args), seeds=tuple(args.seeds),
                                epochs=args.epochs, split=args.split)
    print(format_table(rows, ("seed", "robust_auc", "ablated_auc",
                              "robust_recall3", "ablated_recall3")))
    wins = sum(row["robust_auc"] >= row["ablated_auc"] for row in rows)
    print(f"robust >= ablated in {wins}/{len(rows)} seeds")
    return 0


def cmd_noise_sweep(args) -> int:
    rows = noise_sweep(_desk_cohort(args), sigmas=tuple(args.sigmas),
                       drop_probs=tuple(args.drop_probs), epochs=args.epochs,
                       seed=args.seed)
    print(format_table(rows, ("kind", "spread", "micro_auc")))
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return int(args.func(args) or 0)
    except ValidationError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except Exception as e:  # CLI boundary: anything else is a runtime failure
        print(f"runtime failure: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
