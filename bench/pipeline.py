"""One benchmark run: a user's whole pipeline through the public API.

Set-up (generate, write and read back the cohort) and training run once,
as a user runs them; training is a fixed amount of work, so its
checkpoint does not depend on machine speed. Checkpoint round trips,
cohort scoring, single-patient predict calls and the stock gradient audit
are then repeated in whole rounds, interleaved so that each of them
samples the whole measuring window: the host's speed drifts over tens of
seconds, and a phase timed in one contiguous block would catch only one
stretch of it. The correctness checks run last and are not timed.
"""

from __future__ import annotations

import hashlib
import json
import math
import resource
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import oracles
from oracles import CheckFailed

# share of the measuring window, and the fewest whole rounds, per phase
SHARES = {"checkpoint": 0.15, "score": 0.4, "predict": 0.3, "gradcheck": 0.15}
MIN_ROUNDS = {"checkpoint": 5, "score": 1, "gradcheck": 3}
MIN_PREDICT_CALLS = 1000  # p99 keeps at least 10 samples beyond it
PREDICT_PATIENTS = 250     # one predict round: a seeded sample of the cohort
GRADCHECK_TOLERANCE = 1e-4
FORWARD_PATIENTS = 16      # patients checked against the reference forward
AUC_PATIENTS = 1500        # held-out patients pooled for the rank-sum check
TOPK_ROWS = 300            # pooled rows for the brute-force top-k check
FD_COORDS_PER_TENSOR = 2

END_TO_END_UNITS = {
    "setup_s": "s",
    "train_updates_per_s": "updates/s",
    "score_patients_per_s": "patients/s",
    "predict_ms_p50": "ms",
    "predict_ms_p99": "ms",
    "checkpoint_roundtrip_ms": "ms",
    "checkpoint_bytes": "bytes",
    "gradcheck_s": "s",
    "peak_rss_mib": "MiB",
}


@dataclass
class Outcome:
    e2e: dict = field(default_factory=dict)
    info: dict = field(default_factory=dict)
    checks: dict = field(default_factory=dict)  # name -> None (pass) or message
    attempted: int = 0
    failed: int = 0
    errors: list = field(default_factory=list)

    def check(self, name: str, fn, *args):
        try:
            value = fn(*args)
        except CheckFailed as e:
            self.checks[name] = str(e)
            return None
        self.checks.setdefault(name, None)
        return value

    @property
    def correct(self) -> bool:
        return all(msg is None for msg in self.checks.values())

    def attempt(self, op, work: int = 1):
        """Run one operation; a raise counts its work as failed."""
        self.attempted += work
        try:
            return True, op()
        except Exception as e:  # an operation's failure is a measurement
            self.failed += work
            if len(self.errors) < 3:
                self.errors.append(f"{type(e).__name__}: {e}")
            return False, None


def interleave(seconds: float, rounds: dict, min_rounds: dict) -> dict:
    """Run whole rounds, each time of the phase with the least time spent
    per share, until seconds have passed and every phase has its minimum.
    Returns the rounds run per phase."""
    spent = dict.fromkeys(rounds, 0.0)
    done = dict.fromkeys(rounds, 0)
    start = time.perf_counter()
    while True:
        pending = [k for k in rounds if done[k] < min_rounds.get(k, 1)]
        if time.perf_counter() - start >= seconds:
            if not pending:
                return done
            pool = pending
        else:
            pool = list(rounds)
        name = min(pool, key=lambda k: spent[k] / SHARES[k])
        t0 = time.perf_counter()
        rounds[name]()
        spent[name] += time.perf_counter() - t0
        done[name] += 1


def _median(values):
    return statistics.median(values) if values else float("nan")


def run_pipeline(rs, wl, seconds: float, out_dir: Path, tracer,
                 since_start) -> Outcome:
    out = Outcome()
    cohort_path = out_dir / "cohort.jsonl"
    ckpt_path = out_dir / "model.json"
    rt_path = out_dir / "roundtrip.json"

    with tracer.phase("setup"):
        written = rs.generate_cohort(wl.gen)
        rs.save_cohort(written, cohort_path)
        cohort = rs.load_cohort(cohort_path)
    out.e2e["setup_s"] = since_start()
    out.info["cohort_file_bytes"] = cohort_path.stat().st_size

    with tracer.phase("train"):
        t0 = time.perf_counter()
        result = rs.train(cohort, wl.model, wl.train)
        train_s = time.perf_counter() - t0
    train_set, test = rs.split_cohort(cohort, wl.train.split_fraction,
                                      wl.train.seed)
    updates = wl.train.epochs * len(train_set)
    out.attempted += updates
    out.e2e["train_updates_per_s"] = updates / train_s
    out.info.update(
        updates=updates, epochs=wl.train.epochs, train_patients=len(train_set),
        test_patients=len(test),
        train_layer_steps=wl.train.epochs * wl.model.num_layers
        * sum(s.num_steps for s in train_set))

    with tracer.phase("checkpoint"):
        rs.save_checkpoint(result.state, ckpt_path, wl.train)
    ckpt_bytes = ckpt_path.read_bytes()
    out.e2e["checkpoint_bytes"] = len(ckpt_bytes)
    out.info["checkpoint_sha256"] = hashlib.sha256(ckpt_bytes).hexdigest()
    state = out.check("checkpoint_roundtrip", oracles.check_checkpoint_roundtrip,
                      rs, result.state, ckpt_path, out_dir / "resaved.json")
    if state is None:
        state = result.state

    pick = np.random.default_rng([wl.gen.seed, 7])
    predict_set = [cohort[int(i)] for i in pick.choice(
        len(cohort), size=min(PREDICT_PATIENTS, len(cohort)), replace=False)]
    samples = {"checkpoint": [], "score": [], "predict": [], "gradcheck": []}
    reports, audits = [], []

    def timed(phase, op, work=1):
        with tracer.phase(phase):
            t0 = time.perf_counter()
            ok, value = out.attempt(op, work)
            if ok:
                samples[phase].append(time.perf_counter() - t0)
        return value

    def checkpoint_round():
        timed("checkpoint", lambda: (
            rs.save_checkpoint(result.state, rt_path, wl.train),
            rs.load_checkpoint(rt_path)))

    def score_round():
        report = timed("score", lambda: rs.evaluate_cohort(
            state, test, ks=wl.ks, ties="half"), work=len(test))
        if report is not None:
            reports.append(report)

    def predict_round():
        for series in predict_set:
            timed("predict", lambda: rs.predict_next(state, series))

    def gradcheck_round():
        report = timed("gradcheck", rs.run_gradcheck)
        if report is not None:
            audits.append(report.max_rel_error)

    done = interleave(
        seconds,
        {"checkpoint": checkpoint_round, "score": score_round,
         "predict": predict_round, "gradcheck": gradcheck_round},
        dict(MIN_ROUNDS, predict=math.ceil(MIN_PREDICT_CALLS / len(predict_set))))
    out.info["rounds"] = done

    out.e2e["checkpoint_roundtrip_ms"] = 1e3 * _median(samples["checkpoint"])
    out.e2e["score_patients_per_s"] = (
        len(test) * len(samples["score"]) / sum(samples["score"]))
    latencies = samples["predict"]
    windows = [latencies[i:i + MIN_PREDICT_CALLS] for i in
               range(0, len(latencies) - MIN_PREDICT_CALLS + 1, MIN_PREDICT_CALLS)]
    out.e2e["predict_ms_p50"] = 1e3 * float(np.median(latencies))
    # p99 within each run of 1000 consecutive calls, then the median over
    # those runs: a stretch of slow host time raises the p99 of the calls
    # it covers, not of the whole window
    out.e2e["predict_ms_p99"] = 1e3 * _median(
        [float(np.percentile(w, 99)) for w in windows])
    out.e2e["gradcheck_s"] = _median(samples["gradcheck"])

    with tracer.phase("check"):
        _check_outputs(rs, wl, out, result, state, written, cohort, test,
                       reports, audits, ckpt_path)
    out.e2e["peak_rss_mib"] = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024.0
    out.info["history"] = list(result.loss_history)
    return out


def _check_outputs(rs, wl, out, result, state, written, cohort, test,
                   reports, audits, ckpt_path):
    from robustseq.experiments import bayes_oracle_scores

    rng = np.random.default_rng([wl.gen.seed, 11])
    out.check("cohort_roundtrip", oracles.check_cohort_roundtrip, written, cohort)
    out.check("loss_history", oracles.check_loss_history, result.loss_history)

    doc = json.loads(ckpt_path.read_text())
    for i in rng.choice(len(test), size=min(FORWARD_PATIENTS, len(test)),
                        replace=False):
        series = test[int(i)]
        probs, _ = rs.score_series(state, series)
        out.check("reference_forward", oracles.check_forward, doc, series,
                  probs, rs.predict_next(state, series))

    sub = [test[int(i)] for i in rng.choice(
        len(test), size=min(AUC_PATIENTS, len(test)), replace=False)]
    pairs = [rs.score_series(state, s) for s in sub]
    scores = np.concatenate([p for p, _ in pairs])
    labels = np.concatenate([t for _, t in pairs])
    out.check("rank_sum_auc", oracles.check_auc, scores, labels,
              rs.micro_auc(scores, labels, ties="half"))
    rows = rng.choice(scores.shape[0], size=min(TOPK_ROWS, scores.shape[0]),
                      replace=False)
    for k in wl.ks:
        out.check("brute_top_k", oracles.check_top_k, scores[rows],
                  labels[rows], k, rs.top_k_recall(scores[rows], labels[rows], k))

    if not reports:
        out.checks["scoring"] = "no scoring round succeeded"
    else:
        aucs = {r.micro_auc for r in reports}
        out.checks["scoring_repeatable"] = (
            None if len(aucs) == 1 else f"rounds disagree: {sorted(aucs)}")
        oracle_scores, oracle_labels = bayes_oracle_scores(wl.gen, test)
        out.check("auc_bounds", oracles.check_auc_bounds, reports[0].micro_auc,
                  wl.auc_floor,
                  rs.micro_auc(oracle_scores, oracle_labels, ties="half"))
        out.info["held_out_auc"] = reports[0].micro_auc
        out.info["recalls"] = reports[0].recalls

    lengths = np.array([s.num_steps for s in test])
    mid = np.flatnonzero(lengths == int(np.median(lengths)))
    fd_series = test[int(rng.choice(mid))]
    fd_state = rs.load_checkpoint(ckpt_path)
    grads = oracles.finite_difference_pairs(
        rs, fd_state, fd_series, wl.train.l2_lambda, rng,
        per_tensor=FD_COORDS_PER_TENSOR)
    out.info["fd_max_rel_error"] = out.check(
        "finite_differences", oracles.check_gradients, grads)
    out.info["gradcheck_max_rel_error"] = max(audits, default=float("nan"))
    out.checks["run_gradcheck"] = (
        None if audits and max(audits) < GRADCHECK_TOLERANCE
        else f"max rel errors {audits} (tolerance {GRADCHECK_TOLERANCE})")


def per_layer_metrics(tracer, out: Outcome) -> dict:
    """The traced run's per-layer figures, named <module>.<what>."""
    info = out.info

    def total(phase, name):
        return tracer.stat(phase, name).total

    def self_time(phase, name):
        return tracer.stat(phase, name).self_time

    def per_call(phase, name):
        st = tracer.stat(phase, name)
        return st.total / st.calls if st.calls else float("nan")

    updates = tracer.stat("train", "training.bptt_gradients").calls
    steps = tracer.counter("train", "steps")
    eval_steps = tracer.counter("score", "steps")
    auc_calls = tracer.stat("score", "metrics.micro_auc").calls
    noise_n = tracer.counter("train", "noise_n")
    us, ms = 1e6, 1e3
    return {
        "data_io.generate_cohort_s": (total("setup", "data_io.generate_cohort"), "s"),
        "data_io.save_cohort_s": (total("setup", "data_io.save_cohort"), "s"),
        "data_io.load_cohort_s": (total("setup", "data_io.load_cohort"), "s"),
        "data_io.cohort_file_bytes": (info["cohort_file_bytes"], "bytes"),
        "data_io.save_checkpoint_ms":
            (ms * per_call("checkpoint", "data_io.save_checkpoint"), "ms"),
        "data_io.load_checkpoint_ms":
            (ms * per_call("checkpoint", "data_io.load_checkpoint"), "ms"),
        "seeding.rng_stream_us_per_call":
            (us * per_call("train", "seeding.rng_stream"), "us"),
        "temporal.impute_us_per_update":
            (us * total("train", "model.impute_series") / updates, "us"),
        "temporal.cells_imputed":
            (int(tracer.counter("train", "cells_imputed")), "count"),
        "gru.sample_sequence_noise_us_per_update":
            (us * total("train", "gru.sample_sequence_noise") / updates, "us"),
        "gru.forward_sequence_train_us_per_step":
            (us * self_time("train", "gru.forward_sequence") / steps, "us"),
        "gru.forward_sequence_eval_us_per_step":
            (us * self_time("score", "gru.forward_sequence") / eval_steps, "us"),
        "gru.steps_forward": (int(steps), "count"),
        "gru.noise_factor_mean":
            (tracer.counter("train", "noise_sum") / noise_n, "ratio"),
        "objective.next_visit_loss_us_per_update":
            (us * total("train", "objective.next_visit_loss") / updates, "us"),
        "objective.head_backward_us_per_update":
            (us * total("train", "objective.head_backward") / updates, "us"),
        "model.forward_series_self_us_per_update":
            (us * self_time("train", "model.forward_series") / updates, "us"),
        "model.eval_forward_self_us_per_patient":
            (us * self_time("score", "model.eval_forward")
             / tracer.stat("score", "model.eval_forward").calls, "us"),
        "training.bptt_gradients_self_us_per_step":
            (us * self_time("train", "training.bptt_gradients") / steps, "us"),
        "training.clip_gradients_us_per_update":
            (us * total("train", "training.clip_gradients") / updates, "us"),
        "training.asgd_step_us_per_update":
            (us * total("train", "training.asgd_step") / updates, "us"),
        "training.train_loop_self_ms_per_epoch":
            (ms * self_time("train", "training.train") / info["epochs"], "ms"),
        "training.updates": (updates, "count"),
        "training.updates_clipped":
            (int(tracer.counter("train", "updates_clipped")), "count"),
        "training.grad_norm_p50":
            (_median(tracer.samples.get(("train", "grad_norm"), [])), "norm"),
        "metrics.score_series_us_per_patient":
            (us * per_call("score", "model.score_series"), "us"),
        "metrics.micro_auc_ms": (ms * per_call("score", "metrics.micro_auc"), "ms"),
        "metrics.top_k_recall_ms":
            (ms * per_call("score", "metrics.top_k_recall"), "ms"),
        "metrics.pooled_cells":
            (int(tracer.counter("score", "pooled_cells") // max(auc_calls, 1)),
             "count"),
    }


def cross_check_trace(tracer, out: Outcome) -> None:
    """Counts seen by the wrappers against counts taken from the inputs."""
    info = out.info
    seen = tracer.stat("train", "training.bptt_gradients").calls
    if seen != info["updates"]:
        out.checks["trace_updates"] = (
            f"wrappers saw {seen} updates, the split gives {info['updates']}")
    steps = int(tracer.counter("train", "steps"))
    if steps != info["train_layer_steps"]:
        out.checks["trace_steps"] = (
            f"wrappers saw {steps} layer-steps, the cohort gives "
            f"{info['train_layer_steps']}")
    n = tracer.counter("train", "noise_n")
    mean = tracer.counter("train", "noise_sum") / n
    var = max(tracer.counter("train", "noise_sumsq") / n - mean * mean, 0.0)
    se = (var / n) ** 0.5
    if not abs(mean - 1.0) <= 5.0 * se:
        out.checks["noise_mean"] = (
            f"hidden-state noise mean {mean!r} is {abs(mean - 1) / se:.1f} "
            "standard errors from 1")
    info["noise_mean_se"] = se


def report_lines(out: Outcome) -> list[str]:
    lines = [f"{name}\t{value!r}\t{END_TO_END_UNITS[name]}"
             for name, value in out.e2e.items()]
    lines += [f"info {k}\t{v!r}" for k, v in out.info.items()]
    for name, msg in out.checks.items():
        lines.append(f"check {name}\t{'PASS' if msg is None else 'FAIL: ' + msg}")
    lines += [f"error\t{e}" for e in out.errors]
    return lines


def emit(out: Outcome, metrics: dict) -> None:
    for line in report_lines(out):
        print(line, file=sys.stderr)
    doc = {"correct": out.correct, "attempted": out.attempted,
           "failed": out.failed,
           "metrics": {name: {"value": value, "unit": unit}
                       for name, (value, unit) in metrics.items()}}
    print(json.dumps(doc))
