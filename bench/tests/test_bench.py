"""The benchmark's checks pass on the program's outputs and fail on
deliberately corrupted ones; the traced run changes no output byte.

    python3 -m pytest bench/tests -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import oracles
import pipeline
import spans
import robustseq as rs
from oracles import CheckFailed
from workloads import Workload

BENCH_DIR = Path(__file__).resolve().parent.parent


def tiny_workload(imputation="decay", layers=1, noise=None) -> Workload:
    gen = rs.GenConfig(num_patients=40, num_variables=4, num_codes=5,
                       min_visits=3, max_visits=8, missing_rate=0.4,
                       mnar_strength=0.5, self_transition=0.95,
                       code_on=0.99, code_off=0.01, seed=3)
    model = rs.ModelConfig(
        input_size=4, num_codes=5, hidden_size=6, num_layers=layers,
        noise=noise or rs.NoiseSpec(kind="scaled_bernoulli", drop_prob=0.33),
        imputation=imputation, seed=3)
    return Workload(gen=gen, model=model,
                    train=rs.TrainConfig(learning_rate=0.05, epochs=3,
                                         averaging_start_epoch=3, seed=3),
                    ks=(2,), auc_floor=0.5)


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    """A tiny two-layer decay model, its checkpoint file and a cohort."""
    wl = tiny_workload(layers=2)
    cohort = rs.generate_cohort(wl.gen)
    state = rs.train(cohort, wl.model, wl.train).state
    path = tmp_path_factory.mktemp("ckpt") / "model.json"
    rs.save_checkpoint(state, path, wl.train)
    return state, path, cohort


@pytest.mark.parametrize("imputation,layers", [("decay", 2), ("mean", 1)])
def test_reference_forward_agrees_and_catches_a_perturbed_score(
        imputation, layers, tmp_path):
    wl = tiny_workload(imputation=imputation, layers=layers)
    cohort = rs.generate_cohort(wl.gen)
    state = rs.train(cohort, wl.model, wl.train).state
    rs.save_checkpoint(state, tmp_path / "m.json")
    doc = json.loads((tmp_path / "m.json").read_text())
    series = cohort[0]
    probs, _ = rs.score_series(state, series)
    nxt = rs.predict_next(state, series)
    assert oracles.check_forward(doc, series, probs, nxt) <= 1e-9
    bad = probs.copy()
    bad[1, 2] += 1e-7
    with pytest.raises(CheckFailed):
        oracles.check_forward(doc, series, bad, nxt)
    with pytest.raises(CheckFailed):
        oracles.check_forward(doc, series, probs, nxt * (1 + 1e-7))


def test_reference_forward_reads_the_decay_parameters(trained):
    state, path, cohort = trained
    doc = json.loads(path.read_text())
    doc["tensors"]["decay.b_gamma"]["values"][0] += 0.5
    series = next(s for s in cohort if (s.mask[:-1, 0] == 0).any())
    probs, _ = rs.score_series(state, series)
    with pytest.raises(CheckFailed):
        oracles.check_forward(doc, series, probs, rs.predict_next(state, series))


def pooled(state, cohort):
    pairs = [rs.score_series(state, s) for s in cohort]
    return (np.concatenate([p for p, _ in pairs]),
            np.concatenate([t for _, t in pairs]))


def test_rank_sum_auc_agrees_and_catches_flipped_labels(trained):
    state, _, cohort = trained
    scores, labels = pooled(state, cohort)
    auc = rs.micro_auc(scores, labels, ties="half")
    assert oracles.check_auc(scores, labels, auc) == pytest.approx(auc, abs=1e-12)
    flipped = labels.copy()
    flipped[:5] = 1.0 - flipped[:5]
    with pytest.raises(CheckFailed):
        oracles.check_auc(scores, flipped, auc)


def test_rank_sum_auc_scores_ties_half():
    scores = np.array([[0.5, 0.5, 0.2, 0.9]])
    labels = np.array([[1.0, 0.0, 0.0, 1.0]])
    # pairs (pos, neg): (.5,.5) tie, (.5,.2) win, (.9,.5) win, (.9,.2) win
    assert oracles.rank_sum_auc(scores, labels) == 3.5 / 4
    assert rs.micro_auc(scores, labels, ties="half") == 3.5 / 4


def test_brute_top_k_agrees_and_catches_flipped_labels(trained):
    state, _, cohort = trained
    scores, labels = pooled(state, cohort)
    recall = rs.top_k_recall(scores, labels, 2)
    oracles.check_top_k(scores, labels, 2, recall)
    with pytest.raises(CheckFailed):
        oracles.check_top_k(scores, 1.0 - labels, 2, recall)


def test_gradients_agree_and_a_scaled_gradient_is_caught(trained):
    _, path, cohort = trained
    state = rs.load_checkpoint(path)
    series = max(cohort, key=lambda s: s.num_steps)
    pairs = oracles.finite_difference_pairs(
        rs, state, series, 1e-5, np.random.default_rng(0), per_tensor=3)
    assert len(pairs) >= 3 * 20
    assert oracles.check_gradients(pairs) < 1e-4
    scaled = [(name, 1.01 * a, fd) for name, a, fd in pairs]
    with pytest.raises(CheckFailed):
        oracles.check_gradients(scaled)


def test_truncated_checkpoint_is_caught(trained, tmp_path):
    state, path, _ = trained
    assert oracles.check_checkpoint_roundtrip(rs, state, path,
                                              tmp_path / "again.json")
    cut = tmp_path / "cut.json"
    cut.write_bytes(path.read_bytes()[: len(path.read_bytes()) // 2])
    with pytest.raises(CheckFailed):
        oracles.check_checkpoint_roundtrip(rs, state, cut, tmp_path / "x.json")


def test_changed_tensor_in_checkpoint_is_caught(trained, tmp_path):
    state, path, _ = trained
    doc = json.loads(path.read_text())
    doc["tensors"]["head.b_code"]["values"][0] += 1e-12
    edited = tmp_path / "edited.json"
    edited.write_text(json.dumps(doc))
    with pytest.raises(CheckFailed):
        oracles.check_checkpoint_roundtrip(rs, state, edited, tmp_path / "x.json")


def test_cohort_roundtrip_catches_a_changed_value(trained):
    _, _, cohort = trained
    copy = [rs.VisitSeries(timestamps=s.timestamps, values=s.values,
                           mask=s.mask, labels=s.labels,
                           patient_id=s.patient_id,
                           latent_states=s.latent_states) for s in cohort]
    oracles.check_cohort_roundtrip(cohort, copy)
    observed = np.argwhere(copy[3].mask > 0)[0]
    copy[3].values[tuple(observed)] += 1e-15 * max(1.0, abs(copy[3].values[tuple(observed)]))
    with pytest.raises(CheckFailed):
        oracles.check_cohort_roundtrip(cohort, copy)


def test_loss_history_and_auc_bounds():
    oracles.check_loss_history([3.0, 2.0, 1.5])
    for bad in ([3.0, float("nan"), 1.0], [2.0, 2.5], [1.0]):
        with pytest.raises(CheckFailed):
            oracles.check_loss_history(bad)
    oracles.check_auc_bounds(0.8, 0.6, 0.9)
    with pytest.raises(CheckFailed):
        oracles.check_auc_bounds(0.95, 0.6, 0.9)
    with pytest.raises(CheckFailed):
        oracles.check_auc_bounds(0.55, 0.6, 0.9)


def run_tiny(tmp_path, wl, tracer):
    out_dir = tmp_path / ("traced" if isinstance(tracer, spans.Tracer) else "plain")
    out_dir.mkdir()
    return pipeline.run_pipeline(rs, wl, 0.05, out_dir, tracer, lambda: 1.0)


@pytest.mark.parametrize("noise", [
    rs.NoiseSpec(kind="scaled_bernoulli", drop_prob=0.33),
    rs.NoiseSpec(kind="gaussian", sigma=0.5)])
def test_traced_run_changes_no_byte_and_its_counts_cross_check(tmp_path, noise):
    wl = tiny_workload(layers=2, noise=noise)
    plain = run_tiny(tmp_path, wl, spans.NullTracer())
    tracer = spans.Tracer()
    original = rs.training.bptt_gradients
    assert tracer.install("robustseq") > 30
    assert rs.training.bptt_gradients is not original
    try:
        traced = run_tiny(tmp_path, wl, tracer)
    finally:
        tracer.uninstall()
    assert rs.training.bptt_gradients is original
    pipeline.cross_check_trace(tracer, traced)
    assert plain.correct and traced.correct, (plain.checks, traced.checks)
    assert plain.failed == traced.failed == 0
    assert traced.info["checkpoint_sha256"] == plain.info["checkpoint_sha256"]
    assert traced.info["history"] == plain.info["history"]
    metrics = pipeline.per_layer_metrics(tracer, traced)
    names = {m["name"] for m in json.loads(
        (BENCH_DIR.parent / "BENCHMARK.json").read_text())["per_layer"]}
    assert set(metrics) == names
    assert metrics["training.updates"][0] == plain.info["updates"]
    assert all(np.isfinite(v) and v > 0 for v, _ in metrics.values())


def test_cross_check_catches_a_miscounted_trace(tmp_path):
    wl = tiny_workload()
    tracer = spans.Tracer()
    tracer.install("robustseq")
    try:
        out = run_tiny(tmp_path, wl, tracer)
    finally:
        tracer.uninstall()
    out.info["updates"] += 1
    out.info["train_layer_steps"] -= 1
    tracer.counters[("train", "noise_sum")] += 0.1 * tracer.counter("train", "noise_n")
    pipeline.cross_check_trace(tracer, out)
    assert {"trace_updates", "trace_steps", "noise_mean"} <= {
        k for k, v in out.checks.items() if v is not None}


def test_benchmark_without_program_source_exits_nonzero(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    shutil.copy(BENCH_DIR.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "desk-train", "--seed",
         "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_workloads_keep_recall_cutoffs_below_code_count():
    from workloads import WORKLOADS

    for make in WORKLOADS.values():
        wl = make(0)
        assert max(wl.ks) < wl.gen.num_codes
        assert wl.train.averaging_start_epoch == wl.train.epochs >= 2
