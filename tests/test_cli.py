"""End-to-end checks of the command-line interface.

Every test drives ``main(argv)`` in process and asserts on exit codes,
stdout/stderr text, and the files left behind. Exit codes: 0 success,
1 validation (bad flags, malformed files), 2 runtime failure.
"""

import json

import numpy as np
import pytest

from robustseq.cli import main
from robustseq.data_io import generate_cohort, load_checkpoint, load_cohort
from robustseq.errors import TrainingDivergedError
from robustseq.experiments import (desk_gen_config, format_table, noise_sweep,
                                   robustness_benchmark)
from robustseq.model import predict_next
from robustseq.training import GradCheckReport


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """A generated cohort plus a trained checkpoint, shared read-only."""
    root = tmp_path_factory.mktemp("cli")
    data = root / "cohort.jsonl"
    model = root / "model.json"
    assert main(["gen", "--patients", "12", "--vars", "5", "--codes", "4",
                 "--min-visits", "3", "--max-visits", "6", "--seed", "3",
                 "--out", str(data)]) == 0
    assert main(["train", "--data", str(data), "--out", str(model),
                 "--epochs", "2", "--hidden", "6", "--seed", "1"]) == 0
    return root, data, model


def six_code_cohort(tmp_path):
    """A cohort with the workspace's 5 variables but 6 codes, not 4."""
    data = tmp_path / "six_codes.jsonl"
    assert main(["gen", "--patients", "4", "--vars", "5", "--codes", "6",
                 "--min-visits", "3", "--max-visits", "6", "--seed", "3",
                 "--out", str(data)]) == 0
    return data


class TestGen:
    def test_writes_requested_cohort(self, tmp_path, capsys):
        out = tmp_path / "c.jsonl"
        rc = main(["gen", "--patients", "7", "--vars", "4", "--codes", "3",
                   "--seed", "5", "--out", str(out)])
        assert rc == 0
        assert "wrote 7 patients" in capsys.readouterr().out
        cohort = load_cohort(out)
        assert len(cohort) == 7
        assert cohort[0].num_variables == 4
        assert cohort[0].num_codes == 3

    def test_same_flags_same_bytes(self, tmp_path):
        argv = ["gen", "--patients", "6", "--seed", "9"]
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        assert main(argv + ["--out", str(a)]) == 0
        assert main(argv + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_seed_changes_output(self, tmp_path):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        assert main(["gen", "--patients", "6", "--seed", "1", "--out", str(a)]) == 0
        assert main(["gen", "--patients", "6", "--seed", "2", "--out", str(b)]) == 0
        assert a.read_bytes() != b.read_bytes()

    def test_invalid_count_is_validation_error(self, tmp_path, capsys):
        rc = main(["gen", "--patients", "0", "--out", str(tmp_path / "c.jsonl")])
        assert rc == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_mnar_is_validation_error(self, tmp_path, capsys, value):
        out = tmp_path / "c.jsonl"
        rc = main(["gen", "--patients", "5", "--mnar", value, "--out", str(out)])
        assert rc == 1
        assert "mnar_strength must be finite" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_required_flag(self, tmp_path, capsys):
        assert main(["gen", "--patients", "5"]) == 1
        assert "--out" in capsys.readouterr().err

    def test_unwritable_path(self, tmp_path, capsys):
        rc = main(["gen", "--patients", "5",
                   "--out", str(tmp_path / "no" / "dir" / "c.jsonl")])
        assert rc == 1
        assert "cannot write" in capsys.readouterr().err


class TestTrain:
    def test_checkpoint_and_loss_file(self, workspace):
        _, data, model = workspace
        state = load_checkpoint(model)
        assert state.config.hidden_size == 6
        loss_lines = (model.parent / (model.name + ".loss.txt")).read_text().splitlines()
        assert len(loss_lines) == 2
        for epoch, line in enumerate(loss_lines, start=1):
            tag, value = line.split("\t")
            assert int(tag) == epoch
            assert np.isfinite(float(value))

    def test_reports_losses(self, tmp_path, workspace, capsys):
        _, data, _ = workspace
        rc = main(["train", "--data", str(data), "--out", str(tmp_path / "m.json"),
                   "--epochs", "2", "--hidden", "5", "--seed", "2"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "epoch 1 mean loss" in out
        assert "final mean loss" in out

    def test_mean_imputation_flag(self, tmp_path, workspace):
        _, data, _ = workspace
        out = tmp_path / "m.json"
        assert main(["train", "--data", str(data), "--out", str(out),
                     "--epochs", "1", "--hidden", "5",
                     "--imputation", "mean"]) == 0
        assert load_checkpoint(out).config.imputation == "mean"

    def test_gaussian_noise_flag(self, tmp_path, workspace):
        _, data, _ = workspace
        out = tmp_path / "m.json"
        assert main(["train", "--data", str(data), "--out", str(out),
                     "--epochs", "1", "--hidden", "5",
                     "--noise", "gaussian", "--sigma", "0.92"]) == 0
        spec = load_checkpoint(out).config.noise
        assert spec.kind == "gaussian"
        assert spec.sigma == 0.92

    def test_missing_data_file(self, tmp_path, capsys):
        rc = main(["train", "--data", str(tmp_path / "nope.jsonl"),
                   "--out", str(tmp_path / "m.json")])
        assert rc == 1
        assert "cannot read" in capsys.readouterr().err

    def test_corrupt_data_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("this is not json\n")
        rc = main(["train", "--data", str(bad), "--out", str(tmp_path / "m.json")])
        assert rc == 1
        assert "line 1" in capsys.readouterr().err

    def test_bad_learning_rate(self, workspace, tmp_path):
        _, data, _ = workspace
        assert main(["train", "--data", str(data), "--out", str(tmp_path / "m.json"),
                     "--lr", "0.0"]) == 1

    @pytest.mark.parametrize("flags,field", [
        (["--noise", "gaussian", "--sigma", "nan"], "sigma"),
        (["--l2", "nan"], "l2_lambda"),
        (["--lr", "nan"], "learning_rate"),
        (["--clip", "inf"], "clip_norm"),
    ])
    def test_non_finite_hyperparameter_is_validation_error(
            self, workspace, tmp_path, capsys, flags, field):
        _, data, _ = workspace
        out = tmp_path / "m.json"
        rc = main(["train", "--data", str(data), "--out", str(out),
                   "--epochs", "1", "--hidden", "4"] + flags)
        assert rc == 1
        assert field in capsys.readouterr().err
        assert not out.exists()

    def test_non_finite_timestamp_is_validation_error(self, workspace, tmp_path,
                                                      capsys):
        _, data, _ = workspace
        lines = data.read_text().splitlines()
        record = json.loads(lines[2])
        record["visits"][1]["time_hours"] = float("nan")
        lines[2] = json.dumps(record)
        bad = tmp_path / "nan_time.jsonl"
        bad.write_text("\n".join(lines) + "\n")
        rc = main(["train", "--data", str(bad), "--out", str(tmp_path / "m.json"),
                   "--epochs", "1", "--hidden", "4"])
        assert rc == 1
        err = capsys.readouterr().err
        assert "line 3" in err and "timestamps must be finite" in err

    def test_divergence_exits_two(self, workspace, tmp_path, monkeypatch, capsys):
        _, data, _ = workspace

        def blow_up(*args, **kwargs):
            raise TrainingDivergedError("loss became non-finite at epoch 1")

        monkeypatch.setattr("robustseq.cli.train", blow_up)
        rc = main(["train", "--data", str(data), "--out", str(tmp_path / "m.json")])
        assert rc == 2
        assert "runtime failure" in capsys.readouterr().err


class TestEval:
    def test_report_to_stdout(self, workspace, capsys):
        _, data, model = workspace
        rc = main(["eval", "--model", str(model), "--data", str(data)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "micro_auc" in out
        assert "recall@10" in out

    def test_json_report(self, workspace, tmp_path):
        _, data, model = workspace
        out = tmp_path / "report.json"
        rc = main(["eval", "--model", str(model), "--data", str(data),
                   "--topk", "2", "3", "--out", str(out)])
        assert rc == 0
        doc = json.loads(out.read_text())
        assert 0.0 <= doc["micro_auc"] <= 1.0
        assert set(doc["recalls"]) == {"2", "3"}

    @pytest.mark.parametrize("bad", ["x", 1.5, True])
    def test_non_integer_latent_state_is_validation_error(self, workspace,
                                                          tmp_path, capsys, bad):
        _, data, model = workspace
        lines = data.read_text().splitlines()
        record = json.loads(lines[2])
        record["latent_states"][0] = bad
        lines[2] = json.dumps(record)
        cohort = tmp_path / "latent.jsonl"
        cohort.write_text("\n".join(lines) + "\n")
        rc = main(["eval", "--model", str(model), "--data", str(cohort)])
        assert rc == 1
        err = capsys.readouterr().err
        assert "line 3" in err and "latent_states" in err

    def test_split_scores_held_out_side(self, workspace, tmp_path):
        _, data, model = workspace
        full = tmp_path / "full.json"
        held = tmp_path / "held.json"
        assert main(["eval", "--model", str(model), "--data", str(data),
                     "--out", str(full)]) == 0
        assert main(["eval", "--model", str(model), "--data", str(data),
                     "--split", "0.5", "--out", str(held)]) == 0
        n_full = json.loads(full.read_text())["counts"]["instances"]
        n_held = json.loads(held.read_text())["counts"]["instances"]
        assert 0 < n_held < n_full

    def test_runs_repeat_identically(self, workspace, capsys):
        _, data, model = workspace
        assert main(["eval", "--model", str(model), "--data", str(data)]) == 0
        first = capsys.readouterr().out
        assert main(["eval", "--model", str(model), "--data", str(data)]) == 0
        assert capsys.readouterr().out == first

    def test_ties_flag_accepted(self, workspace):
        _, data, model = workspace
        assert main(["eval", "--model", str(model), "--data", str(data),
                     "--ties", "half"]) == 0

    def test_corrupt_checkpoint(self, workspace, tmp_path, capsys):
        _, data, _ = workspace
        bad = tmp_path / "bad.json"
        bad.write_text("{\"oops\": 1}")
        assert main(["eval", "--model", str(bad), "--data", str(data)]) == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("where, value, named", [
        (("tensors", "head.W_code", "values", 0), float("nan"), "head.W_code"),
        (("means", "values", 0), float("inf"), "means"),
        (("step_count",), "abc", "step_count"),
    ], ids=["nan_tensor", "inf_mean", "string_step_count"])
    def test_invalid_checkpoint_value(self, workspace, tmp_path, capsys,
                                      where, value, named):
        _, data, model = workspace
        doc = json.loads(model.read_text())
        target = doc
        for key in where[:-1]:
            target = target[key]
        target[where[-1]] = value
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        assert main(["eval", "--model", str(bad), "--data", str(data)]) == 1
        assert named in capsys.readouterr().err

    def test_missing_checkpoint(self, workspace, tmp_path):
        _, data, _ = workspace
        assert main(["eval", "--model", str(tmp_path / "nope.json"),
                     "--data", str(data)]) == 1

    def test_code_count_mismatch_names_both_counts(self, workspace, tmp_path,
                                                   capsys):
        _, _, model = workspace
        data = six_code_cohort(tmp_path)
        assert main(["eval", "--model", str(model), "--data", str(data)]) == 1
        err = capsys.readouterr().err
        first = load_cohort(data)[0].patient_id
        assert first in err and "6 codes" in err and "expects 4" in err


class TestPredict:
    def test_defaults_to_first_patient(self, workspace, capsys):
        _, data, model = workspace
        rc = main(["predict", "--model", str(model), "--data", str(data),
                   "--topk", "3"])
        out = capsys.readouterr().out
        assert rc == 0
        first_id = load_cohort(data)[0].patient_id
        assert f"patient\t{first_id}" in out
        ranks = [line for line in out.splitlines() if line[:1].isdigit()]
        assert len(ranks) == 3

    def test_selects_named_patient(self, workspace, capsys):
        _, data, model = workspace
        target = load_cohort(data)[4].patient_id
        rc = main(["predict", "--model", str(model), "--data", str(data),
                   "--patient", target])
        assert rc == 0
        assert f"patient\t{target}" in capsys.readouterr().out

    def test_ranking_matches_model(self, workspace, tmp_path):
        _, data, model = workspace
        out = tmp_path / "rank.json"
        assert main(["predict", "--model", str(model), "--data", str(data),
                     "--topk", "4", "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        probs = predict_next(load_checkpoint(model), load_cohort(data)[0])
        expected = np.argsort(-probs, kind="stable")[:4]
        assert [row["code"] for row in doc["ranking"]] == [int(c) for c in expected]
        got = [row["probability"] for row in doc["ranking"]]
        assert got == sorted(got, reverse=True)

    def test_topk_clamped_to_code_count(self, workspace, capsys):
        _, data, model = workspace
        assert main(["predict", "--model", str(model), "--data", str(data),
                     "--topk", "99"]) == 0
        out = capsys.readouterr().out
        ranks = [line for line in out.splitlines() if line[:1].isdigit()]
        assert len(ranks) == load_cohort(data)[0].num_codes

    @pytest.mark.parametrize("command", ["eval", "predict"])
    @pytest.mark.parametrize("topk", ["0", "-3"])
    def test_topk_below_one_is_validation_error(self, workspace, capsys,
                                                command, topk):
        _, data, model = workspace
        assert main([command, "--model", str(model), "--data", str(data),
                     "--topk", topk]) == 1
        captured = capsys.readouterr()
        assert "rank" not in captured.out and "error:" in captured.err

    def test_code_count_mismatch_names_both_counts(self, workspace, tmp_path,
                                                   capsys):
        _, _, model = workspace
        data = six_code_cohort(tmp_path)
        assert main(["predict", "--model", str(model), "--data", str(data)]) == 1
        captured = capsys.readouterr()
        assert "rank" not in captured.out
        first = load_cohort(data)[0].patient_id
        assert first in captured.err and "6 codes" in captured.err
        assert "expects 4" in captured.err

    def test_unknown_patient(self, workspace, capsys):
        _, data, model = workspace
        assert main(["predict", "--model", str(model), "--data", str(data),
                     "--patient", "ghost"]) == 1
        assert "ghost" in capsys.readouterr().err


class TestGradcheck:
    def test_passes_and_reports(self, capsys):
        rc = main(["gradcheck", "--seed", "2"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "max relative error" in out
        assert "PASS" in out

    def test_failure_exits_two(self, monkeypatch, capsys):
        report = GradCheckReport(max_rel_error=1.0, per_tensor={"head.W_code": 1.0},
                                 loss=0.5, num_parameters=4)
        monkeypatch.setattr("robustseq.cli.run_gradcheck", lambda seed: report)
        assert main(["gradcheck"]) == 2
        assert "FAIL" in capsys.readouterr().out

    def test_non_finite_analytic_entry_fails(self, monkeypatch, capsys):
        from robustseq import training

        real = training.bptt_gradients

        def planted(*args, **kwargs):
            loss, grads = real(*args, **kwargs)
            grads["layers.1.U_h"][0, 0] = np.nan
            return loss, grads

        monkeypatch.setattr(training, "bptt_gradients", planted)
        assert main(["gradcheck"]) == 2
        out = capsys.readouterr().out
        assert "layers.1.U_h: rel_error inf" in out
        assert "max relative error: inf" in out
        assert "FAIL" in out


class TestParsing:
    def test_no_subcommand(self, capsys):
        assert main([]) == 1
        assert "error:" in capsys.readouterr().err

    def test_unknown_subcommand(self, capsys):
        assert main(["frobnicate"]) == 1

    def test_unknown_flag(self, tmp_path, capsys):
        assert main(["gen", "--patients", "5", "--out", str(tmp_path / "c.jsonl"),
                     "--bogus", "1"]) == 1
        assert "bogus" in capsys.readouterr().err


SMALL_DESK = ["--patients", "40", "--epochs", "1"]
BAD_EXPERIMENT_FLAGS = [["--patients", "x", "--epochs", "1"],
                        ["--patients", "1", "--epochs", "1"],
                        ["--patients", "40", "--epochs", "0"]]


def assert_one_error_line(capsys):
    err = capsys.readouterr().err
    assert sum(line.startswith("error:") for line in err.splitlines()) == 1
    assert "Traceback" not in err


class TestRobustness:
    def test_prints_rows_and_win_line(self, capsys):
        assert main(["robustness", *SMALL_DESK, "--seeds", "0", "1"]) == 0
        out = capsys.readouterr().out.splitlines()
        rows = robustness_benchmark(
            generate_cohort(desk_gen_config(num_patients=40)), seeds=(0, 1),
            epochs=1)
        wins = sum(row["robust_auc"] >= row["ablated_auc"] for row in rows)
        assert out[:-1] == format_table(
            rows, ("seed", "robust_auc", "ablated_auc", "robust_recall3",
                   "ablated_recall3")).splitlines()
        assert out[-1] == f"robust >= ablated in {wins}/2 seeds"

    @pytest.mark.parametrize("flags", BAD_EXPERIMENT_FLAGS)
    def test_bad_flag_is_validation_error(self, capsys, flags):
        assert main(["robustness", *flags, "--seeds", "0"]) == 1
        assert_one_error_line(capsys)


class TestNoiseSweep:
    def test_prints_sweep_table(self, capsys):
        assert main(["noise-sweep", *SMALL_DESK, "--gen-seed", "4",
                     "--seed", "2", "--sigmas", "0.5",
                     "--drop-probs", "0.33", "0.5"]) == 0
        rows = noise_sweep(
            generate_cohort(desk_gen_config(seed=4, num_patients=40)),
            sigmas=(0.5,), drop_probs=(0.33, 0.5), epochs=1, seed=2)
        assert capsys.readouterr().out == format_table(
            rows, ("kind", "spread", "micro_auc")) + "\n"

    @pytest.mark.parametrize("flags", BAD_EXPERIMENT_FLAGS)
    def test_bad_flag_is_validation_error(self, capsys, flags):
        assert main(["noise-sweep", *flags, "--sigmas", "0.5"]) == 1
        assert_one_error_line(capsys)
