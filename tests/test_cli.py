"""End-to-end command line tests, run in process via cli.main."""
from __future__ import annotations

import configparser
import re

import numpy as np
import pytest

from fedzsl import cli
from fedzsl.dataset import AttributeMatrix, ClassSplit, FeatureDataset, save_dataset

SMALL_SYNTH = [
    "--num-seen", "6",
    "--num-unseen", "2",
    "--d-a", "6",
    "--d-v", "8",
    "--samples-per-class", "10",
]
FAST_RUN = ["--rounds", "2", "--clients", "2", "--local-epochs", "1"]


@pytest.fixture(scope="module")
def small_data(tmp_path_factory):
    root = tmp_path_factory.mktemp("data") / "small"
    assert cli.main(["synth", "--out", str(root), "--seed", "0", *SMALL_SYNTH]) == 0
    return root


def read_dir(root):
    return {p.name: p.read_bytes() for p in sorted(root.iterdir())}


class TestSynth:
    def test_same_seed_writes_identical_files(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert cli.main(["synth", "--out", str(a), "--seed", "5", *SMALL_SYNTH]) == 0
        assert cli.main(["synth", "--out", str(b), "--seed", "5", *SMALL_SYNTH]) == 0
        assert read_dir(a) == read_dir(b)

    def test_different_seed_changes_features(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert cli.main(["synth", "--out", str(a), "--seed", "5", *SMALL_SYNTH]) == 0
        assert cli.main(["synth", "--out", str(b), "--seed", "6", *SMALL_SYNTH]) == 0
        assert (a / "features.csv").read_bytes() != (b / "features.csv").read_bytes()

    def test_binary_layout(self, tmp_path):
        out = tmp_path / "bin"
        assert cli.main(
            ["synth", "--out", str(out), "--seed", "0", "--binary", *SMALL_SYNTH]
        ) == 0
        assert (out / "features.bin").exists()
        assert (out / "labels.csv").exists()
        assert not (out / "features.csv").exists()

    def test_reports_shape(self, tmp_path, capsys):
        out = tmp_path / "d"
        cli.main(["synth", "--out", str(out), "--seed", "0", *SMALL_SYNTH])
        text = capsys.readouterr().out
        assert "6+2 classes" in text
        assert "d_v=8" in text


class TestPartition:
    def test_pccd_balance_on_many_classes(self, tmp_path, capsys):
        data = tmp_path / "wide"
        assert cli.main(
            [
                "synth", "--out", str(data), "--seed", "0",
                "--num-seen", "150", "--num-unseen", "5",
                "--d-a", "8", "--d-v", "8", "--samples-per-class", "2",
            ]
        ) == 0
        capsys.readouterr()
        assert cli.main(
            ["partition", "--data", str(data), "--scheme", "pccd", "-k", "10"]
        ) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 10
        for line in lines:
            assert re.fullmatch(r"client \d: 15 classes, 15 samples", line)

    def test_writes_assignment_files(self, small_data, tmp_path, capsys):
        out = tmp_path / "part"
        assert cli.main(
            [
                "partition", "--data", str(small_data),
                "--scheme", "pccd", "-k", "2", "--out", str(out),
            ]
        ) == 0
        assignments = (out / "partition.csv").read_text().splitlines()
        assert assignments[0] == "client_id,sample_index"
        assert len(assignments) == 1 + 48  # 6 seen classes x 8 train rows
        summary = (out / "partition_summary.csv").read_text().splitlines()
        assert summary[0] == "client_id,class_id,count"
        assert len(summary) == 1 + 6

    def test_too_many_clients_exits_3(self, small_data, capsys):
        code = cli.main(
            ["partition", "--data", str(small_data), "--scheme", "pccd", "-k", "10"]
        )
        assert code == 3
        assert "partition failed" in capsys.readouterr().err


class TestGlasso:
    def test_exact_correlation_recovers_closed_form(self, tmp_path, capsys):
        # Two classes whose attribute columns correlate at exactly 0.8; with
        # penalty 0.1 the regularized covariance is [[1.1, .7], [.7, 1.1]].
        a = np.array([1.0, 0.0, -1.0])
        b = 0.8 * a + np.sqrt(0.12) * np.array([1.0, -2.0, 1.0])
        attrs = AttributeMatrix(values=np.column_stack([a, b]), groups=((0, 3),))
        split = ClassSplit(seen=(0, 1), unseen=())
        ds = FeatureDataset(
            features=np.arange(8.0).reshape(4, 2),
            labels=np.array([0, 0, 1, 1]),
            split=split,
        )
        data = tmp_path / "corr"
        save_dataset(data, ds, attrs)
        out = tmp_path / "gl"
        code = cli.main(
            [
                "glasso", "--data", str(data), "--out", str(out),
                "--delta", "0.1", "--tol", "1e-8",
            ]
        )
        assert code == 0
        lines = (out / "gamma.csv").read_text().splitlines()
        assert lines[0] == "2"
        gamma = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
        assert np.allclose(gamma, [[1.1, 0.7], [0.7, 1.1]], atol=1e-6)
        theta_lines = (out / "theta.csv").read_text().splitlines()
        theta = np.array([[float(v) for v in line.split(",")] for line in theta_lines[1:]])
        assert np.allclose(gamma @ theta, np.eye(2), atol=1e-6)
        text = capsys.readouterr().out
        assert "solved 2 classes" in text
        assert "converged=True" in text

    def test_runs_on_synthetic_attributes(self, small_data, tmp_path, capsys):
        out = tmp_path / "gl"
        assert cli.main(["glasso", "--data", str(small_data), "--out", str(out)]) == 0
        lines = (out / "gamma.csv").read_text().splitlines()
        assert lines[0] == "8"
        assert len(lines) == 9


class TestRun:
    def run_once(self, data, out, extra=()):
        return cli.main(["run", "--data", str(data), "--out", str(out), *FAST_RUN, *extra])

    def test_writes_outputs_and_reports(self, small_data, tmp_path, capsys):
        out = tmp_path / "run"
        assert self.run_once(small_data, out) == 0
        assert (out / "manifest.ini").exists()
        assert (out / "final_model.csv").exists()
        metrics = (out / "metrics.csv").read_text().splitlines()
        assert metrics[0].startswith("round,acc_c")
        assert len(metrics) == 3
        captured = capsys.readouterr()
        assert "finished 2 rounds" in captured.out
        assert "acc_h=" in captured.out
        assert "warning" not in captured.err
        manifest = configparser.ConfigParser()
        manifest.read(out / "manifest.ini")
        assert manifest["meta"]["glasso_converged"] == "true"

    def test_unconverged_glasso_warns_and_is_recorded(self, small_data, tmp_path, capsys):
        config = tmp_path / "one_sweep.ini"
        config.write_text("[glasso]\nmax_sweeps = 1\n")
        first = tmp_path / "first"
        assert self.run_once(small_data, first, ["--config", str(config)]) == 0
        assert "warning: glasso did not converge in 1 sweeps" in capsys.readouterr().err
        manifest = configparser.ConfigParser()
        manifest.read(first / "manifest.ini")
        assert manifest["meta"]["glasso_converged"] == "false"
        assert manifest["meta"]["glasso_sweeps"] == "1"
        second = tmp_path / "second"
        assert cli.main(
            [
                "run", "--data", str(small_data), "--out", str(second),
                "--config", str(first / "manifest.ini"),
            ]
        ) == 0
        assert (second / "metrics.csv").read_bytes() == (first / "metrics.csv").read_bytes()

    def test_manifest_rerun_is_byte_identical(self, small_data, tmp_path):
        first = tmp_path / "first"
        assert self.run_once(small_data, first, ["--seed", "3", "--local-lr", "0.005"]) == 0
        blob = (first / "metrics.csv").read_bytes()
        second = tmp_path / "second"
        assert cli.main(
            [
                "run", "--data", str(small_data), "--out", str(second),
                "--config", str(first / "manifest.ini"),
            ]
        ) == 0
        assert (second / "metrics.csv").read_bytes() == blob

    def test_same_seed_reruns_are_byte_identical(self, small_data, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert self.run_once(small_data, a, ["--seed", "1"]) == 0
        assert self.run_once(small_data, b, ["--seed", "1"]) == 0
        assert (a / "metrics.csv").read_bytes() == (b / "metrics.csv").read_bytes()
        assert (a / "final_model.csv").read_bytes() == (b / "final_model.csv").read_bytes()

    def test_thread_count_does_not_change_outputs(self, small_data, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert self.run_once(small_data, a, ["--threads", "1"]) == 0
        assert self.run_once(small_data, b, ["--threads", "4"]) == 0
        assert (a / "metrics.csv").read_bytes() == (b / "metrics.csv").read_bytes()
        assert (a / "final_model.csv").read_bytes() == (b / "final_model.csv").read_bytes()

    def test_flag_beats_config_beats_default(self, small_data, tmp_path):
        config = tmp_path / "run.ini"
        config.write_text("[train]\nrounds = 5\nseed = 9\n")
        out = tmp_path / "out"
        assert cli.main(
            [
                "run", "--data", str(small_data), "--out", str(out),
                "--config", str(config), "--rounds", "2", "--clients", "2",
            ]
        ) == 0
        manifest = configparser.ConfigParser()
        manifest.read(out / "manifest.ini")
        assert manifest["train"]["rounds"] == "2"  # flag wins
        assert manifest["train"]["seed"] == "9"  # config beats default 0
        assert manifest["train"]["local_epochs"] == "2"  # untouched default
        assert len((out / "metrics.csv").read_text().splitlines()) == 3

    def test_ablation_single_term(self, small_data, tmp_path):
        out = tmp_path / "sce"
        assert self.run_once(small_data, out, ["--ablation", "sce-only"]) == 0
        manifest = configparser.ConfigParser()
        manifest.read(out / "manifest.ini")
        assert manifest["losses"]["sce"] == "true"
        assert manifest["losses"]["bc"] == "false"
        assert manifest["losses"]["kl"] == "false"
        assert manifest["losses"]["ad"] == "false"

    def test_attribute_free_mode(self, small_data, tmp_path, capsys):
        out = tmp_path / "af"
        assert self.run_once(small_data, out, ["--mode", "attribute-free"]) == 0
        text = capsys.readouterr().out
        assert "acc_c=n/a" in text
        assert re.search(r"acc_s=\d", text)

    def test_divergence_exits_2(self, small_data, tmp_path, capsys):
        out = tmp_path / "boom"
        with np.errstate(all="ignore"):
            code = self.run_once(small_data, out, ["--local-lr", "1e100"])
        assert code == 2
        assert "training diverged" in capsys.readouterr().err

    def test_partition_failure_exits_3(self, small_data, tmp_path, capsys):
        out = tmp_path / "overk"
        code = cli.main(
            [
                "run", "--data", str(small_data), "--out", str(out),
                "--rounds", "1", "--clients", "10",
            ]
        )
        assert code == 3

    def test_unknown_config_key_exits_1(self, small_data, tmp_path, capsys):
        config = tmp_path / "bad.ini"
        config.write_text("[train]\nwarmup = 10\n")
        out = tmp_path / "out"
        code = cli.main(
            ["run", "--data", str(small_data), "--out", str(out), "--config", str(config)]
        )
        assert code == 1
        assert "unknown key 'warmup'" in capsys.readouterr().err

    def test_missing_config_file_exits_1(self, small_data, tmp_path):
        out = tmp_path / "out"
        code = cli.main(
            [
                "run", "--data", str(small_data), "--out", str(out),
                "--config", str(tmp_path / "absent.ini"),
            ]
        )
        assert code == 1

    def test_unknown_flag_exits_1(self, small_data, tmp_path):
        with pytest.raises(SystemExit) as err:
            cli.main(["run", "--data", str(small_data), "--bogus"])
        assert err.value.code == 1


class TestEval:
    def test_stats_zero_noise_variance(self, tmp_path, capsys):
        data = tmp_path / "clean"
        assert cli.main(
            ["synth", "--out", str(data), "--seed", "0", "--noise-std", "0", *SMALL_SYNTH]
        ) == 0
        capsys.readouterr()
        assert cli.main(["eval", "--data", str(data), "--stats"]) == 0
        text = capsys.readouterr().out
        assert "samples=80 d_v=8 classes=8 seen=6 unseen=2" in text
        class_lines = [l for l in text.splitlines() if l.startswith("class ")]
        assert len(class_lines) == 8
        for line in class_lines:
            assert line.endswith("within-class variance 0.0")

    def test_model_eval_matches_run_report(self, small_data, tmp_path, capsys):
        out = tmp_path / "run"
        assert cli.main(
            [
                "run", "--data", str(small_data), "--out", str(out),
                *FAST_RUN, "--seed", "3",
            ]
        ) == 0
        run_text = capsys.readouterr().out
        reported = dict(re.findall(r"(acc_[cush])=([0-9.]+|n/a)", run_text))
        assert cli.main(
            [
                "eval", "--data", str(small_data),
                "--model", str(out / "final_model.csv"), "--seed", "3",
            ]
        ) == 0
        eval_text = capsys.readouterr().out
        scored = dict(re.findall(r"(acc_[cush])=([0-9.]+|n/a)", eval_text))
        assert scored == reported
        assert set(scored) == {"acc_c", "acc_u", "acc_s", "acc_h"}

    def test_eval_without_work_exits_1(self, small_data, capsys):
        assert cli.main(["eval", "--data", str(small_data)]) == 1
        assert "eval needs" in capsys.readouterr().err


class TestCheck:
    def test_small_suite_passes(self, capsys):
        assert cli.main(["check", "--trials", "50"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 7  # header plus six checks
        names = {line.split()[0] for line in lines[1:]}
        assert names == {
            "pinsker",
            "mixture_convexity",
            "kl_lipschitz",
            "left_inverse",
            "attr_error",
            "margin",
        }
        for line in lines[1:]:
            assert line.split()[2] == "0"


class TestTopLevel:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as err:
            cli.main(["--version"])
        assert err.value.code == 0
        assert "fedzsl" in capsys.readouterr().out

    def test_no_subcommand_exits_1(self, capsys):
        with pytest.raises(SystemExit) as err:
            cli.main([])
        assert err.value.code == 1
