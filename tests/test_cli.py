"""End-to-end command line tests, run in process via cli.main."""
from __future__ import annotations

import configparser
import dataclasses
import re

import numpy as np
import pytest

from fedzsl import cli
from fedzsl.dataset import AttributeMatrix, ClassSplit, FeatureDataset, load_dataset, save_dataset
from fedzsl.fed import TrainConfig
from fedzsl.glasso import GlassoConfig
from fedzsl.losses import DEFAULT_TAU, AblationFlags, LossWeights

SMALL_SYNTH = [
    "--num-seen", "6",
    "--num-unseen", "2",
    "--d-a", "6",
    "--d-v", "8",
    "--samples-per-class", "10",
]
FAST_RUN = ["--rounds", "2", "--clients", "2", "--local-epochs", "1"]

# Every `run` flag with a non-default value and the manifest entry it must
# set, spelled out by hand rather than read from the cli module, so that the
# tests check the cli's own table against an independent list.  A flag that
# sets several entries is listed once per entry; "" adds no argument.
FULL_RUN_FLAGS = [
    ("--rounds 2", "train", "rounds", "2"),
    ("-k 2", "train", "num_clients", "2"),
    ("--local-epochs 1", "train", "local_epochs", "1"),
    ("--batch-size 7", "train", "batch_size", "7"),
    ("--local-lr 0.002", "train", "local_lr", "0.002"),
    ("--server-lr 0.9", "train", "server_lr", "0.9"),
    ("--delta-scale 0.8", "train", "delta_scale", "0.8"),
    ("--sample-fraction 0.5", "train", "sample_fraction", "0.5"),
    ("--seed 4", "train", "seed", "4"),
    ("--eval-every 2", "train", "eval_every", "2"),
    ("--w-bc 0.2", "losses", "w_bc", "0.2"),
    ("--w-kl 5", "losses", "w_kl", "5.0"),
    ("--w-ad 0.1", "losses", "w_ad", "0.1"),
    ("--tau 3", "losses", "tau", "3.0"),
    ("--ablation sce,kl", "losses", "bc", "false"),
    ("", "losses", "ad", "false"),
    ("--scheme dirichlet", "partition", "scheme", "dirichlet"),
    ("--alpha 0.7", "partition", "alpha", "0.7"),
    ("--local-data-ratio 0.9", "partition", "local_data_ratio", "0.9"),
    ("--glasso-delta 0.07", "glasso", "delta", "0.07"),
    ("--glasso-tol 1e-6", "glasso", "tol", "1e-06"),
    ("--glasso-max-sweeps 50", "glasso", "max_sweeps", "50"),
    ("--no-standardize", "glasso", "standardize", "false"),
    ("--gamma-source precision", "glasso", "gamma_source", "precision"),
    ("--momentum 0.8", "model", "momentum", "0.8"),
    ("--weight-decay 1e-4", "model", "weight_decay", "0.0001"),
    ("--threads 2", "meta", "threads", "2"),
]
# The flags the command above cannot set without turning the others off.
ATTRIBUTE_FREE_FLAGS = [
    ("--mode attribute-free", "model", "mode", "attribute-free"),
    ("--clients 3", "train", "num_clients", "3"),
    ("--rounds 1", "train", "rounds", "1"),
]

# Partition settings PartitionSpec refuses: input errors, so exit 1 (exit 3
# is kept for a valid spec that partition() cannot satisfy).
BAD_PARTITION_SPECS = [
    (["-k", "0"], "num_clients must be >= 1, got 0"),
    (["--scheme", "dirichlet"], "dirichlet scheme requires alpha"),
    (["--local-data-ratio", "2"], "local_data_ratio must lie in (0, 1], got 2.0"),
]
BAD_PARTITION_IDS = ["zero-clients", "dirichlet-without-alpha", "ratio-above-1"]

# Settings a run without the KL term never reads, which still exit 1: the
# manifest records them, and a re-run with the term on would read them.
BAD_UNREAD_SETTINGS = [
    (["--ablation", "sce-only", "--glasso-delta", "-1"], "delta must be finite and positive"),
    (["--ablation", "sce-only", "--tau", "-2"], "tau must be finite and positive, got -2.0"),
    (["--w-kl", "0", "--glasso-max-sweeps", "0"], "max_sweeps must be >= 1, got 0"),
    (["--mode", "attribute-free", "--tau", "0"], "tau must be finite and positive, got 0.0"),
]
BAD_UNREAD_IDS = ["sce-only-delta", "sce-only-tau", "no-kl-weight-sweeps", "attribute-free-tau"]


@pytest.fixture(scope="module")
def small_data(tmp_path_factory):
    root = tmp_path_factory.mktemp("data") / "small"
    assert cli.main(["synth", "--out", str(root), "--seed", "0", *SMALL_SYNTH]) == 0
    return root


def read_dir(root):
    return {p.name: p.read_bytes() for p in sorted(root.iterdir())}


def read_manifest(path):
    manifest = configparser.ConfigParser(interpolation=None)
    manifest.read(path)
    return {name: dict(manifest[name]) for name in manifest.sections()}


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

    @pytest.mark.parametrize("flags, message", BAD_PARTITION_SPECS, ids=BAD_PARTITION_IDS)
    def test_bad_spec_exits_1(self, small_data, tmp_path, capsys, flags, message):
        out = tmp_path / "part"
        code = cli.main(["partition", "--data", str(small_data), "--out", str(out), *flags])
        assert code == 1
        err = capsys.readouterr().err
        assert f"error: {message}" in err and "partition failed" not in err
        assert not out.exists()


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

    @pytest.mark.parametrize("flags, message", BAD_PARTITION_SPECS, ids=BAD_PARTITION_IDS)
    def test_bad_partition_spec_exits_1(self, small_data, tmp_path, capsys, flags, message):
        out = tmp_path / "out"
        assert self.run_once(small_data, out, flags) == 1
        err = capsys.readouterr().err
        assert f"error: {message}" in err and "partition failed" not in err
        assert not out.exists()

    def test_zero_threads_exits_1_before_writing(self, small_data, tmp_path, capsys):
        out = tmp_path / "out"
        assert self.run_once(small_data, out, ["--threads", "0"]) == 1
        assert "error: threads must be >= 1, got 0" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flags, message", BAD_UNREAD_SETTINGS, ids=BAD_UNREAD_IDS)
    def test_settings_a_run_does_not_read_are_checked(
        self, small_data, tmp_path, capsys, flags, message
    ):
        out = tmp_path / "out"
        assert self.run_once(small_data, out, flags) == 1
        assert f"error: {message}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "flags, message",
        [(["--threads", "0"], "threads must be >= 1, got 0"), *BAD_UNREAD_SETTINGS],
        ids=["threads", *BAD_UNREAD_IDS],
    )
    def test_settings_are_checked_before_the_dataset_is_read(
        self, tmp_path, capsys, flags, message
    ):
        # The dataset directory does not exist, so only a check that runs
        # before loading can report the setting.
        out = tmp_path / "out"
        assert self.run_once(tmp_path / "missing", out, flags) == 1
        assert f"error: {message}" in capsys.readouterr().err
        assert not out.exists()

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

    @pytest.mark.parametrize(
        "flags", [FULL_RUN_FLAGS, ATTRIBUTE_FREE_FLAGS], ids=["all-flags", "attribute-free"]
    )
    def test_every_flag_reaches_its_key(self, small_data, tmp_path, flags):
        argv = [token for flag, *_ in flags for token in flag.split()]
        first = tmp_path / "first"
        assert cli.main(
            ["run", "--data", str(small_data), "--out", str(first), *argv]
        ) == 0
        manifest = read_manifest(first / "manifest.ini")
        for flag, section, key, text in flags:
            assert manifest[section][key] == text, flag
        second = tmp_path / "second"
        assert cli.main(
            [
                "run", "--data", str(small_data), "--out", str(second),
                "--config", str(first / "manifest.ini"),
            ]
        ) == 0
        rerun = read_manifest(second / "manifest.ini")
        del manifest["meta"], rerun["meta"]
        assert rerun == manifest
        assert (second / "metrics.csv").read_bytes() == (first / "metrics.csv").read_bytes()

    def test_percent_in_paths(self, tmp_path):
        data, out = tmp_path / "da%ta", tmp_path / "ou%t"
        assert cli.main(["synth", "--out", str(data), "--seed", "0", *SMALL_SYNTH]) == 0
        assert self.run_once(data, out) == 0
        meta = read_manifest(out / "manifest.ini")["meta"]
        assert meta["data"] == str(data.resolve())
        assert meta["out"] == str(out.resolve())
        again = tmp_path / "again"
        assert cli.main(
            ["run", "--data", str(data), "--out", str(again),
             "--config", str(out / "manifest.ini")]
        ) == 0
        assert (again / "metrics.csv").read_bytes() == (out / "metrics.csv").read_bytes()

    @pytest.mark.parametrize(
        "text, message",
        [
            ("[train]\nrounds = 2%\n", "[train] rounds: cannot parse '2%' as int"),
            ("[DEFAULT]\nrounds = 2\n", "unknown section [DEFAULT]"),
            ("[DEFAULT]\nrounds = 2\n[losses]\nw_bc = 0.2\n", "unknown section [DEFAULT]"),
            ("[partition]\nscheme = PCCD\n", "[partition] scheme"),
            ("[model]\nmode = attribute\n", "[model] mode"),
            ("[glasso]\ngamma_source = theta\n", "[glasso] gamma_source"),
        ],
        ids=["percent", "default", "default-beside-section", "scheme", "mode", "gamma-source"],
    )
    def test_bad_config_value_exits_1(self, small_data, tmp_path, capsys, text, message):
        config = tmp_path / "bad.ini"
        config.write_text(text)
        code = cli.main(
            ["run", "--data", str(small_data), "--out", str(tmp_path / "out"),
             "--config", str(config)]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert message in err


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

    def test_stats_read_float32_features_in_float64(self, tmp_path, capsys):
        # The same float32 values from features.bin (kept as float32) and
        # from features.csv (float64) must print the same statistics.
        data = tmp_path / "synth"
        assert cli.main(["synth", "--out", str(data), "--seed", "2", *SMALL_SYNTH]) == 0
        ds, attrs = load_dataset(data)
        narrow = FeatureDataset(
            features=ds.features.astype(np.float32), labels=ds.labels, split=ds.split
        )
        save_dataset(tmp_path / "bin", narrow, attrs, binary=True)
        save_dataset(tmp_path / "csv", narrow, attrs)
        capsys.readouterr()
        printed = []
        for name in ("bin", "csv"):
            assert cli.main(["eval", "--data", str(tmp_path / name), "--stats"]) == 0
            printed.append(capsys.readouterr().out)
        assert printed[0] == printed[1]
        assert printed[0].count("within-class variance") == 8

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

    @pytest.mark.parametrize("trials", ["0", "-5"])
    def test_fewer_than_one_trial_exits_1(self, capsys, trials):
        assert cli.main(["check", "--trials", trials]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: a check needs trials >= 1, got {trials}\n"


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

    @pytest.mark.parametrize("command", ["synth", "partition", "glasso", "run", "eval", "check"])
    def test_help_exits_0(self, capsys, command):
        with pytest.raises(SystemExit) as err:
            cli.main([command, "--help"])
        assert err.value.code == 0
        text = capsys.readouterr().out
        assert text.startswith(f"usage: fedzsl {command}")
        if command == "run":
            flags = [f.split()[0] for f, *_ in FULL_RUN_FLAGS + ATTRIBUTE_FREE_FLAGS if f]
            for flag in [*flags, "--clients", "--data", "--out", "--config"]:
                assert re.search(rf"(^|[\s,\[]){flag}\b", text, re.MULTILINE), flag

    def test_defaults_match_the_library(self):
        library = {}
        for section, source in [
            ("train", TrainConfig()),
            ("model", TrainConfig()),
            ("losses", TrainConfig()),
            ("losses", LossWeights()),
            ("losses", AblationFlags()),
            ("partition", TrainConfig().partition),
            ("glasso", GlassoConfig()),
        ]:
            for f in dataclasses.fields(source):
                library[section, f.name] = getattr(source, f.name)
        library["losses", "tau"] = DEFAULT_TAU
        unmatched = []
        for section, keys in cli.default_config().items():
            for key, default in keys.items():
                if (section, key) not in library:
                    unmatched.append((section, key))
                    continue
                expected = library[section, key]
                assert default == expected and type(default) is type(expected), (section, key)
        # gamma_source picks the matrix the targets come from; no library
        # object has a default for it.
        assert unmatched == [("glasso", "gamma_source")]
