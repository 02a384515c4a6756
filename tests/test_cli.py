"""End-to-end command line tests, run in process via cli.main."""
from __future__ import annotations

import argparse
import configparser
import dataclasses
import inspect
import os
import re
from pathlib import Path

import numpy as np
import pytest

from fedzsl import _kernels, cli, glasso
from fedzsl.dataset import AttributeMatrix, ClassSplit, FeatureDataset, load_dataset, save_dataset
from fedzsl.fed import METRICS_HEADER, TrainConfig
from fedzsl.glasso import GlassoConfig
from fedzsl.losses import DEFAULT_TAU, AblationFlags, LossWeights
from fedzsl.model import ATTRIBUTE_BASED, init_params, save_model
from fedzsl.theory import CheckResult

SMALL_SYNTH = [
    "--num-seen", "6",
    "--num-unseen", "2",
    "--d-a", "6",
    "--d-v", "8",
    "--samples-per-class", "10",
]
FAST_RUN = ["--rounds", "2", "--clients", "2", "--local-epochs", "1"]
# The terms --ablation names, as its error messages print them.
TERMS = "('sce', 'bc', 'kl', 'ad')"

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
    (["--momentum", "1.5"], "momentum must lie in [0, 1), got 1.5"),
    (["--weight-decay", "-1"], "weight_decay must be finite and >= 0, got -1.0"),
    (["--seed", "-1"], "seed must be >= 0, got -1"),
]
BAD_UNREAD_IDS = [
    "sce-only-delta",
    "sce-only-tau",
    "no-kl-weight-sweeps",
    "attribute-free-tau",
    "momentum",
    "weight-decay",
    "seed",
]


# Each subcommand's flags, spelled out by hand like FULL_RUN_FLAGS: option
# strings -> the value the command uses when the flag is absent (REQUIRED for
# a flag that must be given).  `run`'s defaults are the library's, which
# TestTopLevel::test_defaults_match_the_library checks, so its entries are None.
REQUIRED = "required"
COMMAND_FLAGS = {
    "synth": {
        ("--out",): REQUIRED,
        ("--seed",): 0,
        ("--num-seen",): 20,
        ("--num-unseen",): 5,
        ("--d-a",): 16,
        ("--d-v",): 32,
        ("--samples-per-class",): 50,
        ("--attribute-sparsity",): 0.3,
        ("--noise-std",): 0.1,
        ("--group-count",): 4,
        ("--binary",): False,
    },
    "partition": {
        ("--data",): REQUIRED,
        ("--scheme",): "pccd",
        ("-k", "--clients"): 10,
        ("--alpha",): None,
        ("--local-data-ratio",): 1.0,
        ("--seed",): 0,
        ("--out",): None,
    },
    "glasso": {
        ("--data",): REQUIRED,
        ("--glasso-delta",): 0.05,
        ("--glasso-tol",): 1e-5,
        ("--glasso-max-sweeps",): 200,
        ("--out",): ".",
    },
    "run": {
        ("--data",): REQUIRED,
        ("--out",): REQUIRED,
        **{
            flags: None
            for flags in [
                ("--config",), ("--threads",), ("--ablation",), ("--rounds",),
                ("-k", "--clients"), ("--local-epochs",), ("--batch-size",),
                ("--local-lr",), ("--server-lr",), ("--sample-fraction",), ("--seed",),
                ("--eval-every",), ("--w-bc",), ("--w-kl",), ("--w-ad",), ("--tau",),
                ("--scheme",), ("--alpha",),
                ("--local-data-ratio",), ("--glasso-delta",), ("--glasso-tol",),
                ("--glasso-max-sweeps",), ("--mode",), ("--momentum",), ("--weight-decay",),
            ]
        },
    },
    "eval": {
        ("--data",): REQUIRED,
        ("--model",): None,
        ("--seed",): 0,
        ("--stats",): False,
    },
    "check": {
        ("--trials",): 1000,
        ("--seed",): 0,
    },
}
# The flags that take one of a fixed set of values; no other flag has choices.
FLAG_CHOICES = {
    ("partition", "--scheme"): ("iid", "dirichlet", "pccd"),
    ("run", "--scheme"): ("iid", "dirichlet", "pccd"),
    ("run", "--mode"): ("attribute-based", "attribute-free"),
}


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
                "--glasso-delta", "0.1", "--glasso-tol", "1e-8",
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

    @staticmethod
    def solve(data, cfg):
        # The glasso solve a run of data makes under cfg, solved on its own.
        _, attrs = load_dataset(data)
        return glasso.graphical_lasso(glasso.sample_covariance(attrs), cfg)

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
        assert manifest["meta"]["glasso_sweep"] == glasso.column_sweep()
        sim = self.solve(small_data, GlassoConfig())
        assert manifest["meta"]["glasso_sweeps"] == str(sim.sweeps)
        assert manifest["meta"]["glasso_passes"] == str(sim.passes)

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
        sim = self.solve(small_data, GlassoConfig(max_sweeps=1))
        assert manifest["meta"]["glasso_passes"] == str(sim.passes)
        assert manifest["meta"]["glasso_sweep"] == glasso.column_sweep()
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
        # No KL term, no glasso solve, so nothing to say about one.
        assert not [key for key in manifest["meta"] if key.startswith("glasso")]

    def test_the_python_sweep_writes_the_same_bytes_and_says_so(
        self, small_data, tmp_path, monkeypatch
    ):
        first = tmp_path / "first"
        assert self.run_once(small_data, first) == 0
        monkeypatch.setattr(_kernels, "compiled", lambda: None)
        loop = tmp_path / "loop"
        assert self.run_once(small_data, loop) == 0
        for name in ("metrics.csv", "final_model.csv"):
            assert (loop / name).read_bytes() == (first / name).read_bytes(), name
        manifest = configparser.ConfigParser()
        manifest.read(loop / "manifest.ini")
        assert manifest["meta"]["glasso_sweep"] == "python"
        compiled = configparser.ConfigParser()
        compiled.read(first / "manifest.ini")
        for key in ("glasso_sweeps", "glasso_passes"):
            assert manifest["meta"][key] == compiled["meta"][key], key

    def test_meta_records_the_numerics_key(self, small_data, tmp_path, monkeypatch):
        # [meta] names what the bytes depend on besides the settings and the
        # data; nothing of it reaches metrics.csv, and a re-run from the
        # manifest reads the settings alone and writes the same bytes.
        from numpy._core import _multiarray_umath as umath

        from fedzsl import _blas

        def meta(out):
            manifest = configparser.ConfigParser()
            manifest.read(out / "manifest.ini")
            return manifest["meta"]

        first = tmp_path / "first"
        assert self.run_once(small_data, first) == 0
        found = meta(first)
        compiled = _kernels.compiled() is not None and _kernels.compiled().pairwise
        assert found["loss_kernels"] == ("compiled" if compiled else "numpy")
        assert found["blas_core"] == _blas.core()
        assert found["blas_threads"] == ("1" if _blas._controls() is not None else "unpinned")
        assert found["numpy"] == np.__version__
        simd = [t for t in umath.__cpu_dispatch__ if umath.__cpu_features__.get(t)]
        assert found["numpy_simd"].split() == (simd or ["none"])
        assert (first / "metrics.csv").read_text().splitlines()[0] == METRICS_HEADER
        again = tmp_path / "again"
        assert cli.main(
            ["run", "--data", str(small_data), "--out", str(again),
             "--config", str(first / "manifest.ini")]
        ) == 0
        for name in ("metrics.csv", "final_model.csv"):
            assert (again / name).read_bytes() == (first / name).read_bytes(), name
        monkeypatch.setattr(_kernels, "compiled", lambda: None)
        numpy_run = tmp_path / "numpy"
        assert self.run_once(small_data, numpy_run) == 0
        assert meta(numpy_run)["loss_kernels"] == "numpy"
        for name in ("metrics.csv", "final_model.csv"):
            assert (numpy_run / name).read_bytes() == (first / name).read_bytes(), name

    def test_rerun_notes_numerics_that_differ_from_the_manifest(
        self, small_data, tmp_path, capsys
    ):
        # A manifest whose [meta] names another BLAS core gives one note on
        # stderr naming the key and both values; the unedited manifest, and
        # one written before [meta] held the numerics, give none.  Every
        # re-run exits 0 and writes the bytes of the first run (the old
        # manifest holds the FAST_RUN settings).
        first = tmp_path / "first"
        assert self.run_once(small_data, first) == 0
        capsys.readouterr()
        written = first / "manifest.ini"
        core = read_manifest(written)["meta"]["blas_core"]
        edited = tmp_path / "edited.ini"
        text = written.read_text()
        assert text.count(f"\nblas_core = {core}\n") == 1
        edited.write_text(text.replace(f"\nblas_core = {core}\n", "\nblas_core = Elsewhere\n"))
        for config, notes in ((edited, 1), (written, 0), (PARENT_MANIFEST, 0)):
            out = tmp_path / config.stem
            assert cli.main(
                ["run", "--data", str(small_data), "--out", str(out), "--config", str(config)]
            ) == 0
            err = capsys.readouterr().err
            assert err.count("note:") == notes, err
            if notes:
                assert f"blas_core 'Elsewhere' there, '{core}' here" in err
                for key in ("blas_threads", "numpy", "numpy_simd", "loss_kernels"):
                    assert f"{key} '" not in err
            for name in ("metrics.csv", "final_model.csv"):
                assert (out / name).read_bytes() == (first / name).read_bytes(), name

    @pytest.mark.parametrize("word", ["full", "all", " ALL "])
    def test_ablation_full_turns_every_term_on(self, small_data, tmp_path, monkeypatch, word):
        # The config file turns three terms off; the flag wins over it.
        config = tmp_path / "off.ini"
        config.write_text("[losses]\nbc = false\nkl = false\nad = false\n")
        calls = record(monkeypatch, "configure_run", stop=True)
        with pytest.raises(StopCommand):
            self.run_once(
                small_data, tmp_path / "out", ["--config", str(config), "--ablation", word]
            )
        (call,) = calls
        assert [call["settings"]["losses"][t] for t in ("sce", "bc", "kl", "ad")] == [True] * 4

    @pytest.mark.parametrize(
        "text, message",
        [
            (",", f"--ablation got ','; expected 'full' or terms from {TERMS}"),
            ("-only", f"--ablation got '-only'; expected 'full' or terms from {TERMS}"),
            ("sce,xyz", f"--ablation term 'xyz' is not one of {TERMS}"),
        ],
        ids=["comma", "only-suffix", "unknown-term"],
    )
    def test_bad_ablation_exits_1(self, small_data, tmp_path, capsys, text, message):
        out = tmp_path / "out"
        assert self.run_once(small_data, out, [f"--ablation={text}"]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    def test_malformed_config_file_exits_1(self, small_data, tmp_path, capsys):
        config = tmp_path / "headless.ini"
        config.write_text("rounds = 2\n[train]\nseed = 1\n")
        out = tmp_path / "out"
        assert self.run_once(small_data, out, ["--config", str(config)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: config file {config}: ")
        assert "no section headers" in err
        assert not out.exists()

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


# A manifest written by `run` when it still had the settings delta_scale,
# bc_squared, standardize and gamma_source, exactly as written: `run --data
# <small_data> --rounds 2 --clients 2 --local-epochs 1`, so every key but
# those four is the FAST_RUN table.
PARENT_MANIFEST = Path(__file__).parent / "data" / "parent_manifest.ini"
RETIRED_VALUES = [
    ("train", "delta_scale", "1.0", "0.5"),
    ("losses", "bc_squared", "true", "false"),
    ("glasso", "standardize", "true", "false"),
    ("glasso", "gamma_source", "covariance", "precision"),
]
RETIRED_IDS = [key for _, key, _, _ in RETIRED_VALUES]


class TestRetiredSettings:
    def test_fixture_is_a_full_manifest_with_every_retired_key(self):
        manifest = read_manifest(PARENT_MANIFEST)
        del manifest["meta"]
        assert sum(len(keys) for keys in manifest.values()) == 30
        for section, key, fixed, _ in RETIRED_VALUES:
            assert manifest[section][key] == fixed
            assert key not in cli.default_config()[section]

    def test_parent_manifest_reruns_byte_for_byte(self, small_data, tmp_path):
        default, rerun = tmp_path / "default", tmp_path / "rerun"
        run = ["run", "--data", str(small_data)]
        assert cli.main([*run, "--out", str(default), *FAST_RUN]) == 0
        assert cli.main([*run, "--out", str(rerun), "--config", str(PARENT_MANIFEST)]) == 0
        for name in ("metrics.csv", "final_model.csv"):
            assert (rerun / name).read_bytes() == (default / name).read_bytes(), name
        # The retired keys are read, not written back.
        written = [read_manifest(out / "manifest.ini") for out in (default, rerun)]
        for manifest in written:
            del manifest["meta"]
        assert written[0] == written[1]

    @pytest.mark.parametrize("section, key, fixed, other", RETIRED_VALUES, ids=RETIRED_IDS)
    def test_other_value_exits_1_naming_the_removal(
        self, small_data, tmp_path, capsys, section, key, fixed, other
    ):
        text = PARENT_MANIFEST.read_text()
        assert text.count(f"\n{key} = {fixed}\n") == 1
        config = tmp_path / "retired.ini"
        config.write_text(text.replace(f"\n{key} = {fixed}\n", f"\n{key} = {other}\n"))
        out = tmp_path / "out"
        code = cli.main(
            ["run", "--data", str(small_data), "--out", str(out), "--config", str(config)]
        )
        assert code == 1
        assert capsys.readouterr().err == (
            f"error: config file {config}: [{section}] {key} was removed; "
            f"a run always uses {key} = {fixed}, got '{other}'\n"
        )
        assert not out.exists()

    def test_fixed_value_in_any_boolean_spelling_is_accepted(self, small_data, tmp_path):
        config = tmp_path / "spelled.ini"
        config.write_text(
            "[losses]\nbc_squared = Yes\n[glasso]\nstandardize = 1\ngamma_source = covariance\n"
        )
        default, spelled = tmp_path / "default", tmp_path / "spelled"
        run = ["run", "--data", str(small_data), *FAST_RUN]
        assert cli.main([*run, "--out", str(default)]) == 0
        assert cli.main([*run, "--out", str(spelled), "--config", str(config)]) == 0
        assert (spelled / "metrics.csv").read_bytes() == (default / "metrics.csv").read_bytes()

    @pytest.mark.parametrize("spelling", ["1", "1.0", "1e0", " +1.00"])
    def test_retired_scale_is_read_as_a_float(self, small_data, tmp_path, spelling):
        config = tmp_path / "scale.ini"
        config.write_text(f"[train]\ndelta_scale = {spelling}\n")
        default, spelled = tmp_path / "default", tmp_path / "spelled"
        run = ["run", "--data", str(small_data), *FAST_RUN]
        assert cli.main([*run, "--out", str(default)]) == 0
        assert cli.main([*run, "--out", str(spelled), "--config", str(config)]) == 0
        for name in ("metrics.csv", "final_model.csv"):
            assert (spelled / name).read_bytes() == (default / name).read_bytes(), name
        assert "delta_scale" not in read_manifest(spelled / "manifest.ini")["train"]

    @pytest.mark.parametrize(
        "section, key, fixed", [row[:3] for row in RETIRED_VALUES], ids=RETIRED_IDS
    )
    @pytest.mark.parametrize("text", ["abc", "nan", ""])
    def test_unparsable_value_exits_1_naming_the_removal(
        self, small_data, tmp_path, capsys, section, key, fixed, text
    ):
        config = tmp_path / "retired.ini"
        config.write_text(f"[{section}]\n{key} = {text}\n")
        out = tmp_path / "out"
        code = cli.main(
            ["run", "--data", str(small_data), "--out", str(out), "--config", str(config)]
        )
        assert code == 1
        assert capsys.readouterr().err == (
            f"error: config file {config}: [{section}] {key} was removed; "
            f"a run always uses {key} = {fixed}, got '{text}'\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize("flag", ["--delta-scale", "--delta"])
    def test_retired_scale_flag_exits_1(self, small_data, tmp_path, capsys, flag):
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as err:
            cli.main(["run", "--data", str(small_data), "--out", str(out), flag, "0.5"])
        assert err.value.code == 1
        assert f"error: unrecognized arguments: {flag} 0.5" in capsys.readouterr().err
        assert not out.exists()


# Each command writing files, as (argv of a first run, argv of a second run
# that changes every output) and the names it writes.
def _writers(data, out):
    synth = ["synth", "--out", str(out), *SMALL_SYNTH]
    return {
        "run": (
            ["run", "--data", str(data), "--out", str(out), *FAST_RUN],
            ["run", "--data", str(data), "--out", str(out), *FAST_RUN, "--seed", "1"],
        ),
        "glasso": (
            ["glasso", "--data", str(data), "--out", str(out)],
            ["glasso", "--data", str(data), "--out", str(out), "--glasso-delta", "0.1"],
        ),
        "partition": (
            ["partition", "--data", str(data), "--out", str(out), "-k", "2"],
            ["partition", "--data", str(data), "--out", str(out), "-k", "3"],
        ),
        "synth": (
            [*synth, "--seed", "0"],
            [*synth, "--seed", "1", "--num-seen", "5", "--group-count", "3"],
        ),
        "synth-binary": (
            [*synth, "--seed", "0", "--binary"],
            [*synth, "--seed", "1", "--binary", "--samples-per-class", "9"],
        ),
    }


ATOMIC_OUTPUTS = [
    ("run", "manifest.ini"),
    ("run", "metrics.csv"),
    ("run", "final_model.csv"),
    ("glasso", "gamma.csv"),
    ("glasso", "theta.csv"),
    ("partition", "partition.csv"),
    ("partition", "partition_summary.csv"),
    ("synth", "attributes.csv"),
    ("synth", "groups.csv"),
    ("synth", "splits.csv"),
    ("synth", "features.csv"),
    ("synth-binary", "features.bin"),
    ("synth-binary", "labels.csv"),
]


class TestAtomicOutputs:
    @pytest.mark.parametrize(
        "command, name", ATOMIC_OUTPUTS, ids=[f"{c}-{n}" for c, n in ATOMIC_OUTPUTS]
    )
    def test_a_failed_write_keeps_the_old_file(
        self, small_data, tmp_path, monkeypatch, capsys, command, name
    ):
        out = tmp_path / "out"
        first, second = _writers(small_data, out)[command]
        assert cli.main(first) == 0
        old = read_dir(out)
        real_replace = os.replace

        def replace(src, dst):
            if Path(dst).name == name:
                raise OSError(f"cannot replace {name}")
            real_replace(src, dst)

        monkeypatch.setattr(os, "replace", replace)
        assert cli.main(second) == 1
        assert f"error: cannot replace {name}" in capsys.readouterr().err
        assert sorted(p.name for p in out.iterdir()) == sorted(old)  # no temporary file
        assert (out / name).read_bytes() == old[name]
        monkeypatch.undo()
        assert cli.main(second) == 0
        assert (out / name).read_bytes() != old[name]  # the write would have changed it


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

    def test_violations_exit_1_with_their_count(self, monkeypatch, capsys):
        rows = [CheckResult("pinsker", 10, 2, 0.5), CheckResult("margin", 10, 1, 0.25)]
        monkeypatch.setattr(cli, "run_check_suite", lambda trials, seed: rows)
        assert cli.main(["check", "--trials", "10"]) == 1
        captured = capsys.readouterr()
        assert captured.err == "3 violation(s) found\n"
        lines = captured.out.strip().splitlines()
        assert [line.split() for line in lines[1:]] == [
            ["pinsker", "10", "2", "5.000e-01"],
            ["margin", "10", "1", "2.500e-01"],
        ]

    @pytest.mark.parametrize("trials", ["0", "-5"])
    def test_fewer_than_one_trial_exits_1(self, capsys, trials):
        assert cli.main(["check", "--trials", trials]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: a check needs trials >= 1, got {trials}\n"


class StopCommand(Exception):
    """Raised by a recorded library call to end a command once it is seen."""


def record(monkeypatch, name, stop=False):
    """Record the arguments of each call the cli makes to its import ``name``;
    each call goes on to the library, or raises StopCommand with ``stop``."""
    real = getattr(cli, name)
    calls = []

    def recorder(*args, **kwargs):
        calls.append(inspect.signature(real).bind(*args, **kwargs).arguments)
        if stop:
            raise StopCommand
        return real(*args, **kwargs)

    monkeypatch.setattr(cli, name, recorder)
    return calls


def subcommand_actions(command):
    parser = cli._build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return [a for a in sub.choices[command]._actions if not isinstance(a, argparse._HelpAction)]


class TestFlagList:
    @pytest.mark.parametrize("command", list(COMMAND_FLAGS))
    def test_parser_has_exactly_the_listed_flags(self, command):
        actions = subcommand_actions(command)
        assert sorted(tuple(a.option_strings) for a in actions) == sorted(COMMAND_FLAGS[command])
        for action in actions:
            flags = tuple(action.option_strings)
            assert action.required == (COMMAND_FLAGS[command][flags] == REQUIRED), flags
            choices = FLAG_CHOICES.get((command, flags[-1]))
            assert (None if action.choices is None else tuple(action.choices)) == choices, flags

    @pytest.mark.parametrize("command", list(COMMAND_FLAGS))
    def test_help_lists_every_flag_and_choice(self, capsys, command):
        with pytest.raises(SystemExit):
            cli.main([command, "--help"])
        text = capsys.readouterr().out
        for flags in COMMAND_FLAGS[command]:
            for flag in flags:
                assert re.search(rf"(^|[\s,\[]){flag}\b", text, re.MULTILINE), flag
            for choice in FLAG_CHOICES.get((command, flags[-1]), ()):
                assert choice in text, (flags, choice)

    def test_synth_defaults(self, monkeypatch, tmp_path):
        calls = record(monkeypatch, "generate_synthetic")
        out = tmp_path / "synth"
        assert cli.main(["synth", "--out", str(out)]) == 0
        (call,) = calls
        expected = {
            flags[0][2:].replace("-", "_"): default
            for flags, default in COMMAND_FLAGS["synth"].items()
        }
        assert call["seed"] == expected.pop("seed")
        assert (out / "features.csv").exists() != expected.pop("binary")
        del expected["out"]
        assert dataclasses.asdict(call["spec"]) == expected

    @pytest.fixture
    def ten_classes(self, tmp_path):
        data = tmp_path / "ten"
        assert cli.main(
            [
                "synth", "--out", str(data), "--num-seen", "10", "--num-unseen", "2",
                "--d-a", "4", "--d-v", "4", "--samples-per-class", "3",
            ]
        ) == 0
        return data

    def test_partition_defaults(self, monkeypatch, ten_classes, tmp_path, capsys):
        data = ten_classes
        splits = record(monkeypatch, "split_train_test")
        specs = record(monkeypatch, "partition")
        monkeypatch.chdir(tmp_path)
        capsys.readouterr()
        assert cli.main(["partition", "--data", str(data)]) == 0
        defaults = COMMAND_FLAGS["partition"]
        assert [call["seed"] for call in splits] == [defaults["--seed",]]
        (call,) = specs
        spec = call["spec"]
        assert (spec.scheme, spec.num_clients, spec.alpha, spec.local_data_ratio, spec.seed) == (
            defaults["--scheme",],
            defaults["-k", "--clients"],
            defaults["--alpha",],
            defaults["--local-data-ratio",],
            defaults["--seed",],
        )
        assert defaults["--out",] is None
        assert "wrote" not in capsys.readouterr().out
        assert sorted(p.name for p in tmp_path.iterdir()) == ["ten"]

    def test_partition_flags_reach_the_spec(self, monkeypatch, ten_classes):
        splits = record(monkeypatch, "split_train_test")
        specs = record(monkeypatch, "partition", stop=True)
        with pytest.raises(StopCommand):
            cli.main(
                [
                    "partition", "--data", str(ten_classes), "--scheme", "dirichlet",
                    "--clients", "3", "--alpha", "0.5", "--local-data-ratio", "0.5",
                    "--seed", "2",
                ]
            )
        assert [call["seed"] for call in splits] == [2]
        spec = specs[0]["spec"]
        assert (spec.scheme, spec.num_clients, spec.alpha, spec.local_data_ratio, spec.seed) == (
            "dirichlet", 3, 0.5, 0.5, 2
        )

    def test_glasso_defaults(self, monkeypatch, small_data, tmp_path, capsys):
        covariances = record(monkeypatch, "sample_covariance")
        solves = record(monkeypatch, "graphical_lasso")
        monkeypatch.chdir(tmp_path)
        assert cli.main(["glasso", "--data", str(small_data)]) == 0
        defaults = COMMAND_FLAGS["glasso"]
        (cov,) = covariances
        assert "standardize" not in cov  # the library default: correlations
        cfg = solves[0]["cfg"]
        assert (cfg.delta, cfg.tol, cfg.max_sweeps) == (
            defaults["--glasso-delta",],
            defaults["--glasso-tol",],
            defaults["--glasso-max-sweeps",],
        )
        out = tmp_path / defaults["--out",]
        assert (out / "gamma.csv").exists() and (out / "theta.csv").exists()

    def test_glasso_flags_reach_the_config(self, monkeypatch, small_data):
        solves = record(monkeypatch, "graphical_lasso", stop=True)
        with pytest.raises(StopCommand):
            cli.main(
                [
                    "glasso", "--data", str(small_data), "--glasso-delta", "0.2",
                    "--glasso-tol", "1e-6", "--glasso-max-sweeps", "7",
                ]
            )
        cfg = solves[0]["cfg"]
        assert (cfg.delta, cfg.tol, cfg.max_sweeps) == (0.2, 1e-6, 7)

    @pytest.mark.parametrize("flag", ["--delta", "--tol", "--max-sweeps"])
    def test_glasso_flags_are_spelled_as_runs(self, small_data, tmp_path, capsys, flag):
        with pytest.raises(SystemExit) as err:
            cli.main(["glasso", "--data", str(small_data), "--out", str(tmp_path / "gl"), flag, "1"])
        assert err.value.code == 1
        assert f"error: unrecognized arguments: {flag} 1" in capsys.readouterr().err
        assert not (tmp_path / "gl").exists()

    def test_eval_defaults(self, monkeypatch, small_data, tmp_path, capsys):
        defaults = COMMAND_FLAGS["eval"]
        assert defaults["--model",] is None and defaults["--stats",] is False
        assert cli.main(["eval", "--data", str(small_data)]) == 1
        assert "eval needs --model and/or --stats" in capsys.readouterr().err
        model = tmp_path / "model.csv"
        save_model(model, init_params(8, 6, num_seen=6, mode=ATTRIBUTE_BASED, seed=0))
        splits = record(monkeypatch, "split_train_test", stop=True)
        with pytest.raises(StopCommand):
            cli.main(["eval", "--data", str(small_data), "--model", str(model)])
        assert [call["seed"] for call in splits] == [defaults["--seed",]]

    def test_check_defaults(self, monkeypatch):
        calls = record(monkeypatch, "run_check_suite", stop=True)
        with pytest.raises(StopCommand):
            cli.main(["check"])
        defaults = COMMAND_FLAGS["check"]
        assert [(call.get("trials"), call.get("seed")) for call in calls] == [
            (defaults["--trials",], defaults["--seed",])
        ]


def _abbreviated_flags():
    """(command, flag prefix, its value or None) for each long flag of COMMAND_FLAGS
    with its last letter dropped, a prefix no parser may read as the flag, and the
    README's shorter example."""
    cases = [("run", "--sample", "0.5")]
    for command, flags in COMMAND_FLAGS.items():
        for options, default in flags.items():
            choices = FLAG_CHOICES.get((command, options[-1]))
            # A flag that defaults to False is a switch and takes no value.
            value = None if default is False else choices[-1] if choices else "1"
            cases += [(command, o[:-1], value) for o in options if o.startswith("--")]
    return cases


ABBREVIATED_FLAGS = _abbreviated_flags()


class TestFlagSpelling:
    @pytest.mark.parametrize(
        "command, prefix, value",
        ABBREVIATED_FLAGS,
        ids=[f"{c}{p}" for c, p, _ in ABBREVIATED_FLAGS],
    )
    def test_a_flag_prefix_is_unrecognized(
        self, tmp_path, monkeypatch, capsys, command, prefix, value
    ):
        monkeypatch.chdir(tmp_path)
        required = [
            token
            for flags, default in COMMAND_FLAGS[command].items()
            if default == REQUIRED
            for token in (flags[-1], str(tmp_path / flags[-1].strip("-")))
        ]
        extra = [prefix] if value is None else [prefix, value]
        with pytest.raises(SystemExit) as err:
            cli.main([command, *required, *extra])
        assert err.value.code == 1
        assert f"error: unrecognized arguments: {' '.join(extra)}\n" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []  # `run` made no output directory

    def test_a_top_level_flag_prefix_is_unrecognized(self, capsys):
        with pytest.raises(SystemExit) as err:
            cli.main(["--versio", "check", "--trials", "1"])
        assert err.value.code == 1
        captured = capsys.readouterr()
        assert "error: unrecognized arguments: --versio\n" in captured.err
        assert captured.out == ""


class TestTopLevel:
    @pytest.mark.parametrize("command", ["synth", "partition", "eval", "check"])
    def test_negative_seed_exits_1_with_a_clear_message(
        self, small_data, tmp_path, capsys, command
    ):
        model = tmp_path / "model.csv"
        save_model(model, init_params(8, 6, num_seen=6, mode=ATTRIBUTE_BASED, seed=0))
        out = tmp_path / "out"
        argv = {
            "synth": ["synth", "--out", str(out), "--seed", "-1", *SMALL_SYNTH],
            "partition": ["partition", "--data", str(small_data), "--out", str(out), "--seed", "-1"],
            "eval": ["eval", "--data", str(small_data), "--model", str(model), "--seed", "-2"],
            "check": ["check", "--trials", "10", "--seed", "-3"],
        }[command]
        assert cli.main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        seed = argv[argv.index("--seed") + 1]
        assert captured.err == f"error: seed must be >= 0, got {seed}\n"
        assert not out.exists()

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
        assert unmatched == []
