"""End-to-end CLI runs, in process via main(argv)."""

import argparse
import dataclasses
import json
import time
import tracemalloc

import numpy as np
import pytest

from relulab import cli
from relulab.cli import main
from relulab.harness import config_hash
from relulab.nets import load_checkpoint


def _write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


TINY_TRAIN = {"d": 2, "n": 8, "width_rule": 2, "sigma": 0.5, "holdout_size": 32,
              "train": {"eta": 0.1, "epochs": 3}}


class TestExitCodes:
    def test_missing_config_file(self, tmp_path):
        code = main(["train", "--config", str(tmp_path / "nope.json"), "--out", str(tmp_path)])
        assert code == 2

    def test_unparseable_config(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert main(["train", "--config", str(path), "--out", str(tmp_path)]) == 2

    def test_unknown_config_key(self, tmp_path):
        cfg = _write_config(tmp_path, {"learning_rate": 0.1})
        assert main(["train", "--config", cfg, "--out", str(tmp_path / "o")]) == 2

    def test_non_object_config(self, tmp_path):
        cfg = _write_config(tmp_path, [1, 2, 3])
        assert main(["train", "--config", cfg, "--out", str(tmp_path / "o")]) == 2

    def test_bad_threads(self, tmp_path):
        out = tmp_path / "o"
        assert main(["sweep-mse", "--threads", "0", "--out", str(out)]) == 2
        assert not out.exists()
        # Only sweep-mse runs a pool, so no other command takes --threads.
        with pytest.raises(SystemExit) as info:
            main(["rates", "--threads", "2", "--out", str(out)])
        assert info.value.code == 2

    @pytest.mark.parametrize(
        "command,raw",
        [
            ("shatter", {"eta_large": -1.0}),
            ("shatter", {"eta_decay": 0.0}),
            ("shatter", {"clip_threshold": 0}),
            ("shatter", {"epochs": -1}),
            ("sharpness", {**TINY_TRAIN, "sigma": -1.0}),
            ("sharpness", {**TINY_TRAIN, "sigma": float("nan")}),
            ("sharpness", {**TINY_TRAIN, "holdout_size": 0}),
            ("sharpness", {**TINY_TRAIN, "train": {"epochs": 1.5}}),
            ("train", {"train": {"epochs": 2.5}}),
            ("train", {"train": {"sharpness_every": 1.5}}),
            ("train", {"width_rule": 1.5}),
            ("train", {"holdout_size": 10.5}),
            ("train", {"n": 8.5}),
            ("train", {"d": True}),
            ("sweep-mse", {"dims": [1.5, 2]}),
            ("sweep-mse", {"seeds_per_cell": 2.0}),
            ("shatter", {"width": 2.5}),
            ("shatter", {"epochs": True}),
            ("vgnorm", {"code_length": 8.5}),
            ("vgnorm", {"code_length": 0}),
            ("vgnorm", {"code_length": -3}),
            ("vgnorm", {"code_length": "16"}),
            ("vgnorm", {"code_length": True}),
            ("rates", {"dims": [1.5, 2]}),
            ("rates", {"dims": [True]}),
            ("rates", {"dims": 3}),
            ("hardfn-verify", {"d": 1}),
            ("hardfn-verify", {"d": 2.5}),
            ("hardfn-verify", {"d": True}),
            ("hardfn-verify", {"eps": 0.0}),
            ("hardfn-verify", {"eps": 1.0}),
            ("hardfn-verify", {"eps": float("nan")}),
            ("hardfn-verify", {"amplitude": 0.0}),
            ("hardfn-verify", {"amplitude": float("inf")}),
            ("hardfn-verify", {"amplitude": float("nan")}),
            ("hardfn-verify", {"n_atoms": 4}),
            ("hardfn-verify", {"n_obs": -1}),
            ("hardfn-verify", {"mc_trials": 0}),
            ("hardfn-verify", {"l2_samples": 0}),
            ("hardfn-verify", {"n_atoms": 8.5}),
            ("hardfn-verify", {"n_obs": 2.5}),
            ("hardfn-verify", {"l2_samples": True}),
            ("train", {"sigma": True}),
            ("train", {"train": {"eta": True}}),
            ("sharpness", {**TINY_TRAIN, "sigma": True}),
            ("hardfn-verify", {"eps": True}),
            ("hardfn-verify", {"amplitude": True}),
            ("hardfn-verify", {"n_atoms": True}),
            # The packing asked for 8 caps finds fewer at this radius.
            ("hardfn-verify", {"n_atoms": 8, "eps": 0.9}),
            # Fewer than 8 disjoint caps fit at this radius.
            ("hardfn-verify", {"d": 2, "eps": 0.9}),
            # Codes beyond the greedy search's word limit.
            ("vgnorm", {"code_length": 200}),
            ("hardfn-verify", {"d": 5}),
            # A repeated grid entry would run its cells twice.
            ("sweep-mse", {"dims": [1, 1]}),
            ("sweep-mse", {"sample_sizes": [8, 8]}),
            # More atoms than any code can take; the cap packing would
            # otherwise search 50 * n_atoms + 1000 candidates first.
            ("hardfn-verify", {"n_atoms": 81}),
            ("hardfn-verify", {"n_atoms": 10**9}),
            # The first code length past the word limit, and one whose
            # size ceil(2^(k/8)) is too large to be a float.
            ("vgnorm", {"code_length": 81}),
            ("vgnorm", {"code_length": 10**4}),
            # Thousands of caps fit; the default packing stops one past the
            # 80 that a code can take.
            ("hardfn-verify", {"d": 10}),
        ],
    )
    def test_bad_values_rejected_before_the_run(self, command, raw, tmp_path):
        cfg = _write_config(tmp_path, raw)
        out = tmp_path / "o"
        started = time.perf_counter()
        assert main([command, "--config", cfg, "--out", str(out)]) == 2
        assert time.perf_counter() - started < 2.0
        assert not out.exists()

    @pytest.mark.parametrize("command", sorted(cli._COMMANDS))
    def test_negative_seed_rejected_before_the_run(self, command, tmp_path, capsys):
        out = tmp_path / "o"
        assert main([command, "--seed", "-1", "--out", str(out)]) == 2
        assert not out.exists()
        assert "--seed must be an integer >= 0, got -1" in capsys.readouterr().err

    def test_unknown_subcommand_exits_2(self):
        with pytest.raises(SystemExit) as info:
            main(["frobnicate"])
        assert info.value.code == 2

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_all_cells_diverged_is_run_failure(self, tmp_path):
        cfg = _write_config(
            tmp_path,
            {
                "dims": [1],
                "sample_sizes": [4],
                "seeds_per_cell": 1,
                "sigma": 0.5,
                "holdout_size": 16,
                "train": {"eta": 1e150, "epochs": 2, "clip_threshold": 1e300},
            },
        )
        assert main(["sweep-mse", "--config", cfg, "--out", str(tmp_path / "o")]) == 3


COMMANDS = ("train", "sweep-mse", "shatter", "sharpness", "vgnorm", "hardfn-verify", "rates")

# config_hash of the config each command prepares with no --config and the
# default --seed; see _pinned_form for what is hashed.
DEFAULT_CONFIG_HASHES = {
    "train": "ecc9c1cbb6f207bf0fb5c4ee53e53c8af8eeadf3324d7c569862f4eb7d53c12e",
    "sweep-mse": "d29e760b2dc532aeb6e1dc31e3fdb78db1086046a2457bea4dacb0bf9e8f8276",
    "shatter": "00dd6eb74d378616be3a6ff4793d8e2af20a72d6fdb8ac62a25be0c3e0bc2c03",
    "sharpness": "ecc9c1cbb6f207bf0fb5c4ee53e53c8af8eeadf3324d7c569862f4eb7d53c12e",
    "vgnorm": "17636071875560710ca0670f390bbc24d03f733ebba81aefbd3ef14935b696ab",
    "hardfn-verify": "7f6515f0f337590aa0a8310f4750c3882a9bcd975363f66358e67903ea10855d",
    "rates": "14726b3adc919531193fd55cee7039faca85eb91f1d19cedff45fa3558e6b7c5",
}


def _pinned_form(prepared) -> dict:
    """Canonical dict of what a command's prepare step hands its executor.

    train, sweep-mse, shatter and sharpness get a config dataclass with
    ``as_dict``; vgnorm and hardfn-verify get the pair (config, family);
    rates gets its config.
    """
    if hasattr(prepared, "as_dict"):
        return prepared.as_dict()
    return dataclasses.asdict(prepared[0] if isinstance(prepared, tuple) else prepared)


class TestDefaults:
    @pytest.mark.parametrize("command", COMMANDS)
    def test_default_config_is_pinned(self, command, tmp_path, monkeypatch):
        prepare, _, text = cli._COMMANDS[command]
        seen = []
        monkeypatch.setitem(
            cli._COMMANDS, command, (prepare, lambda p, args: seen.append(p) or 0, text)
        )
        assert main([command, "--out", str(tmp_path / "o")]) == 0
        assert config_hash(_pinned_form(seen[0])) == DEFAULT_CONFIG_HASHES[command]

    @pytest.mark.parametrize("key", ["no_such_key", "seed", "master_seed", "output_dir"])
    @pytest.mark.parametrize("command", COMMANDS)
    def test_unknown_and_reserved_keys_rejected(self, command, key, tmp_path, capsys):
        cfg = _write_config(tmp_path, {key: 1})
        assert main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert f"unknown config keys: ['{key}']" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["train", "sweep-mse", "sharpness"])
    def test_train_seed_key_rejected(self, command, tmp_path, capsys):
        cfg = _write_config(tmp_path, {"train": {"seed": 5}})
        assert main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert "unknown train keys: ['seed']" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command,raw,message",
        [
            (command, {"train": {key: value}}, f"unknown train keys: ['{key}']")
            for command in ("train", "sweep-mse", "sharpness")
            for key, value in (("decay_biases", False), ("telemetry_rel_tol", 1e-6))
        ]
        + [
            ("shatter", {key: value}, f"unknown config keys: ['{key}']")
            for key, value in (("telemetry_rel_tol", 1e-6), ("sharpness_every", 10))
        ]
        + [
            (command, {key: value}, f"unknown config keys: ['{key}']")
            for command, key, value in (
                ("sweep-mse", "mse_mode", "both"),
                ("train", "mse_mode", "both"),
                ("sharpness", "mse_mode", "both"),
                ("sharpness", "certificate_rel_tol", 1e-10),
                ("sharpness", "certificate_max_iters", 20000),
                ("vgnorm", "target", 4),
                ("hardfn-verify", "pair", [0, 1]),
            )
        ],
    )
    def test_retired_keys_rejected(self, command, raw, message, tmp_path, capsys):
        # Weight decay covers every parameter, the telemetry tolerance is a
        # constant and the shatter arms take no telemetry.  Slopes are fitted
        # on both MSE columns, the certificate solves at fixed tolerances, a
        # vgnorm code has ceil(2^(k/8)) words and hardfn-verify checks members
        # 0 and 1.
        cfg = _write_config(tmp_path, raw)
        out = tmp_path / "o"
        assert main([command, "--config", cfg, "--out", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()


class TestTrainCommand:
    def test_artifacts_and_checkpoint_roundtrip(self, tmp_path, capsys):
        cfg = _write_config(tmp_path, TINY_TRAIN)
        out = tmp_path / "run"
        assert main(["train", "--config", cfg, "--out", str(out), "--seed", "4"]) == 0
        for name in ("training_log.csv", "checkpoint.bin", "record.json", "manifest.json"):
            assert (out / name).exists()
        record = json.loads((out / "record.json").read_text())
        assert record["width"] == 16
        assert np.isfinite(record["final_train_loss"])
        net = load_checkpoint(out / "checkpoint.bin")
        assert net.width == 16 and net.input_dim == 2
        # header + epochs 0..3 inclusive
        assert len((out / "training_log.csv").read_text().strip().splitlines()) == 5
        assert "trained d=2 n=8" in capsys.readouterr().out

    def test_epoch_preset_in_config(self, tmp_path):
        payload = dict(TINY_TRAIN)
        payload["train"] = {"eta": 200.0, "epoch_preset": "appendix-A2"}
        cfg = _write_config(tmp_path, payload)
        out = tmp_path / "run"
        assert main(["train", "--config", cfg, "--out", str(out)]) == 0
        # eta*epochs = 10000 -> 50 epochs -> 52 csv lines
        assert len((out / "training_log.csv").read_text().strip().splitlines()) == 52


class TestSweepCommand:
    CONFIG = {
        "dims": [1, 2],
        "sample_sizes": [8, 16],
        "seeds_per_cell": 1,
        "sigma": 0.5,
        "holdout_size": 32,
        "train": {"eta": 0.1, "epochs": 2},
    }

    def test_sweep_writes_tables_and_slopes(self, tmp_path, capsys):
        cfg = _write_config(tmp_path, self.CONFIG)
        out = tmp_path / "sweep"
        assert main(["sweep-mse", "--config", cfg, "--out", str(out), "--threads", "2"]) == 0
        rows = (out / "sweep.csv").read_text().strip().splitlines()
        assert len(rows) == 5
        slopes = json.loads((out / "slopes.json").read_text())
        assert slopes["n_records"] == 4
        assert "slope[in_sample_vs_f0] d=1" in capsys.readouterr().out

    def test_rerun_is_byte_identical(self, tmp_path):
        cfg = _write_config(tmp_path, self.CONFIG)
        blobs = []
        for sub in ("a", "b"):
            out = tmp_path / sub
            assert main(["sweep-mse", "--config", cfg, "--out", str(out), "--seed", "9"]) == 0
            blobs.append({p.name: p.read_bytes() for p in out.iterdir()})
        assert blobs[0] == blobs[1]


class TestShatterCommand:
    def test_small_paired_run(self, tmp_path, capsys):
        cfg = _write_config(
            tmp_path, {"d": 2, "n": 8, "width": 8, "sigma": 1.0, "epochs": 2}
        )
        out = tmp_path / "shatter"
        assert main(["shatter", "--config", cfg, "--out", str(out)]) == 0
        assert (out / "scatter_large_step.csv").exists()
        assert (out / "records.json").exists()
        printed = capsys.readouterr().out
        assert "large_step:" in printed and "weight_decay:" in printed


class TestSharpnessCommand:
    def test_certificate_json(self, tmp_path):
        cfg = _write_config(tmp_path, TINY_TRAIN)
        out = tmp_path / "sharp"
        assert main(["sharpness", "--config", cfg, "--out", str(out), "--seed", "2"]) == 0
        payload = json.loads((out / "sharpness.json").read_text())
        assert payload["certificate"]["holds"] is True
        assert payload["certificate"]["term_a_holds"] is True
        assert payload["sharpness"] == payload["certificate"]["lambda_max"]


class TestVgnormCommand:
    def test_code_audit(self, tmp_path):
        cfg = _write_config(tmp_path, {"code_length": 16})
        out = tmp_path / "vg"
        assert main(["vgnorm", "--config", cfg, "--out", str(out)]) == 0
        payload = json.loads((out / "vgnorm.json").read_text())
        assert payload["pass"] is True
        assert payload["size"] >= 4
        assert payload["audit_min_distance"] >= 2

    def test_short_code_rejected(self, tmp_path):
        cfg = _write_config(tmp_path, {"code_length": 4})
        assert main(["vgnorm", "--config", cfg, "--out", str(tmp_path / "o")]) == 2

    def test_audit_builds_no_all_pairs_array(self, tmp_path):
        # 1024 words of 80 bits: an (M, M, k) array of bools would be 80 MiB.
        args = argparse.Namespace(seed=0, out=str(tmp_path))
        job = cli._prepare_vgnorm({"code_length": 80}, args)
        tracemalloc.start()
        try:
            assert cli._execute_vgnorm(job, args) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20


class TestHardfnVerifyCommand:
    def test_closed_form_vs_monte_carlo(self, tmp_path):
        cfg = _write_config(
            tmp_path,
            {
                "d": 3,
                "eps": 0.2,
                "n_atoms": 8,
                "n_obs": 20,
                "mc_trials": 2000,
                "l2_samples": 40000,
            },
        )
        out = tmp_path / "hard"
        assert main(["hardfn-verify", "--config", cfg, "--out", str(out), "--seed", "1"]) == 0
        payload = json.loads((out / "hardfn.json").read_text())
        assert payload["pass"] is True
        assert payload["atom_l2"]["lower"] <= payload["atom_l2"]["value"]
        assert payload["atom_l2"]["value"] <= payload["atom_l2"]["upper"]

    def test_zero_observations(self, tmp_path):
        cfg = _write_config(tmp_path, {"n_obs": 0, "mc_trials": 10, "l2_samples": 100})
        out = tmp_path / "hard"
        assert main(["hardfn-verify", "--config", cfg, "--out", str(out)]) == 0
        estimates = json.loads((out / "hardfn.json").read_text())["indistinguishable_probability"]
        assert estimates["closed_form"] == 1.0
        assert estimates["monte_carlo"] == 1.0


class TestRatesCommand:
    def test_exponent_table(self, tmp_path):
        out = tmp_path / "rates"
        assert main(["rates", "--out", str(out)]) == 0
        rows = (out / "rates.csv").read_text().strip().splitlines()
        assert rows[1] == "1,1/4,1,4/11,1/2,1/4"
        assert len(rows) == 11

    def test_custom_dims(self, tmp_path):
        cfg = _write_config(tmp_path, {"dims": [2, 4]})
        out = tmp_path / "rates"
        assert main(["rates", "--config", cfg, "--out", str(out)]) == 0
        assert len((out / "rates.csv").read_text().strip().splitlines()) == 3
