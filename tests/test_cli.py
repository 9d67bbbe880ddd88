"""End-to-end CLI runs, in process via main(argv)."""

import json

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

    def test_invalid_mse_mode(self, tmp_path):
        cfg = _write_config(tmp_path, {"mse_mode": "bogus"})
        assert main(["sweep-mse", "--config", cfg, "--out", str(tmp_path / "o")]) == 2

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
            ("sharpness", {**TINY_TRAIN, "certificate_rel_tol": -1}),
            ("sharpness", {**TINY_TRAIN, "certificate_rel_tol": float("nan")}),
            ("sharpness", {**TINY_TRAIN, "certificate_max_iters": 0}),
            ("sharpness", {**TINY_TRAIN, "certificate_max_iters": 1.5}),
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
            ("vgnorm", {"target": 0}),
            ("vgnorm", {"target": -3}),
            ("vgnorm", {"target": 2.5}),
            ("vgnorm", {"target": True}),
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
            ("hardfn-verify", {"pair": [0]}),
            ("hardfn-verify", {"pair": [0, -1]}),
            ("hardfn-verify", {"pair": [0, 1.5]}),
        ],
    )
    def test_bad_values_rejected_before_the_run(self, command, raw, tmp_path):
        cfg = _write_config(tmp_path, raw)
        out = tmp_path / "o"
        assert main([command, "--config", cfg, "--out", str(out)]) == 2
        assert not out.exists()

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
    "train": "3e08662075799726001004b4f7899340fb902f4436803665d606f792a74822c9",
    "sweep-mse": "98a8dd723c5333df24c7041c144ba19d2a4a28923845e27b1d3f5c2131824993",
    "shatter": "cc1bcceefe46d871132acaad1698d998c4ed04cd9fe78612dddd4418a3c32728",
    "sharpness": "d7f825f00ede53772054736420d1a28b946ceb304c9cfecd0dcf2c21192bfd95",
    "vgnorm": "505c6282ddc9a2e072104f665421d623d0e96ce54ec911b82102212b720a1f86",
    "hardfn-verify": "bc69b7cc0a963aef647b8b75c4c0bfdd42f4aa7377cdcb31e5343642f1152e3b",
    "rates": "14726b3adc919531193fd55cee7039faca85eb91f1d19cedff45fa3558e6b7c5",
}


def _pinned_form(prepared) -> dict:
    """Canonical dict of what a command's prepare step hands its executor.

    train, sweep-mse and shatter get a config dataclass; sharpness gets its
    cell config with the certificate settings; the rest get a plain dict.
    """
    if isinstance(prepared, tuple):
        cfg, extra = prepared
        certificate = {k: v for k, v in extra.items() if k.startswith("certificate_")}
        return {**cfg.as_dict(), **certificate}
    return prepared if isinstance(prepared, dict) else prepared.as_dict()


class TestDefaults:
    @pytest.mark.parametrize("command", COMMANDS)
    def test_default_config_is_pinned(self, command, tmp_path, monkeypatch):
        prepare, _ = cli._COMMANDS[command]
        seen = []
        monkeypatch.setitem(cli._COMMANDS, command, (prepare, lambda p, args: seen.append(p) or 0))
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

    def test_manifest_config_records_the_certificate_settings(self, tmp_path):
        manifests = []
        for rel_tol in (1e-10, 1e-3):
            cfg = _write_config(tmp_path, {**TINY_TRAIN, "certificate_rel_tol": rel_tol})
            out = tmp_path / f"sharp-{rel_tol}"
            assert main(["sharpness", "--config", cfg, "--out", str(out)]) == 0
            manifests.append(json.loads((out / "manifest.json").read_text()))
        first, second = manifests
        assert first["config_sha256"] != second["config_sha256"]
        assert first["config"]["certificate_rel_tol"] == 1e-10
        assert first["config"]["certificate_max_iters"] == 20000


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
