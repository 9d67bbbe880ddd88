"""Golden artifact hashes of nine small CLI runs.

A change that claims to leave the numbers alone must reproduce these bytes.
A change that moves floats on purpose (a reordered reduction, say) says so in
CHANGES.md and replaces the hashes once.  ``manifest.json`` is left out: it
records the Python and library versions of the machine that wrote it.

The hashes were made with numpy 2.4.6 and scipy 1.17.1 (OpenBLAS, x86-64).
BLAS kernels may round differently on another build or CPU, so a mismatch on
a different stack is not by itself a fault in relulab.  The sweep, shatter,
train, sharpness and hardfn-verify runs also reproduce their hashes in a
fresh process under either OpenBLAS thread count: the harness holds BLAS to
one thread whatever it is set to.  The sharpness run's certificate and the
hardfn-verify runs are computed outside that pin, and at these shapes their
bytes do not depend on the thread count either.
"""

import hashlib
import json
import os
import subprocess
import sys

import pytest

import relulab
from relulab.cli import main as cli_main

RUNS = {
    # The criterion-15 configs; the holdout of 500 points crosses the
    # 64-row block edges of the forward pass.
    "sweep": (
        "sweep-mse",
        7,
        {
            "dims": [1, 2],
            "sample_sizes": [8, 16],
            "sigma": 0.5,
            "seeds_per_cell": 2,
            "holdout_size": 500,
            "train": {"eta": 0.1, "epochs": 200},
        },
    ),
    "train": ("train", 3, {"d": 2, "n": 16, "train": {"eta": 0.1, "epochs": 100, "sharpness_every": 25}}),
    "shatter": ("shatter", 1, {"d": 3, "n": 100, "width": 200, "epochs": 200}),
    # The hardfn-verify config of tests/test_cli.py.
    "hardfn": (
        "hardfn-verify",
        1,
        {"d": 3, "eps": 0.2, "n_atoms": 8, "n_obs": 20, "mc_trials": 2000, "l2_samples": 40000},
    ),
    # One trained cell and its flatness certificate.
    "sharpness": ("sharpness", 4, {"d": 3, "n": 64, "train": {"eta": 0.1, "epochs": 300}}),
    # The separated sign family at its defaults.
    "vgnorm": ("vgnorm", 0, {}),
    # Codes longer than 24 bits take the random greedy search.
    "vgnorm_random": ("vgnorm", 0, {"code_length": 64}),
    # The default family has 26 caps, so its code takes the random search.
    "hardfn_default": ("hardfn-verify", 0, {}),
    # The exact exponent table, the one table of fraction strings.
    "rates": ("rates", 0, {"dims": [1, 2, 3]}),
}

GOLDEN = {
    "vgnorm": {
        "vgnorm.json": "0ff196a615e77eddc07d5d19c44691984036e4068cb5a3bdd3208bc29e3ad9bf",
    },
    "vgnorm_random": {
        "vgnorm.json": "e251ed70ce25df6669a4b6103116ca4128bfe57941a9061f618783bbc0de4836",
    },
    "hardfn_default": {
        "hardfn.json": "e8a0c78f6c03e211bf74b858bfe6f481bb49695bba34f68a0612afa377be0b85",
    },
    "rates": {
        "rates.csv": "757b70c62a22db7bde6650c868f12c9790cabc63da7d1b36c83f6ee0e792a62c",
    },
    "sharpness": {
        "checkpoint.bin": "4c2fa045f4fdd1969efba5ffb4c8c2a071a22d632c31ee15b2325d866ff436bb",
        "sharpness.json": "0ce8eab0a648feb39b55e3d427215e8732ed394ad2060af3c99e289d3ce12026",
    },
    "hardfn": {
        "hardfn.json": "204310ffc3814947feac3056d782a0d877b43bce90828023fa019d34e197b774",
    },
    "sweep": {
        "failures.csv": "7b39adae08a041715d2472e4b2fa7599e95c4b822f674b009ef298910f211dac",
        "slopes.json": "a1c33b0c5bc767aec43bff3ffc76b68b7ca4a48b0ed9c538076ebed49f7e1cc0",
        "sweep.csv": "5ca302cb55aeefab9f2d76d08ca1821cb99038655346fd81d7c5d16c90e372b6",
    },
    "train": {
        "checkpoint.bin": "170b09ccc9fbb2a47ae83b6adceb56cb582127caa45245bb9d10abc447b20ccb",
        "record.json": "1065143fe318556794692aff03426af4695560ef193c56cf888ac27bd2bb60b8",
        "training_log.csv": "232bf9ac69416d9c21ec37b9853149dd33397f53d0bbd583cbe16713919d165e",
    },
    "shatter": {
        "records.json": "1f5963639df168cd23c286b901c48380052b73b6562a4da6ed9d717dc026a067",
        "scatter_large_step.csv": "f98edee1536aa527d4113d2ba80b85c2336dfd48f6c3c4590cb6edc97fb3fc60",
        "scatter_weight_decay.csv": "cf707afef182c30be8ad7c945158e682ae0b11bc5086ecb074429c625046b5c5",
        "training_log_large_step.csv": "e1500f749d9974a94cc7cfd6afeb8c5b45523aa27e6a1a7cfa70781239194ea1",
        "training_log_weight_decay.csv": "d17edce819539ee8cbea94250379363134e4b1facb71eee534a450239c339579",
    },
}


def _cli_args(run, tmp_path):
    command, seed, raw = RUNS[run]
    config = tmp_path / "config.json"
    config.write_text(json.dumps(raw))
    return [command, "--seed", str(seed), "--config", str(config), "--out", str(tmp_path / "out")]


def _assert_golden(run, out):
    written = {p.name for p in out.iterdir()} - {"manifest.json"}
    assert written == set(GOLDEN[run])
    for name, digest in GOLDEN[run].items():
        assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest, name


@pytest.mark.parametrize("run", sorted(RUNS))
def test_cli_artifacts_match_golden_hashes(run, tmp_path):
    assert cli_main(_cli_args(run, tmp_path)) == 0
    _assert_golden(run, tmp_path / "out")


@pytest.mark.parametrize("blas_threads", ["1", "2"])
@pytest.mark.parametrize("run", ["sweep", "shatter", "train", "sharpness", "hardfn", "hardfn_default"])
def test_pooled_runs_match_golden_hashes_at_any_blas_thread_count(run, blas_threads, tmp_path):
    src = os.path.dirname(os.path.dirname(relulab.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path, "OPENBLAS_NUM_THREADS": blas_threads}
    command = [sys.executable, "-m", "relulab.cli", *_cli_args(run, tmp_path)]
    done = subprocess.run(command, env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    _assert_golden(run, tmp_path / "out")
