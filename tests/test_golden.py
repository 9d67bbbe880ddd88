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
        "checkpoint.bin": "0d284b325f557ff0c134c31341bff74397bc30fd6b157c4cb37de25ab3fac922",
        "sharpness.json": "9ee63a8ddbcfd8a74c25e55009e54118cfbd22cd6bf9d046bcf14035db22475a",
    },
    "hardfn": {
        "hardfn.json": "204310ffc3814947feac3056d782a0d877b43bce90828023fa019d34e197b774",
    },
    "sweep": {
        "failures.csv": "7b39adae08a041715d2472e4b2fa7599e95c4b822f674b009ef298910f211dac",
        "slopes.json": "eada999582455c0477d6eb2cce5dfbbc8372bebe86aa2b35f0f952c9d2fe0f9d",
        "sweep.csv": "9bb736e1b20d90cccf5dcca95b398089c46e66bd31182e225bcbba9afea5e759",
    },
    "train": {
        "checkpoint.bin": "fe667ded6e41a9f8e495ffb87464aef2cf3ca5b0ab010b18afb51a36d0ac079a",
        "record.json": "f3c38134652de84d5f917d315bdbcf60306357c18ccbb3cf7acfec90eff0f7bd",
        "training_log.csv": "a099a31d9dc0f015dafc54590ddb981d95f38b38074f9e7f32c406b4601de214",
    },
    "shatter": {
        "records.json": "4ce3273314c75efef1d425fc9af0a249a654821ad2a8ed5bed04f36cbacaf66c",
        "scatter_large_step.csv": "717d6071ff90ae875ae3212092ecc8cc1ebc985f974e80685ff44efced6ab892",
        "scatter_weight_decay.csv": "66aa4c632cdee8f89cb969aa1ad4d5a5de7ab828effdcb514bed95385e20e7d0",
        "training_log_large_step.csv": "a8345043490e4ad8d37f483d2a5d853d7cca7c209bf71abac8a818216f9726ba",
        "training_log_weight_decay.csv": "b905d73f49238d6c9dd2d098125c5071aa7bf9c460e11605772a561cc42d3111",
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
