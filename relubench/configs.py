"""Configs and inputs of the three workloads, built from the workload seed.

This module holds the benchmark's set-up and nothing else, so that timing
``import configs`` plus :func:`setup` in a fresh interpreter measures what a
user of relulab pays before the first operation: the package imports and
building the configs and inputs.
"""

from __future__ import annotations

import dataclasses

from relulab import ShatterConfig, SweepConfig, TrainConfig, kaiming_init, make_regression_dataset
from relulab.harness import INIT_CHANNEL, TRAIN_DATA_CHANNEL, cell_rng

WORKLOADS = ("sweep", "shatter", "eos")

# sweep: the CLI's default grid (dims, sizes, width 4n, holdout 1e4, sigma 1,
# eta 0.1 for 100 epochs) with the CLI's five seeds per cell.
SWEEP_DIMS = (1, 5)
SWEEP_SIZES = (32, 64, 128)
SWEEP_SEEDS_PER_CELL = 5
SWEEP_EPOCHS = 100
SWEEP_ETA = 0.1

# shatter: the paper's shape at the ShatterConfig defaults, with the epochs
# cut from 20000 to where the criterion-13 contrast holds on every seed
# tried.  The large-step in-sample MSE is the quantity that needs the
# epochs; its slowest seed grew 0.80 -> 0.83 -> 0.84 over 600 -> 800 -> 1000.
SHATTER_EPOCHS = 800

# eos: criterion 12's shape and step with readings every 50 epochs; the
# tail mean reached [7.2, 10.1] by epoch 3000 on the seeds tried, against
# the band [5, 15].
EOS_D, EOS_N, EOS_WIDTH = 5, 128, 512
EOS_ETA = 0.2
EOS_EPOCHS = 3000
EOS_EVERY = 50
EOS_SIGMA = 1.0


@dataclasses.dataclass(frozen=True)
class Setup:
    seed: int
    config: object
    data: object = None
    net0: object = None


def setup(workload: str, seed: int) -> Setup:
    """Everything a workload needs before its first operation."""
    if workload == "sweep":
        config = SweepConfig(
            dims=SWEEP_DIMS,
            sample_sizes=SWEEP_SIZES,
            train=TrainConfig(eta=SWEEP_ETA, epochs=SWEEP_EPOCHS, seed=seed),
            sigma=1.0,
            seeds_per_cell=SWEEP_SEEDS_PER_CELL,
            master_seed=seed,
        )
        return Setup(seed, config)
    if workload == "shatter":
        return Setup(seed, ShatterConfig(epochs=SHATTER_EPOCHS, master_seed=seed))
    if workload == "eos":
        config = TrainConfig(eta=EOS_ETA, epochs=EOS_EPOCHS, sharpness_every=EOS_EVERY, seed=seed)
        d, n = EOS_D, EOS_N
        data = make_regression_dataset(cell_rng(seed, d, n, 0, TRAIN_DATA_CHANNEL), d, n, EOS_SIGMA)
        net0 = kaiming_init(cell_rng(seed, d, n, 0, INIT_CHANNEL), d, EOS_WIDTH)
        return Setup(seed, config, data, net0)
    raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
