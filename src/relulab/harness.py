"""Experiment orchestration for the scaling and shattering studies.

Synthesizes linear-target regression data on the unit ball, runs (d, n, seed)
training sweeps with a width-proportional-to-n rule, fits log-log MSE slopes,
runs the paired large-step vs weight-decay comparison, and persists every
artifact (CSV tables, JSON summaries, a manifest with config and file hashes)
deterministically: the same config and seed always produce the same bytes.
Both experiments run on thread pools with numpy's BLAS held to one thread,
so their bytes depend neither on the pool size nor on the core count.
"""

from __future__ import annotations

import contextlib
import csv
import ctypes
import dataclasses
import functools
import hashlib
import json
import os
import platform
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import __version__
from .nets import Dataset, forward, kaiming_init
from .numerics import (
    check_finite_fields,
    check_int_fields,
    derive_rng,
    is_integer,
    loglog_slope,
    make_rng,
    sample_uniform_ball,
    write_csv,
)
from .shattering import NeuronStats, neuron_stats, neuron_stats_to_csv, shattering_report
from .sharpness import sharpness
from .training import (
    TELEMETRY_REL_TOL, TrainConfig, TrainLog, TrainingDivergedError, train, train_log_to_csv,
)

__all__ = [
    "EPOCH_PRESETS",
    "SWEEP_SCHEMA",
    "SWEEP_CSV_COLUMNS",
    "FAILURE_CSV_COLUMNS",
    "TRAIN_DATA_CHANNEL",
    "INIT_CHANNEL",
    "HOLDOUT_CHANNEL",
    "SHARPNESS_CHANNEL",
    "SchemaMismatchError",
    "SweepConfig",
    "RunRecord",
    "CellFailure",
    "SweepResult",
    "ShatterConfig",
    "ShatterResult",
    "preset_epochs",
    "config_hash",
    "cell_rng",
    "make_regression_dataset",
    "run_single_cell",
    "run_cell_with_log",
    "run_mse_sweep",
    "run_shattering_experiment",
    "usable_cores",
    "write_sweep_csv",
    "append_sweep_records",
    "write_json",
    "write_manifest",
]

EPOCH_PRESETS = ("appendix-A1", "appendix-A2")

SWEEP_SCHEMA = "sweep-v1"

# Per-cell random streams.  Every stream derives from
# (master_seed, d, n, seed_index, channel) so results never depend on the
# order cells are scheduled in.
TRAIN_DATA_CHANNEL = 0
INIT_CHANNEL = 1
HOLDOUT_CHANNEL = 2
SHARPNESS_CHANNEL = 3


class SchemaMismatchError(RuntimeError):
    """An existing CSV file has a header other than the current schema."""


def preset_epochs(preset: str, eta: float) -> int:
    """Epoch budget for a named preset.

    "appendix-A1" is a flat 20000 epochs; "appendix-A2" fixes the product
    eta * epochs = 10000, rounded to the nearest integer.
    """
    if eta <= 0.0:
        raise ValueError(f"step size must be positive, got {eta}")
    if preset == "appendix-A1":
        return 20000
    if preset == "appendix-A2":
        return round(10000.0 / eta)
    raise ValueError(f"unknown epoch preset {preset!r}; expected one of {EPOCH_PRESETS}")


@dataclass(frozen=True)
class SweepConfig:
    """Grid layout for an MSE-vs-n sweep.

    Width per cell is ``width_rule * n``.  Slopes are fitted on both MSE
    columns, in-sample and holdout against the clean target.
    """

    dims: tuple = (1, 5)
    sample_sizes: tuple = (32, 64, 128)
    train: TrainConfig = TrainConfig()
    sigma: float = 1.0
    seeds_per_cell: int = 5
    width_rule: int = 4
    holdout_size: int = 10000
    master_seed: int = 0
    output_dir: str | None = None

    def __post_init__(self):
        check_int_fields(self)
        if not all(is_integer(k) for k in (*self.dims, *self.sample_sizes)):
            raise ValueError("dims and sample_sizes must hold integers")
        dims = tuple(int(d) for d in self.dims)
        sizes = tuple(int(n) for n in self.sample_sizes)
        if not dims or not sizes:
            raise ValueError("dims and sample_sizes must be nonempty")
        if min(dims) < 1 or min(sizes) < 1:
            raise ValueError("dims and sample_sizes must be positive")
        if len(set(dims)) < len(dims) or len(set(sizes)) < len(sizes):
            raise ValueError("dims and sample_sizes must not repeat an entry")
        check_finite_fields(self)
        if self.sigma < 0.0:
            raise ValueError(f"sigma must be >= 0, got {self.sigma}")
        if self.seeds_per_cell < 1:
            raise ValueError(f"seeds_per_cell must be >= 1, got {self.seeds_per_cell}")
        if self.width_rule < 1:
            raise ValueError(f"width_rule must be >= 1, got {self.width_rule}")
        if self.holdout_size < 1:
            raise ValueError(f"holdout_size must be >= 1, got {self.holdout_size}")
        if self.master_seed < 0:
            raise ValueError(f"master_seed must be >= 0, got {self.master_seed}")
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "sample_sizes", sizes)

    def as_dict(self) -> dict:
        """JSON-ready view of the science-relevant fields.

        ``output_dir`` is excluded on purpose: where artifacts land must not
        change the config hash.
        """
        out = dataclasses.asdict(self)
        del out["output_dir"]
        out["dims"] = list(self.dims)
        out["sample_sizes"] = list(self.sample_sizes)
        return out


@dataclass(frozen=True)
class RunRecord:
    """Metrics from one trained cell.  Every metric must be finite."""

    config_hash: str
    d: int
    n: int
    seed: int
    width: int
    final_train_loss: float
    in_sample_mse_vs_f0: float
    holdout_mse_vs_f0: float
    generalization_gap: float
    final_sharpness: float
    median_activation: float
    sparse_neuron_share: float
    dead_neuron_share: float

    def __post_init__(self):
        check_finite_fields(self, "metric ")


@dataclass(frozen=True)
class CellFailure:
    """A cell whose training run raised; the sweep records it and moves on."""

    d: int
    n: int
    seed: int
    error: str


# The CSV columns are the record fields, in declaration order.
SWEEP_CSV_COLUMNS = tuple(f.name for f in dataclasses.fields(RunRecord))
FAILURE_CSV_COLUMNS = tuple(f.name for f in dataclasses.fields(CellFailure))


@dataclass(frozen=True)
class SweepResult:
    """Sweep output: per-cell records, failures, per-(d, n) medians of the
    two MSE columns, and per-d log-log slopes of each.

    ``slopes[mode][d]``, with ``mode`` "in_sample_vs_f0" or "holdout_vs_f0",
    is None when fewer than two (d, n) cells survive with a positive median.
    """

    records: tuple
    failures: tuple
    medians: dict
    slopes: dict


def config_hash(config) -> str:
    """sha256 over the canonical JSON form of a config (or plain dict)."""
    payload = config if isinstance(config, dict) else config.as_dict()
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def cell_rng(master_seed: int, d: int, n: int, seed_index: int, channel: int):
    """Generator for one (cell, channel) pair; independent of sweep order."""
    return derive_rng(master_seed, d, n, seed_index, channel)


def make_regression_dataset(rng, d: int, n: int, sigma: float) -> Dataset:
    """n points uniform on the unit ball with labels x_1 + sigma * noise.

    The ground truth f0(x) = x_1 belongs to the harness, whose cell recipe
    measures MSE against ``x[:, 0]``; the noise stream is consumed even at
    sigma == 0 so the generator position after the call does not depend on
    sigma.
    """
    if d < 1 or n < 1:
        raise ValueError(f"need d >= 1 and n >= 1, got d={d}, n={n}")
    if sigma < 0.0:
        raise ValueError(f"sigma must be >= 0, got {sigma}")
    rng = make_rng(rng)
    x = sample_uniform_ball(rng, d, n)
    noise = rng.standard_normal(n)
    return Dataset(inputs=x, labels=x[:, 0] + sigma * noise)


def _cell_inputs(master_seed, d, n, seed, width, sigma):
    """Training sample and initial network of one cell, each drawn from its
    own stream derived from ``(master_seed, d, n, seed)``."""
    key = (master_seed, d, n, seed)
    data = make_regression_dataset(cell_rng(*key, TRAIN_DATA_CHANNEL), d, n, sigma)
    return data, kaiming_init(cell_rng(*key, INIT_CHANNEL), d, width)


def _measure_cell(chash, key, log, data, sigma, train_config, holdout_size):
    """The measurement half of the cell recipe: MSE against f0 in sample and
    on a holdout, the generalization gap, the final sharpness and the neuron
    shares of the trained network ``log.net``.

    ``key`` is the cell's ``(master_seed, d, n, seed)``; the holdout and the
    sharpness start vector draw from their own streams derived from it.
    Returns (record, stats): the RunRecord and the per-neuron statistics the
    shares come from.
    """
    _, d, n, seed = key
    net = log.net
    in_sample = float(np.mean((forward(net, data.inputs) - data.inputs[:, 0]) ** 2))
    holdout = make_regression_dataset(cell_rng(*key, HOLDOUT_CHANNEL), d, holdout_size, sigma)
    predictions = forward(net, holdout.inputs)
    holdout_mse = float(np.mean((predictions - holdout.inputs[:, 0]) ** 2))
    risk_out = float(np.mean((predictions - holdout.labels) ** 2))
    gap = abs(risk_out - 2.0 * log.final_loss)
    final_sharpness = sharpness(
        net,
        data,
        rel_tol=TELEMETRY_REL_TOL,
        max_iters=train_config.telemetry_max_iters,
        rng=cell_rng(*key, SHARPNESS_CHANNEL),
    ).value
    stats = neuron_stats(net, data.inputs)
    report = shattering_report(stats)
    record = RunRecord(
        config_hash=chash,
        d=d,
        n=n,
        seed=seed,
        width=net.width,
        final_train_loss=log.final_loss,
        in_sample_mse_vs_f0=in_sample,
        holdout_mse_vs_f0=holdout_mse,
        generalization_gap=gap,
        final_sharpness=final_sharpness,
        median_activation=report.median_activation,
        sparse_neuron_share=report.sparse_neuron_share,
        dead_neuron_share=report.dead_neuron_share,
    )
    return record, stats


def _run_cell(chash, master_seed, d, n, seed, width, sigma, train_config, holdout_size):
    """The one cell recipe of both experiments: data, init, train, measure.

    Data, initialization, holdout and the final sharpness start each draw
    from their own stream derived from ``(master_seed, d, n, seed)``, so two
    calls that differ only in ``train_config`` share data and init.  Returns
    (record, log, data, stats): the RunRecord, the training log, the
    training sample, and the per-neuron statistics the shares come from.
    The shattering experiment runs the same two halves, with its arms'
    training on a pool between them.
    """
    data, net0 = _cell_inputs(master_seed, d, n, seed, width, sigma)
    log = train(net0, data, train_config)
    record, stats = _measure_cell(
        chash, (master_seed, d, n, seed), log, data, sigma, train_config, holdout_size
    )
    return record, log, data, stats


def run_cell_with_log(cfg: SweepConfig, d: int, n: int, seed: int):
    """Data, init, train, measure for one grid cell.

    Returns (record, log, data) so callers can persist the trained network
    and the loss history.  Raises :class:`TrainingDivergedError` if the run
    blows up; the sweep driver converts that into a :class:`CellFailure`.
    BLAS is held to one thread, as in the sweep, so a cell run on its own
    reproduces its sweep row at any shape and core count.
    """
    with _one_blas_thread():
        record, log, data, _ = _run_cell(
            config_hash(cfg), cfg.master_seed, d, n, seed, cfg.width_rule * n, cfg.sigma,
            cfg.train, cfg.holdout_size,
        )
    return record, log, data


def run_single_cell(cfg: SweepConfig, d: int, n: int, seed: int) -> RunRecord:
    """Record only; see :func:`run_cell_with_log`."""
    return run_cell_with_log(cfg, d, n, seed)[0]


def _cell_cost(cfg: SweepConfig, cell) -> int:
    """n * width * (d + 2): the size of the cell's training step."""
    d, n, _ = cell
    return n * cfg.width_rule * n * (d + 2)


def _attempt_cell(cfg: SweepConfig, cell):
    d, n, seed = cell
    try:
        return run_single_cell(cfg, d, n, seed)
    except TrainingDivergedError as exc:
        return CellFailure(d=d, n=n, seed=seed, error=str(exc))


def _median_table(cfg: SweepConfig, records) -> dict:
    medians = {}
    for d in cfg.dims:
        for n in cfg.sample_sizes:
            cell = [r for r in records if r.d == d and r.n == n]
            if not cell:
                continue
            medians[(d, n)] = {
                column: float(np.median([getattr(r, column) for r in cell]))
                for column in _MODE_COLUMNS.values()
            }
    return medians


_MODE_COLUMNS = {
    "in_sample_vs_f0": "in_sample_mse_vs_f0",
    "holdout_vs_f0": "holdout_mse_vs_f0",
}


def _slope_table(cfg: SweepConfig, medians: dict) -> dict:
    slopes = {}
    for mode, column in _MODE_COLUMNS.items():
        per_d = {}
        for d in cfg.dims:
            # log-log fit needs strictly positive medians; a cell trained to
            # exactly zero error is dropped from the fit.
            points = [
                (n, medians[(d, n)][column])
                for n in cfg.sample_sizes
                if (d, n) in medians and medians[(d, n)][column] > 0.0
            ]
            per_d[d] = loglog_slope(points)[0] if len(points) >= 2 else None
        slopes[mode] = per_d
    return slopes


def usable_cores() -> int:
    """Cores this process may run on: its CPU affinity where the platform
    reports one, else the machine's core count."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


# Thread-count getter and setter pairs that numpy's bundled OpenBLAS may
# export: the scipy-openblas build of numpy's wheels, then plain OpenBLAS.
_OPENBLAS_SYMBOLS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("openblas_get_num_threads", "openblas_set_num_threads"),
)


@functools.cache
def _openblas():
    """(get, set) thread-count functions of the OpenBLAS in ``numpy.libs``,
    or None.  Looked up on first use, so importing relulab stays as cheap."""
    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    names = sorted(os.listdir(libs)) if os.path.isdir(libs) else []
    for name in (f for f in names if "openblas" in f):
        lib = ctypes.CDLL(os.path.join(libs, name))
        for getter, setter in _OPENBLAS_SYMBOLS:
            get, set_ = getattr(lib, getter, None), getattr(lib, setter, None)
            if get is not None and set_ is not None:
                get.argtypes, get.restype = (), ctypes.c_int
                set_.argtypes, set_.restype = (ctypes.c_int,), None
                return get, set_
    return None


_blas_lock = threading.Lock()
_blas_pins = 0  # pins open now
_blas_restore = None  # the count before the first of them


@contextlib.contextmanager
def _one_blas_thread():
    """Hold numpy's BLAS to one thread for the body and restore the earlier
    count on exit, an exception included.

    The count is process-wide, so nested or concurrent pins share one saved
    count and the last one out restores it.  Each pool worker then runs its
    BLAS calls on its own core, and the result no longer depends on how
    OpenBLAS would split a product between threads.  Where numpy's bundled
    OpenBLAS exporting one of :data:`_OPENBLAS_SYMBOLS` is not found (say,
    numpy built against another BLAS), this does nothing.
    """
    api = _openblas()
    if api is None:
        yield
        return
    global _blas_pins, _blas_restore
    get, set_ = api
    with _blas_lock:
        if _blas_pins == 0:
            _blas_restore = get()
            set_(1)
        _blas_pins += 1
    try:
        yield
    finally:
        with _blas_lock:
            _blas_pins -= 1
            if _blas_pins == 0:
                set_(_blas_restore)


def run_mse_sweep(cfg: SweepConfig, threads: int | None = None) -> SweepResult:
    """Train every (d, n, seed) cell and fit per-d log-log slopes of both
    MSE columns.

    Individual divergences are recorded as failures and the sweep continues.
    Cells run on a pool of ``threads`` worker threads, each running the
    whole cell recipe; they start in descending order of their step size
    ``n * width * (d + 2)``, and records and failures stay in grid order.
    numpy's BLAS is held to one thread for the whole sweep, so the workers
    do not oversubscribe the cores and the records do not depend on the
    pool size or the core count; every cell also derives its own random
    streams.  By default the pool has one worker per usable
    core (:func:`usable_cores`), or one worker where BLAS cannot be pinned
    (see :func:`_one_blas_thread`), since unpinned workers would each run a
    multi-threaded BLAS.  With ``train.sharpness_every > 0`` each worker
    builds its cell's telemetry Hessian operators, so peak memory grows with
    the pool.
    When ``cfg.output_dir`` is set, writes sweep.csv, failures.csv,
    slopes.json, and manifest.json there (overwriting, so a rerun of the
    same config reproduces the same bytes).
    """
    if threads is None:
        threads = usable_cores() if _openblas() is not None else 1
    if threads < 1:
        raise ValueError(f"threads must be >= 1, got {threads}")
    cells = [
        (d, n, seed)
        for d in cfg.dims
        for n in cfg.sample_sizes
        for seed in range(cfg.seeds_per_cell)
    ]
    # Longest first, so that no large cell starts while the other workers
    # run out of work.  The cost is arithmetic on the config, never timed;
    # ties keep grid order, and the outcomes go back into grid order.
    order = sorted(range(len(cells)), key=lambda i: -_cell_cost(cfg, cells[i]))
    outcomes = [None] * len(cells)
    with _one_blas_thread(), ThreadPoolExecutor(max_workers=threads) as pool:
        done = pool.map(lambda i: _attempt_cell(cfg, cells[i]), order)
        for i, outcome in zip(order, done):
            outcomes[i] = outcome
    records = tuple(o for o in outcomes if isinstance(o, RunRecord))
    failures = tuple(o for o in outcomes if isinstance(o, CellFailure))
    medians = _median_table(cfg, records)
    slopes = _slope_table(cfg, medians)
    result = SweepResult(records=records, failures=failures, medians=medians, slopes=slopes)
    if cfg.output_dir is not None:
        _persist_sweep(cfg, result)
    return result


@dataclass(frozen=True)
class ShatterConfig:
    """Paired comparison: large-step GD vs small-step GD with weight decay,
    from the same initialization on the same data.

    The clip threshold is deliberately tighter than the generic trainer
    default.  At eta_large the very first descent steps catapult; clamping
    them to a modest norm keeps enough neurons alive that the run settles
    into the sparse-activation memorizing regime instead of collapsing to a
    signal-only fit, and it gets there in a fraction of the epochs.
    """

    d: int = 10
    n: int = 512
    width: int = 2048
    sigma: float = 1.0
    epochs: int = 20000
    eta_large: float = 0.9
    eta_decay: float = 0.01
    weight_decay: float = 0.1
    clip_threshold: float = 10.0
    telemetry_max_iters: int = 5000
    master_seed: int = 0
    output_dir: str | None = None

    def __post_init__(self):
        check_int_fields(self)
        if self.d < 1 or self.n < 1 or self.width < 1:
            raise ValueError("d, n, and width must be positive")
        if self.master_seed < 0:
            raise ValueError(f"master_seed must be >= 0, got {self.master_seed}")
        check_finite_fields(self)
        if self.sigma < 0.0:
            raise ValueError(f"sigma must be >= 0, got {self.sigma}")
        self.train_configs()  # both arms' TrainConfig checks

    def as_dict(self) -> dict:
        out = dataclasses.asdict(self)
        del out["output_dir"]
        return out

    def train_configs(self) -> tuple[TrainConfig, TrainConfig]:
        common = dict(
            epochs=self.epochs,
            clip_threshold=self.clip_threshold,
            telemetry_max_iters=self.telemetry_max_iters,
        )
        large = TrainConfig(eta=self.eta_large, **common)
        decay = TrainConfig(eta=self.eta_decay, weight_decay=self.weight_decay, **common)
        return large, decay


@dataclass(frozen=True)
class ShatterResult:
    """Both arms of the comparison plus per-neuron scatter data."""

    large_step: RunRecord
    weight_decay: RunRecord
    large_step_log: TrainLog
    weight_decay_log: TrainLog
    large_step_stats: NeuronStats
    weight_decay_stats: NeuronStats


def _train_arms(net0, data, configs) -> list:
    """Train from ``net0`` on ``data`` under both arm configs and return
    the two logs in arm order.

    The calling thread trains the first arm while one worker thread trains
    the second.  Each thread's first call is ``train``, and the worker waits
    until the calling thread is about to make its call, so the calls begin
    in arm order, on a best-effort basis: to reorder them the interpreter
    would have to switch threads within those few bytecodes, far less than
    its switch interval.  The first arm stays in the calling thread because
    a worker's allocations land in a malloc arena of its own: on the shatter
    benchmark (2-vCPU x86-64 VM) two workers raised peak RSS by 7% over
    serial training, one worker by 3.5%.  If the first arm raises, the error
    surfaces once the second arm has finished.  Where BLAS cannot be pinned
    the arms train one after the other, since two unpinned trainings would
    each run a multi-threaded BLAS.
    """
    first, second = configs
    if _openblas() is None:
        return [train(net0, data, first), train(net0, data, second)]
    first_entering = threading.Event()

    def train_second():
        first_entering.wait()
        return train(net0, data, second)

    with ThreadPoolExecutor(max_workers=1) as pool:
        later = pool.submit(train_second)
        first_entering.set()
        return [train(net0, data, first), later.result()]


def run_shattering_experiment(cfg: ShatterConfig) -> ShatterResult:
    """Run both arms through the halves of the one cell recipe, from one
    training sample and one initial network.

    The two trainings run side by side on two threads (one after the other
    where BLAS cannot be pinned), the large-step arm entering ``train``
    first, with numpy's BLAS held to one thread, so the bytes do not depend
    on the core count.  Each arm is then measured in arm order in the
    calling thread: a final-sharpness operator keeps an (n, width) float
    array and mask, about 11 MiB at the paper's shape, and measuring both
    arms at once would hold two.

    When ``cfg.output_dir`` is set, writes per-neuron scatter CSVs, per-arm
    training logs, a records JSON, and a manifest.
    """
    key = (cfg.master_seed, cfg.d, cfg.n, 0)
    configs = cfg.train_configs()
    with _one_blas_thread():
        data, net0 = _cell_inputs(*key, cfg.width, cfg.sigma)
        logs = _train_arms(net0, data, configs)
        (large, large_stats), (decay, decay_stats) = (
            _measure_cell(
                config_hash({**cfg.as_dict(), "arm": arm}), key, log, data, cfg.sigma, train_cfg, 10000
            )
            for arm, log, train_cfg in zip(("large_step", "weight_decay"), logs, configs)
        )
    large_log, decay_log = logs
    result = ShatterResult(
        large_step=large,
        weight_decay=decay,
        large_step_log=large_log,
        weight_decay_log=decay_log,
        large_step_stats=large_stats,
        weight_decay_stats=decay_stats,
    )
    if cfg.output_dir is not None:
        _persist_shatter(cfg, result)
    return result


def write_sweep_csv(path, records) -> None:
    """Write header plus one row per record, replacing any existing file."""
    write_csv(path, SWEEP_CSV_COLUMNS, map(dataclasses.astuple, records))


def append_sweep_records(path, records) -> None:
    """Append rows to an existing sweep CSV after checking its header.

    Creates the file (with header) when absent.  A header that does not
    match :data:`SWEEP_CSV_COLUMNS` raises :class:`SchemaMismatchError`.
    """
    if not os.path.exists(path) or os.path.getsize(path) == 0:
        write_sweep_csv(path, records)
        return
    with open(path, newline="") as fh:
        header = next(csv.reader(fh))
    if tuple(header) != SWEEP_CSV_COLUMNS:
        raise SchemaMismatchError(
            f"{path} has columns {header}, expected {list(SWEEP_CSV_COLUMNS)} ({SWEEP_SCHEMA})"
        )
    write_csv(path, SWEEP_CSV_COLUMNS, map(dataclasses.astuple, records), append=True)


def _sha256_file(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()


def write_json(path, payload) -> None:
    """Write ``payload`` as indented, key-sorted JSON with a final newline,
    the one format of every JSON artifact."""
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_manifest(directory, config_dict: dict, filenames) -> str:
    """Write manifest.json: config, its hash, library versions, file hashes.

    Deliberately timestamp-free so reruns are byte-identical.  Returns the
    manifest path.
    """
    from importlib import metadata  # here: it costs every import of relulab otherwise

    manifest = {
        "schema": SWEEP_SCHEMA,
        "config": config_dict,
        "config_sha256": config_hash(config_dict),
        "versions": {
            "python": platform.python_version(),
            "numpy": metadata.version("numpy"),
            "scipy": metadata.version("scipy"),
            "relulab": __version__,
        },
        "files": {name: _sha256_file(os.path.join(directory, name)) for name in sorted(filenames)},
    }
    path = os.path.join(directory, "manifest.json")
    write_json(path, manifest)
    return path


def _persist_sweep(cfg: SweepConfig, result: SweepResult) -> None:
    os.makedirs(cfg.output_dir, exist_ok=True)
    write_sweep_csv(os.path.join(cfg.output_dir, "sweep.csv"), result.records)
    write_csv(
        os.path.join(cfg.output_dir, "failures.csv"),
        FAILURE_CSV_COLUMNS,
        map(dataclasses.astuple, result.failures),
    )
    summary = {
        "slopes": {
            mode: {str(d): slope for d, slope in per_d.items()}
            for mode, per_d in result.slopes.items()
        },
        "medians": [
            {"d": d, "n": n, **values} for (d, n), values in sorted(result.medians.items())
        ],
        "n_records": len(result.records),
        "n_failures": len(result.failures),
    }
    write_json(os.path.join(cfg.output_dir, "slopes.json"), summary)
    write_manifest(cfg.output_dir, cfg.as_dict(), ["sweep.csv", "failures.csv", "slopes.json"])


def _persist_shatter(cfg: ShatterConfig, result: ShatterResult) -> None:
    os.makedirs(cfg.output_dir, exist_ok=True)
    files = []
    for arm in ("large_step", "weight_decay"):
        scatter = f"scatter_{arm}.csv"
        neuron_stats_to_csv(getattr(result, f"{arm}_stats"), os.path.join(cfg.output_dir, scatter))
        log_name = f"training_log_{arm}.csv"
        train_log_to_csv(getattr(result, f"{arm}_log"), os.path.join(cfg.output_dir, log_name))
        files.extend([scatter, log_name])
    records = {
        arm: dataclasses.asdict(getattr(result, arm)) for arm in ("large_step", "weight_decay")
    }
    write_json(os.path.join(cfg.output_dir, "records.json"), records)
    files.append("records.json")
    write_manifest(cfg.output_dir, cfg.as_dict(), files)
