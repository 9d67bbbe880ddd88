"""One round of each workload, the checks on its outputs, and the
per-layer figures of a traced round.

A round is the whole experiment once: every sweep cell plus the artifact
write (``sweep``), both arms plus the artifact write (``shatter``), or the
telemetry run plus the certificate (``eos``).  Every round attempts the same
operations, so the share of failed operations never depends on how many
rounds fit in a run.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import os
import statistics
import time
import warnings
from importlib.metadata import PackageNotFoundError

import numpy as np

import relulab
from relulab import harness, nets, training
from relulab.sharpness import ActivationBoundaryWarning

import checks
import probes
from configs import Setup

# Preactivations on the kink are expected in long runs; the acceptance
# tests silence the same warning.
warnings.simplefilter("ignore", ActivationBoundaryWarning)


@dataclasses.dataclass
class Round:
    wall_s: float
    end: float
    attempted: int
    failed: int
    recorder: probes.Recorder
    directory: str
    windows: list  # (start, end) of each sweep cell or shatter arm
    persist_bytes: int = 0
    traced: bool = False

    @property
    def cell_s(self) -> list:
        """Seconds per trained and measured cell; an eos round is one cell."""
        return [b - a for a, b in self.windows] if self.windows else [self.wall_s]


def _read_csv(path) -> list:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _dir_bytes(directory) -> int:
    return sum(os.path.getsize(os.path.join(directory, f)) for f in os.listdir(directory))


def _flat(net) -> np.ndarray:
    return np.concatenate([net.w.ravel(), net.b, net.v, [net.beta]])


def _arm_windows(recorder) -> list:
    """(start, end) per shatter arm: from its train call to the end of the
    last neuron-stats call before the next arm starts."""
    starts = [s.start for s in recorder.named("training.train")]
    ends = [s.end for s in recorder.named("shattering.neuron_stats")]
    bounds = starts[1:] + [float("inf")]
    return [(a, max((e for e in ends if a <= e < b), default=a)) for a, b in zip(starts, bounds)]


def sweep_round(s: Setup, directory: str, recorder, threads: int) -> Round:
    cfg = dataclasses.replace(s.config, output_dir=directory)
    write_failed = 0
    start = time.perf_counter()
    try:
        relulab.run_mse_sweep(cfg, threads=threads)
    except PackageNotFoundError:
        write_failed = 1
    end = time.perf_counter()
    cells = len(cfg.dims) * len(cfg.sample_sizes) * cfg.seeds_per_cell
    failures = _read_csv(os.path.join(directory, "failures.csv"))
    windows = [(sp.start, sp.end) for sp in recorder.named("harness.cell")]
    return Round(
        end - start, end, cells + 1, len(failures) + write_failed, recorder, directory, windows,
        _dir_bytes(directory),
    )


def shatter_round(s: Setup, directory: str, recorder, threads: int) -> Round:
    cfg = dataclasses.replace(s.config, output_dir=directory)
    write_failed = 1
    start = time.perf_counter()
    try:
        relulab.run_shattering_experiment(cfg)
        write_failed = 0
    except (PackageNotFoundError, relulab.TrainingDivergedError):
        pass
    end = time.perf_counter()
    arms = [a for a in recorder.named("training.train") if a.info is not None]
    failed = 2 - len(arms) + write_failed
    return Round(
        end - start, end, 3, failed, recorder, directory, _arm_windows(recorder), _dir_bytes(directory)
    )


def eos_round(s: Setup, directory: str, recorder, threads: int) -> Round:
    os.makedirs(directory, exist_ok=True)
    failed = 0
    start = time.perf_counter()
    try:
        with recorder.span("training.train") as span:
            log = span.info = relulab.train(s.net0, s.data, s.config)
        training.train_log_to_csv(log, os.path.join(directory, "training_log.csv"))
        with recorder.span("sharpness.certificate") as span:
            cert = span.info = relulab.regularity_certificate(log.net, s.data, rng=s.seed)
        with open(os.path.join(directory, "certificate.json"), "w") as fh:
            json.dump(dataclasses.asdict(cert), fh, indent=2, sort_keys=True)
    except relulab.TrainingDivergedError:
        failed = 2
    end = time.perf_counter()
    return Round(end - start, end, 2, failed, recorder, directory, [])


ROUNDS = {"sweep": sweep_round, "shatter": shatter_round, "eos": eos_round}


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------

def _check_trained_net(net, data, rng, reported: dict, grad_coords, hvp_coords) -> None:
    """Gradient, HVP, top eigenvalue and recorded values of one trained net."""
    theta = _flat(net)
    d, k = net.input_dim, net.width
    x, y = data.inputs, data.labels
    checks.check_gradient(relulab.loss_gradient(net, data), theta, d, k, x, y, rng, grad_coords)
    hvp = probes.sharpness_module.make_hessian_operator(net, data)
    checks.check_hvp(hvp, theta, d, k, x, y, rng, hvp_coords)
    reference = checks.lanczos_top_eigenvalue(hvp, theta.size, int(rng.integers(2**31)))
    for name, value in reported.items():
        checks.check_eigenvalue(name, value, reference)


def _parsed(row: dict) -> dict:
    return {key: value if key == "config_hash" else float(value) for key, value in row.items()}


def verify_sweep(s: Setup, first: Round) -> None:
    cfg = s.config
    rows = _read_csv(os.path.join(first.directory, "sweep.csv"))
    checks.check_no_failures(_read_csv(os.path.join(first.directory, "failures.csv")))
    with open(os.path.join(first.directory, "slopes.json")) as fh:
        summary = json.load(fh)
    cells = [(d, n, i) for d in cfg.dims for n in cfg.sample_sizes for i in range(cfg.seeds_per_cell)]
    checks.check_sweep_tables(rows, summary, cfg.dims, cfg.sample_sizes, len(cells))
    rng = np.random.default_rng([s.seed, 1])
    smallest = (cfg.dims[0], cfg.sample_sizes[0], int(rng.integers(cfg.seeds_per_cell)))
    picked = [smallest] + [cells[i] for i in rng.choice(len(cells), size=2, replace=False)]
    for d, n, i in picked:
        record, log, data = harness.run_cell_with_log(cfg, d, n, i)
        row = next(r for r in rows if (int(r["d"]), int(r["n"]), int(r["seed"])) == (d, n, i))
        checks.check_row_reproduces(row, record)
        checks.check_record(_parsed(row), _flat(log.net), d, log.net.width, data.inputs, data.labels)
        full = (d, n, i) == smallest
        _check_trained_net(
            log.net, data, rng, {f"final_sharpness (d={d}, n={n})": record.final_sharpness},
            None if full else 32, 8,
        )


def verify_shatter(s: Setup, first: Round) -> None:
    cfg = s.config
    with open(os.path.join(first.directory, "records.json")) as fh:
        records = json.load(fh)
    checks.check_shattering_contrast(records["large_step"], records["weight_decay"])
    data = relulab.make_regression_dataset(
        harness.cell_rng(cfg.master_seed, cfg.d, cfg.n, 0, harness.TRAIN_DATA_CHANNEL), cfg.d, cfg.n, cfg.sigma
    )
    logs = [sp.info for sp in first.recorder.named("training.train")]
    rng = np.random.default_rng([s.seed, 2])
    for arm, log in zip(("large_step", "weight_decay"), logs):
        record = records[arm]
        checks.check_record(record, _flat(log.net), cfg.d, cfg.width, data.inputs, data.labels)
        _check_trained_net(log.net, data, rng, {f"{arm} final_sharpness": record["final_sharpness"]}, 16, 4)


def verify_eos(s: Setup, first: Round) -> None:
    log = first.recorder.named("training.train")[-1].info
    cert = first.recorder.named("sharpness.certificate")[-1].info
    checks.check_edge_of_stability(log.sharpness_events, s.config.eta)
    checks.check_certificate(cert)
    net, data = log.net, s.data
    theta = _flat(net)
    loss = checks.np_loss(theta, net.input_dim, net.width, data.inputs, data.labels)
    checks.check_loss("final loss", log.final_loss, loss)
    checks.check_loss("certificate train_loss", cert.train_loss, loss)
    rng = np.random.default_rng([s.seed, 3])
    epoch, last = log.sharpness_events[-1]
    _check_trained_net(
        net, data, rng,
        {"certificate lambda_max": cert.lambda_max, f"telemetry at epoch {epoch}": last},
        64, 8,
    )
    gauss_newton = probes.sharpness_module.make_hessian_operator(net, data, gauss_newton_only=True)
    reference = checks.lanczos_top_eigenvalue(gauss_newton, theta.size, s.seed)
    checks.check_eigenvalue("certificate gauss_newton_lambda_max", cert.gauss_newton_lambda_max, reference)


VERIFY = {"sweep": verify_sweep, "shatter": verify_shatter, "eos": verify_eos}


# ---------------------------------------------------------------------------
# per-layer figures of traced rounds
# ---------------------------------------------------------------------------

def _quantile(values, q: float) -> float:
    return float(np.quantile(values, q)) if len(values) else 0.0


def _durations(recorder, name) -> list:
    return [sp.seconds for sp in recorder.named(name)]


def _round_layers(r: Round) -> dict:
    rec = r.recorder
    steps = rec.named("training.step")
    trains = rec.named("training.train")
    iterations = rec.named("numerics.power_iteration")
    hvps = rec.named("sharpness.hvp")
    hvp_count = {}
    for hvp in hvps:
        hvp_count[id(hvp.parent)] = hvp_count.get(id(hvp.parent), 0) + 1
    useful = sum(sp.info.iterations for sp in iterations)
    busy = sum(r.cell_s) if r.windows else 0.0
    cell_train = sum(t.seconds for t in trains) if r.windows else 0.0
    return {
        "training.steps": len(steps),
        "training.step_ms_p50": 1e3 * _quantile([sp.seconds for sp in steps], 0.5),
        "training.step_ms_p90": 1e3 * _quantile([sp.seconds for sp in steps], 0.9),
        "training.train_self_s": sum(t.seconds for t in trains) - sum(_durations(rec, "sharpness.telemetry")),
        "training.clipped_steps": sum(1 for sp in steps if sp.info),
        "sharpness.estimates": len(iterations),
        "sharpness.hvps": len(hvps),
        "sharpness.hvps_per_estimate_p50": _quantile([hvp_count.get(id(sp), 0) for sp in iterations], 0.5),
        "sharpness.estimate_s_p50": _quantile([sp.seconds for sp in iterations], 0.5),
        "sharpness.estimate_s_p90": _quantile([sp.seconds for sp in iterations], 0.9),
        "sharpness.hvp_ms_p50": 1e3 * _quantile([sp.seconds for sp in hvps], 0.5),
        "sharpness.operator_build_ms_p50": 1e3 * _quantile(_durations(rec, "sharpness.operator_build"), 0.5),
        "sharpness.nonconverged": sum(1 for sp in iterations if not sp.info.converged),
        "sharpness.certificate_s": sum(_durations(rec, "sharpness.certificate")),
        "numerics.power_iterations": useful,
        "numerics.useful_hvp_ratio": useful / len(hvps) if hvps else 0.0,
        "nets.forward_calls": len(rec.named("nets.forward")),
        "nets.forward_s": sum(_durations(rec, "nets.forward")),
        "shattering.neuron_stats_s": sum(_durations(rec, "shattering.neuron_stats")),
        "harness.cells": len(r.windows),
        "harness.cell_busy_s": busy,
        "harness.parallel_speedup": busy / r.wall_s,
        "harness.cell_measure_s": busy - cell_train,
        "harness.persist_s": r.end - max(b for _, b in r.windows) if r.windows else 0.0,
        "harness.persist_bytes": r.persist_bytes,
        "trace.run_s": r.wall_s,
    }


def layer_metrics(traced: list, untraced: list) -> dict:
    """Median over traced rounds of each per-round figure, the allocation
    peaks from a separate tracemalloc pass, and the tracing overhead."""
    per_round = [_round_layers(r) for r in traced]
    out = {key: statistics.median(r[key] for r in per_round) for key in per_round[0]}
    # Every traced round runs the same calls, so the first one's largest
    # shapes are every round's.
    step = traced[0].recorder.largest.get("training.step")
    forward = traced[0].recorder.largest.get("nets.forward")
    out["training.step_alloc_peak_mib"] = probes.alloc_peak_mib(training.gd_step_flat, *step[1]) if step else 0.0
    out["nets.forward_alloc_peak_mib"] = probes.alloc_peak_mib(nets.forward, *forward[1]) if forward else 0.0
    out["trace.overhead_s"] = out["trace.run_s"] - statistics.median(r.wall_s for r in untraced)
    return out
