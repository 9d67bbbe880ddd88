"""Command-line front end.

Subcommands: train, sweep-mse, shatter, sharpness, vgnorm, hardfn-verify,
rates.  Every invocation writes its artifacts plus a manifest (config, its
hash, library versions, file hashes) into --out.  Exit codes: 0 success,
2 invalid config or arguments, 3 run failure (including a failed
verification in hardfn-verify).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys

import numpy as np

from .harness import (
    ShatterConfig,
    SweepConfig,
    preset_epochs,
    run_cell_with_log,
    run_mse_sweep,
    run_shattering_experiment,
    write_json,
    write_manifest,
)
from .hardfn import (
    HardfnConfig,
    VgnormConfig,
    atom_l2_constants,
    atom_l2_norm,
    ball_volume,
    build_hard_family,
    hamming,
    indistinguishable_probability,
    indistinguishable_probability_mc,
    member_values,
    pair_sq_distance,
    varshamov_gilbert,
)
from .nets import save_checkpoint
from .numerics import derive_rng, is_integer, sample_uniform_ball
from .rates import RatesConfig, exponent_table_to_csv
from .sharpness import regularity_certificate
from .training import TrainConfig, train_log_to_csv

__all__ = ["main"]

# A config too large to build fails with MemoryError or OverflowError.
_CONFIG_ERRORS = (ValueError, TypeError, KeyError, OSError, MemoryError, OverflowError)


def _check_keys(raw: dict, allowed, context: str) -> None:
    unknown = sorted(set(raw) - set(allowed))
    if unknown:
        raise ValueError(f"unknown {context} keys: {unknown}")


def _check_count(key: str, value, low: int) -> None:
    if not (is_integer(value) and value >= low):
        raise ValueError(f"{key} must be an integer >= {low}, got {value!r}")


def _field_names(cls) -> set:
    """Config-file keys of a config dataclass: its fields, less the seeds and
    the output directory, which come from --seed and --out."""
    return {f.name for f in dataclasses.fields(cls)} - {"seed", "master_seed", "output_dir"}


def _config(cls, raw: dict, **given):
    """``cls`` from the config file's keys ``raw`` and the CLI's ``given``."""
    _check_keys(raw, _field_names(cls), "config")
    return cls(**raw, **given)


# Keys and defaults are the config dataclasses' own; the CLI adds its own
# keys (d and n for one cell, epoch_preset), and a single cell has its own
# d, n and sigma.
_TRAIN_KEYS = _field_names(TrainConfig) | {"epoch_preset"}
_CELL_KEYS = {"d", "n"} | (_field_names(SweepConfig) - {"dims", "sample_sizes", "seeds_per_cell"})
_CELL_DEFAULTS = {"d": 2, "n": 32, "sigma": 0.5}


def _train_config(raw: dict, seed: int) -> TrainConfig:
    _check_keys(raw, _TRAIN_KEYS, "train")
    values = dict(raw)
    preset = values.pop("epoch_preset", None)
    if preset is not None:
        values["epochs"] = preset_epochs(preset, values.get("eta", TrainConfig.eta))
    return TrainConfig(seed=seed, **values)


def _cell_sweep_config(raw: dict, args) -> SweepConfig:
    """A one-cell, one-seed SweepConfig for train and sharpness."""
    _check_keys(raw, _CELL_KEYS, "config")
    merged = {**_CELL_DEFAULTS, **raw}
    return SweepConfig(
        dims=(merged.pop("d"),),
        sample_sizes=(merged.pop("n"),),
        train=_train_config(merged.pop("train", {}), args.seed),
        seeds_per_cell=1,
        master_seed=args.seed,
        **merged,
    )


def _execute_train(cfg: SweepConfig, args) -> int:
    d, n = cfg.dims[0], cfg.sample_sizes[0]
    record, log, _ = run_cell_with_log(cfg, d, n, 0)
    out = args.out
    train_log_to_csv(log, os.path.join(out, "training_log.csv"))
    save_checkpoint(log.net, os.path.join(out, "checkpoint.bin"))
    write_json(os.path.join(out, "record.json"), dataclasses.asdict(record))
    write_manifest(
        out,
        {"command": "train", **cfg.as_dict()},
        ["training_log.csv", "checkpoint.bin", "record.json"],
    )
    print(
        f"trained d={d} n={n} width={record.width}: "
        f"final_loss={record.final_train_loss:.6g} sharpness={record.final_sharpness:.6g}"
    )
    return 0


def _prepare_sweep(raw: dict, args):
    if args.threads is not None:
        _check_count("threads", args.threads, 1)
    train = _train_config(raw.get("train", {}), args.seed)
    return _config(SweepConfig, {**raw, "train": train}, master_seed=args.seed, output_dir=args.out)


def _execute_sweep(cfg: SweepConfig, args) -> int:
    result = run_mse_sweep(cfg, threads=args.threads)
    for mode, per_d in sorted(result.slopes.items()):
        for d, slope in sorted(per_d.items()):
            shown = "n/a" if slope is None else f"{slope:.4f}"
            print(f"slope[{mode}] d={d}: {shown}")
    print(f"{len(result.records)} records, {len(result.failures)} failures -> {args.out}")
    if not result.records:
        print("every cell failed", file=sys.stderr)
        return 3
    return 0


def _prepare_shatter(raw: dict, args):
    return _config(ShatterConfig, raw, master_seed=args.seed, output_dir=args.out)


def _execute_shatter(cfg: ShatterConfig, args) -> int:
    result = run_shattering_experiment(cfg)
    for arm in ("large_step", "weight_decay"):
        rec = getattr(result, arm)
        print(
            f"{arm}: train_mse={2.0 * rec.final_train_loss:.4f} "
            f"median_activation={rec.median_activation:.4f} "
            f"sparse_share={rec.sparse_neuron_share:.4f} sharpness={rec.final_sharpness:.4g}"
        )
    print(f"artifacts -> {args.out}")
    return 0


def _execute_sharpness(cfg: SweepConfig, args) -> int:
    d, n = cfg.dims[0], cfg.sample_sizes[0]
    record, log, data = run_cell_with_log(cfg, d, n, 0)
    cert = regularity_certificate(log.net, data, rng=derive_rng(args.seed, 99))
    out = args.out
    save_checkpoint(log.net, os.path.join(out, "checkpoint.bin"))
    write_json(
        os.path.join(out, "sharpness.json"),
        {
            "sharpness": cert.lambda_max,
            "gauss_newton_sharpness": cert.gauss_newton_lambda_max,
            "certificate": dataclasses.asdict(cert),
            "record": dataclasses.asdict(record),
        },
    )
    write_manifest(
        out,
        {"command": "sharpness", **cfg.as_dict()},
        ["checkpoint.bin", "sharpness.json"],
    )
    print(
        f"sharpness={cert.lambda_max:.6g} certificate_holds={cert.holds} "
        f"term_a_holds={cert.term_a_holds}"
    )
    return 0


# vgnorm and hardfn-verify build their family while preparing, so a family
# too large to search exits 2 before --out exists.
def _prepare_vgnorm(raw: dict, args):
    cfg = _config(VgnormConfig, raw)
    return cfg, varshamov_gilbert(cfg.code_length, rng=derive_rng(args.seed, 0))


def _execute_vgnorm(job, args) -> int:
    cfg, family = job
    k = cfg.code_length
    # Each word against the words after it: no (M, M, k) array is built.
    rows = family.bits
    audit = min((int(hamming(w, rows[m + 1 :]).min()) for m, w in enumerate(rows[:-1])), default=k)
    required_distance = math.ceil(k / 8)
    required_size = math.ceil(2 ** (k / 8))
    passed = audit >= required_distance and family.size >= required_size
    payload = {
        "code_length": k,
        "size": family.size,
        "min_distance": family.min_distance,
        "audit_min_distance": audit,
        "required_min_distance": required_distance,
        "required_size": required_size,
        "pass": passed,
    }
    write_json(os.path.join(args.out, "vgnorm.json"), payload)
    config = {"command": "vgnorm", "seed": args.seed, **dataclasses.asdict(cfg)}
    write_manifest(args.out, config, ["vgnorm.json"])
    print(f"code_length={k}: size={family.size} min_distance={audit} pass={passed}")
    return 0 if passed else 3


def _prepare_hardfn(raw: dict, args):
    cfg = _config(HardfnConfig, raw)
    return cfg, build_hard_family(derive_rng(args.seed, 0), cfg.d, cfg.eps, cfg.n_atoms, cfg.amplitude)


def _execute_hardfn(job, args) -> int:
    cfg, family = job
    d, eps = cfg.d, cfg.eps
    i, j = 0, 1

    lo, hi = atom_l2_constants(d)
    atom = atom_l2_norm(d, eps)
    scale = eps ** ((d + 5) / 2)
    atom_pass = lo * scale * (1.0 - 1e-9) <= atom <= hi * scale * (1.0 + 1e-9)

    closed_dist = pair_sq_distance(family, i, j)
    mc_rng = derive_rng(args.seed, 1)
    points = sample_uniform_ball(mc_rng, d, cfg.l2_samples)
    gap = member_values(family, i, points) - member_values(family, j, points)
    vol = ball_volume(d)
    mc_dist = float(np.mean(gap**2) * vol)
    dist_se = float(np.std(gap**2) * vol / np.sqrt(cfg.l2_samples))
    dist_pass = abs(closed_dist - mc_dist) <= 4.0 * dist_se

    h = int(hamming(family.code.bits[i], family.code.bits[j]))
    q_closed = indistinguishable_probability(d, eps, h, cfg.n_obs)
    q_mc = indistinguishable_probability_mc(
        derive_rng(args.seed, 2), family, i, j, cfg.n_obs, cfg.mc_trials
    )
    q_se = float(np.sqrt(max(q_closed * (1.0 - q_closed), 1e-12) / cfg.mc_trials))
    q_pass = abs(q_closed - q_mc) <= 4.0 * q_se

    payload = {
        "family_size": family.size,
        "n_atoms": family.n_atoms,
        "atom_l2": {"value": atom, "lower": lo * scale, "upper": hi * scale, "pass": atom_pass},
        "pair_sq_distance": {
            "closed_form": closed_dist,
            "monte_carlo": mc_dist,
            "standard_error": dist_se,
            "pass": dist_pass,
        },
        "indistinguishable_probability": {
            "closed_form": q_closed,
            "monte_carlo": q_mc,
            "standard_error": q_se,
            "pass": q_pass,
        },
        "pass": atom_pass and dist_pass and q_pass,
    }
    write_json(os.path.join(args.out, "hardfn.json"), payload)
    config = {"command": "hardfn-verify", "seed": args.seed, **dataclasses.asdict(cfg)}
    write_manifest(args.out, config, ["hardfn.json"])
    print(
        f"atom_l2 pass={atom_pass}, pair_distance pass={dist_pass}, "
        f"indistinguishability pass={q_pass}"
    )
    return 0 if payload["pass"] else 3


def _prepare_rates(raw: dict, args):
    return _config(RatesConfig, raw)


def _execute_rates(cfg: RatesConfig, args) -> int:
    path = os.path.join(args.out, "rates.csv")
    exponent_table_to_csv(path, cfg.dims)
    write_manifest(args.out, {"command": "rates", **dataclasses.asdict(cfg)}, ["rates.csv"])
    print(f"wrote exponent table for d in {list(cfg.dims)} -> {path}")
    return 0


# name -> (prepare, execute, help); an error in prepare exits 2 before --out exists.
_COMMANDS = {
    "train": (_cell_sweep_config, _execute_train,
              "train one network on synthetic linear-target data"),
    "sweep-mse": (_prepare_sweep, _execute_sweep,
                  "run the (d, n, seed) sweep and fit log-log MSE slopes"),
    "shatter": (_prepare_shatter, _execute_shatter,
                "paired large-step vs weight-decay comparison"),
    "sharpness": (_cell_sweep_config, _execute_sharpness,
                  "train a cell, then measure sharpness and the certificate"),
    "vgnorm": (_prepare_vgnorm, _execute_vgnorm,
               "build and audit a separated sign family"),
    "hardfn-verify": (_prepare_hardfn, _execute_hardfn,
                      "closed-form vs Monte Carlo checks on a hard family"),
    "rates": (_prepare_rates, _execute_rates,
              "write the predicted-exponent table"),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="relulab",
        description="Sharpness, variation norms, hard families, scaling sweeps.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, _, text) in _COMMANDS.items():
        cmd = sub.add_parser(name, help=text)
        cmd.add_argument("--seed", type=int, default=0, help="master seed, >= 0 (default 0)")
        cmd.add_argument("--config", default=None, help="path to a JSON config file")
        cmd.add_argument("--out", default="relulab-out", help="output directory")
        if name == "sweep-mse":
            cmd.add_argument(
                "--threads", type=int, default=None,
                help="worker threads for the cells (default: one per usable core,"
                " or one where BLAS cannot be pinned)",
            )
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    prepare, execute, _ = _COMMANDS[args.command]
    try:
        _check_count("--seed", args.seed, 0)
        if args.config is None:
            raw = {}
        else:
            with open(args.config) as fh:
                raw = json.load(fh)
            if not isinstance(raw, dict):
                raise ValueError("config file must hold a JSON object")
        prepared = prepare(raw, args)
        os.makedirs(args.out, exist_ok=True)
    except _CONFIG_ERRORS as exc:
        print(f"invalid config: {exc}", file=sys.stderr)
        return 2
    try:
        return execute(prepared, args)
    except Exception as exc:
        print(f"run failed: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
