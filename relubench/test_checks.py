"""Each output check accepts the program's true output and rejects a
deliberately wrong one.

    PYTHONPATH=src python3 -m pytest relubench
"""

from __future__ import annotations

import dataclasses
import json
import os

import numpy as np
import pytest

import relulab
from relulab import harness
from relulab.sharpness import make_hessian_operator

import checks
from checks import CheckFailed


@pytest.fixture(scope="module")
def trained():
    """A small trained cell: its record, log and data."""
    cfg = relulab.SweepConfig(
        dims=(2,), sample_sizes=(24,), train=relulab.TrainConfig(eta=0.1, epochs=200), sigma=0.5,
        seeds_per_cell=1, holdout_size=200,
    )
    return harness.run_cell_with_log(cfg, 2, 24, 0)


def _parts(trained):
    record, log, data = trained
    net = log.net
    theta = np.concatenate([net.w.ravel(), net.b, net.v, [net.beta]])
    return theta, net.input_dim, net.width, data.inputs, data.labels


def test_gradient_check_rejects_perturbed_gradient(trained):
    theta, d, k, x, y = _parts(trained)
    grad = relulab.loss_gradient(trained[1].net, trained[2])
    checks.check_gradient(grad, theta, d, k, x, y, np.random.default_rng(0))
    checks.check_gradient(grad, theta, d, k, x, y, np.random.default_rng(0), coords=10)
    wrong = grad.copy()
    wrong[np.argmax(np.abs(grad))] *= 1.0 + 1e-5
    with pytest.raises(CheckFailed, match="closed form"):
        checks.check_gradient(wrong, theta, d, k, x, y, np.random.default_rng(0))


def test_finite_differences_catch_a_shared_error(trained, monkeypatch):
    """A gradient that agrees with a wrong closed form still fails against
    central differences of the loss."""
    theta, d, k, x, y = _parts(trained)
    wrong = 1.001 * relulab.loss_gradient(trained[1].net, trained[2])
    monkeypatch.setattr(checks, "np_gradient", lambda *args: wrong)
    with pytest.raises(CheckFailed, match="central differences"):
        checks.check_gradient(wrong, theta, d, k, x, y, np.random.default_rng(0))


def test_hvp_check_rejects_perturbed_product(trained):
    theta, d, k, x, y = _parts(trained)
    hvp = make_hessian_operator(trained[1].net, trained[2])
    checks.check_hvp(hvp, theta, d, k, x, y, np.random.default_rng(1), coords=12)
    with pytest.raises(CheckFailed, match="HVP column"):
        checks.check_hvp(lambda v: hvp(v) * (1.0 + 1e-4), theta, d, k, x, y, np.random.default_rng(1), coords=12)


def test_eigenvalue_check_rejects_perturbed_eigenvalue(trained):
    record, log, data = trained
    hvp = make_hessian_operator(log.net, data)
    m = log.net.width * (log.net.input_dim + 2) + 1
    dense = np.column_stack([hvp(e) for e in np.eye(m)])
    reference = checks.lanczos_top_eigenvalue(hvp, m, 0)
    assert reference == pytest.approx(np.linalg.eigvalsh(0.5 * (dense + dense.T))[-1], rel=1e-9)
    checks.check_eigenvalue("final_sharpness", record.final_sharpness, reference)
    with pytest.raises(CheckFailed):
        checks.check_eigenvalue("final_sharpness", record.final_sharpness * 1.001, reference)


@pytest.mark.parametrize(
    "key, factor",
    [("final_train_loss", 1.0 + 1e-6), ("in_sample_mse_vs_f0", 1.0 + 1e-6), ("median_activation", 1.01)],
)
def test_record_check_rejects_perturbed_field(trained, key, factor):
    theta, d, k, x, y = _parts(trained)
    record = dataclasses.asdict(trained[0])
    checks.check_record(record, theta, d, k, x, y)
    with pytest.raises(CheckFailed, match=key):
        checks.check_record({**record, key: record[key] * factor}, theta, d, k, x, y)


def test_row_check_rejects_a_changed_digit(trained):
    record = trained[0]
    row = {c: repr(getattr(record, c)) if isinstance(getattr(record, c), float) else str(getattr(record, c))
           for c in harness.SWEEP_CSV_COLUMNS}
    checks.check_row_reproduces(row, record)
    row["holdout_mse_vs_f0"] = repr(float(np.nextafter(record.holdout_mse_vs_f0, 1.0)))
    with pytest.raises(CheckFailed, match="holdout_mse_vs_f0"):
        checks.check_row_reproduces(row, record)


def _sweep_tables():
    rng = np.random.default_rng(0)
    rows = [
        {"d": str(d), "n": str(n), "in_sample_mse_vs_f0": repr(float(v)), "holdout_mse_vs_f0": repr(float(2 * v))}
        for d in (1, 5) for n in (32, 64, 128) for v in rng.uniform(0.1, 1.0, size=3) / n ** (0.5 / d)
    ]
    medians = {}
    for r in rows:
        medians.setdefault((int(r["d"]), int(r["n"])), []).append(r)
    summary = {"n_records": len(rows), "medians": [], "slopes": {"in_sample_vs_f0": {}, "holdout_vs_f0": {}}}
    for (d, n), cell in medians.items():
        summary["medians"].append({
            "d": d, "n": n,
            "in_sample_mse_vs_f0": float(np.median([float(r["in_sample_mse_vs_f0"]) for r in cell])),
            "holdout_mse_vs_f0": float(np.median([float(r["holdout_mse_vs_f0"]) for r in cell])),
        })
    for mode, column in (("in_sample_vs_f0", "in_sample_mse_vs_f0"), ("holdout_vs_f0", "holdout_mse_vs_f0")):
        for d in (1, 5):
            pts = [(m["n"], m[column]) for m in summary["medians"] if m["d"] == d]
            summary["slopes"][mode][str(d)] = relulab.loglog_slope(pts)[0]
    return rows, summary


def test_sweep_table_check_rejects_perturbed_slope_and_median():
    rows, summary = _sweep_tables()
    checks.check_sweep_tables(rows, summary, (1, 5), (32, 64, 128), len(rows))
    bad = json.loads(json.dumps(summary))
    bad["slopes"]["holdout_vs_f0"]["5"] += 1e-6
    with pytest.raises(CheckFailed, match="slope"):
        checks.check_sweep_tables(rows, bad, (1, 5), (32, 64, 128), len(rows))
    bad = json.loads(json.dumps(summary))
    bad["medians"][0]["in_sample_mse_vs_f0"] *= 1.0 + 1e-9
    with pytest.raises(CheckFailed, match="median"):
        checks.check_sweep_tables(rows, bad, (1, 5), (32, 64, 128), len(rows))
    with pytest.raises(CheckFailed):
        checks.check_sweep_tables(rows[1:], summary, (1, 5), (32, 64, 128), len(rows))


def test_failure_check_rejects_a_failed_cell():
    checks.check_no_failures([])
    with pytest.raises(CheckFailed):
        checks.check_no_failures([{"d": "1", "n": "32", "seed": "0", "error": "diverged"}])


@pytest.mark.parametrize(
    "large, decay",
    [
        ({"median_activation": 0.2, "in_sample_mse_vs_f0": 1.0}, {"in_sample_mse_vs_f0": 0.1, "sparse_neuron_share": 0.0}),
        ({"median_activation": 0.1, "in_sample_mse_vs_f0": 0.79}, {"in_sample_mse_vs_f0": 0.1, "sparse_neuron_share": 0.0}),
        ({"median_activation": 0.1, "in_sample_mse_vs_f0": 1.0}, {"in_sample_mse_vs_f0": 0.21, "sparse_neuron_share": 0.0}),
        ({"median_activation": 0.1, "in_sample_mse_vs_f0": 1.0}, {"in_sample_mse_vs_f0": 0.1, "sparse_neuron_share": 0.11}),
    ],
)
def test_contrast_check_rejects_each_broken_side(large, decay):
    checks.check_shattering_contrast(
        {"median_activation": 0.1, "in_sample_mse_vs_f0": 1.0}, {"in_sample_mse_vs_f0": 0.1, "sparse_neuron_share": 0.0}
    )
    with pytest.raises(CheckFailed):
        checks.check_shattering_contrast(large, decay)


def test_edge_of_stability_check_rejects_out_of_band_tail():
    checks.check_edge_of_stability([(t, 10.0) for t in range(12)], 0.2)
    with pytest.raises(CheckFailed):
        checks.check_edge_of_stability([(t, 4.9) for t in range(12)], 0.2)
    with pytest.raises(CheckFailed):
        checks.check_edge_of_stability([(t, 10.0) for t in range(9)], 0.2)


def test_certificate_check_rejects_a_violated_inequality(trained):
    _, log, data = trained
    cert = relulab.regularity_certificate(log.net, data, rng=0)
    checks.check_certificate(cert)
    with pytest.raises(CheckFailed):
        checks.check_certificate(dataclasses.replace(cert, lhs=cert.rhs + 1e-3))
    with pytest.raises(CheckFailed):
        checks.check_certificate(dataclasses.replace(cert, term_a_bound=cert.gauss_newton_lambda_max + 1e-3))
    with pytest.raises(CheckFailed, match="rhs"):
        checks.check_certificate(dataclasses.replace(cert, rhs=cert.rhs + 1e-3))


def test_identical_dirs_check_rejects_one_changed_byte(tmp_path):
    for name in ("a", "b"):
        os.makedirs(tmp_path / name)
        (tmp_path / name / "sweep.csv").write_bytes(b"d,n\n1,32\n")
    (tmp_path / "b" / "manifest.json").write_text("{}")
    checks.check_identical_dirs(tmp_path / "a", tmp_path / "b")
    (tmp_path / "b" / "sweep.csv").write_bytes(b"d,n\n1,33\n")
    with pytest.raises(CheckFailed, match="sweep.csv"):
        checks.check_identical_dirs(tmp_path / "a", tmp_path / "b")
