"""Acceptance gate: one test per shipped guarantee, at the stated tolerance.

Each test prints a single [criterion N] ... PASS line on success; a failure
shows up as the pytest FAILED line for that criterion.  Criteria 12-14 are
reduced-scale reproductions with calibrated property bands and dominate the
runtime of this module.
"""

import json
import time
import warnings

import numpy as np
import pytest

from relulab.harness import (
    INIT_CHANNEL,
    TRAIN_DATA_CHANNEL,
    ShatterConfig,
    SweepConfig,
    cell_rng,
    make_regression_dataset,
    preset_epochs,
    run_mse_sweep,
    run_shattering_experiment,
)
from relulab.hardfn import (
    atom_l2_constants,
    atom_l2_norm,
    ball_volume,
    build_hard_family,
    indistinguishable_probability,
    indistinguishable_probability_mc,
    member_values,
    pack_caps,
    pair_sq_distance,
    varshamov_gilbert,
)
from relulab.cli import main as cli_main
from relulab.nets import (
    Dataset,
    TwoLayerNet,
    kaiming_init,
    loss,
    loss_gradient,
    pack_params,
    param_count,
    unpack_params,
)
from relulab.numerics import derive_rng, make_rng, sample_uniform_ball
from relulab.rates import predicted_exponent
from relulab.sharpness import (
    ActivationBoundaryWarning,
    make_hessian_operator,
    regularity_certificate,
    sharpness,
)
from relulab.training import TrainConfig, train
from relulab.weights import g_analytic, g_empirical, tilde_g_analytic, tilde_g_sandwich_constants


def _report(number: int, text: str) -> None:
    print(f"[criterion {number}] {text}: PASS")


def _random_instance(rng):
    d = int(rng.integers(1, 5))
    k = int(rng.integers(1, 9))
    n = int(rng.integers(1, 17))
    net = TwoLayerNet(
        w=rng.standard_normal((k, d)),
        b=rng.standard_normal(k),
        v=rng.standard_normal(k),
        beta=float(rng.standard_normal()),
    )
    data = Dataset(inputs=sample_uniform_ball(rng, d, n), labels=rng.standard_normal(n))
    return net, data


def _clean_coordinate_mask(net, data, margin=1e-6):
    """True for parameter coordinates not owned by a neuron whose pre-activation
    sits within ``margin`` of zero on some sample (finite differences are
    unreliable exactly there)."""
    d, k = net.input_dim, net.width
    z = data.inputs @ net.w.T - net.b
    boundary = np.abs(z).min(axis=0) < margin
    mask = np.ones(param_count(d, k), dtype=bool)
    for neuron in np.flatnonzero(boundary):
        mask[neuron * d : (neuron + 1) * d] = False  # w row
        mask[k * d + neuron] = False  # bias
        mask[k * d + k + neuron] = False  # outer weight
    return mask


def test_criterion_01_gradient_and_hvp_match_finite_differences():
    start = time.monotonic()
    rng = make_rng(20260818)
    for _ in range(50):
        net, data = _random_instance(rng)
        d, k = net.input_dim, net.width
        theta = pack_params(net)
        mask = _clean_coordinate_mask(net, data)

        grad = loss_gradient(net, data)
        fd_grad = np.empty_like(grad)
        for j in range(theta.size):
            if not mask[j]:
                fd_grad[j] = grad[j]
                continue
            h = 1e-6 * max(1.0, abs(theta[j]))
            up, down = theta.copy(), theta.copy()
            up[j] += h
            down[j] -= h
            fd_grad[j] = (
                loss(unpack_params(up, d, k), data) - loss(unpack_params(down, d, k), data)
            ) / (2.0 * h)
        scale = 1.0 + np.abs(grad).max()
        np.testing.assert_allclose(fd_grad[mask], grad[mask], rtol=1e-5, atol=1e-9 * scale)

        vec = rng.standard_normal(theta.size)
        vec /= np.linalg.norm(vec)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ActivationBoundaryWarning)
            hvp = make_hessian_operator(net, data)(vec)
        h = 1e-6
        gp = loss_gradient(unpack_params(theta + h * vec, d, k), data)
        gm = loss_gradient(unpack_params(theta - h * vec, d, k), data)
        fd_hvp = (gp - gm) / (2.0 * h)
        scale = 1.0 + np.abs(hvp).max()
        np.testing.assert_allclose(fd_hvp[mask], hvp[mask], rtol=1e-4, atol=1e-7 * scale)
    assert time.monotonic() - start < 10.0
    _report(1, "gradient (rel 1e-5) and HVP (rel 1e-4) match central finite differences")


def test_criterion_02_sharpness_matches_dense_hessian():
    start = time.monotonic()
    rng = make_rng(77)
    for _ in range(10):
        net = TwoLayerNet(
            w=rng.standard_normal((2, 1)),
            b=rng.standard_normal(2),
            v=rng.standard_normal(2),
            beta=float(rng.standard_normal()),
        )
        data = Dataset(inputs=sample_uniform_ball(rng, 1, 3), labels=rng.standard_normal(3))
        m = param_count(1, 2)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ActivationBoundaryWarning)
            op = make_hessian_operator(net, data)
            dense = np.column_stack([op(e) for e in np.eye(m)])
            top = np.linalg.eigvalsh(dense).max()
            estimate = sharpness(net, data, rel_tol=1e-10, max_iters=50000, rng=rng).value
        np.testing.assert_allclose(estimate, top, rtol=1e-6)
    assert time.monotonic() - start < 5.0
    _report(2, "Lanczos sharpness matches dense-Hessian top eigenvalue (rel 1e-6)")


def test_criterion_03_regularity_certificate_holds_on_trained_nets():
    start = time.monotonic()
    rng = make_rng(5150)
    for case in range(100):
        d = (1, 2, 3)[case % 3]
        k = int(rng.integers(1, 17))
        n = int(rng.integers(4, 33))
        epochs = int(rng.integers(0, 501))
        data = make_regression_dataset(rng, d, n, sigma=0.5)
        net = kaiming_init(rng, d, k)
        log = train(net, data, TrainConfig(eta=0.05, epochs=epochs))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ActivationBoundaryWarning)
            cert = regularity_certificate(log.net, data, rng=rng)
        assert cert.holds, f"certificate failed on case {case}: lhs={cert.lhs} rhs={cert.rhs}"
        assert cert.term_a_holds, f"Term-A failed on case {case}"
    assert time.monotonic() - start < 120.0
    _report(3, "flatness certificate and Term-A bound hold on 100 trained nets")


def test_criterion_04_atom_l2_sandwich():
    start = time.monotonic()
    for d in range(1, 7):
        lo, hi = atom_l2_constants(d)
        for eps in (0.05, 0.1, 0.2, 0.5):
            value = atom_l2_norm(d, eps)
            scale = eps ** ((d + 5) / 2)
            # at d = 1 both constants coincide and the sandwich is an
            # equality, so allow one part in 1e12 on each side
            assert value >= lo * scale * (1.0 - 1e-12)
            assert value <= hi * scale * (1.0 + 1e-12)
    for eps in (0.05, 0.1, 0.2, 0.5):
        assert abs(atom_l2_norm(1, eps) - eps**3 / np.sqrt(3.0)) <= 1e-10
    assert time.monotonic() - start < 5.0
    _report(4, "atom L2 norm lies in the constant sandwich; d=1 closed form to 1e-10")


def test_criterion_05_weight_function_asymptotics():
    start = time.monotonic()
    grid = np.linspace(0.75, 0.99, 20)
    for d in range(2, 7):
        lo, hi = tilde_g_sandwich_constants(d)
        for t in grid:
            value = tilde_g_analytic(d, float(t))
            envelope = (1.0 - t) ** (d + 2)
            assert value >= lo * envelope * (1.0 - 1e-12)
            assert value <= hi * envelope * (1.0 + 1e-12)
    assert time.monotonic() - start < 10.0
    _report(5, "analytic weight bounded by the (1-t)^(d+2) sandwich on [0.75, 0.99]")


def test_criterion_06_empirical_weight_converges_to_analytic():
    start = time.monotonic()
    points = sample_uniform_ball(make_rng(26), 3, 100_000)
    direction = np.array([1.0, 0.0, 0.0])
    for t in (0.3, 0.5, 0.8):
        empirical = g_empirical(points, direction, t)
        analytic = g_analytic(3, t)
        assert abs(empirical - analytic) <= 0.05 * analytic
    assert time.monotonic() - start < 30.0
    _report(6, "empirical weight at 1e5 ball points within 5% of analytic (d=3)")


def test_criterion_07_cap_packing_invariants():
    start = time.monotonic()
    right_angle_eps = float(np.sqrt(1.0 - np.sqrt(2.0) / 2.0))  # cos(2*theta) = sqrt(2)/2
    quarter = pack_caps(make_rng(7), 2, right_angle_eps)
    assert quarter.count == 4

    counts = {}
    for eps in (0.05, 0.1):
        packing = pack_caps(make_rng(11), 3, eps)
        dots = packing.centers @ packing.centers.T
        off_diag = dots[~np.eye(packing.count, dtype=bool)]
        assert np.all(off_diag < packing.cos_threshold + 1e-12)
        counts[eps] = packing.count
    assert counts[0.05] >= 2 * counts[0.1]
    assert time.monotonic() - start < 30.0
    _report(7, "cap packings pass the pairwise-dot audit; counts scale with 1/eps")


def test_criterion_08_sign_family_guarantees():
    start = time.monotonic()
    for k in (8, 16, 24):
        family = varshamov_gilbert(k)
        assert family.size >= 2 ** (k // 8)
        bits = family.bits
        distances = (bits[:, None, :] != bits[None, :, :]).sum(axis=2)
        pairwise_min = distances[np.triu_indices(family.size, k=1)].min()
        assert pairwise_min >= k // 8
        assert family.min_distance == pairwise_min
    assert time.monotonic() - start < 30.0
    _report(8, "sign families meet the size and Hamming-distance guarantees (exhaustive)")


def test_criterion_09_hard_family_distance_law():
    start = time.monotonic()
    family = build_hard_family(make_rng(31), d=3, eps=0.2, n_atoms=8)
    closed = pair_sq_distance(family, 0, 1)
    samples = 1_000_000
    points = sample_uniform_ball(make_rng(63), 3, samples)
    gap_sq = (member_values(family, 0, points) - member_values(family, 1, points)) ** 2
    volume = ball_volume(3)
    estimate = float(np.mean(gap_sq) * volume)
    stderr = float(np.std(gap_sq) * volume / np.sqrt(samples))
    assert abs(closed - estimate) <= 3.0 * stderr
    assert time.monotonic() - start < 60.0
    _report(9, "closed-form pairwise L2 distance within 3 SE of 1e6-sample Monte Carlo")


def test_criterion_10_indistinguishability_probability():
    start = time.monotonic()
    family = build_hard_family(make_rng(17), d=3, eps=0.3, n_atoms=8)
    hamming = int(np.sum(family.code.bits[0] != family.code.bits[1]))
    closed = indistinguishable_probability(3, 0.3, hamming, n=50)
    trials = 10_000
    estimate = indistinguishable_probability_mc(make_rng(29), family, 0, 1, n=50, trials=trials)
    stderr = np.sqrt(closed * (1.0 - closed) / trials)
    assert abs(closed - estimate) <= 3.0 * stderr
    assert time.monotonic() - start < 60.0
    _report(10, "(1-q)^n indistinguishability matches Monte Carlo within 3 binomial SE")


def test_criterion_11_rate_table_exact_rationals():
    start = time.monotonic()
    from fractions import Fraction

    assert predicted_exponent(1, "mse_upper") == Fraction(4, 11)
    assert predicted_exponent(1, "mse_lower") == Fraction(1, 2)
    for d in range(1, 11):
        assert predicted_exponent(d, "gen_gap_upper") == Fraction(1, 2 * d + 2)
        assert predicted_exponent(d, "gen_gap_lower") == Fraction(2, d + 1)
    assert time.monotonic() - start < 1.0
    _report(11, "predicted exponents are the exact rationals, zero tolerance")


def test_criterion_12_edge_of_stability_band():
    """Long run at eta=0.2: sharpness telemetry should settle near 2/eta = 10.

    The mean of the last 10 readings (every 1000 epochs over the 50000-epoch
    preset) must land in [0.5, 1.5] x (2/eta) = [5, 15].
    """
    start = time.monotonic()
    eta, d, n, width = 0.2, 5, 128, 512
    data = make_regression_dataset(cell_rng(0, d, n, 0, TRAIN_DATA_CHANNEL), d, n, sigma=1.0)
    net = kaiming_init(cell_rng(0, d, n, 0, INIT_CHANNEL), d, width)
    config = TrainConfig(
        eta=eta, epochs=preset_epochs("appendix-A2", eta), sharpness_every=1000, seed=0
    )
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ActivationBoundaryWarning)
        log = train(net, data, config)
    tail = [value for _, value in log.sharpness_events[-10:]]
    assert len(tail) == 10
    mean_tail = float(np.mean(tail))
    threshold = 2.0 / eta
    assert 0.5 * threshold <= mean_tail <= 1.5 * threshold
    assert time.monotonic() - start < 300.0
    _report(12, f"late-training sharpness mean {mean_tail:.2f} in [5, 15] at 2/eta = 10")


def test_criterion_13_shattering_contrast():
    """Same data and init, two optimizers, opposite failure modes.

    Large step (eta=0.9): neurons go near-silent while the net memorizes the
    sigma=1 label noise, so in-sample MSE against the clean target sits near
    sigma^2.  Small step plus weight decay: neurons stay broadly active and
    the net tracks the clean target instead.
    """
    start = time.monotonic()
    config = ShatterConfig(epochs=8000, master_seed=0, telemetry_max_iters=1500)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ActivationBoundaryWarning)
        result = run_shattering_experiment(config)
    large, decayed = result.large_step, result.weight_decay
    assert large.median_activation <= 0.15
    assert 0.8 <= large.in_sample_mse_vs_f0 <= 1.4
    assert decayed.in_sample_mse_vs_f0 <= 0.2
    assert decayed.sparse_neuron_share <= 0.1
    assert time.monotonic() - start < 1200.0
    _report(
        13,
        f"large-step MSE {large.in_sample_mse_vs_f0:.3f} vs weight-decay "
        f"{decayed.in_sample_mse_vs_f0:.3f}; shattering only without decay",
    )


def test_criterion_14_slope_separation():
    """Weight decay at d=1 keeps learning; plain GD at d=5 nearly stalls.

    Log-log slope of the per-(d, n) median in-sample MSE against the clean
    target over n in {32..512}, 3 seeds per cell.  The decay arm uses a
    small lambda: a large one puts a fixed bias floor under every n and
    flattens the very decay this criterion measures.
    """
    start = time.monotonic()
    sizes = (32, 64, 128, 256, 512)
    decay_config = SweepConfig(
        dims=(1,),
        sample_sizes=sizes,
        train=TrainConfig(eta=0.05, epochs=6000, weight_decay=0.01, telemetry_max_iters=300),
        sigma=1.0,
        seeds_per_cell=3,
        width_rule=4,
        holdout_size=2000,
        master_seed=0,
    )
    plain_config = SweepConfig(
        dims=(5,),
        sample_sizes=sizes,
        train=TrainConfig(eta=0.2, epochs=3000, telemetry_max_iters=300),
        sigma=1.0,
        seeds_per_cell=3,
        width_rule=4,
        holdout_size=2000,
        master_seed=0,
    )
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ActivationBoundaryWarning)
        decay_result = run_mse_sweep(decay_config)
        plain_result = run_mse_sweep(plain_config)
    assert not decay_result.failures and not plain_result.failures
    decay_slope = decay_result.slopes["in_sample_vs_f0"][1]
    plain_slope = plain_result.slopes["in_sample_vs_f0"][5]
    assert decay_slope is not None and plain_slope is not None
    assert decay_slope <= -0.35
    assert plain_slope >= -0.30
    assert decay_slope < plain_slope
    assert time.monotonic() - start < 2700.0
    _report(
        14,
        f"slope {decay_slope:.3f} (d=1, decay) beats {plain_slope:.3f} (d=5, plain)",
    )


def test_criterion_15_cli_byte_determinism(tmp_path):
    """Rerunning a CLI command with fixed seed reproduces artifacts exactly."""
    start = time.monotonic()
    sweep_raw = {
        "dims": [1, 2],
        "sample_sizes": [8, 16],
        "sigma": 0.5,
        "seeds_per_cell": 2,
        "holdout_size": 500,
        "train": {"eta": 0.1, "epochs": 200},
    }
    sweep_json = tmp_path / "sweep.json"
    sweep_json.write_text(json.dumps(sweep_raw))
    sweep_outs = [tmp_path / "sweep_a", tmp_path / "sweep_b"]
    for out in sweep_outs:
        argv = ["sweep-mse", "--seed", "7", "--config", str(sweep_json), "--out", str(out)]
        assert cli_main(argv) == 0
    for name in ("sweep.csv", "failures.csv", "slopes.json", "manifest.json"):
        first = (sweep_outs[0] / name).read_bytes()
        second = (sweep_outs[1] / name).read_bytes()
        assert first == second, f"{name} differs between reruns"

    train_raw = {"d": 2, "n": 16, "train": {"eta": 0.1, "epochs": 100, "sharpness_every": 25}}
    train_json = tmp_path / "train.json"
    train_json.write_text(json.dumps(train_raw))
    train_outs = [tmp_path / "train_a", tmp_path / "train_b"]
    for out in train_outs:
        argv = ["train", "--seed", "3", "--config", str(train_json), "--out", str(out)]
        assert cli_main(argv) == 0
    for name in ("training_log.csv", "checkpoint.bin", "record.json", "manifest.json"):
        first = (train_outs[0] / name).read_bytes()
        second = (train_outs[1] / name).read_bytes()
        assert first == second, f"{name} differs between reruns"
    assert time.monotonic() - start < 120.0
    _report(15, "repeat CLI invocations reproduce every artifact byte")
