"""Tests for the gradient descent loop."""

import numpy as np
import pytest

from relulab.nets import Dataset, TwoLayerNet, kaiming_init, loss, pack_params
from relulab.numerics import make_rng, sample_uniform_ball
from relulab.training import (
    TrainConfig,
    TrainingDivergedError,
    TrainLog,
    gd_step_flat,
    train,
    train_log_to_csv,
)


def _linear_problem(seed=0, d=1, k=4, n=8, sigma=0.0):
    rng = make_rng(seed)
    x = sample_uniform_ball(rng, d, n)
    y = x[:, 0] + sigma * rng.normal(size=n)
    net = kaiming_init(rng, d, k)
    return net, Dataset(inputs=x, labels=y)


class TestHandSteppedDescent:
    # One neuron, one sample, x = 0.5, y = 1, start at w = 1, b = 0, v = 1,
    # beta = 0, eta = 0.2.  Epoch 0: z = 0.5, f = 0.5, r = -0.5,
    # loss = 0.125, gradient (-0.25, 0.5, -0.25, -0.5), so the next point is
    # (1.05, -0.1, 1.05, 0.1).  Epoch 1: z = 0.625, f = 0.75625,
    # r = -0.24375, loss = 0.029707031250, gradient
    # (-0.1279687500, 0.2559375000, -0.1523437500, -0.24375), landing on
    # (1.0755937500, -0.1511875000, 1.0804687500, 0.14875).
    NET = TwoLayerNet(w=[[1.0]], b=[0.0], v=[1.0], beta=0.0)
    DATA = Dataset(inputs=[[0.5]], labels=[1.0])

    def test_two_epochs_match_hand_computation(self):
        log = train(self.NET, self.DATA, TrainConfig(eta=0.2, epochs=2))
        np.testing.assert_allclose(log.losses, [0.125, 0.02970703125], rtol=1e-14)
        expected = np.array([1.07559375, -0.15118750, 1.08046875, 0.14875])
        np.testing.assert_allclose(pack_params(log.net), expected, rtol=1e-15)
        assert log.final_loss == loss(log.net, self.DATA)
        assert log.clip_epochs == ()
        assert log.sharpness_events == ()

    def test_single_gd_step_matches_first_epoch(self):
        theta = pack_params(self.NET)
        cfg = TrainConfig(eta=0.2, epochs=1)
        theta1, loss0, clipped = gd_step_flat(
            theta, self.DATA.inputs, self.DATA.labels, 1, 1, cfg
        )
        assert loss0 == 0.125
        assert not clipped
        np.testing.assert_allclose(theta1, [1.05, -0.1, 1.05, 0.1], rtol=1e-15)


class TestWeightDecay:
    # With every sample inactive and r = 0 the data gradient vanishes, so the
    # update is pure decay: each decayed coordinate shrinks by eta * wd * value.
    NET = TwoLayerNet(w=[[-1.0]], b=[0.5], v=[2.0], beta=0.3)
    DATA = Dataset(inputs=[[0.5]], labels=[0.3])

    def test_decay_all_parameters(self):
        cfg = TrainConfig(eta=0.1, epochs=1, weight_decay=0.5)
        log = train(self.NET, self.DATA, cfg)
        shrink = 1.0 - 0.1 * 0.5
        np.testing.assert_allclose(
            pack_params(log.net),
            shrink * np.array([-1.0, 0.5, 2.0, 0.3]),
            rtol=1e-15,
        )

    def test_recorded_loss_is_data_term_only(self):
        net = TwoLayerNet(w=[[1.0]], b=[0.0], v=[1.0], beta=0.0)
        data = Dataset(inputs=[[0.5]], labels=[1.0])
        plain = train(net, data, TrainConfig(eta=0.2, epochs=1))
        decayed = train(net, data, TrainConfig(eta=0.2, epochs=1, weight_decay=0.3))
        assert plain.losses[0] == decayed.losses[0] == 0.125


class TestClippingAndDivergence:
    def test_clip_caps_step_norm(self):
        net = TwoLayerNet(w=[[1.0]], b=[0.0], v=[500.0], beta=0.0)
        data = Dataset(inputs=[[0.8]], labels=[0.0])
        theta = pack_params(net)
        cfg = TrainConfig(eta=0.01, epochs=1, clip_threshold=50.0)
        theta1, _, clipped = gd_step_flat(theta, data.inputs, data.labels, 1, 1, cfg)
        assert clipped
        assert np.linalg.norm(theta1 - theta) == pytest.approx(0.01 * 50.0, rel=1e-12)

    def test_clip_epochs_recorded_post_step(self):
        net = TwoLayerNet(w=[[1.0]], b=[0.0], v=[500.0], beta=0.0)
        data = Dataset(inputs=[[0.8]], labels=[0.0])
        log = train(net, data, TrainConfig(eta=0.001, epochs=3, clip_threshold=50.0))
        assert len(log.clip_epochs) >= 1
        assert log.clip_epochs[0] == 1

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_raises(self):
        net, data = _linear_problem(seed=3)
        cfg = TrainConfig(eta=1e150, epochs=10, clip_threshold=1e300)
        with pytest.raises(TrainingDivergedError, match="epoch"):
            train(net, data, cfg)

    def test_moderate_instability_does_not_overflow_with_clip(self):
        net, data = _linear_problem(seed=4)
        log = train(net, data, TrainConfig(eta=5.0, epochs=50))
        assert np.all(np.isfinite(log.losses))


class TestTrainingBehaviour:
    def test_loss_decreases_on_easy_problem(self):
        net, data = _linear_problem(seed=1)
        log = train(net, data, TrainConfig(eta=0.1, epochs=2000))
        assert log.final_loss < 0.02 * log.losses[0]
        assert len(log.losses) == 2000

    def test_zero_epochs_returns_initial_state(self):
        net, data = _linear_problem(seed=2)
        log = train(net, data, TrainConfig(eta=0.1, epochs=0))
        assert log.losses.size == 0
        assert log.final_loss == loss(net, data)
        np.testing.assert_array_equal(pack_params(log.net), pack_params(net))

    def test_deterministic_rerun(self):
        net, data = _linear_problem(seed=5)
        cfg = TrainConfig(eta=0.1, epochs=50, sharpness_every=10)
        first = train(net, data, cfg)
        second = train(net, data, cfg)
        np.testing.assert_array_equal(first.losses, second.losses)
        np.testing.assert_array_equal(pack_params(first.net), pack_params(second.net))
        assert first.sharpness_events == second.sharpness_events

    def test_sharpness_telemetry_cadence(self):
        net, data = _linear_problem(seed=6)
        log = train(net, data, TrainConfig(eta=0.05, epochs=7, sharpness_every=3))
        assert [e for e, _ in log.sharpness_events] == [3, 6]
        for _, value in log.sharpness_events:
            assert np.isfinite(value) and value > 0.0

    def test_config_validation(self):
        with pytest.raises(ValueError, match="step size"):
            TrainConfig(eta=0.0, epochs=1)
        with pytest.raises(ValueError, match="epochs"):
            TrainConfig(eta=0.1, epochs=-1)
        with pytest.raises(ValueError, match="clip"):
            TrainConfig(eta=0.1, epochs=1, clip_threshold=0.0)
        with pytest.raises(ValueError, match="weight decay"):
            TrainConfig(eta=0.1, epochs=1, weight_decay=-0.1)
        with pytest.raises(ValueError, match="sharpness_every"):
            TrainConfig(eta=0.1, epochs=1, sharpness_every=-2)
        with pytest.raises(ValueError, match="telemetry_max_iters"):
            TrainConfig(eta=0.1, epochs=1, telemetry_max_iters=0)


class TestCsvDump:
    def _small_log(self):
        net = TwoLayerNet(w=[[1.0]], b=[0.0], v=[500.0], beta=0.0)
        data = Dataset(inputs=[[0.8]], labels=[0.0])
        return train(net, data, TrainConfig(eta=0.001, epochs=4, sharpness_every=2))

    def test_csv_layout(self, tmp_path):
        log = self._small_log()
        path = tmp_path / "log.csv"
        train_log_to_csv(log, path)
        rows = path.read_text().splitlines()
        assert rows[0] == "epoch,loss,sharpness,clipped"
        assert len(rows) == 4 + 2  # header + one row per epoch + final row
        first = rows[1].split(",")
        assert first[0] == "0"
        assert first[1] == repr(float(log.losses[0]))
        assert first[2] == ""  # telemetry starts at epoch 2
        final = rows[-1].split(",")
        assert final[0] == "4"
        assert final[1] == repr(float(log.final_loss))
        sharp = dict(log.sharpness_events)
        row2 = rows[3].split(",")
        assert row2[2] == repr(float(sharp[2]))
        clipped_flags = [r.split(",")[3] for r in rows[1:]]
        expected_flags = ["1" if t in set(log.clip_epochs) else "0" for t in range(5)]
        assert clipped_flags == expected_flags

    def test_csv_bytes_deterministic(self, tmp_path):
        log = self._small_log()
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        train_log_to_csv(log, a)
        train_log_to_csv(log, b)
        assert a.read_bytes() == b.read_bytes()


class TestLogContainer:
    def test_is_frozen(self):
        net, data = _linear_problem(seed=7)
        log = train(net, data, TrainConfig(eta=0.1, epochs=1))
        assert isinstance(log, TrainLog)
        with pytest.raises(AttributeError):
            log.final_loss = 0.0
