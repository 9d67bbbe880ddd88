"""Tests for the per-neuron activation diagnostics."""

import numpy as np
import pytest

from relulab.nets import TwoLayerNet
from relulab.shattering import (
    SPARSE_THRESHOLD,
    NeuronStats,
    ShatteringReport,
    neuron_stats,
    neuron_stats_to_csv,
    shattering_report,
)

# Four 1-d inputs and four neurons with known firing patterns:
#   neuron 0: w = 1,  b = 0    -> fires on {0.3, 0.8}, fraction 1/2, t = 0
#   neuron 1: w = 1,  b = 2    -> never fires, fraction 0, t = 2
#   neuron 2: w = -2, b = -4   -> z = -2x + 4 > 0 always, fraction 1, t = -2
#   neuron 3: w = 0,  b = -1   -> z = 1 constant, fraction 1, t = NaN
INPUTS = np.array([[-0.5], [-0.1], [0.3], [0.8]])
NET = TwoLayerNet(
    w=[[1.0], [1.0], [-2.0], [0.0]],
    b=[0.0, 2.0, -4.0, -1.0],
    v=[3.0, -0.5, 1.0, 2.0],
    beta=0.0,
)


class TestNeuronStats:
    def test_hand_traced_fractions(self):
        stats = neuron_stats(NET, INPUTS)
        np.testing.assert_array_equal(stats.activation_fraction, [0.5, 0.0, 1.0, 1.0])

    def test_magnitudes_and_offsets(self):
        stats = neuron_stats(NET, INPUTS)
        np.testing.assert_allclose(stats.magnitude, [3.0, 0.5, 2.0, 0.0])
        np.testing.assert_allclose(stats.offset[:3], [0.0, 2.0, -2.0])
        assert np.isnan(stats.offset[3])
        assert stats.width == 4

    def test_kink_point_counts_as_inactive(self):
        net = TwoLayerNet(w=[[1.0]], b=[0.3], v=[1.0], beta=0.0)
        stats = neuron_stats(net, np.array([[0.3], [0.9]]))
        assert stats.activation_fraction[0] == 0.5

    def test_input_validation(self):
        with pytest.raises(ValueError, match="inputs"):
            neuron_stats(NET, np.zeros((0, 1)))
        with pytest.raises(ValueError, match="inputs"):
            neuron_stats(NET, np.zeros((3, 2)))


class TestShatteringReport:
    def test_hand_traced_shares(self):
        # Ten 1-d inputs -0.9, -0.7, ..., 0.9.  Neuron 0 (b = 0.8) fires on
        # 0.9 alone, a fraction of exactly the threshold; neuron 1 never
        # fires; neuron 2 (b = 0.6) fires on 0.7 and 0.9; neuron 3 always.
        inputs = np.arange(-9, 10, 2)[:, None] / 10
        net = TwoLayerNet(
            w=[[1.0], [1.0], [1.0], [0.0]], b=[0.8, 2.0, 0.6, -1.0], v=np.ones(4), beta=0.0
        )
        stats = neuron_stats(net, inputs)
        np.testing.assert_array_equal(stats.activation_fraction, [0.1, 0.0, 0.2, 1.0])
        report = shattering_report(stats)
        assert SPARSE_THRESHOLD == 0.10
        assert report.dead_neuron_share == 0.25          # neuron 1
        assert report.sparse_neuron_share == 0.25        # neuron 0 (0 < 1/10 <= 0.10)
        assert report.median_activation == pytest.approx(0.15)  # median of (0.1, 0, 0.2, 1)
        assert isinstance(report, ShatteringReport)

    def test_dead_is_not_sparse(self):
        stats = NeuronStats(
            activation_fraction=np.array([0.0, 0.05, 0.5]),
            magnitude=np.ones(3),
            offset=np.zeros(3),
        )
        report = shattering_report(stats)
        assert report.dead_neuron_share == pytest.approx(1 / 3)
        assert report.sparse_neuron_share == pytest.approx(1 / 3)


class TestCsv:
    def test_layout_and_nan(self, tmp_path):
        stats = neuron_stats(NET, INPUTS)
        path = tmp_path / "neurons.csv"
        neuron_stats_to_csv(stats, path)
        rows = path.read_text().splitlines()
        assert rows[0] == "neuron_id,activation_fraction,magnitude,t"
        assert len(rows) == 1 + 4
        assert rows[1] == "0,0.5,3.0,0.0"
        assert rows[4].startswith("3,1.0,0.0,nan")

    def test_bytes_deterministic(self, tmp_path):
        stats = neuron_stats(NET, INPUTS)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        neuron_stats_to_csv(stats, a)
        neuron_stats_to_csv(stats, b)
        assert a.read_bytes() == b.read_bytes()
