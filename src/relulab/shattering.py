"""Per-neuron activation diagnostics.

Trained networks in the large-step or decayed regimes tend to split into a
few high-magnitude neurons that fire on small input slivers and a bulk of
neurons that rarely fire at all.  These helpers quantify that: for each
neuron we record how often it activates on a reference input set, its
path-norm magnitude |v_k| ||w_k||, and its normalized offset b_k / ||w_k||
(the threshold position of its kink, NaN for zero-direction neurons).
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from relulab.nets import TwoLayerNet, _preact_blocks

__all__ = [
    "NeuronStats",
    "ShatteringReport",
    "neuron_stats",
    "shattering_report",
    "neuron_stats_to_csv",
]

@dataclass(frozen=True)
class NeuronStats:
    """Arrays indexed by neuron: activation fraction on the reference
    inputs (strict z > 0), |v_k| ||w_k||, and b_k / ||w_k|| (NaN when
    ||w_k|| = 0)."""

    activation_fraction: np.ndarray
    magnitude: np.ndarray
    offset: np.ndarray

    @property
    def width(self) -> int:
        return self.activation_fraction.size


@dataclass(frozen=True)
class ShatteringReport:
    """Summary shares over the population of neurons.

    ``sparse_neuron_share`` counts neurons active on a positive fraction of inputs
    no larger than the threshold; ``dead_neuron_share`` counts neurons that never
    fire.  The two are disjoint.
    """

    sparse_neuron_share: float
    dead_neuron_share: float
    median_activation: float
    sparse_threshold: float


def neuron_stats(net: TwoLayerNet, inputs: np.ndarray) -> NeuronStats:
    """Activation and geometry statistics on a reference input set."""
    x = np.asarray(inputs, dtype=float)
    if x.ndim != 2 or x.shape[0] < 1 or x.shape[1] != net.input_dim:
        raise ValueError(f"inputs must be (n, {net.input_dim}) non-empty, got {x.shape}")
    # Exact integer counts, so the fractions do not depend on the blocking.
    active = np.zeros(net.width, dtype=np.int64)
    for _, z in _preact_blocks(x, net.w, net.b):
        active += np.count_nonzero(z > 0.0, axis=0)
    fraction = active / x.shape[0]
    norms = np.linalg.norm(net.w, axis=1)
    magnitude = np.abs(net.v) * norms
    offset = np.full(norms.shape, np.nan)
    pos = norms > 0.0
    offset[pos] = net.b[pos] / norms[pos]
    return NeuronStats(
        activation_fraction=fraction, magnitude=magnitude, offset=offset
    )


def shattering_report(stats: NeuronStats, sparse_threshold: float = 0.10) -> ShatteringReport:
    """Aggregate a :class:`NeuronStats` into population shares."""
    if not 0.0 < sparse_threshold < 1.0:
        raise ValueError(f"sparse threshold must be in (0, 1), got {sparse_threshold}")
    f = stats.activation_fraction
    sparse = np.mean((f > 0.0) & (f <= sparse_threshold))
    dead = np.mean(f == 0.0)
    return ShatteringReport(
        sparse_neuron_share=float(sparse),
        dead_neuron_share=float(dead),
        median_activation=float(np.median(f)),
        sparse_threshold=sparse_threshold,
    )


def neuron_stats_to_csv(stats: NeuronStats, path) -> None:
    """One row per neuron: neuron_id, activation_fraction, magnitude, t
    (the normalized offset; NaN prints as ``nan``)."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["neuron_id", "activation_fraction", "magnitude", "t"])
        for i in range(stats.width):
            writer.writerow(
                [
                    i,
                    repr(float(stats.activation_fraction[i])),
                    repr(float(stats.magnitude[i])),
                    repr(float(stats.offset[i])),
                ]
            )
