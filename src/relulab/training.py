"""Full-batch gradient descent on the half-MSE loss.

The loop is deliberately plain: flat parameter vector, exact gradient, an
optional L2 penalty folded into the update, and global-norm clipping as the
only safety valve.  Recorded losses are the data term alone so that reported
training MSE is always ``2 * loss`` regardless of regularization.

Row conventions for the log (and the CSV dump): the loss at epoch ``t`` is
measured before the step taken at epoch ``t``; sharpness readings and clip
flags describe the step that produced the state, so they land on epoch
``t + 1``.  The final row, at epoch == epochs, holds the post-training loss.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from relulab.nets import Dataset, TwoLayerNet, _grad_flat, loss, pack_params, unpack_params
from relulab.numerics import check_finite_fields, check_int_fields, write_csv
from relulab.sharpness import sharpness

__all__ = [
    "TELEMETRY_REL_TOL",
    "TrainConfig",
    "TrainLog",
    "TrainingDivergedError",
    "gd_step_flat",
    "train",
    "train_log_to_csv",
]


class TrainingDivergedError(RuntimeError):
    """Loss or parameters stopped being finite during training."""


# Relative Ritz-residual tolerance of every telemetry reading and of each
# cell's final sharpness.  It is looser than the certificate's default,
# since these readings feed wide bands.
TELEMETRY_REL_TOL = 1e-6


@dataclass(frozen=True)
class TrainConfig:
    """Hyperparameters for :func:`train`.

    ``weight_decay`` is the coefficient of the (1/2)||theta||^2 penalty,
    applied through the gradient to every parameter, biases included.
    ``sharpness_every`` = 0 disables the eigenvalue telemetry; a positive
    value records the loss Hessian's top eigenvalue after every that-many
    steps, to :data:`TELEMETRY_REL_TOL`.  ``seed`` feeds only the start
    vector of that telemetry's first reading (each later one starts from
    the eigenvector of the reading before; the descent itself is
    deterministic).  ``telemetry_max_iters`` bounds the Hessian-vector
    products of one reading.
    """

    eta: float
    epochs: int
    clip_threshold: float = 50.0
    weight_decay: float = 0.0
    seed: int = 0
    sharpness_every: int = 0
    telemetry_max_iters: int = 5000

    def __post_init__(self):
        check_finite_fields(self)
        check_int_fields(self)
        if self.eta <= 0.0:
            raise ValueError(f"step size must be positive, got {self.eta}")
        if self.epochs < 0:
            raise ValueError(f"epochs must be >= 0, got {self.epochs}")
        if self.clip_threshold <= 0.0:
            raise ValueError(f"clip threshold must be positive, got {self.clip_threshold}")
        if self.weight_decay < 0.0:
            raise ValueError(f"weight decay must be >= 0, got {self.weight_decay}")
        if self.sharpness_every < 0:
            raise ValueError(f"sharpness_every must be >= 0, got {self.sharpness_every}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.telemetry_max_iters < 1:
            raise ValueError(f"telemetry_max_iters must be >= 1, got {self.telemetry_max_iters}")


@dataclass(frozen=True)
class TrainLog:
    """Everything observed during one run.

    ``losses[t]`` is the data loss at the start of epoch ``t`` (length
    ``epochs``); ``final_loss`` is the loss after the last step.  Sharpness
    events are (epoch, value) pairs; ``clip_epochs`` lists epochs whose state
    was produced by a clipped step.
    """

    net: TwoLayerNet
    losses: np.ndarray
    final_loss: float
    sharpness_events: tuple = field(default_factory=tuple)
    clip_epochs: tuple = field(default_factory=tuple)


def gd_step_flat(
    theta: np.ndarray,
    x: np.ndarray,
    y: np.ndarray,
    d: int,
    k: int,
    config: TrainConfig,
):
    """One full-batch step on the flat layout.
    Returns (theta_next, loss_before, clipped).

    ``loss_before`` is the data loss at the incoming ``theta``; the weight
    decay term enters only the update direction.
    """
    grad, loss_val = _grad_flat(theta, x, y, d, k)
    if config.weight_decay > 0.0:
        grad = grad + config.weight_decay * theta
    gnorm = float(np.linalg.norm(grad))
    clipped = gnorm > config.clip_threshold
    if clipped:
        grad = grad * (config.clip_threshold / gnorm)
    return theta - config.eta * grad, loss_val, clipped


def train(net: TwoLayerNet, data: Dataset, config: TrainConfig) -> TrainLog:
    """Run gradient descent from ``net`` and return the full log.

    Raises :class:`TrainingDivergedError` the first time the loss or the
    parameters stop being finite.
    """
    d, k = net.input_dim, net.width
    theta = pack_params(net)
    x, y = data.inputs, data.labels

    losses = np.empty(config.epochs)
    sharp_events = []
    clip_epochs = []
    top_vector = None

    for t in range(config.epochs):
        theta, loss_val, clipped = gd_step_flat(theta, x, y, d, k, config)
        if not np.isfinite(loss_val) or not np.all(np.isfinite(theta)):
            raise TrainingDivergedError(
                f"non-finite loss or parameters at epoch {t} (eta={config.eta})"
            )
        losses[t] = loss_val
        if clipped:
            clip_epochs.append(t + 1)
        if config.sharpness_every > 0 and (t + 1) % config.sharpness_every == 0:
            estimate = sharpness(
                unpack_params(theta, d, k),
                data,
                rel_tol=TELEMETRY_REL_TOL,
                max_iters=config.telemetry_max_iters,
                rng=config.seed,
                v0=top_vector,
            )
            top_vector = estimate.vector
            sharp_events.append((t + 1, estimate.value))

    final_net = unpack_params(theta, d, k)
    final_loss = loss(final_net, data)
    if not np.isfinite(final_loss):
        raise TrainingDivergedError("non-finite loss after the final step")
    return TrainLog(
        net=final_net,
        losses=losses,
        final_loss=final_loss,
        sharpness_events=tuple(sharp_events),
        clip_epochs=tuple(clip_epochs),
    )


def train_log_to_csv(log: TrainLog, path) -> None:
    """Write epoch, loss, sharpness, clipped rows (one per epoch plus a
    final row at epoch == epochs).  Sharpness cells are blank except on
    telemetry epochs; floats are written with full round-trip precision."""
    sharp = dict(log.sharpness_events)
    clipped = set(log.clip_epochs)
    write_csv(
        path,
        ("epoch", "loss", "sharpness", "clipped"),
        (
            (t, loss_val, sharp.get(t, ""), int(t in clipped))
            for t, loss_val in enumerate([*log.losses, log.final_loss])
        ),
    )
