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

import csv
from dataclasses import dataclass, field

import numpy as np

from relulab.nets import Dataset, TwoLayerNet, _grad_flat, loss, pack_params, unpack_params
from relulab.numerics import check_finite_fields, check_int_fields, make_rng
from relulab.sharpness import sharpness

__all__ = [
    "TrainConfig",
    "TrainLog",
    "TrainingDivergedError",
    "gd_step_flat",
    "train",
    "train_log_to_csv",
]


class TrainingDivergedError(RuntimeError):
    """Loss or parameters stopped being finite during training."""


@dataclass(frozen=True)
class TrainConfig:
    """Hyperparameters for :func:`train`.

    ``weight_decay`` is the coefficient of the (1/2)||theta||^2 penalty,
    applied through the gradient.  With ``decay_biases`` False the inner and
    outer biases are excluded from the penalty.  ``sharpness_every`` = 0
    disables the eigenvalue telemetry; a positive value records the loss
    Hessian's top eigenvalue after every that-many steps.  ``seed`` feeds
    only the power-iteration starts for that telemetry (the descent itself
    is deterministic), and the telemetry tolerances are looser than the
    defaults used for certificates since the readings feed wide bands.
    """

    eta: float
    epochs: int
    clip_threshold: float = 50.0
    weight_decay: float = 0.0
    decay_biases: bool = True
    seed: int = 0
    sharpness_every: int = 0
    telemetry_rel_tol: float = 1e-6
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
        if self.telemetry_rel_tol <= 0.0 or self.telemetry_max_iters < 1:
            raise ValueError("telemetry tolerances must be positive")


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


def _decay_mask(d: int, k: int, decay_biases: bool) -> np.ndarray:
    mask = np.ones(k * d + 2 * k + 1)
    if not decay_biases:
        mask[k * d : k * d + k] = 0.0  # inner biases
        mask[-1] = 0.0                 # output bias
    return mask


def gd_step_flat(
    theta: np.ndarray,
    x: np.ndarray,
    y: np.ndarray,
    d: int,
    k: int,
    config: TrainConfig,
    decay_mask: np.ndarray | None = None,
):
    """One full-batch step on the flat layout.
    Returns (theta_next, loss_before, clipped).

    ``loss_before`` is the data loss at the incoming ``theta``; the weight
    decay term enters only the update direction.
    """
    grad, loss_val = _grad_flat(theta, x, y, d, k)
    if config.weight_decay > 0.0:
        if decay_mask is None:
            decay_mask = _decay_mask(d, k, config.decay_biases)
        grad = grad + config.weight_decay * (theta * decay_mask)
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
    mask = _decay_mask(d, k, config.decay_biases) if config.weight_decay > 0.0 else None

    losses = np.empty(config.epochs)
    sharp_events = []
    clip_epochs = []
    pi_rng = make_rng(config.seed)

    for t in range(config.epochs):
        theta, loss_val, clipped = gd_step_flat(theta, x, y, d, k, config, mask)
        if not np.isfinite(loss_val) or not np.all(np.isfinite(theta)):
            raise TrainingDivergedError(
                f"non-finite loss or parameters at epoch {t} (eta={config.eta})"
            )
        losses[t] = loss_val
        if clipped:
            clip_epochs.append(t + 1)
        if config.sharpness_every > 0 and (t + 1) % config.sharpness_every == 0:
            current = unpack_params(theta, d, k)
            sharp_events.append(
                (
                    t + 1,
                    sharpness(
                        current,
                        data,
                        rel_tol=config.telemetry_rel_tol,
                        max_iters=config.telemetry_max_iters,
                        rng=pi_rng,
                    ),
                )
            )

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
    epochs = len(log.losses)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["epoch", "loss", "sharpness", "clipped"])
        for t in range(epochs + 1):
            loss_val = log.final_loss if t == epochs else log.losses[t]
            writer.writerow(
                [
                    t,
                    repr(float(loss_val)),
                    repr(float(sharp[t])) if t in sharp else "",
                    int(t in clipped),
                ]
            )
