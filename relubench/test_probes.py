"""The recording wrappers see every call across the layer boundaries and
leave relulab as they found it."""

from __future__ import annotations

import numpy as np

import relulab
from relulab import harness

import probes


def test_layer_spans_count_the_work_and_are_removed_after():
    originals = {(m, a): getattr(m, a) for m, a, _, _ in probes.LAYER_TARGETS}
    cfg = relulab.SweepConfig(
        dims=(2,), sample_sizes=(16,), train=relulab.TrainConfig(eta=0.1, epochs=30), sigma=0.5,
        seeds_per_cell=1, holdout_size=100,
    )
    recorder = probes.Recorder()
    with probes.installed(recorder, probes.LAYER_TARGETS):
        harness.run_single_cell(cfg, 2, 16, 0)
    assert {(m, a): getattr(m, a) for m, a, _, _ in probes.LAYER_TARGETS} == originals

    (cell,) = recorder.named("harness.cell")
    (train,) = recorder.named("training.train")
    assert train.parent is cell
    assert len(recorder.named("training.step")) == 30
    (estimate,) = recorder.named("numerics.power_iteration")
    hvps = recorder.named("sharpness.hvp")
    assert hvps and all(h.parent is estimate for h in hvps)
    # The warm-up products are the HVPs the iteration count leaves out.
    assert estimate.info.iterations < len(hvps)
    # In-sample and holdout forward passes from the harness, one from nets.loss.
    assert len(recorder.named("nets.forward")) == 3
    width = cfg.width_rule * 16
    assert recorder.largest["nets.forward"][0] == 100 * width
    assert recorder.largest["training.step"][0] == 16 * width


def test_allocation_peak_sees_numpy_buffers():
    assert probes.alloc_peak_mib(lambda: np.ones((1024, 1024)).sum()) >= 7.9
