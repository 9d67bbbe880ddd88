"""Sweep orchestration: dataset synthesis, cell metrics, persistence."""

import dataclasses
import hashlib
import json
import sys
import threading
import time

import numpy as np
import pytest

import relulab
from relulab import harness
from relulab.harness import (
    HOLDOUT_CHANNEL,
    INIT_CHANNEL,
    SWEEP_CSV_COLUMNS,
    TRAIN_DATA_CHANNEL,
    CellFailure,
    RunRecord,
    SchemaMismatchError,
    ShatterConfig,
    SweepConfig,
    SweepResult,
    append_sweep_records,
    cell_rng,
    config_hash,
    make_regression_dataset,
    preset_epochs,
    run_mse_sweep,
    run_shattering_experiment,
    run_single_cell,
    write_manifest,
    write_sweep_csv,
)
from relulab.nets import forward, kaiming_init, loss
from relulab.numerics import loglog_slope, make_rng
from relulab.training import TrainConfig, TrainingDivergedError


class TestRegressionDataset:
    def test_sigma_zero_labels_equal_first_coordinate(self):
        data = make_regression_dataset(make_rng(0), d=3, n=50, sigma=0.0)
        np.testing.assert_array_equal(data.labels, data.inputs[:, 0])

    def test_noise_std_matches_sigma(self):
        # Sample std of y - x_1 estimates sigma with standard error about
        # sigma / sqrt(2 n); allow four of those.
        n, sigma = 100_000, 0.7
        data = make_regression_dataset(make_rng(3), d=3, n=n, sigma=sigma)
        residual_std = np.std(data.labels - data.inputs[:, 0])
        assert abs(residual_std - sigma) < 4.0 * sigma / np.sqrt(2.0 * n)

    def test_gaussian_tail_keeps_labels_bounded(self):
        # P(|noise| > 5 sigma) is about 5.7e-7, so 1e5 draws should produce
        # essentially no exceedances (expected count 0.06).
        data = make_regression_dataset(make_rng(5), d=2, n=100_000, sigma=0.3)
        outliers = np.sum(np.abs(data.labels) > 1.0 + 5.0 * 0.3)
        assert outliers <= 10

    def test_same_seed_reproduces(self):
        a = make_regression_dataset(make_rng(9), d=2, n=20, sigma=1.0)
        b = make_regression_dataset(make_rng(9), d=2, n=20, sigma=1.0)
        np.testing.assert_array_equal(a.inputs, b.inputs)
        np.testing.assert_array_equal(a.labels, b.labels)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            make_regression_dataset(make_rng(0), d=0, n=5, sigma=0.1)
        with pytest.raises(ValueError):
            make_regression_dataset(make_rng(0), d=2, n=5, sigma=-0.1)


class TestEpochPresets:
    def test_flat_preset(self):
        assert preset_epochs("appendix-A1", 0.9) == 20000
        assert preset_epochs("appendix-A1", 0.01) == 20000

    def test_constant_product_preset(self):
        assert preset_epochs("appendix-A2", 0.2) == 50000
        assert preset_epochs("appendix-A2", 0.9) == 11111
        assert preset_epochs("appendix-A2", 0.01) == 1_000_000

    def test_unknown_preset_rejected(self):
        with pytest.raises(ValueError):
            preset_epochs("appendix-A3", 0.1)
        with pytest.raises(ValueError):
            preset_epochs("appendix-A2", 0.0)


class TestConfigHash:
    BASE = dict(
        dims=(1, 2),
        sample_sizes=(8,),
        train=TrainConfig(eta=0.1, epochs=0),
        sigma=0.5,
    )

    def test_output_dir_does_not_affect_hash(self):
        a = SweepConfig(**self.BASE, output_dir=None)
        b = SweepConfig(**self.BASE, output_dir="/tmp/somewhere")
        assert config_hash(a) == config_hash(b)

    def test_science_fields_do_affect_hash(self):
        a = SweepConfig(**self.BASE)
        b = SweepConfig(**{**self.BASE, "sigma": 0.6})
        assert config_hash(a) != config_hash(b)

    def test_hash_is_hex_sha256(self):
        h = config_hash(SweepConfig(**self.BASE))
        assert len(h) == 64
        assert set(h) <= set("0123456789abcdef")

    def test_invalid_configs_rejected(self):
        with pytest.raises(ValueError):
            SweepConfig(dims=(), sample_sizes=(8,), train=TrainConfig(0.1, 1), sigma=0.1)
        with pytest.raises(ValueError):
            SweepConfig(dims=(2,), sample_sizes=(8,), train=TrainConfig(0.1, 1), sigma=-1.0)
        with pytest.raises(ValueError):
            SweepConfig(
                dims=(2,),
                sample_sizes=(8,),
                train=TrainConfig(0.1, 1),
                sigma=0.1,
                mse_mode="holdout",
            )
        with pytest.raises(ValueError, match="repeat"):
            SweepConfig(dims=(1, 1), sample_sizes=(8, 8, 16), train=TrainConfig(0.1, 1), sigma=0.1)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    @pytest.mark.parametrize(
        "make,field",
        [(TrainConfig, f) for f in ("eta", "clip_threshold", "weight_decay", "telemetry_rel_tol")]
        + [(SweepConfig, "sigma")]
        + [
            (ShatterConfig, f)
            for f in (
                "sigma", "eta_large", "eta_decay", "weight_decay", "clip_threshold",
                "telemetry_rel_tol",
            )
        ],
    )
    def test_non_finite_float_fields_rejected(self, make, field, value):
        valid = {TrainConfig: dict(eta=0.1, epochs=1), SweepConfig: self.BASE, ShatterConfig: {}}
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            make(**{**valid[make], field: value})

    @pytest.mark.parametrize(
        "make,field",
        [(TrainConfig, "eta"), (TrainConfig, "weight_decay"), (SweepConfig, "sigma"),
         (ShatterConfig, "eta_large")],
    )
    def test_boolean_float_fields_rejected(self, make, field):
        # True would otherwise run as 1.0 under a config hash of its own.
        valid = {TrainConfig: dict(eta=0.1, epochs=1), SweepConfig: self.BASE, ShatterConfig: {}}
        with pytest.raises(ValueError, match=f"{field} must be a number"):
            make(**{**valid[make], field: True})

    def test_integer_float_fields_stay_integers(self):
        cfg = SweepConfig(**{**self.BASE, "sigma": 1})
        assert cfg.sigma == 1 and isinstance(cfg.sigma, int)

    @pytest.mark.parametrize(
        "make,field",
        [(TrainConfig, "seed"), (SweepConfig, "master_seed"), (ShatterConfig, "master_seed")],
    )
    def test_negative_seed_rejected(self, make, field):
        valid = {TrainConfig: dict(eta=0.1, epochs=1), SweepConfig: self.BASE, ShatterConfig: {}}
        with pytest.raises(ValueError, match=f"{field} must be >= 0"):
            make(**{**valid[make], field: -1})


class TestRunRecordInvariants:
    FIELDS = dict(
        config_hash="abc",
        d=2,
        n=8,
        seed=0,
        width=16,
        final_train_loss=0.1,
        in_sample_mse_vs_f0=0.2,
        holdout_mse_vs_f0=0.3,
        generalization_gap=0.05,
        final_sharpness=4.0,
        median_activation=0.5,
        sparse_neuron_share=0.1,
        dead_neuron_share=0.0,
    )

    def test_finite_metrics_accepted(self):
        RunRecord(**self.FIELDS)

    @pytest.mark.parametrize("bad", ["final_train_loss", "final_sharpness", "generalization_gap"])
    def test_non_finite_metric_rejected(self, bad):
        with pytest.raises(ValueError):
            RunRecord(**{**self.FIELDS, bad: float("nan")})


def _smoke_config(**overrides):
    base = dict(
        dims=(2,),
        sample_sizes=(8,),
        train=TrainConfig(eta=0.1, epochs=0),
        sigma=0.5,
        seeds_per_cell=1,
        width_rule=2,
        holdout_size=32,
        master_seed=11,
    )
    base.update(overrides)
    return SweepConfig(**base)


class TestSweep:
    def test_zero_epoch_record_matches_untrained_network(self):
        # With epochs = 0 every metric is computable from the initial net,
        # which we rebuild here from the same derived streams.
        cfg = _smoke_config()
        result = run_mse_sweep(cfg)
        assert len(result.records) == 1
        rec = result.records[0]
        assert rec.width == 16
        assert rec.config_hash == config_hash(cfg)

        data = make_regression_dataset(cell_rng(11, 2, 8, 0, TRAIN_DATA_CHANNEL), 2, 8, 0.5)
        net0 = kaiming_init(cell_rng(11, 2, 8, 0, INIT_CHANNEL), 2, 16)
        expected = np.mean((forward(net0, data.inputs) - data.inputs[:, 0]) ** 2)
        assert rec.in_sample_mse_vs_f0 == expected
        assert rec.final_train_loss == loss(net0, data)
        # The holdout comes from the same generative process on its own stream;
        # the gap compares its noisy-label risk with the training MSE.
        holdout = make_regression_dataset(cell_rng(11, 2, 8, 0, HOLDOUT_CHANNEL), 2, 32, 0.5)
        predictions = forward(net0, holdout.inputs)
        assert rec.holdout_mse_vs_f0 == np.mean((predictions - holdout.inputs[:, 0]) ** 2)
        risk_out = np.mean((predictions - holdout.labels) ** 2)
        assert rec.generalization_gap == abs(risk_out - 2.0 * loss(net0, data))

    def test_single_cell_matches_sweep(self):
        cfg = _smoke_config()
        assert run_single_cell(cfg, 2, 8, 0) == run_mse_sweep(cfg).records[0]

    def test_medians_over_seeds(self):
        cfg = _smoke_config(seeds_per_cell=3)
        result = run_mse_sweep(cfg)
        values = [r.in_sample_mse_vs_f0 for r in result.records]
        assert result.medians[(2, 8)]["in_sample_mse_vs_f0"] == np.median(values)

    def test_slope_requires_two_cells(self):
        result = run_mse_sweep(_smoke_config())
        assert result.slopes["in_sample_vs_f0"][2] is None

    def test_slope_matches_direct_fit_of_medians(self):
        cfg = _smoke_config(sample_sizes=(8, 16, 32))
        result = run_mse_sweep(cfg)
        points = [(n, result.medians[(2, n)]["holdout_mse_vs_f0"]) for n in (8, 16, 32)]
        expected, _ = loglog_slope(points)
        assert result.slopes["holdout_vs_f0"][2] == expected

    def test_mse_mode_selects_slope_tables(self):
        result = run_mse_sweep(_smoke_config(mse_mode="in_sample_vs_f0"))
        assert set(result.slopes) == {"in_sample_vs_f0"}
        both = run_mse_sweep(_smoke_config(mse_mode="both"))
        assert set(both.slopes) == {"in_sample_vs_f0", "holdout_vs_f0"}

    def test_thread_pool_reproduces_serial_results(self, tmp_path):
        names = ("sweep.csv", "failures.csv", "slopes.json", "manifest.json")
        results, blobs = [], []
        for threads in (1, 3):
            out = tmp_path / f"threads-{threads}"
            cfg = _smoke_config(
                dims=(1, 2),
                sample_sizes=(8, 16),
                seeds_per_cell=2,
                train=TrainConfig(eta=0.1, epochs=3),
                output_dir=str(out),
            )
            results.append(run_mse_sweep(cfg, threads=threads))
            blobs.append({name: (out / name).read_bytes() for name in names})
        serial, pooled = results
        assert serial.records == pooled.records
        assert serial.slopes == pooled.slopes
        assert blobs[0] == blobs[1]

    @staticmethod
    def _record_pool_sizes(monkeypatch):
        sizes = []

        class Recording(harness.ThreadPoolExecutor):
            def __init__(self, max_workers):
                sizes.append(max_workers)
                super().__init__(max_workers)

        monkeypatch.setattr(harness, "ThreadPoolExecutor", Recording)
        return sizes

    def test_pool_defaults_to_one_worker_per_usable_core(self, monkeypatch):
        sizes = self._record_pool_sizes(monkeypatch)
        # A stand-in thread-count API, so the default is the pinned one on
        # any BLAS build.
        monkeypatch.setattr(harness, "_openblas", lambda: (lambda: 1, lambda count: None))
        run_mse_sweep(_smoke_config())
        assert sizes == [harness.usable_cores()]
        with pytest.raises(ValueError, match="threads"):
            run_mse_sweep(_smoke_config(), threads=0)

    def test_pool_defaults_to_one_worker_where_blas_cannot_be_pinned(self, monkeypatch):
        sizes = self._record_pool_sizes(monkeypatch)
        monkeypatch.setattr(harness, "_openblas", lambda: None)
        run_mse_sweep(_smoke_config())
        run_mse_sweep(_smoke_config(), threads=2)
        assert sizes == [1, 2]

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_recorded_and_sweep_continues(self):
        cfg = _smoke_config(
            dims=(1,),
            sample_sizes=(4, 8),
            train=TrainConfig(eta=1e150, epochs=3, clip_threshold=1e300),
        )
        result = run_mse_sweep(cfg)
        assert result.records == ()
        assert len(result.failures) == 2
        assert isinstance(result.failures[0], CellFailure)
        assert result.slopes["in_sample_vs_f0"][1] is None
        assert result.slopes["holdout_vs_f0"][1] is None

    def test_persisted_bytes_are_reproducible(self, tmp_path):
        names = ("sweep.csv", "failures.csv", "slopes.json", "manifest.json")
        blobs = []
        for sub in ("a", "b"):
            out = tmp_path / sub
            run_mse_sweep(_smoke_config(sample_sizes=(8, 16), output_dir=str(out)))
            blobs.append({name: (out / name).read_bytes() for name in names})
        assert blobs[0] == blobs[1]

    def test_csv_roundtrips_metrics_exactly(self, tmp_path):
        out = tmp_path / "run"
        result = run_mse_sweep(_smoke_config(output_dir=str(out)))
        lines = (out / "sweep.csv").read_text().strip().splitlines()
        assert lines[0] == ",".join(SWEEP_CSV_COLUMNS)
        row = lines[1].split(",")
        rec = result.records[0]
        assert float(row[SWEEP_CSV_COLUMNS.index("in_sample_mse_vs_f0")]) == rec.in_sample_mse_vs_f0
        assert float(row[SWEEP_CSV_COLUMNS.index("final_sharpness")]) == rec.final_sharpness

    def test_manifest_lists_file_hashes_and_versions(self, tmp_path):
        out = tmp_path / "run"
        run_mse_sweep(_smoke_config(output_dir=str(out)))
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config_sha256"] == config_hash(_smoke_config())
        assert set(manifest["files"]) == {"sweep.csv", "failures.csv", "slopes.json"}
        digest = hashlib.sha256((out / "sweep.csv").read_bytes()).hexdigest()
        assert manifest["files"]["sweep.csv"] == digest
        assert manifest["versions"]["numpy"] == np.__version__

    def test_manifest_records_the_running_relulab_version(self, tmp_path):
        """The version comes from the imported package, not installed metadata,
        so a manifest is written from a plain checkout as well."""
        (tmp_path / "data.txt").write_text("x\n")
        path = write_manifest(str(tmp_path), {"k": 1}, ["data.txt"])
        with open(path) as fh:
            manifest = json.load(fh)
        assert manifest["versions"]["relulab"] == relulab.__version__


class TestSweepCsvSchema:
    def _record(self, seed):
        return RunRecord(**{**TestRunRecordInvariants.FIELDS, "seed": seed})

    def test_append_extends_existing_file(self, tmp_path):
        path = tmp_path / "sweep.csv"
        write_sweep_csv(path, [self._record(0)])
        append_sweep_records(path, [self._record(1)])
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 3
        assert lines[0] == ",".join(SWEEP_CSV_COLUMNS)

    def test_append_creates_missing_file(self, tmp_path):
        path = tmp_path / "fresh.csv"
        append_sweep_records(path, [self._record(0)])
        assert path.read_text().startswith(",".join(SWEEP_CSV_COLUMNS))

    def test_append_rejects_foreign_header(self, tmp_path):
        path = tmp_path / "other.csv"
        path.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(SchemaMismatchError):
            append_sweep_records(path, [self._record(0)])

    def test_numpy_scalars_are_written_as_plain_numbers(self, tmp_path):
        """A metric computed by numpy must read back: ``0.25``, not
        ``np.float64(0.25)``."""
        numpy_fields = {"d": np.int64(3), "final_train_loss": np.float64(0.25)}
        record = RunRecord(**{**TestRunRecordInvariants.FIELDS, **numpy_fields})
        failure = CellFailure(d=np.int64(3), n=np.int64(8), seed=np.int64(1), error="diverged")
        result = SweepResult(records=(record,), failures=(failure,), medians={}, slopes={})
        harness._persist_sweep(_smoke_config(output_dir=str(tmp_path)), result)
        row = (tmp_path / "sweep.csv").read_text().splitlines()[1].split(",")
        assert row[SWEEP_CSV_COLUMNS.index("d")] == "3"
        assert row[SWEEP_CSV_COLUMNS.index("final_train_loss")] == "0.25"
        assert (tmp_path / "failures.csv").read_text().splitlines()[1] == "3,8,1,diverged"


class TestShatteringExperiment:
    SMALL = dict(d=2, n=8, width=8, sigma=1.0, master_seed=3)

    def test_zero_epochs_arms_share_data_and_init(self):
        result = run_shattering_experiment(ShatterConfig(epochs=0, **self.SMALL))
        a, b = result.large_step, result.weight_decay
        assert a.config_hash != b.config_hash
        for field in dataclasses.fields(RunRecord):
            if field.name == "config_hash":
                continue
            assert getattr(a, field.name) == getattr(b, field.name)

    def test_each_arm_is_the_matching_sweep_cell(self):
        cfg = ShatterConfig(epochs=5, **self.SMALL)
        result = run_shattering_experiment(cfg)
        for arm, train_cfg in zip(("large_step", "weight_decay"), cfg.train_configs()):
            cell = SweepConfig(
                dims=(cfg.d,),
                sample_sizes=(cfg.n,),
                train=train_cfg,
                sigma=cfg.sigma,
                seeds_per_cell=1,
                width_rule=cfg.width // cfg.n,
                holdout_size=10_000,
                master_seed=cfg.master_seed,
            )
            record = run_single_cell(cell, cfg.d, cfg.n, 0)
            expected = dataclasses.replace(getattr(result, arm), config_hash=record.config_hash)
            assert record == expected

    def test_trained_arms_differ(self):
        result = run_shattering_experiment(ShatterConfig(epochs=5, **self.SMALL))
        assert result.large_step.final_train_loss != result.weight_decay.final_train_loss
        assert result.large_step_stats.width == 8

    def test_persisted_artifacts_and_manifest(self, tmp_path):
        out = tmp_path / "shatter"
        cfg = ShatterConfig(epochs=2, output_dir=str(out), **self.SMALL)
        result = run_shattering_experiment(cfg)
        expected = {
            "scatter_large_step.csv",
            "scatter_weight_decay.csv",
            "training_log_large_step.csv",
            "training_log_weight_decay.csv",
            "records.json",
            "manifest.json",
        }
        assert {p.name for p in out.iterdir()} == expected
        records = json.loads((out / "records.json").read_text())
        assert records["large_step"]["final_train_loss"] == result.large_step.final_train_loss
        manifest = json.loads((out / "manifest.json").read_text())
        digest = hashlib.sha256((out / "records.json").read_bytes()).hexdigest()
        assert manifest["files"]["records.json"] == digest

    def test_rerun_reproduces_bytes(self, tmp_path):
        blobs = []
        for sub in ("a", "b"):
            out = tmp_path / sub
            run_shattering_experiment(ShatterConfig(epochs=2, output_dir=str(out), **self.SMALL))
            blobs.append({p.name: p.read_bytes() for p in out.iterdir()})
        assert blobs[0] == blobs[1]

    def test_side_by_side_arms_enter_train_in_order_and_match_serial_cells(self, monkeypatch):
        # The golden shatter shape.  The wrapper sits where a benchmark's
        # timing probe would: on the module global, recording each entry.
        cfg = ShatterConfig(d=3, n=100, width=200, epochs=200, master_seed=1)
        entered = []
        original = harness.train

        def recording_train(net, data, config):
            entered.append(config)
            return original(net, data, config)

        monkeypatch.setattr(harness, "train", recording_train)
        result = run_shattering_experiment(cfg)
        monkeypatch.undo()
        assert entered == list(cfg.train_configs())
        for arm, train_cfg in zip(("large_step", "weight_decay"), cfg.train_configs()):
            record, log, _, stats = harness._run_cell(
                config_hash({**cfg.as_dict(), "arm": arm}),
                cfg.master_seed, cfg.d, cfg.n, 0, cfg.width, cfg.sigma, train_cfg, 10_000,
            )
            assert getattr(result, arm) == record
            assert np.array_equal(getattr(result, f"{arm}_log").losses, log.losses)
            pooled_stats = getattr(result, f"{arm}_stats")
            for field in dataclasses.fields(stats):
                assert np.array_equal(getattr(pooled_stats, field.name), getattr(stats, field.name))

    def test_arms_train_in_the_calling_thread_where_blas_cannot_be_pinned(self, monkeypatch):
        cfg = ShatterConfig(epochs=2, **self.SMALL)
        pinned = run_shattering_experiment(cfg)
        calls = []
        original = harness.train

        def recording_train(net, data, config):
            calls.append((threading.get_ident(), config))
            return original(net, data, config)

        monkeypatch.setattr(harness, "train", recording_train)
        monkeypatch.setattr(harness, "_openblas", lambda: None)
        result = run_shattering_experiment(cfg)
        assert calls == [(threading.get_ident(), c) for c in cfg.train_configs()]
        assert (result.large_step, result.weight_decay) == (pinned.large_step, pinned.weight_decay)


@pytest.mark.skipif(harness._openblas() is None, reason="numpy's bundled OpenBLAS not found")
class TestBlasPin:
    """Both drivers hold OpenBLAS to one thread and put the count back."""

    def _threads_seen_in_train(self, monkeypatch):
        seen = []
        original = harness.train

        def recording_train(net, data, config):
            seen.append(harness._openblas()[0]())
            return original(net, data, config)

        monkeypatch.setattr(harness, "train", recording_train)
        return seen

    def test_sweep_pins_one_thread_and_restores(self, monkeypatch):
        get = harness._openblas()[0]
        before = get()
        seen = self._threads_seen_in_train(monkeypatch)
        run_mse_sweep(_smoke_config(seeds_per_cell=2), threads=2)
        assert seen == [1, 1]
        assert get() == before

    def test_single_cell_pins_one_thread_and_restores(self, monkeypatch):
        get = harness._openblas()[0]
        before = get()
        seen = self._threads_seen_in_train(monkeypatch)
        run_single_cell(_smoke_config(), 2, 8, 0)
        assert seen == [1]
        assert get() == before

    def test_shatter_pins_one_thread_and_restores(self, monkeypatch):
        get = harness._openblas()[0]
        before = get()
        seen = self._threads_seen_in_train(monkeypatch)
        run_shattering_experiment(ShatterConfig(epochs=2, **TestShatteringExperiment.SMALL))
        assert seen == [1, 1]
        assert get() == before

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_count_restored_after_a_diverging_arm_raises(self):
        get = harness._openblas()[0]
        before = get()
        cfg = ShatterConfig(
            epochs=3, eta_large=1e150, clip_threshold=1e300, **TestShatteringExperiment.SMALL
        )
        with pytest.raises(TrainingDivergedError):
            run_shattering_experiment(cfg)
        assert get() == before

    def test_concurrent_pins_restore_once(self):
        # More pinning threads than cores, switching as often as the
        # interpreter allows; a lost update to the shared pin count would
        # leave BLAS at one thread or restore it while a pin is still open.
        get = harness._openblas()[0]
        before = get()
        inside = []

        def pin_often():
            for _ in range(200):
                with harness._one_blas_thread():
                    time.sleep(0)  # let another thread pin or unpin here
                    inside.append(get())

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            workers = [threading.Thread(target=pin_often) for _ in range(8)]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(worker.is_alive() for worker in workers)
        assert inside == [1] * 1600
        assert get() == before

    def test_nested_pins_restore_once(self):
        get = harness._openblas()[0]
        before = get()
        with harness._one_blas_thread():
            with harness._one_blas_thread():
                assert get() == 1
            assert get() == 1
        assert get() == before
