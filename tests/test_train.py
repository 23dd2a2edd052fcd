"""Optimizer, schedule, loss and training-loop tests."""

import importlib.util
import math
from pathlib import Path

import numpy as np
import pytest

from ctmar.model import ModelConfig, build_model, preset, save_checkpoint
from ctmar.simulate import make_dataset
from ctmar.tensor import Tensor, finite_diff_grad, tmean
from ctmar.train import (
    ADAM_BETAS,
    ADAM_EPS,
    Adam,
    TrainConfig,
    TrainingDiverged,
    cosine_lr,
    denormalize,
    evaluate,
    gradient_check,
    l1_loss,
    load_split,
    normalize,
    restore_slice,
    train,
)

TINY_MODEL = ModelConfig(base_channels=8, num_blocks=(1, 1, 1, 1), num_heads=(1, 1, 1, 1))


class TestAdam:
    def test_first_step_unit_gradient(self):
        w = Tensor(np.array([1.0]), requires_grad=True)
        w.grad = np.array([1.0])
        opt = Adam([w])
        opt.step(lr=0.1)
        assert w.data[0] == pytest.approx(0.9, abs=1e-7)

    def test_zero_gradient_is_fixed_point(self):
        w = Tensor(np.array([2.5, -1.0]), requires_grad=True)
        w.grad = np.zeros(2)
        opt = Adam([w])
        for _ in range(5):
            opt.step(lr=0.1)
        np.testing.assert_array_equal(w.data, [2.5, -1.0])

    def test_three_step_trace_matches_reference(self):
        (beta1, beta2), eps, lr = ADAM_BETAS, ADAM_EPS, 0.1
        w = Tensor(np.array([1.0]), requires_grad=True)
        opt = Adam([w])

        # independent scalar trace of f(w) = w^2
        w_ref, m_ref, v_ref = 1.0, 0.0, 0.0
        for t in range(1, 4):
            g = 2.0 * w_ref
            m_ref = beta1 * m_ref + (1 - beta1) * g
            v_ref = beta2 * v_ref + (1 - beta2) * g * g
            w_ref -= lr * (m_ref / (1 - beta1 ** t)) / (
                math.sqrt(v_ref / (1 - beta2 ** t)) + eps)

            loss = tmean(w * w)
            opt.zero_grad()
            loss.backward()
            opt.step(lr)
        assert w.data[0] == pytest.approx(w_ref, abs=1e-12)

    def test_shape_mismatch_rejected(self):
        w = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        w.grad = np.zeros(3)
        with pytest.raises(ValueError):
            Adam([w]).step(0.1)


class TestTrainConfig:
    def test_rate_bounds_validated(self):
        with pytest.raises(ValueError):
            TrainConfig(lr_min=1e-3, lr_max=1e-3)
        with pytest.raises(ValueError):
            TrainConfig(batch_size=0)


class TestCosineSchedule:
    def test_endpoints(self):
        assert cosine_lr(0.0) == pytest.approx(1e-3)
        assert cosine_lr(1.0) == pytest.approx(1e-7)

    def test_midpoint(self):
        assert cosine_lr(0.5) == pytest.approx(5.0005e-4, rel=1e-9)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            cosine_lr(1.5)

    def test_two_identical_cycles_over_60_epochs(self):
        period = 30
        trace = [cosine_lr((epoch % period) / period) for epoch in range(60)]
        assert trace[:30] == trace[30:]
        assert trace[0] == pytest.approx(1e-3)
        assert min(trace) < 2e-7 * 60  # tail approaches lr_min


class TestL1Loss:
    def test_identical(self):
        x = Tensor(np.array([1.0, 2.0]))
        assert l1_loss(x, x).item() == 0.0

    def test_hand_sum(self):
        assert l1_loss(Tensor(np.array([1.0, 3.0])),
                       Tensor(np.array([0.0, 0.0]))).item() == pytest.approx(2.0)

    def test_gradient_is_sign_over_n(self):
        pred = Tensor(np.array([2.0, -1.0, 5.0, 3.0]), requires_grad=True)
        target = Tensor(np.array([1.0, 1.0, 5.5, 3.0]))
        l1_loss(pred, target).backward()
        np.testing.assert_allclose(pred.grad, [0.25, -0.25, -0.25, 0.0])

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(0)
        target = rng.normal(size=5)
        start = target + rng.choice([-1.0, 1.0], size=5) * rng.uniform(0.5, 1.0, 5)
        pred = Tensor(start.copy(), requires_grad=True)
        l1_loss(pred, Tensor(target)).backward()
        fd = finite_diff_grad(lambda t: l1_loss(t, Tensor(target)), Tensor(start), h=1e-6)
        np.testing.assert_allclose(pred.grad, fd, rtol=1e-6)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            l1_loss(Tensor(np.zeros(3)), Tensor(np.zeros(4)))


class TestNormalization:
    def test_roundtrip_bit_exact(self):
        rng = np.random.default_rng(7)
        hu = (rng.random((16, 16)).astype(np.float32) * 3800.0 - 1000.0)
        back = denormalize(normalize(hu))
        np.testing.assert_array_equal(back, hu)


@pytest.fixture(scope="module")
def tiny_dataset(tmp_path_factory):
    out = tmp_path_factory.mktemp("data") / "ds"
    make_dataset(4, 32, seed=5, out_dir=out)
    return out


class TestTrainLoop:
    def test_zero_epochs_returns_identity_model(self, tiny_dataset):
        model = build_model(TINY_MODEL, seed=2)
        cfg = TrainConfig(epochs=0)
        model, curve = train(model, tiny_dataset, cfg)
        assert curve == []
        x = Tensor(np.random.default_rng(0).normal(size=(1, 16, 16)).astype(np.float32))
        np.testing.assert_array_equal(model.forward(x).data, x.data)

    def test_loss_decreases_on_short_run(self, tiny_dataset):
        model = build_model(TINY_MODEL, seed=2)
        cfg = TrainConfig(epochs=15, batch_size=3, seed=1)
        _, curve = train(model, tiny_dataset, cfg)
        first = np.mean([p.loss for p in curve[:3]])
        last = np.mean([p.loss for p in curve[-3:]])
        assert last < first

    def test_reproducible_bit_exact(self, tiny_dataset):
        runs = []
        for _ in range(2):
            model = build_model(TINY_MODEL, seed=3)
            _, curve = train(model, tiny_dataset, TrainConfig(epochs=2, seed=4))
            runs.append(([p.loss for p in curve],
                         {n: t.data.copy() for n, t in model.named_params()}))
        assert runs[0][0] == runs[1][0]
        for name in runs[0][1]:
            np.testing.assert_array_equal(runs[0][1][name], runs[1][1][name])

    def test_max_steps_cap(self, tiny_dataset):
        model = build_model(TINY_MODEL, seed=2)
        _, curve = train(model, tiny_dataset, TrainConfig(epochs=50, max_steps=5))
        assert len(curve) == 5

    def test_lr_trace_follows_restart_schedule(self, tiny_dataset):
        model = build_model(TINY_MODEL, seed=2)
        cfg = TrainConfig(epochs=4, restart_period=2, batch_size=4, seed=0)
        _, curve = train(model, tiny_dataset, cfg)
        lrs = [p.lr for p in curve]
        assert lrs[:2] == lrs[2:4]          # two identical cycles
        assert lrs[0] == pytest.approx(1e-3)

    def test_nan_loss_aborts_with_diagnostic(self, tiny_dataset):
        model = build_model(TINY_MODEL, seed=2)
        model.intro.weight.data[:] = np.nan
        with pytest.raises(TrainingDiverged, match="step 0"):
            train(model, tiny_dataset, TrainConfig(epochs=1))

    def test_outputs_written(self, tiny_dataset, tmp_path):
        model = build_model(TINY_MODEL, seed=2)
        out = tmp_path / "run"
        train(model, tiny_dataset, TrainConfig(epochs=1), out_dir=out)
        assert (out / "loss_curve.csv").exists()
        assert (out / "model_final.mckp").exists()
        assert (out / "model_last.mckp").exists()
        header = (out / "loss_curve.csv").read_text().splitlines()[0]
        assert header == "step,epoch,lr,loss"


class TestEvaluate:
    def test_identity_model_reports_input_quality(self, tiny_dataset):
        model = build_model(TINY_MODEL, seed=2)
        report = evaluate(model, tiny_dataset, split="train")
        assert len(report.rows) >= 1
        for _, p, s in report.rows:
            assert 0 < p < 100.0
            assert -1.0 <= s <= 1.0

    def test_missing_split_rejected(self, tiny_dataset, tmp_path):
        model = build_model(TINY_MODEL, seed=2)
        with pytest.raises(ValueError):
            evaluate(model, tiny_dataset, split="nope")

    def test_restore_matches_independent_reference(self, tiny_dataset, tmp_path):
        """A preset-T restore agrees with the benchmark's f64 forward, which
        shares no code with ctmar, within the benchmark's own bound."""
        spec = importlib.util.spec_from_file_location(
            "perfbench_reference", Path(__file__).parents[1] / "perfbench" / "reference.py")
        reference = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(reference)

        model = build_model(preset("T"), seed=4)
        rng = np.random.default_rng(9)
        head = model.outro.weight          # zero at init, which would restore x to x
        bound = 1.0 / math.sqrt(head.data[0].size)
        head.data = rng.uniform(-bound, bound, size=head.shape).astype(np.float32)
        model.outro.bias.data = rng.uniform(-bound, bound, size=1).astype(np.float32)
        save_checkpoint(model, tmp_path / "t.mckp")
        config, params = reference.read_mckp(tmp_path / "t.mckp")

        _, ma, _ = load_split(tiny_dataset, "train")[0]
        got = restore_slice(model, ma)
        want = reference.restore_reference(config, params, ma)
        scale = float(np.max(np.abs(want - ma)))
        assert scale > 0
        assert float(np.max(np.abs(got - want))) <= 1e-4 * scale


class TestGradientCheckHarness:
    def test_small_sample_run(self):
        result = gradient_check(seed=1, n_samples=6)
        assert result["n_samples"] == 6
        assert result["max_rel_error"] < 1e-4
