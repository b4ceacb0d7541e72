import numpy as np
import pytest

from starctr.errors import DataError
from starctr.gradcheck import random_examples, tiny_model_config
from starctr.layers import EmbeddingTable, Param, sigmoid
from starctr.model import Batch, build_model
from starctr.optim import Adam, bce_loss
from starctr.tensor import make_rng


class TestBceLoss:
    def test_uniform_prediction_is_ln2(self):
        yhat = np.full(8, 0.5)
        y = np.array([0, 1, 1, 0, 1, 0, 0, 1], dtype=float)
        loss, _ = bce_loss(yhat, y)
        assert loss == pytest.approx(np.log(2.0), abs=1e-12)

    def test_perfect_prediction_loss_vanishes(self):
        y = np.array([0.0, 1.0])
        for eps in (1e-4, 1e-8, 1e-12):
            yhat = np.abs(y - eps)
            loss, _ = bce_loss(yhat, y)
            assert loss < 10 * eps

    def test_gradient_is_sigmoid_ce_identity(self):
        logits = np.array([0.0])
        y = np.array([1.0])
        loss, dlogit = bce_loss(sigmoid(logits), y, logits=logits)
        assert dlogit[0] == pytest.approx(-0.5, abs=1e-15)
        assert loss == pytest.approx(np.log(2.0), abs=1e-12)

    def test_gradient_matches_yhat_minus_y_over_batch(self):
        rng = make_rng(21)
        logits = rng.normal(size=16)
        y = (rng.uniform(size=16) < 0.4).astype(float)
        yhat = sigmoid(logits)
        _, dlogit = bce_loss(yhat, y, logits=logits)
        assert np.allclose(dlogit, (yhat - y) / 16, atol=1e-16)

    def test_logit_and_probability_paths_agree(self):
        rng = make_rng(22)
        logits = rng.normal(size=32)
        y = (rng.uniform(size=32) < 0.5).astype(float)
        loss_l, _ = bce_loss(sigmoid(logits), y, logits=logits)
        loss_p, _ = bce_loss(sigmoid(logits), y)
        assert loss_l == pytest.approx(loss_p, rel=1e-12)

    def test_bad_label_raises(self):
        with pytest.raises(DataError):
            bce_loss(np.array([0.5]), np.array([2.0]))


class TestAdam:
    def test_zero_gradient_is_fixed_point(self):
        p = Param("w", np.array([1.0, -2.0, 3.0]))
        p.grad = np.zeros(3)
        before = p.value.copy()
        Adam().step([p])
        assert np.array_equal(p.value, before)

    def test_none_gradient_skipped_bitwise(self):
        p = Param("w", np.array([0.1, 0.2]))
        before = p.value.copy()
        opt = Adam()
        opt.step([p])
        assert np.array_equal(p.value, before)
        assert "w" not in opt._m

    def test_first_step_moves_by_lr(self):
        p = Param("w", np.array([0.0]))
        p.grad = np.array([1.0])
        Adam(lr=0.001).step([p])
        assert p.value[0] == pytest.approx(-0.001, rel=1e-6)

    def test_scalar_quadratic_convergence(self):
        # Its own oracle: run the optimization and check it lands near 3.
        p = Param("theta", np.array([0.0]))
        opt = Adam(lr=0.05)
        for _ in range(200):
            p.grad = 2.0 * (p.value - 3.0)
            opt.step([p])
        assert abs(p.value[0] - 3.0) < 0.05

    def test_step_counter_increments(self):
        opt = Adam()
        p = Param("w", np.array([1.0]))
        for expected in (1, 2, 3):
            p.grad = np.array([0.5])
            opt.step([p])
            assert opt.t == expected


class TestSparseAdam:
    def test_lazy_equals_dense_for_touched_rows(self):
        rng = make_rng(23)
        table = EmbeddingTable(6, 3, rng=rng, name="e")
        dense = Param("d", table.weights.copy())
        opt_sparse = Adam()
        opt_dense = Adam()
        for step in range(5):
            g = make_rng(step, stream=50).normal(size=(6, 3))
            # every row gets a nonzero gradient each step
            table._grad_dense[:] = g
            table._touched[:] = True
            opt_sparse.step([], [table])
            dense.grad = g.copy()
            opt_dense.step([dense])
            table._grad_dense[:] = 0.0
            table._touched[:] = False
        assert np.allclose(table.weights, dense.value, atol=1e-15)

    def test_untouched_rows_frozen(self):
        rng = make_rng(24)
        table = EmbeddingTable(8, 2, rng=rng, name="e")
        before = table.weights.copy()
        flat = np.array([2, 5], dtype=np.int64)
        offsets = np.array([0, 1, 2], dtype=np.int64)
        table.pool(flat, offsets)
        table.backward(np.ones((2, 2)))
        opt = Adam()
        opt.step([], [table])
        changed = np.any(table.weights != before, axis=1)
        assert set(np.nonzero(changed)[0]) == {2, 5}
        # moments exist only where touched
        assert np.array_equal(np.nonzero(opt._m["e"].any(axis=1))[0], [2, 5])


VARIANTS = [
    ("star", "pn", True),
    ("star", "bn", True),
    ("star", "ln", True),
    ("base", "bn", True),
    ("shared_bottom", "bn", True),
]


@pytest.mark.parametrize("variant,norm,aux", VARIANTS)
def test_loss_decreases_over_100_fullbatch_steps(variant, norm, aux):
    config = tiny_model_config(variant, norm, aux)
    model = build_model(config)
    batch = Batch.from_examples(random_examples(64, config, domain=1, seed=9))
    opt = Adam(lr=0.001)

    def one_step():
        model.zero_grad()
        yhat = model.forward(batch, mode="train")
        loss, dlogits = bce_loss(yhat, batch.y, logits=model.last_forward.logits)
        model.backward(dlogits)
        opt.step(model.params(), model.embedding_tables())
        return loss

    first = one_step()
    last = first
    for _ in range(99):
        last = one_step()
    assert last < first
