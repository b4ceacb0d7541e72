import re
from dataclasses import replace

import numpy as np
import pytest

from starctr.errors import ContractViolation, DataError, DomainError
from starctr.gradcheck import random_examples, tiny_model_config
from starctr.layers import Arena, EmbeddingTable, Param
from starctr.model import build_model
from starctr.optim import Adam, bce_loss
from starctr.tensor import make_rng, sigmoid
from starctr.train import train_step

from reference_kernels import ReferenceAdam, arena_slice


class TestBceLoss:
    def test_uniform_prediction_is_ln2(self):
        y = np.array([0, 1, 1, 0, 1, 0, 0, 1], dtype=float)
        loss, _ = bce_loss(np.zeros(8), y)
        assert loss == pytest.approx(np.log(2.0), abs=1e-12)

    def test_perfect_prediction_loss_vanishes(self):
        y = np.array([0.0, 1.0])
        for margin in (10.0, 20.0, 30.0):
            loss, _ = bce_loss(np.where(y == 1.0, margin, -margin), y)
            assert loss < 10 * np.exp(-margin)

    def test_extreme_logits_stay_finite(self):
        y = np.array([0.0, 1.0, 0.0, 1.0])
        loss, dlogit = bce_loss(np.array([-800.0, 800.0, 800.0, -800.0]), y)
        assert loss == pytest.approx(400.0, rel=1e-12)
        assert np.array_equal(dlogit, np.array([0.0, 0.0, 0.25, -0.25]))

    def test_gradient_is_sigmoid_ce_identity(self):
        loss, dlogit = bce_loss(np.array([0.0]), np.array([1.0]))
        assert dlogit[0] == pytest.approx(-0.5, abs=1e-15)
        assert loss == pytest.approx(np.log(2.0), abs=1e-12)

    def test_gradient_matches_yhat_minus_y_over_batch(self):
        rng = make_rng(21)
        logits = rng.normal(size=16)
        y = (rng.uniform(size=16) < 0.4).astype(float)
        _, dlogit = bce_loss(logits, y)
        assert np.allclose(dlogit, (sigmoid(logits) - y) / 16, atol=1e-16)

    def test_loss_matches_probability_form(self):
        rng = make_rng(22)
        logits = rng.normal(size=32)
        y = (rng.uniform(size=32) < 0.5).astype(float)
        yhat = sigmoid(logits)
        expected = -(y * np.log(yhat) + (1.0 - y) * np.log1p(-yhat)).mean()
        assert bce_loss(logits, y)[0] == pytest.approx(expected, rel=1e-12)

    def test_bad_label_raises(self):
        for label in (2.0, 0.5, np.nan):
            message = f"label {np.float64(label)!r} outside {{0, 1}}"
            with pytest.raises(DataError, match=re.escape(message)):
                bce_loss(np.array([0.0, 0.0]), np.array([1.0, label]))


def param_and_adam(value, **kwargs):
    """A Param ``w`` in an arena of its own, and an Adam over that arena."""
    p = Param("w", np.array(value, dtype=np.float64))
    return p, Adam(Arena([p]), **kwargs)


def step_shared(opt):
    opt.step([opt.arena.shared])


class TestAdam:
    def test_zero_gradient_is_fixed_point(self):
        p, opt = param_and_adam([1.0, -2.0, 3.0])
        before = p.value.copy()
        step_shared(opt)
        assert np.array_equal(p.value, before)

    def test_untouched_param_skipped_bitwise(self):
        """A param outside the stepped spans keeps its value and moments,
        whatever its gradient."""
        shared = Param("s", np.array([0.1, 0.2]))
        domain = Param("d", np.array([0.3, 0.4]))
        opt = Adam(Arena([shared], [[domain]]))
        shared.grad[...] = domain.grad[...] = [0.5, -0.5]
        step_shared(opt)
        assert (shared.value != [0.1, 0.2]).all()
        assert np.array_equal(domain.value, [0.3, 0.4])
        assert not opt.m[2:].any() and not opt.v[2:].any()

    def test_moments_span_the_arena(self):
        model = build_model(tiny_model_config())
        opt = Adam(model.arena)
        assert opt.m.shape == opt.v.shape == (model.arena.size,)
        assert opt.t == 0 and not opt.m.any() and not opt.v.any()

    def test_first_step_moves_by_lr(self):
        p, opt = param_and_adam([0.0], lr=0.001)
        p.grad[...] = [1.0]
        step_shared(opt)
        assert p.value[0] == pytest.approx(-0.001, rel=1e-6)

    def test_scalar_quadratic_convergence(self):
        # Its own oracle: run the optimization and check it lands near 3.
        p, opt = param_and_adam([0.0], lr=0.05)
        for _ in range(200):
            p.grad[...] = 2.0 * (p.value - 3.0)
            step_shared(opt)
        assert abs(p.value[0] - 3.0) < 0.05

    def test_step_counter_increments(self):
        p, opt = param_and_adam([1.0])
        for expected in (1, 2, 3):
            p.grad[...] = [0.5]
            step_shared(opt)
            assert opt.t == expected

    def test_span_outside_the_dense_values_rejected(self):
        """A span past the dense values would step a table's rows densely,
        or be cut short by numpy without a word."""
        table = EmbeddingTable(2, 1, rng=make_rng(0), name="e")
        p = Param("w", np.array([1.0]))
        opt = Adam(Arena([p], [], [table]))
        with pytest.raises(ContractViolation, match="leave the arena's dense"):
            opt.step([slice(0, 2)], [table])
        assert opt.t == 0

    def test_overlapping_spans_rejected(self):
        """Overlapping or descending spans would step a value twice."""
        p, opt = param_and_adam([1.0, 2.0, 3.0])
        for spans in ([slice(0, 2), slice(1, 3)], [slice(2, 3), slice(0, 1)]):
            with pytest.raises(ContractViolation, match="spans overlap"):
                opt.step(spans)
        assert opt.t == 0

    def test_domain_spans_are_the_domains_params(self):
        model = build_model(replace(tiny_model_config(), num_domains=3))
        arena = model.arena
        for p in range(1, 4):
            stepped = np.zeros(arena.size, dtype=bool)
            for span in arena.spans(p):
                stepped[span] = True
            expected = np.zeros(arena.size, dtype=bool)
            for q in step_params(model, p):
                expected[arena_slice(arena, q.value)] = True
            assert np.array_equal(stepped, expected)
        for p in (0, 4):
            with pytest.raises(DomainError):
                arena.spans(p)

    def test_tables_must_be_the_arenas(self):
        model = build_model(tiny_model_config())
        with pytest.raises(ContractViolation, match="every embedding table"):
            Adam(model.arena).step(model.arena.spans(1),
                                   model.embedding_tables()[:2])

    def test_a_table_listed_twice_rejected(self):
        """A list of the arena's length that repeats one table and drops
        another would step the repeated rows once and skip the dropped."""
        model = build_model(tiny_model_config())
        tables = model.embedding_tables()
        with pytest.raises(ContractViolation, match="every embedding table"):
            Adam(model.arena).step(model.arena.spans(1),
                                   [tables[0]] + tables[:1] + tables[2:])


class TestSparseAdam:
    def test_lazy_equals_dense_for_touched_rows(self):
        rng = make_rng(23)
        table = EmbeddingTable(6, 3, rng=rng, name="e")
        dense, opt_dense = param_and_adam(table.weights.copy())
        opt_sparse = Adam(Arena([], [], [table]))
        for step in range(5):
            g = make_rng(step, stream=50).normal(size=(6, 3))
            # every row gets a nonzero gradient each step
            table.grad[:] = g
            table.grad_rows = np.arange(6)
            opt_sparse.step([], [table])
            dense.grad[...] = g
            step_shared(opt_dense)
            opt_sparse.arena.zero_grad()
        assert np.allclose(table.weights, dense.value, atol=1e-15)

    def test_untouched_rows_frozen(self):
        rng = make_rng(24)
        table = EmbeddingTable(8, 2, rng=rng, name="e")
        opt = Adam(Arena([], [], [table]))
        before = table.weights.copy()
        flat = np.array([2, 5], dtype=np.int64)
        offsets = np.array([0, 1, 2], dtype=np.int64)
        table.pool(flat, offsets)
        table.backward(np.ones((2, 2)))
        opt.step([], [table])
        changed = np.any(table.weights != before, axis=1)
        assert set(np.nonzero(changed)[0]) == {2, 5}
        # moments exist only where touched
        m = opt.m.reshape(8, 2)
        assert np.array_equal(np.nonzero(m.any(axis=1))[0], [2, 5])


def other_domains_params(model, domain):
    return [p for q in range(1, model.config.num_domains + 1) if q != domain
            for p in model.domain_params(q)]


def step_params(model, domain):
    """The Params a step on ``domain`` trains: every one but the other
    domains' own."""
    others = other_domains_params(model, domain)
    return [p for p in model.params() if not any(p is q for q in others)]


CELLS = [(variant, norm, aux, features)
         for variant in ("star", "base", "shared_bottom")
         for norm in ("pn", "bn", "ln")
         for aux, features in ((False, False), (True, False), (True, True))]


@pytest.mark.parametrize("variant,norm,aux,features", CELLS)
def test_arena_adam_equals_reference_bitwise(variant, norm, aux, features):
    """20 steps alternating domains 1 and 2 of 3: the one-pass arena Adam
    and the per-Param reference agree on values, m and v bit for bit, and
    each step leaves every value and moment of the other domains, and every
    untouched embedding row, as it was."""
    config = replace(tiny_model_config(variant, norm, aux), num_domains=3,
                     aux_use_features=features)
    model, ref_model = build_model(config), build_model(config)
    arena = model.arena
    opt, ref = Adam(arena, lr=0.01), ReferenceAdam(lr=0.01)
    initial = arena.values.copy()
    for step in range(20):
        domain = 1 + step % 2
        batch = random_examples(16, config, domain, seed=400 + step)
        for net in (model, ref_model):
            net.zero_grad()
            _, dlogits = bce_loss(net.forward(batch, mode="train"), batch.y)
            net.backward(dlogits)
        assert not any(p.grad.any()
                       for p in other_domains_params(model, domain))
        frozen = np.ones(arena.size, dtype=bool)
        for p in step_params(model, domain):
            frozen[arena_slice(arena, p.value)] = False
        for t in model.embedding_tables():
            for row in t.grad_rows:
                frozen[arena_slice(arena, t.weights[row])] = False
        before = [arena.values.copy(), opt.m.copy(), opt.v.copy()]
        opt.step(arena.spans(domain), model.embedding_tables())
        ref.step(step_params(ref_model, domain),
                 ref_model.embedding_tables())
        assert arena.values.tobytes() == ref_model.arena.values.tobytes()
        assert opt.m.tobytes() == ref.flat(ref.m, ref_model).tobytes()
        assert opt.v.tobytes() == ref.flat(ref.v, ref_model).tobytes()
        for old, new in zip(before, (arena.values, opt.m, opt.v)):
            assert old[frozen].tobytes() == new[frozen].tobytes()
    # Domain 3 never trained: its parameters and moments are as built.
    for p in model.domain_params(3):
        span = arena_slice(arena, p.value)
        assert arena.values[span].tobytes() == initial[span].tobytes()
        assert not opt.m[span].any() and not opt.v[span].any()


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
    batch = random_examples(64, config, domain=1, seed=9)
    opt = Adam(model.arena, lr=0.001)
    first = last = train_step(model, opt, batch)
    for _ in range(99):
        last = train_step(model, opt, batch)
    assert last < first
