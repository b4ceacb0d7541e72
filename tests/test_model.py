from dataclasses import replace

import numpy as np
import pytest

from starctr.data import Batch
from starctr.errors import (ConfigError, ContractViolation, DomainError,
                            ShapeError)
from starctr.gradcheck import check_model, random_examples, tiny_model_config
from starctr.model import (
    build_model,
    embed_and_pool,
    star_layer_params,
)
from starctr.optim import Adam, bce_loss
from starctr.tensor import make_rng, relu, sigmoid
from starctr.train import train_step


def tiny_batch(config, n=6, domain=1, seed=5):
    return random_examples(n, config, domain, seed)


class TestStarLayerParams:
    def test_ones_and_zeros_leave_shared_unchanged(self):
        rng = make_rng(40)
        w = rng.normal(size=(4, 3))
        b = rng.normal(size=3)
        w_star, b_star = star_layer_params(w, b, np.ones((4, 3)), np.zeros(3))
        assert np.array_equal(w_star, w)
        assert np.array_equal(b_star, b)

    def test_zero_domain_weights_gate_off_shared(self):
        rng = make_rng(41)
        w = rng.normal(size=(2, 2))
        w_star, _ = star_layer_params(w, np.zeros(2), np.zeros((2, 2)),
                                      np.zeros(2))
        assert np.array_equal(w_star, np.zeros((2, 2)))

    def test_hand_arithmetic(self):
        w_star, b_star = star_layer_params(
            np.array([[2.0]]), np.array([1.0]),
            np.array([[3.0]]), np.array([-1.0]),
        )
        assert w_star[0, 0] == 6.0
        assert b_star[0] == 0.0

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            star_layer_params(np.zeros((2, 2)), np.zeros(2),
                              np.zeros((2, 3)), np.zeros(3))

    def test_weight_shape_mismatch(self):
        # Without the check, (2, 1) against (2, 2) would broadcast.
        with pytest.raises(ShapeError):
            star_layer_params(np.zeros((2, 2)), np.zeros(2),
                              np.zeros((2, 1)), np.zeros(2))

    def test_bias_shape_mismatch(self):
        with pytest.raises(ShapeError):
            star_layer_params(np.zeros((2, 3)), np.zeros(3),
                              np.zeros((2, 3)), np.zeros(1))


class TestStarForward:
    def test_zero_shared_weights_give_half(self):
        config = tiny_model_config("star", "pn", aux=False)
        model = build_model(config)
        for layer in model.fcn.shared:
            layer.W.value[:] = 0.0
            layer.b.value[:] = 0.0
        logits = model.forward(tiny_batch(config), mode="train")
        assert np.array_equal(sigmoid(logits), np.full(6, 0.5))

    def test_aux_additivity_pre_sigmoid(self):
        # The trunk and the aux net draw from streams of their own, so the
        # model without the aux net has the same tables, norm and trunk.
        config = tiny_model_config("star", "pn", aux=True)
        model = build_model(config)
        trunk_only = build_model(replace(config, aux_enabled=False))
        assert trunk_only.aux is None
        batch = tiny_batch(config)
        logits = model.forward(batch, mode="train")
        trunk = trunk_only.forward(batch, mode="train")
        aux = model.aux.forward(embed_and_pool(batch, model.tables),
                                batch.domain)
        assert np.array_equal(logits, trunk + aux)

    def test_initialization_identity_across_domains(self):
        # Fresh domain stacks are ones/zeros, so with synced PN state the
        # forward pass is the shared model for every domain.
        config = tiny_model_config("star", "pn", aux=False)
        model = build_model(config)
        model.norm.moving_mean[:] = 0.5
        model.norm.moving_var[:] = 2.0
        model.norm.populated[:] = True
        ex1 = random_examples(6, config, domain=1, seed=8)
        ex2 = [e._replace(p=2) for e in ex1]
        out1 = model.forward(ex1, mode="infer")
        out2 = model.forward(Batch.from_examples(ex2), mode="infer")
        assert np.allclose(out1, out2, atol=1e-12)

    def test_initialization_identity_vs_shared_stack(self):
        config = tiny_model_config("star", "bn", aux=False)
        model = build_model(config)
        batch = tiny_batch(config)
        logits = model.forward(batch, mode="train")
        # Oracle: manual forward through the shared parameters only.
        z = embed_and_pool(batch, model.tables)
        x = model.norm.forward_train(z, batch.domain)
        for li, layer in enumerate(model.fcn.shared):
            pre = x @ layer.W.value + layer.b.value
            x = relu(pre) if layer.activation == "relu" else pre
        assert np.allclose(logits, x[:, 0], atol=1e-12)

    def test_mixed_domain_batch_rejected(self):
        config = tiny_model_config()
        a = random_examples(2, config, domain=1)
        b = random_examples(2, config, domain=2)
        with pytest.raises(ContractViolation):
            Batch.from_examples(list(a) + list(b))

    def test_unserved_domain_rejected(self):
        config = tiny_model_config("star", "ln")
        model = build_model(config)
        batch = tiny_batch(config, domain=config.num_domains + 1)
        for mode in ("train", "infer"):
            with pytest.raises(DomainError, match="domain 3 outside 1..2"):
                model.forward(batch, mode=mode)

    def test_train_requires_two_examples_for_pn(self):
        from starctr.errors import DegenerateInputError
        config = tiny_model_config("star", "pn", aux=False)
        model = build_model(config)
        with pytest.raises(DegenerateInputError):
            model.forward(tiny_batch(config, n=1), mode="train")


class TestStarBackward:
    def test_full_model_gradcheck(self):
        assert check_model(tiny_model_config("star", "pn", True)) < 1e-4

    def test_domain_q_gradients_structurally_zero(self):
        config = tiny_model_config("star", "pn", aux=True)
        model = build_model(config)
        batch = tiny_batch(config, domain=1)
        model.zero_grad()
        _, dlogits = bce_loss(model.forward(batch, mode="train"), batch.y)
        model.backward(dlogits)
        for param in model.domain_params(2):
            assert not param.grad.any()
        assert any(p.grad.any() for p in model.domain_params(1))

    def test_dlogit_is_yhat_minus_y(self):
        config = tiny_model_config("star", "pn", aux=False)
        model = build_model(config)
        batch = tiny_batch(config, n=4)
        logits = model.forward(batch, mode="train")
        _, dlogits = bce_loss(logits, batch.y)
        assert np.allclose(dlogits, (sigmoid(logits) - batch.y) / 4,
                           atol=1e-16)

    def test_backward_without_forward(self):
        model = build_model(tiny_model_config())
        with pytest.raises(ContractViolation):
            model.backward(np.zeros(4))

    def test_backward_after_infer_forward_rejected(self):
        config = tiny_model_config("star", "pn", aux=True)
        model = build_model(config)
        batch = tiny_batch(config)
        model.forward(batch, mode="train")
        model.zero_grad()
        model.forward(batch, mode="infer")
        with pytest.raises(ContractViolation, match="train-mode forward"):
            model.backward(np.ones(batch.size))
        assert not model.arena.grads.any()
        assert all(t.grad_rows.size == 0 for t in model.embedding_tables())

    def test_domain_isolation_under_adam(self):
        config = tiny_model_config("star", "pn", aux=True)
        model = build_model(config)
        opt = Adam(model.arena)
        snapshot = [(p.name, p.value.copy()) for p in model.domain_params(2)]
        stats_before = (model.norm.moving_mean[1].copy(),
                        model.norm.moving_var[1].copy())
        train_step(model, opt, tiny_batch(config, domain=1))
        for (name, before), param in zip(snapshot, model.domain_params(2)):
            assert np.array_equal(param.value, before), name
        assert np.array_equal(model.norm.moving_mean[1], stats_before[0])
        assert np.array_equal(model.norm.moving_var[1], stats_before[1])


class TestBaselines:
    def test_base_equals_shared_bottom_at_m1(self):
        config = tiny_model_config("base", "bn", aux=False)
        config.num_domains = 1
        base = build_model(config)
        sb = build_model(replace(config, variant="shared_bottom"))
        assert base.config.param_count() == sb.config.param_count()

    def test_shared_bottom_param_count(self):
        config = tiny_model_config("shared_bottom", "bn", aux=False)
        sb = build_model(config)
        base_config = tiny_model_config("base", "bn", aux=False)
        base = build_model(base_config)
        embed = sum(t.weights.size for t in sb.embedding_tables())
        fcn_base = sum(p.value.size
                       for layer in base.fcn.shared
                       for p in layer.params())
        norm = sum(p.value.size for p in sb.norm.params())
        expected = embed + config.num_domains * fcn_base + norm
        assert config.param_count() == expected

    @pytest.mark.parametrize("normalizer", ["bn", "ln", "pn"])
    @pytest.mark.parametrize("variant", ["base", "shared_bottom", "star"])
    def test_param_count_is_the_arena_size(self, variant, normalizer):
        for aux, features in ((False, False), (True, False), (True, True)):
            config = replace(tiny_model_config(variant, normalizer, aux),
                             aux_use_features=features)
            assert config.param_count() == build_model(config).arena.size

    def test_base_invariant_to_domain_indicator(self):
        config = tiny_model_config("base", "bn", aux=False)
        model = build_model(config)
        ex1 = random_examples(4, config, domain=1, seed=11)
        ex2 = [e._replace(p=2) for e in ex1]
        out1 = model.forward(ex1, mode="train")
        out2 = model.forward(Batch.from_examples(ex2), mode="train")
        assert np.array_equal(out1, out2)

    def test_base_has_no_domain_indexed_fcn_parameters(self):
        model = build_model(tiny_model_config("base", "bn", aux=False))
        assert model.fcn.domain is None
        assert model.fcn.stacks() == [model.fcn.shared]
        assert model.domain_params(1) == []

    def test_shared_bottom_has_no_shared_fcn_parameters(self):
        model = build_model(tiny_model_config("shared_bottom", "bn", aux=False))
        assert model.fcn.shared is None
        assert model.fcn.stacks() == model.fcn.domain
        assert len(model.fcn.domain) == model.config.num_domains

    def test_trunk_draws_shared_then_domains(self):
        # One RNG stream, shared stack first: base's shared stack and the
        # first shared-bottom domain stack take star's shared draws; star's
        # domain stacks are overwritten to ones/zeros.
        config = tiny_model_config("star", "bn", aux=False)
        star = build_model(config)
        base = build_model(replace(config, variant="base"))
        sb = build_model(replace(config, variant="shared_bottom"))
        for s, b, d in zip(star.fcn.shared, base.fcn.shared, sb.fcn.domain[0]):
            assert np.array_equal(s.W.value, b.W.value)
            assert np.array_equal(s.W.value, d.W.value)
        for layer in star.fcn.domain[1]:
            assert np.array_equal(layer.W.value, np.ones_like(layer.W.value))
            assert np.array_equal(layer.b.value, np.zeros_like(layer.b.value))
        assert not np.array_equal(sb.fcn.domain[0][0].W.value,
                                  sb.fcn.domain[1][0].W.value)

    def test_unknown_variant(self):
        with pytest.raises(ConfigError):
            build_model(replace(tiny_model_config(), variant="ensemble"))

    def test_shared_bottom_gradcheck(self):
        assert check_model(tiny_model_config("shared_bottom", "bn", True)) < 1e-4

    def test_base_gradcheck(self):
        assert check_model(tiny_model_config("base", "ln", False)) < 1e-4


class TestEmbedAndPool:
    def test_concatenation_order_and_width(self):
        config = tiny_model_config()
        model = build_model(config)
        batch = tiny_batch(config, n=3)
        z = embed_and_pool(batch, model.tables)
        assert z.shape == (3, config.input_dim)
        d = config.embed_dim
        expected = model.tables["profile"].weights[batch.profile]
        assert np.array_equal(z[:, d:2 * d], expected)

    def test_empty_behavior_contributes_zeros(self):
        config = tiny_model_config()
        model = build_model(config)
        from starctr.data import Example
        batch = Batch.from_examples([Example((), 0, 1, 2, 0, 1),
                                     Example((), 1, 0, 3, 1, 1)])
        z = embed_and_pool(batch, model.tables)
        assert np.array_equal(z[:, :config.embed_dim], np.zeros((2, 4)))


class TestConfigSurface:
    def test_one_shared_embedding_set_regardless_of_m(self):
        small = tiny_model_config("star", "pn", aux=False)
        big = tiny_model_config("star", "pn", aux=False)
        big.num_domains = 7
        m_small = build_model(small)
        m_big = build_model(big)
        assert len(m_small.tables) == len(m_big.tables) == 4
        for name in m_small.tables:
            assert np.array_equal(m_small.tables[name].weights,
                                  m_big.tables[name].weights)
