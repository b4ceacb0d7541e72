import tracemalloc

import numpy as np
import pytest

from starctr.errors import (
    ContractViolation,
    DataError,
    DegenerateInputError,
    DomainError,
    UninitializedStatsError,
)
from starctr.gradcheck import (
    check_batchnorm,
    check_embedding,
    check_fc_layer,
    check_layernorm,
    check_partitioned_norm,
)
from starctr.layers import (
    EmbeddingTable,
    FcLayer,
    LayerNorm,
    PartitionedNorm,
    sigmoid,
)
from starctr.tensor import make_rng

from reference_kernels import reference_backward, reference_pool, reference_sigmoid


def pool_single(table, ids):
    flat = np.asarray(ids, dtype=np.int64)
    offsets = np.array([0, len(flat)], dtype=np.int64)
    return table.pool(flat, offsets)[0]


class TestEmbedding:
    def setup_method(self):
        self.table = EmbeddingTable(10, 4, rng=make_rng(0), name="behavior")

    def test_single_id_returns_row_verbatim(self):
        assert np.array_equal(pool_single(self.table, [3]),
                              self.table.weights[3])

    def test_duplicate_ids_mean_is_idempotent(self):
        assert np.array_equal(pool_single(self.table, [3, 3]),
                              self.table.weights[3])

    def test_pair_matches_hand_mean(self):
        expected = (self.table.weights[2] + self.table.weights[7]) / 2.0
        assert np.array_equal(pool_single(self.table, [2, 7]), expected)

    def test_empty_list_pools_to_zero(self):
        assert np.array_equal(pool_single(self.table, []), np.zeros(4))

    @pytest.mark.parametrize("bad_id", [17, -1, 10],
                             ids=["beyond", "negative", "vocab_size"])
    def test_out_of_vocab_names_field_and_id(self, bad_id):
        with pytest.raises(DataError, match=rf"'behavior': id {bad_id} "
                                            r"outside vocab of 10$"):
            pool_single(self.table, [3, bad_id, 4])

    def test_backward_touches_exactly_looked_up_rows(self):
        flat = np.array([1, 4, 4, 9], dtype=np.int64)
        offsets = np.array([0, 2, 4], dtype=np.int64)
        self.table.pool(flat, offsets)
        self.table.backward(np.ones((2, 4)))
        assert self.table.grad_rows.tolist() == [1, 4, 9]
        others = np.setdiff1d(np.arange(10), [1, 4, 9])
        assert not self.table.grad[others].any()

    def test_duplicate_grads_accumulate(self):
        flat = np.array([4, 4], dtype=np.int64)
        offsets = np.array([0, 2], dtype=np.int64)
        self.table.pool(flat, offsets)
        self.table.backward(np.full((1, 4), 2.0))
        # each occurrence contributes upstream / count
        assert self.table.grad_rows.tolist() == [4]
        assert np.allclose(self.table.grad[4], np.full(4, 2.0))

    def test_gradcheck(self):
        assert check_embedding() < 1e-4


def _kernel_case(case):
    """(vocab, flat_ids, offsets) for one input shape the kernel sees."""
    rng = make_rng(31, stream=len(case))
    n = 64
    if case == "repeated_ids":
        vocab, lengths = 6, rng.integers(1, 11, size=n)
    elif case == "empty_lists":
        vocab, lengths = 40, rng.integers(0, 3, size=n)
    elif case == "all_empty":
        vocab, lengths = 40, np.zeros(n, dtype=np.int64)
    elif case == "unit_offsets":
        vocab, lengths = 1200, np.ones(n, dtype=np.int64)
    else:  # the default config's context field: 50 ids, one per example
        vocab, n = 50, 1024
        lengths = np.ones(n, dtype=np.int64)
    offsets = np.concatenate([[0], np.cumsum(lengths)]).astype(np.int64)
    flat = rng.integers(0, vocab, size=int(offsets[-1]))
    return vocab, flat, offsets


class TestEmbeddingKernel:
    """The bincount kernels against the np.add.at reference, bit for bit."""

    CASES = ["repeated_ids", "empty_lists", "all_empty", "unit_offsets",
             "context_vocab"]

    @pytest.mark.parametrize("case", CASES)
    def test_pool_and_backward_match_add_at_bitwise(self, case):
        vocab, flat, offsets = _kernel_case(case)
        table = EmbeddingTable(vocab, 8, rng=make_rng(5), name="f")
        ref = EmbeddingTable(vocab, 8, rng=make_rng(5), name="f")
        rng = make_rng(32)
        for _ in range(2):      # a second step after zero_grad
            out = table.pool(flat, offsets)
            expected = reference_pool(ref, flat, offsets)
            assert out.dtype == np.float64
            assert out.tobytes() == expected.tobytes()
            upstream = rng.normal(size=out.shape)
            table.backward(upstream)
            reference_backward(ref, upstream.copy())
            assert table.grad.tobytes() == ref.grad.tobytes()
            assert np.array_equal(table.grad_rows, ref.grad_rows)
            table.zero_grad()
            ref.zero_grad()

    @pytest.mark.parametrize("case", ["unit_offsets", "context_vocab"])
    def test_no_offsets_matches_unit_offsets_bitwise(self, case):
        # Training pools one-id fields with offsets=None; its backward gets a
        # column block of the pooled gradient, as in the model.
        vocab, flat, offsets = _kernel_case(case)
        unit = EmbeddingTable(vocab, 8, rng=make_rng(5), name="f")
        none = EmbeddingTable(vocab, 8, rng=make_rng(5), name="f")
        assert (none.pool(flat, None).tobytes()
                == unit.pool(flat, offsets).tobytes())
        upstream = make_rng(33).normal(size=(flat.size, 24))[:, 8:16]
        none.backward(upstream)
        unit.backward(upstream)
        assert none.grad.tobytes() == unit.grad.tobytes()
        assert np.array_equal(none.grad_rows, unit.grad_rows)

    def test_second_backward_adds_its_sum_to_the_gradient(self):
        table = EmbeddingTable(5, 2, rng=make_rng(0), name="f")
        flat = np.array([1, 1, 3], dtype=np.int64)
        offsets = np.array([0, 2, 3], dtype=np.int64)
        upstream = make_rng(1).normal(size=(2, 2))
        table.pool(flat, offsets)
        table.backward(upstream)
        first = table.grad.copy()
        table.pool(flat, offsets)
        table.backward(upstream)
        assert np.array_equal(table.grad, first + first)


class TestGradRows:
    """``grad_rows``: the sorted rows written since ``zero_grad``."""

    def test_backwards_merge_into_sorted_union(self):
        table = EmbeddingTable(12, 3, rng=make_rng(0), name="f")
        assert table.grad_rows.tolist() == []
        table.pool(np.array([7, 2, 7, 9]), np.array([0, 1, 4]))
        table.backward(np.ones((2, 3)))
        table.pool(np.array([5, 2, 0]), None)
        table.backward(np.ones((3, 3)))
        # A one-id lookup of one row, as the aux net makes of its domain.
        table.pool(np.full(4, 11), None)
        table.backward(np.ones((4, 3)))
        assert table.grad_rows.dtype == np.int64
        assert table.grad_rows.tolist() == [0, 2, 5, 7, 9, 11]
        written = np.flatnonzero(table.grad.any(axis=1))
        assert written.tolist() == [0, 2, 5, 7, 9, 11]
        table.zero_grad()
        assert not table.grad.any()
        assert table.grad_rows.tolist() == []

    def test_backward_memory_scales_with_touched_rows(self):
        """One backward over 4,096 ids of a 400,000-row table allocates far
        less than the table: no (vocab, dim) temporary."""
        table = EmbeddingTable(400_000, 8, rng=make_rng(0), name="f")
        rng = make_rng(1)
        flat = rng.integers(0, 400_000, size=4_096)
        offsets = np.arange(0, 4_097, 4)
        upstream = rng.normal(size=(1_024, 8))
        table.pool(flat, offsets)
        tracemalloc.start()
        try:
            table.backward(upstream)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < table.weights.nbytes / 4
        assert np.array_equal(table.grad_rows, np.unique(flat))


class TestSigmoid:
    """The np.where sigmoid against the boolean-mask reference, bit for
    bit."""

    @pytest.mark.parametrize("scale", [1, 5, 30, 800])
    def test_matches_masked_reference_bitwise(self, scale):
        x = make_rng(17, stream=scale).normal(0.0, scale, size=500_000)
        assert sigmoid(x).tobytes() == reference_sigmoid(x).tobytes()

    def test_signed_zeros_and_infinities(self):
        x = np.array([0.0, -0.0, np.inf, -np.inf])
        out = sigmoid(x)
        assert out.tobytes() == reference_sigmoid(x).tobytes()
        assert out.tolist() == [0.5, 0.5, 1.0, 0.0]

    def test_nan_stays_nan(self):
        assert np.isnan(sigmoid(np.array([np.nan, -np.nan]))).all()


class TestFcLayer:
    def test_scalar_identity_chain_rule(self):
        layer = FcLayer(1, 1, activation="identity", rng=make_rng(1))
        x = np.array([[2.5]])
        layer.forward(x)
        layer.backward(np.array([[3.0]]))
        assert layer.W.grad[0, 0] == 2.5 * 3.0
        assert layer.b.grad[0] == 3.0

    def test_relu_blocks_gradient_at_negative_preactivation(self):
        layer = FcLayer(1, 1, activation="relu", rng=make_rng(2))
        layer.W.value[:] = 1.0
        layer.b.value[:] = -5.0
        layer.forward(np.array([[1.0]]))  # pre-activation = -4
        dx = layer.backward(np.array([[1.0]]))
        assert layer.W.grad[0, 0] == 0.0
        assert dx[0, 0] == 0.0

    def test_backward_without_forward(self):
        layer = FcLayer(2, 2, rng=make_rng(3))
        with pytest.raises(ContractViolation):
            layer.backward(np.ones((1, 2)))

    def test_gradcheck(self):
        assert check_fc_layer() < 1e-4


M = 3    # domains of the batch-normalization tests


def batch_norm(dim, **kwargs):
    """bn: one partition that all M domains map to, no domain affine."""
    return PartitionedNorm(dim, M, per_domain=False, **kwargs)


class TestBatchNorm:
    def test_standardizes_columns(self):
        bn = batch_norm(3)
        z = make_rng(4).normal(2.0, 3.0, size=(64, 3))
        out = bn.forward_train(z, 1)
        assert np.abs(out.mean(axis=0)).max() < 1e-10
        assert np.abs(out.var(axis=0) - 1.0).max() < 1e-4  # epsilon effect

    def test_affine_transform_of_standardized_data(self):
        bn = batch_norm(3)
        bn.gamma.value[:] = 2.0
        bn.beta.value[:] = 3.0
        z = make_rng(5).normal(0.0, 1.0, size=(128, 3))
        out = bn.forward_train(z, 2)
        var = z.var(axis=0)
        assert np.abs(out.mean(axis=0) - 3.0).max() < 1e-10
        # output variance is 4 * var/(var+eps); compare pre-epsilon
        assert np.abs(out.var(axis=0) * (var + bn.epsilon) / var - 4.0).max() < 1e-6

    def test_moving_stats_after_one_batch_with_momentum_one(self):
        bn = batch_norm(2, momentum=1.0)
        z = make_rng(6).normal(1.0, 2.0, size=(32, 2))
        bn.forward_train(z, M)
        mu = z.mean(axis=0)
        var = ((z - mu) ** 2).mean(axis=0)
        assert bn.moving_mean.shape == bn.moving_var.shape == (1, 2)
        assert np.array_equal(bn.moving_mean[0], mu)
        assert np.array_equal(bn.moving_var[0], var)

    def test_infer_centers_moving_mean(self):
        bn = batch_norm(2)
        bn.forward_train(make_rng(7).normal(3.0, 1.0, size=(64, 2)), 1)
        out = bn.forward_infer(bn.moving_mean, 2)
        assert np.abs(out).max() < 1e-12

    def test_infer_deterministic(self):
        bn = batch_norm(2)
        bn.forward_train(make_rng(8).normal(size=(16, 2)), 1)
        z = make_rng(9).normal(size=(5, 2))
        assert np.array_equal(bn.forward_infer(z, 1), bn.forward_infer(z, 1))
        # Every domain maps to the one partition.
        assert np.array_equal(bn.forward_infer(z, 1), bn.forward_infer(z, M))

    def test_infer_matches_hand_formula(self):
        bn = batch_norm(3)
        bn.gamma.value[:] = [1.0, 2.0, 0.5]
        bn.beta.value[:] = [0.0, 1.0, -1.0]
        bn.forward_train(make_rng(10).normal(2.0, 1.5, size=(32, 3)), 2)
        z = np.array([[1.0, 2.0, 3.0]])
        expected = (bn.gamma.value * (z - bn.moving_mean[0])
                    / np.sqrt(bn.moving_var[0] + bn.epsilon) + bn.beta.value)
        assert np.array_equal(bn.forward_infer(z, 2), expected)

    def test_never_trained_infer_raises(self):
        with pytest.raises(UninitializedStatsError):
            batch_norm(2).forward_infer(np.zeros((1, 2)), 1)

    def test_degenerate_batch(self):
        with pytest.raises(DegenerateInputError):
            batch_norm(2).forward_train(np.zeros((1, 2)), 1)

    def test_one_partition_and_no_domain_affine(self):
        bn = batch_norm(2)
        assert [q.name for q in bn.params()] == ["bn.gamma", "bn.beta"]
        assert bn.domain_params(M) == []
        assert bn.populated.shape == (1,)

    def test_gradcheck_through_train_mode(self):
        assert check_batchnorm() < 1e-4


class TestPartitionedNorm:
    def test_unit_domain_params_equal_bn_bitwise(self):
        rng = make_rng(11)
        gamma = rng.normal(1.0, 0.2, size=4)
        beta = rng.normal(0.0, 0.2, size=4)
        bn = batch_norm(4)
        pn = PartitionedNorm(4, num_domains=3)
        bn.gamma.value[:] = gamma
        pn.gamma.value[:] = gamma
        bn.beta.value[:] = beta
        pn.beta.value[:] = beta
        z = rng.normal(2.0, 3.0, size=(32, 4))
        assert np.array_equal(pn.forward_train(z, 2), bn.forward_train(z, 2))

    def test_single_domain_pn_equals_bn(self):
        rng = make_rng(12)
        bn = PartitionedNorm(3, num_domains=1, per_domain=False)
        pn = PartitionedNorm(3, num_domains=1)
        z = rng.normal(size=(16, 3))
        assert np.array_equal(pn.forward_train(z, 1), bn.forward_train(z, 1))
        z2 = rng.normal(size=(4, 3))
        assert np.array_equal(pn.forward_infer(z2, 1), bn.forward_infer(z2, 1))

    def test_other_domain_state_bitwise_unchanged(self):
        pn = PartitionedNorm(4, num_domains=3)
        rng = make_rng(13)
        pn.forward_train(rng.normal(size=(16, 4)), 3)  # populate domain 3
        snapshot = (
            pn.domain_gamma[2].value.copy(), pn.domain_beta[2].value.copy(),
            pn.moving_mean[2].copy(), pn.moving_var[2].copy(),
        )
        pn.forward_train(rng.normal(5.0, 2.0, size=(16, 4)), 1)
        assert np.array_equal(pn.domain_gamma[2].value, snapshot[0])
        assert np.array_equal(pn.domain_beta[2].value, snapshot[1])
        assert np.array_equal(pn.moving_mean[2], snapshot[2])
        assert np.array_equal(pn.moving_var[2], snapshot[3])

    def test_domain_out_of_range(self):
        pn = PartitionedNorm(2, num_domains=2)
        with pytest.raises(DomainError):
            pn.forward_train(np.zeros((4, 2)), 3)
        with pytest.raises(DomainError):
            pn.forward_infer(np.zeros((1, 2)), 0)

    def test_infer_unpopulated_domain_names_domain(self):
        pn = PartitionedNorm(2, num_domains=2)
        pn.forward_train(make_rng(14).normal(size=(8, 2)), 1)
        with pytest.raises(UninitializedStatsError, match="domain 2"):
            pn.forward_infer(np.zeros((1, 2)), 2)

    def test_same_distribution_domains_agree_at_inference(self):
        # Two domains fed many draws from the same distribution end up with
        # statistics (and thus inference outputs) that agree within 1e-3.
        pn = PartitionedNorm(1, num_domains=2, momentum=0.05)
        rng = make_rng(15)
        for _ in range(50):
            pn.forward_train(rng.uniform(0.0, 4.0, size=(1_000_000, 1)), 1)
            pn.forward_train(rng.uniform(0.0, 4.0, size=(1_000_000, 1)), 2)
        z = rng.uniform(0.0, 4.0, size=(256, 1))
        diff = np.abs(pn.forward_infer(z, 1) - pn.forward_infer(z, 2)).max()
        assert diff < 1e-3

    def test_infer_centers_domain_mean(self):
        pn = PartitionedNorm(3, num_domains=2)
        pn.forward_train(make_rng(16).normal(4.0, 1.0, size=(32, 3)), 2)
        out = pn.forward_infer(pn.moving_mean[1][None, :], 2)
        assert np.abs(out).max() < 1e-12

    def test_swapping_domain_changes_output_under_shift(self):
        pn = PartitionedNorm(3, num_domains=2)
        rng = make_rng(17)
        pn.forward_train(rng.normal(0.0, 1.0, size=(64, 3)), 1)
        pn.forward_train(rng.normal(5.0, 1.0, size=(64, 3)), 2)
        z = rng.normal(size=(8, 3))
        diff = np.abs(pn.forward_infer(z, 1) - pn.forward_infer(z, 2)).max()
        assert diff > 0.0

    def test_mixed_domain_enforced_at_batch_level(self):
        from starctr.data import Example
        from starctr.model import Batch
        examples = [
            Example((1,), 0, 0, 0, 0, 1),
            Example((2,), 1, 1, 1, 1, 2),
        ]
        with pytest.raises(ContractViolation, match="mixed-domain"):
            Batch.from_examples(examples)

    def test_gradcheck_through_train_mode(self):
        assert check_partitioned_norm() < 1e-4


class TestLayerNorm:
    def test_constant_row_gives_bias(self):
        ln = LayerNorm(4)
        ln.beta.value[:] = [1.0, 2.0, 3.0, 4.0]
        out = ln.forward(np.full((2, 4), 7.0))
        # zero variance row: pre-affine output is 0 up to epsilon handling
        assert np.allclose(out, np.tile(ln.beta.value, (2, 1)), atol=1e-12)

    def test_rows_standardized(self):
        ln = LayerNorm(6)
        z = make_rng(18).normal(3.0, 2.0, size=(32, 6))
        out = ln.forward(z)
        assert np.abs(out.mean(axis=1)).max() < 1e-10
        assert np.abs(out.var(axis=1) - 1.0).max() < 1e-4

    def test_hand_computation_row_123(self):
        ln = LayerNorm(3)
        z = np.array([[1.0, 2.0, 3.0]])
        mu = 2.0
        var = 2.0 / 3.0
        expected = (z - mu) / np.sqrt(var + ln.epsilon)
        assert np.allclose(ln.forward(z), expected, atol=1e-15)

    def test_train_equals_infer(self):
        ln = LayerNorm(4)
        z = make_rng(19).normal(size=(8, 4))
        # ... and for every domain: ln ignores p.
        assert np.array_equal(ln.forward_train(z, 1), ln.forward_infer(z, 2))
        assert ln.domain_params(1) == []

    def test_degenerate_width(self):
        with pytest.raises(DegenerateInputError):
            LayerNorm(1).forward(np.zeros((4, 1)))

    def test_gradcheck(self):
        assert check_layernorm() < 1e-4
