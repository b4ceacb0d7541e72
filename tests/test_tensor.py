import numpy as np
import pytest

from starctr.errors import NumericError, ShapeError
from starctr.layers import sigmoid
from starctr.model import star_layer_params
from starctr.tensor import grad_check, make_rng


# The element-wise product and sum of the star fusion live in
# model.star_layer_params: W = w_p * w, b = b_p + b.

class TestHadamard:
    def test_multiplicative_identity(self):
        rng = make_rng(1)
        a = rng.normal(size=(3, 4))
        w, _ = star_layer_params(a, np.zeros(4), np.ones((3, 4)), np.zeros(4))
        assert np.array_equal(w, a)

    def test_annihilator(self):
        rng = make_rng(2)
        a = rng.normal(size=(3, 4))
        w, _ = star_layer_params(a, np.zeros(4), np.zeros((3, 4)), np.zeros(4))
        assert np.array_equal(w, np.zeros((3, 4)))

    def test_hand_arithmetic(self):
        w, _ = star_layer_params(np.array([[2.0, 3.0]]), np.zeros(2),
                                 np.array([[4.0, 5.0]]), np.zeros(2))
        assert np.array_equal(w, np.array([[8.0, 15.0]]))


class TestAdd:
    def test_zero_identity(self):
        a = np.array([1.0, -2.0, 3.5])
        _, b = star_layer_params(np.ones((2, 3)), a, np.ones((2, 3)), np.zeros(3))
        assert np.array_equal(b, a)


class TestRng:
    def test_equal_seeds_equal_sequences(self):
        a = make_rng(1234).uniform(size=1_000_000)
        b = make_rng(1234).uniform(size=1_000_000)
        assert np.array_equal(a, b)

    def test_different_seeds_differ(self):
        a = make_rng(1).uniform(size=100)
        b = make_rng(2).uniform(size=100)
        assert not np.array_equal(a, b)

    def test_streams_differ(self):
        a = make_rng(7, stream=0).uniform(size=100)
        b = make_rng(7, stream=1).uniform(size=100)
        assert not np.array_equal(a, b)


class TestGradCheck:
    def test_quadratic_exact_under_central_differences(self):
        err = grad_check(lambda t: float(t[0] ** 2), np.array([3.0]),
                         np.array([6.0]), h=1e-5)
        assert err < 1e-9

    def test_one_layer_sigmoid_ce(self):
        rng = make_rng(5)
        x = rng.normal(size=4)
        y = 1.0

        def f(theta):
            w, b = theta[:4], theta[4]
            p = sigmoid(np.array([x @ w + b]))[0]
            return -np.log(p) if y else -np.log1p(-p)

        theta = rng.normal(size=5)
        p = sigmoid(np.array([x @ theta[:4] + theta[4]]))[0]
        grad = np.concatenate([(p - y) * x, [p - y]])
        assert grad_check(f, theta, grad, h=1e-5) < 1e-6

    def test_detects_scaled_gradient(self):
        err = grad_check(lambda t: float(t[0] ** 2), np.array([3.0]),
                         np.array([12.0]), h=1e-5)
        assert err > 0.3

    def test_non_finite_raises(self):
        with pytest.raises(NumericError), np.errstate(invalid="ignore"):
            grad_check(lambda t: float(np.log(t[0])), np.array([0.0]),
                       np.array([1.0]))

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            grad_check(lambda t: 0.0, np.zeros(3), np.zeros(2))
