"""Checks of the numeric kernels, and of how an eigensolver failure reaches
its callers."""

import numpy as np
import pytest

from memoryflow import kernels
from memoryflow.errors import NumericError
from memoryflow.harmonic import channel_distance
from memoryflow.openwalk import hermitian_eigenvalues
from memoryflow.qubit import bloch_transfer_matrix


class TestHermitianEigvals:
    def test_lapack_failure_is_numeric_error(self, monkeypatch):
        def fail(*args, **kwargs):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigvalsh", fail)
        with pytest.raises(NumericError, match="did not converge"):
            hermitian_eigenvalues(np.eye(3, dtype=complex))
        with pytest.raises(NumericError, match="did not converge"):
            channel_distance(bloch_transfer_matrix(0.3, 0.4), bloch_transfer_matrix(0.8, -1.1))


class TestTransferPowerAverage:
    def test_backends_match_direct_power(self):
        rng = np.random.default_rng(15)
        thetas = rng.uniform(-3.0, 3.0, 40)
        weights = rng.uniform(0.0, 1.0, 40)
        alpha, beta = 0.8, 0.6
        m = 7

        def direct(k):
            acc = np.zeros((3, 3))
            for th, w in zip(thetas, weights):
                c, s = np.cos(th), np.sin(th)
                mat = np.array([
                    [-beta * c, -s, alpha * c],
                    [beta * s, -c, -alpha * s],
                    [alpha, 0.0, beta],
                ])
                acc += w * np.linalg.matrix_power(mat, k)
            return acc

        out = kernels.transfer_power_average(thetas, weights, alpha, beta, m)
        assert out.shape == (m + 1, 3, 3)
        for k in range(m + 1):
            assert np.allclose(out[k], direct(k), atol=1e-12)

    def test_power_zero_sums_weights(self):
        thetas = np.array([0.1, 0.2])
        weights = np.array([0.3, 0.4])
        out = kernels.transfer_power_average(thetas, weights, 1.0, 0.0, 0)
        assert out.shape == (1, 3, 3)
        assert np.allclose(out[0], 0.7 * np.eye(3), atol=1e-15)

    def test_each_power_is_the_single_power_loop(self):
        # bit for bit the loop that averages one power in the node-last layout:
        # m products P <- P M, then one weighted sum; so no power depends on how
        # many follow it.  The (nodes, 3, 3) loop of P @ M products, which the
        # kernel used before, stays as a reference to rounding.
        rng = np.random.default_rng(17)
        thetas = rng.uniform(-3.0, 3.0, 30)
        weights = rng.uniform(0.0, 1.0, 30)
        alpha, beta = 0.6, 0.8
        c, s = np.cos(thetas), np.sin(thetas)
        M = np.zeros((3, 3, 30))
        M[0] = [-beta * c, -s, alpha * c]
        M[1] = [beta * s, -c, -alpha * s]
        M[2, 0], M[2, 2] = alpha, beta
        full = kernels.transfer_power_average(thetas, weights, alpha, beta, 9)
        for m in (0, 1, 4, 9):
            P = np.broadcast_to(np.eye(3)[:, :, None], (3, 3, 30)).copy()
            stacked = np.broadcast_to(np.eye(3), (30, 3, 3)).copy()
            for _ in range(m):
                P = np.einsum("iln,ljn->ijn", P, M)
                stacked = stacked @ M.transpose(2, 0, 1)
            assert np.array_equal(full[m], P @ weights)
            old = np.einsum("n,nij->ij", weights, stacked)
            assert np.max(np.abs(full[m] - old)) <= 1e-13 * np.max(np.abs(old))
            assert np.array_equal(kernels.transfer_power_average(thetas, weights, alpha, beta, m),
                                  full[:m + 1])


class TestSeriesConvolve:
    def test_backends_match_polynomial_product(self):
        rng = np.random.default_rng(16)
        a = rng.normal(size=(5, 3, 3)) + 1j * rng.normal(size=(5, 3, 3))
        b = rng.normal(size=(3, 3, 3)) + 1j * rng.normal(size=(3, 3, 3))

        want = np.zeros((7, 3, 3), dtype=complex)
        for i in range(5):
            for j in range(3):
                want[i + j] += a[i] @ b[j]

        assert np.allclose(kernels.series_convolve(a, b), want, atol=1e-13)

    def test_batch_axes_and_chunks_keep_bits(self, monkeypatch):
        # each batch entry, and a product formed a few coefficients at a
        # time, has the bits of one unbatched product
        rng = np.random.default_rng(17)
        a = rng.normal(size=(2, 3, 6, 3, 3)) + 1j * rng.normal(size=(2, 3, 6, 3, 3))
        b = rng.normal(size=(3, 5, 3, 3)) + 1j * rng.normal(size=(3, 5, 3, 3))
        batched = kernels.series_convolve(a, b)
        assert batched.shape == (2, 3, 10, 3, 3)
        out = np.full((2, 3, 10, 3, 3), np.nan, dtype=complex)
        assert kernels.series_convolve(a, b, out=out) is out
        monkeypatch.setattr(kernels, "CACHE_BYTES", 2 * 6 * 144)
        chunked = kernels.series_convolve(a[1, 2], b[2])
        for i in range(2):
            for k in range(3):
                one = kernels.series_convolve(a[i, k], b[k])
                assert one.tobytes() == batched[i, k].tobytes() == out[i, k].tobytes()
        assert chunked.tobytes() == batched[1, 2].tobytes()


class TestWalkRun:
    def test_backends_agree(self):
        cl, cr = kernels.walk_run(0.6, 0.8j, 9)
        assert abs(np.sum(np.abs(cl) ** 2 + np.abs(cr) ** 2) - 1.0) < 1e-12


def _inline_composite_rule(lo, hi, panels, order):
    x, w = np.polynomial.legendre.leggauss(order)
    edges = np.linspace(lo, hi, panels + 1)
    half = 0.5 * (edges[1:] - edges[:-1])
    mid = 0.5 * (edges[1:] + edges[:-1])
    nodes = (mid[:, None] + half[:, None] * x[None, :]).ravel()
    weights = (half[:, None] * w[None, :]).ravel()
    return nodes, weights


class TestCompositeGaussLegendre:
    @pytest.mark.parametrize("order", [16, 24, 64, 80])
    @pytest.mark.parametrize("panels", [1, 3, 11, 58])
    def test_matches_inline_construction(self, order, panels):
        for lo, hi in ((-np.pi, np.pi), (7.0, 41.0), (-0.3, 0.2)):
            got = kernels.composite_gauss_legendre(lo, hi, panels, order)
            want = _inline_composite_rule(lo, hi, panels, order)
            assert np.array_equal(got[0], want[0])
            assert np.array_equal(got[1], want[1])

    def test_cached_rule_is_read_only(self):
        x, w = kernels.gauss_legendre_rule(16)
        assert kernels.gauss_legendre_rule(16)[0] is x
        with pytest.raises(ValueError):
            x[0] = 0.0
        with pytest.raises(ValueError):
            w[0] = 0.0
        nodes, weights = kernels.composite_gauss_legendre(-1.0, 1.0, 1, 16)
        nodes[0] = weights[0] = 0.0  # results are fresh arrays
        assert np.array_equal(kernels.gauss_legendre_rule(16)[0],
                              np.polynomial.legendre.leggauss(16)[0])

    @pytest.mark.parametrize("order", [16, 24, 64, 80])
    def test_integrates_top_degree_polynomial_exactly(self, order):
        lo, hi = -1.5, 2.25
        rng = np.random.default_rng(order)
        degree = 2 * order - 1
        poly = np.polynomial.Legendre(rng.normal(size=degree + 1), domain=[lo, hi])
        nodes, weights = kernels.composite_gauss_legendre(lo, hi, 3, order)
        antiderivative = poly.integ()
        want = antiderivative(hi) - antiderivative(lo)
        assert abs(np.sum(weights * poly(nodes)) - want) < 1e-13
