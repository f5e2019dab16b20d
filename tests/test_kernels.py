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

        def direct():
            acc = np.zeros((3, 3))
            for th, w in zip(thetas, weights):
                c, s = np.cos(th), np.sin(th)
                mat = np.array([
                    [-beta * c, -s, alpha * c],
                    [beta * s, -c, -alpha * s],
                    [alpha, 0.0, beta],
                ])
                acc += w * np.linalg.matrix_power(mat, m)
            return acc

        want = direct()
        assert np.allclose(
            kernels.transfer_power_average(thetas, weights, alpha, beta, m),
            want, atol=1e-12,
        )

    def test_power_zero_sums_weights(self):
        thetas = np.array([0.1, 0.2])
        weights = np.array([0.3, 0.4])
        out = kernels.transfer_power_average(thetas, weights, 1.0, 0.0, 0)
        assert np.allclose(out, 0.7 * np.eye(3), atol=1e-15)


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


class TestWalkRun:
    def test_backends_agree(self):
        cl, cr = kernels.walk_run(0.6, 0.8j, 9)
        assert abs(np.sum(np.abs(cl) ** 2 + np.abs(cr) ** 2) - 1.0) < 1e-12
