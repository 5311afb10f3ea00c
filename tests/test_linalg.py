"""Dense SPD kernels: factorization contract, inverses, pivot indices."""

import numpy as np
import pytest

from spodnet import linalg
from spodnet.autodiff import Tensor
from spodnet.linalg import (NotPositiveDefinite, cholesky, eig_diagnostics,
                            is_spd, spd_inverse)


def _random_spd(rng, p, shift=1.0):
    a = rng.standard_normal((p, p))
    m = a @ a.T / p + shift * np.eye(p)
    return 0.5 * (m + m.T)


class TestCholesky:
    def test_identity(self):
        assert np.array_equal(cholesky(np.eye(3)), np.eye(3))

    def test_hand_elimination(self):
        L = cholesky(np.array([[4.0, 2.0], [2.0, 2.0]]))
        assert np.allclose(L, [[2.0, 0.0], [1.0, 1.0]], atol=1e-14)

    def test_indefinite_reports_pivot(self):
        with pytest.raises(NotPositiveDefinite) as exc:
            cholesky(np.array([[1.0, 2.0], [2.0, 1.0]]))  # eigenvalues 3, -1
        assert exc.value.pivot == 1

    def test_recovers_factor(self):
        rng = np.random.default_rng(0)
        L_true = np.tril(rng.standard_normal((6, 6)))
        np.fill_diagonal(L_true, np.abs(np.diag(L_true)) + 1.0)
        prod = L_true @ L_true.T
        L = cholesky(0.5 * (prod + prod.T))
        assert np.abs(L - L_true).max() <= 1e-10

    def test_reconstruction_residual(self):
        rng = np.random.default_rng(1)
        a = _random_spd(rng, 9)
        L = cholesky(a)
        assert np.abs(L @ L.T - a).max() <= 1e-10 * np.abs(a).max()

    def test_is_spd(self):
        assert is_spd(np.eye(4))
        assert not is_spd(np.array([[1.0, 2.0], [2.0, 1.0]]))

    def test_non_finite_rejected(self):
        # LAPACK factors a NaN matrix without reporting failure
        for bad in (np.nan, np.inf):
            m = np.eye(3)
            m[1, 1] = bad
            with pytest.raises(NotPositiveDefinite) as exc:
                cholesky(m)
            assert exc.value.pivot == 1
            assert not is_spd(m)


class TestAsSymArray:
    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            linalg.as_sym_array(np.array([[1.0, 2.0], [2.1, 5.0]]))

    def test_non_finite_must_mirror_exactly(self):
        for bad in (np.nan, np.inf):
            m = np.eye(3)
            m[0, 2] = bad
            with pytest.raises(ValueError, match="not symmetric"):
                linalg.as_sym_array(m)
            m[2, 0] = bad
            assert np.array_equal(linalg.as_sym_array(m), m, equal_nan=True)

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            linalg.as_sym_array(np.ones((2, 3)))

    def test_ops_accept_tensor(self):
        m = Tensor(np.eye(3) * 2.0)
        assert np.allclose(spd_inverse(m), np.eye(3) / 2.0)
        assert eig_diagnostics(m) == (2.0, 2.0, 1.0)


class TestRestIndices:
    def test_values_and_read_only(self):
        rest = linalg.rest_indices(4, 1)
        assert np.array_equal(rest, [0, 2, 3])
        assert linalg.rest_indices(4, 1) is rest
        with pytest.raises(ValueError):
            rest[0] = 5

    def test_index_out_of_range(self):
        with pytest.raises(IndexError):
            linalg.rest_indices(3, 3)
        with pytest.raises(IndexError):
            linalg.rest_indices(3, -1)


class TestSpdInverse:
    def test_identity(self):
        assert np.allclose(spd_inverse(np.eye(5)), np.eye(5))

    def test_diagonal(self):
        inv = spd_inverse(np.diag([2.0, 4.0]))
        assert np.allclose(inv, np.diag([0.5, 0.25]))

    def test_adjugate_2x2(self):
        inv = spd_inverse(np.array([[2.0, 1.0], [1.0, 1.0]]))
        assert np.allclose(inv, [[1.0, -1.0], [-1.0, 2.0]], atol=1e-12)

    def test_involution(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            a = _random_spd(rng, 8)
            back = spd_inverse(spd_inverse(a))
            rel = np.linalg.norm(back - a) / np.linalg.norm(a)
            assert rel <= 1e-8

    def test_output_exactly_symmetric(self):
        rng = np.random.default_rng(3)
        inv = spd_inverse(_random_spd(rng, 7))
        assert np.array_equal(inv, inv.T)

    def test_propagates_not_pd(self):
        with pytest.raises(NotPositiveDefinite):
            spd_inverse(np.array([[1.0, 2.0], [2.0, 1.0]]))


class TestEigDiagnostics:
    def test_diagonal(self):
        lo, hi, cond = eig_diagnostics(np.diag([1.0, 2.0, 5.0]))
        assert (lo, hi, cond) == (1.0, 5.0, 5.0)

    def test_identity(self):
        assert eig_diagnostics(np.eye(4)) == (1.0, 1.0, 1.0)

    def test_characteristic_polynomial(self):
        lo, hi, cond = eig_diagnostics(np.array([[2.0, 1.0], [1.0, 2.0]]))
        assert abs(lo - 1.0) <= 1e-12
        assert abs(hi - 3.0) <= 1e-12
        assert abs(cond - 3.0) <= 1e-12

    def test_accuracy_on_known_spectrum(self):
        rng = np.random.default_rng(5)
        q, _ = np.linalg.qr(rng.standard_normal((8, 8)))
        vals = np.array([0.5, 1.0, 2.0, 3.0, 5.0, 8.0, 13.0, 21.0])
        a = q @ np.diag(vals) @ q.T
        a = 0.5 * (a + a.T)
        lo, hi, _ = eig_diagnostics(a)
        scale = np.linalg.norm(a)
        assert abs(lo - 0.5) <= 1e-9 * scale
        assert abs(hi - 21.0) <= 1e-9 * scale
