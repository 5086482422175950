import numpy as np
import pytest

from isoedf import (
    ArrayNoiseConfig,
    NumericError,
    build_ecm,
    hermitian_eigenvalues,
    poly_roots,
    sqrt_psd,
    sym_eigenvalues,
)


def random_symmetric(n, rng):
    a = rng.standard_normal((n, n))
    return (a + a.T) / 2


class TestSymEigenvalues:
    def test_identity(self):
        np.testing.assert_allclose(sym_eigenvalues(np.eye(5)), np.ones(5))

    def test_diagonal_ordering(self):
        np.testing.assert_allclose(sym_eigenvalues(np.diag([3.0, 1.0, 2.0])), [3, 2, 1])

    def test_two_by_two(self):
        # characteristic polynomial lambda^2 - 4 lambda + 3 has roots 3, 1
        vals = sym_eigenvalues(np.array([[2.0, 1.0], [1.0, 2.0]]))
        np.testing.assert_allclose(vals, [3.0, 1.0], atol=1e-12)

    @pytest.mark.parametrize("n", [2, 7, 33, 128])
    def test_trace_identity(self, n):
        a = random_symmetric(n, np.random.default_rng(n))
        vals = sym_eigenvalues(a)
        assert abs(vals.sum() - np.trace(a)) <= 1e-9 * np.linalg.norm(a)

    @pytest.mark.parametrize("n", [3, 16, 64])
    def test_orthogonal_similarity(self, n):
        rng = np.random.default_rng(100 + n)
        a = random_symmetric(n, rng)
        q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        rotated = q.T @ a @ q
        rotated = (rotated + rotated.T) / 2
        np.testing.assert_allclose(
            sym_eigenvalues(a), sym_eigenvalues(rotated), atol=1e-8 * np.linalg.norm(a)
        )

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            sym_eigenvalues(np.array([[1.0, 2.0], [0.0, 1.0]]))

    def test_rejects_nonsquare(self):
        with pytest.raises(ValueError):
            sym_eigenvalues(np.zeros((2, 3)))

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            sym_eigenvalues(np.array([[np.inf, 0.0], [0.0, 1.0]]))


class TestHermitianEigenvalues:
    def test_complex_identity(self):
        np.testing.assert_allclose(hermitian_eigenvalues(np.eye(3, dtype=complex)), np.ones(3))

    def test_two_by_two(self):
        # det(A - lambda I) = (2 - lambda)^2 - 1, roots 3 and 1
        a = np.array([[2.0, 1j], [-1j, 2.0]])
        np.testing.assert_allclose(hermitian_eigenvalues(a), [3.0, 1.0], atol=1e-12)

    @pytest.mark.parametrize("n", [2, 9, 40])
    def test_trace_identity(self, n):
        rng = np.random.default_rng(n)
        a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        a = (a + a.conj().T) / 2
        vals = hermitian_eigenvalues(a)
        assert abs(vals.sum() - np.trace(a).real) <= 1e-9 * np.linalg.norm(a)

    @pytest.mark.parametrize("scale", [1.0, 1e160, 1e-170])
    def test_rejects_non_hermitian(self, scale):
        # at 1e160 the squared norms overflowed to inf and at 1e-170 they
        # underflowed to 0, and the defect test passed this matrix as Hermitian
        with pytest.raises(ValueError, match="not Hermitian"):
            hermitian_eigenvalues(np.array([[1.0, 1.0], [0.0, 1.0]], dtype=complex) * scale)

    @pytest.mark.parametrize("scale", [1.0, 1e160, 1e-170])
    def test_accepts_a_hermitian_matrix_at_any_scale(self, scale):
        a = np.array([[2.0, 1j], [-1j, 2.0]]) * scale
        np.testing.assert_allclose(hermitian_eigenvalues(a), [3 * scale, scale], rtol=1e-12)

    @staticmethod
    def with_defect(ratio):
        """A 51 x 51 Gram matrix whose Hermitian defect is ratio x 1e-10 of its norm."""
        rng = np.random.default_rng(5)
        x = rng.standard_normal((51, 204)) + 1j * rng.standard_normal((51, 204))
        a = x @ x.conj().T / 204
        # a + e E_01 has defect ||e E_01 - conj(e) E_10|| = sqrt(2) |e|, and
        # moves ||a|| by far less than the 1% between the two ratios
        a[0, 1] += (1 + 1j) / 2 * ratio * 1e-10 * np.linalg.norm(a)
        defect = np.linalg.norm(a - a.conj().T) / np.linalg.norm(a)
        assert defect == pytest.approx(ratio * 1e-10, rel=1e-6)
        return a

    def test_accepts_a_defect_just_below_the_tolerance(self):
        a = self.with_defect(0.99)
        vals = hermitian_eigenvalues(a)
        np.testing.assert_allclose(vals, np.linalg.eigvalsh(a)[::-1], rtol=0, atol=1e-12)

    def test_refuses_a_defect_just_above_the_tolerance(self):
        with pytest.raises(ValueError, match="not Hermitian within 1e-10"):
            hermitian_eigenvalues(self.with_defect(1.01))


class TestSqrtPsd:
    def test_identity(self):
        np.testing.assert_allclose(sqrt_psd(np.eye(4)), np.eye(4))

    def test_diagonal(self):
        np.testing.assert_allclose(sqrt_psd(np.diag([4.0, 9.0])), np.diag([2.0, 3.0]))

    def test_covariance_kernel_residual(self):
        sigma = build_ecm(ArrayNoiseConfig(n=8, zeta=0.5))
        b = sqrt_psd(sigma)
        residual = np.linalg.norm(b @ b - sigma) / np.linalg.norm(sigma)
        assert residual <= 1e-8
        np.testing.assert_allclose(b, b.T)

    def test_projection_idempotent(self):
        p = np.diag([1.0, 0.0, 1.0, 0.0])
        np.testing.assert_allclose(sqrt_psd(p), p, atol=1e-14)

    def test_rejects_indefinite(self):
        with pytest.raises(ValueError, match="negative eigenvalue"):
            sqrt_psd(np.diag([1.0, -1.0]))

    @pytest.mark.parametrize(
        "a", [np.zeros((0, 0)), np.diag([np.inf, 1.0]), np.diag([np.nan, 1.0])]
    )
    def test_rejects_empty_and_nonfinite(self, a):
        # an empty matrix used to raise IndexError, an inf entry to give an all-NaN root
        with pytest.raises(ValueError):
            sqrt_psd(a)

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError, match="not symmetric"):
            sqrt_psd(np.array([[1.0, 0.5], [0.0, 1.0]]))


def test_lapack_failure_raises_numeric_error(monkeypatch):
    def no_convergence(a):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigvalsh", no_convergence)
    with pytest.raises(NumericError, match="symmetric eigensolver failed: Eigenvalues"):
        sym_eigenvalues(np.eye(3))


def assert_multisets_close(got, expected, tol):
    got = list(np.asarray(got, dtype=complex))
    expected = list(np.asarray(expected, dtype=complex))
    assert len(got) == len(expected)
    for e in expected:
        nearest = min(range(len(got)), key=lambda i: abs(got[i] - e))
        assert abs(got[nearest] - e) <= tol, f"{got[nearest]} vs {e}"
        got.pop(nearest)


class TestPolyRoots:
    def test_linear(self):
        assert_multisets_close(poly_roots([6.0, 2.0]), [-3.0], 0.0)

    def test_quadratic_real(self):
        assert_multisets_close(poly_roots([-1.0, 0.0, 1.0]), [1.0, -1.0], 1e-12)

    def test_quadratic_imaginary(self):
        assert_multisets_close(poly_roots([1.0, 0.0, 1.0]), [1j, -1j], 1e-12)

    def test_cubic(self):
        # (z - 2)(z - 3)(z - 5) = z^3 - 10 z^2 + 31 z - 30
        assert_multisets_close(poly_roots([-30.0, 31.0, -10.0, 1.0]), [2.0, 3.0, 5.0], 1e-8)

    def test_strided_views(self):
        # (z - 2)(z - 3)(z - 5), ascending, given as a reversed and as a strided view
        desc = np.array([1.0, -10.0, 31.0, -30.0], dtype=complex)
        spaced = np.zeros(8, dtype=complex)
        spaced[::2] = desc[::-1]
        for coeffs in (desc[::-1], spaced[::2]):
            assert_multisets_close(poly_roots(coeffs), [2.0, 3.0, 5.0], 1e-8)

    def test_trailing_zero_trim(self):
        assert_multisets_close(poly_roots([6.0, 5.0, 1.0, 0.0, 0.0]), [-2.0, -3.0], 1e-10)

    @pytest.mark.parametrize("degree", [2, 4, 8])
    def test_residual_bound(self, degree):
        rng = np.random.default_rng(degree)
        coeffs = rng.standard_normal(degree + 1) + 1j * rng.standard_normal(degree + 1)
        roots = poly_roots(coeffs)
        bound = 1e-8 * np.max(np.abs(coeffs))
        for r in roots:
            value = np.polyval(coeffs[::-1], r)
            assert abs(value) <= bound * max(1.0, abs(r)) ** degree

    def test_root_extension(self):
        rng = np.random.default_rng(7)
        coeffs = rng.standard_normal(5) + 1j * rng.standard_normal(5)
        extra = 1.5 - 0.5j
        extended = np.convolve(coeffs, [-extra, 1.0])
        base = poly_roots(coeffs)
        got = poly_roots(extended)
        assert_multisets_close(got, np.concatenate([base, [extra]]), 1e-7)

    def test_rejects_constant(self):
        with pytest.raises(ValueError):
            poly_roots([3.0])
        with pytest.raises(ValueError):
            poly_roots([3.0, 0.0])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, np.inf)])
    @pytest.mark.parametrize("degree", [1, 3])
    @pytest.mark.parametrize("where", [0, -1])
    def test_rejects_non_finite_coefficients(self, bad, degree, where):
        # degree 1 used to return -inf+nanj, higher degrees to warn and fail in LAPACK
        coeffs = np.ones(degree + 1, dtype=complex)
        coeffs[where] = bad
        with pytest.raises(ValueError, match="coefficients must be finite"):
            poly_roots(coeffs)

    @pytest.mark.parametrize("degree", [1, 2])
    def test_subnormal_leading_coefficient(self, degree):
        # 1 / 2^-1060 overflows, so dividing by the leading coefficient alone
        # used to warn and hand the companion QR a matrix of infinities
        coeffs = np.zeros(degree + 1)
        coeffs[0], coeffs[-1] = -(2.0**-1000), 2.0**-1060
        expected = 2.0 ** (60 / degree) * np.exp(2j * np.pi * np.arange(degree) / degree)
        assert_multisets_close(poly_roots(coeffs), expected, 1e-12 * 2.0 ** (60 / degree))

    def test_monic_overflow_names_the_degree(self):
        # the monic constant term would be 1e320, past the largest float
        with pytest.raises(NumericError, match="degree-2 polynomial overflow"):
            poly_roots([1.0, 0.0, 1e-320])
