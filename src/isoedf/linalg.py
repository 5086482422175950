"""Dense linear algebra kernels behind the rest of the package.

Thin contract layer over LAPACK (via numpy): input validation, ordering
and tolerance conventions live here so callers never touch numpy.linalg
directly.  Every matrix passes one gate, `_square`, a symmetric one also
`_symmetric`, and every LAPACK call goes through `_lapack`, which raises
NumericError where LAPACK fails.  Eigenvalues that must be >= 0 pass one
round-off floor, `psd_floor`: a negative within 1e-10 of the largest is
set to 0.0, and anything more negative raises.
"""

from __future__ import annotations

import math

import numpy as np

_POLISH_MAX_STEP = 1e-6  # relative Newton step beyond which a root is left as is


class NumericError(RuntimeError):
    """A kernel failed: LAPACK did not converge, or a result left the float range."""


def _square(a, dtype) -> np.ndarray:
    """a as a finite, square, at least 1 x 1 array of dtype, else ValueError."""
    a = np.asarray(a, dtype=dtype)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] < 1:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise ValueError("matrix entries must be finite")
    return a


def _symmetric(a) -> np.ndarray:
    """a as _square's float matrix; ValueError unless it is exactly symmetric."""
    a = _square(a, float)
    if not np.array_equal(a, a.T):
        raise ValueError("matrix is not symmetric")
    return a


def _lapack(solver, a: np.ndarray, what: str):
    """solver(a), with a LAPACK failure raised as NumericError naming `what`."""
    try:
        return solver(a)
    except np.linalg.LinAlgError as e:
        raise NumericError(f"{what} failed: {e}") from e


def psd_floor(values) -> np.ndarray:
    """values as a new float array with the round-off negatives set to 0.0.

    A value below -1e-10 max(largest value, 0) is not round-off: ValueError
    ("negative eigenvalue ..."), and so is a NaN.  Where no value is
    positive the floor is 0, so any negative raises.
    """
    values = np.asarray(values, dtype=float)
    low, floor = values.min(), -1e-10 * max(values.max(), 0.0)
    if not low >= floor:  # a NaN is refused too
        raise ValueError(f"negative eigenvalue {low:.3e} beyond the round-off floor {floor:.3e}")
    return np.maximum(values, 0.0)


def sym_eigenvalues(a: np.ndarray) -> np.ndarray:
    """All eigenvalues of a real symmetric matrix, sorted descending."""
    a = _symmetric(a)
    return _lapack(np.linalg.eigvalsh, a, "symmetric eigensolver")[::-1].copy()


def hermitian_eigenvalues(a: np.ndarray) -> np.ndarray:
    """All eigenvalues of a complex Hermitian matrix, sorted descending.

    Rejects inputs whose Hermitian defect ||a^H - a||_F exceeds 1e-10
    relative to ||a||_F.  The check makes one temporary, a^H - a laid out
    as a, and takes both norms as square roots of vdot sums.  Where
    1e-20 ||a||_F^2 is not a normal float, the sums would over- or
    underflow, so there the check runs on a times the power of two that
    brings its largest real or imaginary part into [0.5, 1), a scaling
    exact for every entry above 2^-1022 of that part.
    """
    a = _square(a, complex)
    b, sq = a, np.vdot(a, a).real
    if not np.finfo(float).tiny <= 1e-20 * sq < math.inf:
        _, e = np.frexp(max(np.abs(a.real).max(), np.abs(a.imag).max()))
        b = np.ldexp(a.real, -e) + 1j * np.ldexp(a.imag, -e)
        sq = np.vdot(b, b).real
    defect = np.conjugate(b.T, order="C")
    defect -= b
    if math.sqrt(np.vdot(defect, defect).real) > 1e-10 * math.sqrt(sq):
        raise ValueError("matrix is not Hermitian within 1e-10 relative tolerance")
    return _lapack(np.linalg.eigvalsh, a, "Hermitian eigensolver")[::-1].copy()


def singular_values(a: np.ndarray) -> np.ndarray:
    """All singular values of a matrix, sorted descending, with no singular vectors.

    LAPACK's divide and conquer SVD (`gesdd`) of the m x n matrix a gives
    min(m, n) values.  There is no input gate: a caller that can hand in a
    non-finite entry checks for it first.
    """
    return _lapack(np.linalg.svdvals, a, "singular value decomposition")


def sqrt_psd(a: np.ndarray) -> np.ndarray:
    """Symmetric PSD square root B with B @ B ~= a.

    The eigenvalues pass `psd_floor`: round-off negatives count as zero,
    and anything more negative raises ValueError.
    """
    a = _symmetric(a)
    vals, vecs = _lapack(np.linalg.eigh, a, "symmetric eigensolver")
    b = (vecs * np.sqrt(psd_floor(vals))) @ vecs.T
    return (b + b.T) / 2


def poly_roots(coeffs: np.ndarray) -> np.ndarray:
    """All roots of a polynomial given by ascending coefficients c0..cd.

    Companion-matrix eigenvalues; the QR path balances the companion
    matrix first, which matters because the convolution polynomials feed
    in coefficients spanning many orders of magnitude near support edges.
    Each eigenvalue is then refined by Newton steps on the polynomial:
    near clustered roots the eigenvalues alone can be off by 1e-8
    relative, enough to give a root just below the real axis a positive
    imaginary part.  Degree 1 takes the same path: its 1 x 1 companion
    matrix holds -c0/c1, and the polish leaves that root as it is.
    Coefficients must be finite, else ValueError; where the monic
    coefficients overflow, NumericError names the degree.
    """
    coeffs = np.atleast_1d(np.asarray(coeffs, dtype=complex))
    if not np.isfinite(coeffs).all():
        raise ValueError("polynomial coefficients must be finite")
    coeffs = np.trim_zeros(coeffs, "b")  # drop zero leading coefficients
    if len(coeffs) < 2:
        raise ValueError("polynomial degree must be at least 1")
    d = len(coeffs) - 1
    # an exact power-of-two scaling that brings the largest coefficient into
    # [0.5, 1), so the division overflows only where the monic ones do
    _, e = np.frexp(np.abs(coeffs).max())
    coeffs = np.ldexp(coeffs.real, -e) + 1j * np.ldexp(coeffs.imag, -e)
    with np.errstate(all="ignore"):  # the leading one may have underflowed to 0
        monic = coeffs / coeffs[-1]
    if not np.isfinite(monic).all():
        raise NumericError(f"monic coefficients of the degree-{d} polynomial overflow")
    comp = np.zeros((d, d), dtype=complex)
    comp[0, :] = -monic[d - 1 :: -1]
    comp[1:, :-1] = np.eye(d - 1)
    roots = _lapack(np.linalg.eigvals, _square(comp, complex), f"companion QR for degree {d}")
    return _polish_roots(monic[::-1], roots)


def _polish_roots(desc: np.ndarray, roots: np.ndarray) -> np.ndarray:
    """Two Newton steps on the polynomial with descending coefficients `desc`.

    A step longer than 1e-6 relative (or not finite) is dropped: it would
    move the root rather than refine it, as at a near-multiple root.
    """
    deriv = np.polyder(desc)
    with np.errstate(all="ignore"):
        for _ in range(2):
            step = np.polyval(desc, roots) / np.polyval(deriv, roots)
            small = np.abs(step) <= _POLISH_MAX_STEP * np.maximum(1.0, np.abs(roots))
            roots = np.where(small, roots - step, roots)
    return roots
