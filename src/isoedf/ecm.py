"""Ensemble covariance of cylindrically isotropic noise on a uniform line array.

The spatial correlation between sensors p and q is J0(2 pi zeta |p-q|),
so the covariance is a symmetric Toeplitz matrix with unit diagonal.  Its
eigenvalues cluster near 2/alpha with a handful of well separated large
ones; the Szego symbol F(w) = 2/sqrt(alpha^2 - w^2) describes the limit.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .linalg import psd_floor, sym_eigenvalues
from .specfun import bessel_j0


def check_int(name: str, v, lo: int, hi: float = math.inf) -> None:
    """Raise ValueError unless v is a Python or NumPy integer with lo <= v < hi."""
    if not (isinstance(v, (int, np.integer)) and lo <= v < hi):
        raise ValueError(f"{name} must be an integer in [{lo}, {hi}), got {v!r}")


@dataclass(frozen=True)
class ArrayNoiseConfig:
    """Uniform line array in an azimuthally isotropic noise field.

    n: sensor count, zeta: sensor spacing over wavelength, kept as a
    Python float so that equal arrays hash equal (the spectrum cache key).
    """

    n: int
    zeta: float = 0.5

    def __post_init__(self):
        check_int("sensor count n", self.n, 2)
        if np.ndim(self.zeta) != 0:
            raise ValueError(f"zeta must be a scalar, got {self.zeta!r}")
        if not (self.zeta > 0 and math.isfinite(self.alpha)):
            raise ValueError(f"zeta must be > 0 with alpha = 2 pi zeta finite, got {self.zeta}")
        object.__setattr__(self, "zeta", float(self.zeta))

    @property
    def alpha(self) -> float:
        """Angular sampling rate 2 pi zeta (radians per sensor index)."""
        return 2 * math.pi * self.zeta


@dataclass(frozen=True)
class EnsembleSpectrum:
    """Eigenvalues of the ensemble covariance, descending; n is their count."""

    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if values.ndim != 1 or len(values) < 1 or not np.isfinite(values).all():
            raise ValueError("values must be a non-empty vector of finite eigenvalues")
        if np.any(np.diff(values) > 0):
            raise ValueError("eigenvalues must be sorted descending")
        # tiny negatives are round-off from the near-singular Toeplitz family
        values = psd_floor(values)
        values.flags.writeable = False  # cached spectra are shared between callers
        object.__setattr__(self, "values", values)

    @property
    def n(self) -> int:
        return len(self.values)

    @property
    def gamma_n(self) -> float:
        return float(self.values[-1])


def _j0_row(cfg: ArrayNoiseConfig) -> np.ndarray:
    """First row of the covariance: J0(alpha k) for k = 0 .. n-1."""
    return bessel_j0(cfg.alpha * np.arange(cfg.n))


def _toeplitz(row: np.ndarray) -> np.ndarray:
    """Read-only view of the symmetric Toeplitz matrix with first row `row`."""
    m = len(row)
    mirrored = np.concatenate([row[:0:-1], row])  # mirrored[k] = row[|k - (m-1)|]
    return sliding_window_view(mirrored, m)[::-1]


def build_ecm(cfg: ArrayNoiseConfig) -> np.ndarray:
    """N x N covariance: entry (p, q) = J0(alpha |p - q|), unit diagonal."""
    return _toeplitz(_j0_row(cfg)).copy()


# A sweep over c, L or mode reuses one array, and a figure draws a few; an
# entry is 8 N bytes (8 KB at N = 1024), so 16 arrays stay well under 1 MB
# up to N = 4096 while the cache cannot grow with a long-lived process.
SPECTRUM_CACHE_SIZE = 16


@functools.lru_cache(maxsize=SPECTRUM_CACHE_SIZE)
def ensemble_spectrum(cfg: ArrayNoiseConfig) -> EnsembleSpectrum:
    """Descending spectrum of the ensemble covariance, from two half-size solves.

    Results are cached per array (n, zeta), for the last
    SPECTRUM_CACHE_SIZE arrays asked for: every caller with an equal config
    shares one spectrum, whose values are read-only.  `cache_clear()` drops
    them all.

    A symmetric Toeplitz matrix T is centrosymmetric, so its even and odd
    eigenvectors decouple (Cantoni & Butler, Linear Algebra Appl. 13,
    1976).  With m = n // 2, A = T[:m, :m] and JB = T[n-m:, :m] with its
    rows reversed, the spectrum is eig(A + JB) together with eig(A - JB);
    for odd n the even block is bordered by sqrt(2) T[:m, m] and T[m, m].
    Both blocks are read straight off the first row r of T:
    A[i, j] = r[|i - j|] and JB[i, j] = r[n-1-i-j], so T itself is never
    formed.  The even block, bordered or not, is written into one array,
    solved and dropped before A - JB is formed, so no more than one
    half-block and LAPACK's copy of it are held at a time: at n = 1024
    that is two 512 x 512 arrays, not three.
    """
    row = _j0_row(cfg)
    n = cfg.n
    m = n // 2
    a = _toeplitz(row[:m])
    jb = sliding_window_view(row[::-1], m)[:m]
    even = np.empty((n - m, n - m))
    np.add(a, jb, out=even[:m, :m])
    if n % 2:
        even[m, :m] = even[:m, m] = math.sqrt(2) * row[m:0:-1]
        even[m, m] = row[0]
    values = sym_eigenvalues(even)
    del even  # freed before a - jb is formed: one half-block at a time
    values = np.concatenate([values, sym_eigenvalues(a - jb)])
    return EnsembleSpectrum(values=np.sort(values)[::-1])

