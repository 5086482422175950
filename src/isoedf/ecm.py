"""Ensemble covariance of cylindrically isotropic noise on a uniform line array.

The spatial correlation between sensors p and q is J0(2 pi zeta |p-q|),
so the covariance is a symmetric Toeplitz matrix with unit diagonal.  Its
eigenvalues cluster near 2/alpha with a handful of well separated large
ones; the Szego symbol F(w) = 2/sqrt(alpha^2 - w^2) describes the limit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .linalg import sym_eigenvalues
from .specfun import bessel_j0


@dataclass(frozen=True)
class ArrayNoiseConfig:
    """Uniform line array in an azimuthally isotropic noise field.

    n: sensor count, zeta: sensor spacing over wavelength.
    """

    n: int
    zeta: float = 0.5

    def __post_init__(self):
        if int(self.n) != self.n or self.n < 2:
            raise ValueError(f"sensor count n must be an integer >= 2, got {self.n}")
        if not (self.zeta > 0):
            raise ValueError(f"zeta must be > 0, got {self.zeta}")

    @property
    def alpha(self) -> float:
        """Angular sampling rate 2 pi zeta (radians per sensor index)."""
        return 2 * math.pi * self.zeta


@dataclass(frozen=True)
class EnsembleSpectrum:
    """Eigenvalues of the ensemble covariance, descending."""

    values: np.ndarray = field(repr=False)
    n: int

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if values.ndim != 1 or len(values) != self.n or self.n < 1:
            raise ValueError("values must be a length-n vector")
        if np.any(np.diff(values) > 0):
            raise ValueError("eigenvalues must be sorted descending")
        if values[0] > 0 and values[-1] < -1e-10 * values[0]:
            raise ValueError(
                f"negative eigenvalue {values[-1]:.3e} beyond round-off tolerance"
            )
        # tiny negatives are round-off from the near-singular Toeplitz family
        object.__setattr__(self, "values", np.clip(values, 0.0, None))

    @property
    def gamma_1(self) -> float:
        return float(self.values[0])

    @property
    def gamma_n(self) -> float:
        return float(self.values[-1])


def build_ecm(cfg: ArrayNoiseConfig) -> np.ndarray:
    """N x N covariance: entry (p, q) = J0(alpha |p - q|), unit diagonal."""
    first_row = np.array([bessel_j0(cfg.alpha * k) for k in range(cfg.n)])
    idx = np.arange(cfg.n)
    return first_row[np.abs(idx[:, None] - idx[None, :])]


def ensemble_spectrum(cfg: ArrayNoiseConfig) -> EnsembleSpectrum:
    """Descending spectrum of the ensemble covariance, from two half-size solves.

    A symmetric Toeplitz matrix T is centrosymmetric, so its even and odd
    eigenvectors decouple (Cantoni & Butler, Linear Algebra Appl. 13,
    1976).  With m = n // 2, A = T[:m, :m] and JB = T[n-m:, :m] with its
    rows reversed, the spectrum is eig(A + JB) together with eig(A - JB);
    for odd n the even block is bordered by sqrt(2) T[:m, m] and T[m, m].
    """
    t = build_ecm(cfg)
    n = cfg.n
    m = n // 2
    a = t[:m, :m]
    jb = t[n - m :, :m][::-1]
    even = a + jb
    if n % 2:
        border = math.sqrt(2) * t[:m, m : m + 1]
        even = np.block([[even, border], [border.T, t[m : m + 1, m : m + 1]]])
    values = np.concatenate([sym_eigenvalues(even), sym_eigenvalues(a - jb)])
    return EnsembleSpectrum(values=np.sort(values)[::-1], n=n)


def szego_density(omega: float, cfg: ArrayNoiseConfig) -> float:
    """Szego symbol F(w) = 2/sqrt(alpha^2 - w^2) of the covariance Toeplitz family.

    Diagnostic only: the Toeplitz eigenvalues asymptotically distribute
    like samples of F, which is what motivates collapsing the clustered
    bulk.  Defined for |w| < alpha.
    """
    alpha = cfg.alpha
    if abs(omega) >= alpha:
        raise ValueError(f"|omega| must be < alpha = {alpha:.6g}, got {omega}")
    return 2.0 / math.sqrt(alpha * alpha - omega * omega)
