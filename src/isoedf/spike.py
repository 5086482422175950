"""Spiked-covariance bookkeeping: partition the ensemble spectrum and collapse it.

Relative to the background level gamma_N, eigenvalues above
gamma_N (1+sqrt(c))^2 survive the sample smearing as distinct bumps;
those between gamma_N (1+sqrt(c)) and the square threshold blur into one
mid atom; the rest are indistinguishable from background.  The collapsed
measure is what keeps the convolution polynomial degree small.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .ecm import EnsembleSpectrum
from .specfun import check_ratio


@dataclass(frozen=True)
class AtomicMeasure:
    """Discrete probability measure ((location, weight), ...), stored as given.

    Locations must be finite, >= 0 and strictly increasing; weights in (0, 1] sum to 1.
    """

    atoms: tuple[tuple[float, float], ...]
    kind: str

    def __post_init__(self):
        if self.kind not in ("reduced", "full"):
            raise ValueError(f"kind must be 'reduced' or 'full', got {self.kind!r}")
        if not self.atoms:
            raise ValueError("measure must have at least one atom")
        locs = [t for t, _ in self.atoms]
        weights = [w for _, w in self.atoms]
        if any(not 0 <= t < math.inf for t in locs):
            raise ValueError("atom locations must be finite and >= 0")
        if any(np.diff(locs) <= 0):
            raise ValueError("atom locations must be strictly increasing")
        if any(not 0 < w <= 1 for w in weights):
            raise ValueError("atom weights must lie in (0, 1]")
        if abs(math.fsum(weights) - 1.0) > 1e-12:
            raise ValueError(f"atom weights must sum to 1, got {math.fsum(weights)!r}")

    @property
    def locations(self) -> np.ndarray:
        return np.array([t for t, _ in self.atoms])

    @property
    def weights(self) -> np.ndarray:
        return np.array([w for _, w in self.atoms])

    @property
    def mean(self) -> float:
        return math.fsum(t * w for t, w in self.atoms)


def _canonical(pairs, kind: str, merge_tol: float = 0.0) -> AtomicMeasure:
    """Sort ascending and merge locations that lie within merge_tol."""
    pairs = sorted((float(t), float(w)) for t, w in pairs)
    merged: list[list[float]] = []
    for t, w in pairs:
        if merged and t - merged[-1][0] <= merge_tol:
            merged[-1][1] += w
        else:
            merged.append([t, w])
    return AtomicMeasure(atoms=tuple((t, w) for t, w in merged), kind=kind)


@dataclass(frozen=True)
class SpikeClassification:
    """Partition of the spectrum against the scaled spiked-model thresholds."""

    gamma_dist: np.ndarray = field(repr=False)  # descending, all > t_high
    n_mid: int
    n_low: int
    gamma_mid: float
    gamma_n: float
    t_low: float
    t_high: float


def classify(spectrum: EnsembleSpectrum, c: float) -> SpikeClassification:
    """Partition eigenvalues with thresholds scaled by the background gamma_N.

    Ties follow the set definitions: a value exactly at t_low counts as
    background, exactly at t_high counts as mid band (distinct atoms
    require strict excess).
    """
    check_ratio(c)
    values = spectrum.values
    g_n = spectrum.gamma_n
    if g_n <= 0:
        raise ValueError(f"degenerate spectrum: gamma_N = {g_n} must be > 0")
    rc = math.sqrt(c)
    t_low = g_n * (1 + rc)
    t_high = g_n * (1 + rc) ** 2
    gamma_dist = values[values > t_high]
    rest = values[len(gamma_dist) :]
    n_mid = int(np.count_nonzero(rest > t_low))
    n_low = len(rest) - n_mid
    return SpikeClassification(
        gamma_dist=gamma_dist,
        n_mid=n_mid,
        n_low=n_low,
        gamma_mid=g_n * ((1 + rc) + (1 + rc) ** 2) / 2,
        gamma_n=g_n,
        t_low=t_low,
        t_high=t_high,
    )


def reduce(cls: SpikeClassification) -> AtomicMeasure:
    """Collapsed measure: distinct atoms at 1/n each, mid and background lumps.

    n = len(gamma_dist) + n_mid + n_low is the size of the classified
    spectrum.  Atoms with zero count are omitted entirely so the
    downstream polynomial degree stays minimal.
    """
    n = len(cls.gamma_dist) + cls.n_mid + cls.n_low
    pairs = [(float(g), 1.0 / n) for g in cls.gamma_dist]
    if cls.n_mid > 0:
        pairs.append((cls.gamma_mid, cls.n_mid / n))
    if cls.n_low > 0:
        pairs.append((cls.gamma_n, cls.n_low / n))
    return _canonical(pairs, kind="reduced")


def full_measure(spectrum: EnsembleSpectrum) -> AtomicMeasure:
    """All N eigenvalues with mass 1/N each; coincident ones merge."""
    values, n = spectrum.values, spectrum.n
    tol = 1e-10 * float(values[0])
    return _canonical(((float(g), 1.0 / n) for g in values), kind="full", merge_tol=tol)
