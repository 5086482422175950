"""Quantitative model-vs-simulation comparison.

The headline statistic is the Kolmogorov-Smirnov distance between the
predicted CDF and the pooled empirical CDF, evaluated at the pooled
eigenvalues with proper one-sided limits at the shared atom at zero.
The predicted CDF is F in closed form from the solved roots at the grid
nodes, interpolated between them: no quadrature and no rescaling.  An
L1 density distance against the simulation histogram complements it.

`EmpiricalSpectrum.pooled`, sorted once, is the one pool-sized array
either distance reads.  The L1 uses its histogram, whose counts
`EmpiricalSpectrum` read off it by `searchsorted` of the bin edges.  The
KS takes the zero atom in one comparison and walks the nonzero values in
fixed chunks, reading each value's ECDF limits off its position in the
pool and the model CDF on that chunk alone, so every other array
`compare` holds is O(chunk) or O(bins + grid), however many trials were
pooled.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .mc import EmpiricalSpectrum
from .rmt import SpectralDensity

_CHUNK = 2**12  # pooled values per step of compare's KS walk; bounds its temporaries


@dataclass(frozen=True)
class ComparisonReport:
    ks: float
    l1: float
    zero_mass_model: float
    zero_frac_empirical: float

    def __post_init__(self):
        if not 0 <= self.ks <= 1:
            raise ValueError(f"ks must lie in [0, 1], got {self.ks}")
        if self.l1 < 0:
            raise ValueError(f"l1 must be >= 0, got {self.l1}")


def model_cdf(d: SpectralDensity, x) -> np.ndarray | float:
    """Model CDF at x: `d.cdf`, the closed-form F at the grid nodes, interpolated.

    The zero atom of mass a = d.zero_mass is a jump at 0, so the nodes'
    continuous part F - a [node >= 0] is interpolated linearly and a is
    added back for x >= 0.  Below 0 the CDF is 0, between 0 and the first
    node it takes the first node's value, and beyond the last node it is 1.
    Besides O(grid) arrays it holds the result, shaped as x, and one
    boolean mask at a time.
    """
    a = d.zero_mass
    xs = np.asarray(x, dtype=float)
    # np.interp returns a scalar for a 0-d x; a 0-d mask then indexes the 1-element array whole
    out = np.atleast_1d(np.interp(xs, d.grid, d.cdf - a * (d.grid >= 0)))
    out += a
    out[xs < 0] = 0.0
    out[xs > d.grid[-1]] = 1.0
    return out if xs.ndim else float(out[0])


def _chunk_ks(model: SpectralDensity, pooled: np.ndarray, lo: int) -> float:
    """KS over pooled[lo : lo + _CHUNK], a chunk of the sorted pool's nonzero values.

    The value at pool position i has i values before it and i + 1 up to
    it, so its ECDF limits are i/n and (i + 1)/n; the model CDF is
    continuous away from 0, so both of its limits there are F(x).  Over a
    run of equal values the largest distance falls at the run's ends, so
    every value is taken as it is, ties included.  The temporaries are
    O(chunk) and are freed on return, before the next chunk.
    """
    f = model_cdf(model, pooled[lo : lo + _CHUNK])
    i = np.arange(lo, lo + len(f))
    n = len(pooled)
    return float(max(np.max(np.abs(f - i / n)), np.max(np.abs(f - (i + 1) / n))))


def compare(model: SpectralDensity, emp: EmpiricalSpectrum) -> ComparisonReport:
    """KS and L1 distances between a predicted density and pooled eigenvalues.

    KS is the two-sided sup over the pooled points and zero.  At zero,
    where the model's atom sits, both CDFs' left limits are 0, so
    agreeing zero masses do not register as distance and zero is one
    comparison, |F(0) - zero_count/n|.  The sorted pool's nonzero part is
    walked in chunks of 4096 values (`_chunk_ks`), each value's ECDF
    limits read off its position and the model CDF evaluated on the chunk
    alone, and the largest of these sups is the KS.  Beside the pool,
    compare holds a few arrays of one chunk and O(bins + grid) ones: about
    0.17 MB at a 1500-point grid, for 25 500 pooled values or for a
    million.
    """
    pooled, zeros = emp.pooled, emp.zero_count
    ks = abs(model_cdf(model, 0.0) - zeros / len(pooled))
    for lo in range(zeros, len(pooled), _CHUNK):
        ks = max(ks, _chunk_ks(model, pooled, lo))

    mids = 0.5 * (emp.hist_edges[:-1] + emp.hist_edges[1:])
    emp_density = np.interp(model.grid, mids, emp.hist_heights, left=0.0, right=0.0)
    l1 = float(np.trapezoid(np.abs(model.values - emp_density), model.grid))

    return ComparisonReport(
        ks=ks,
        l1=l1,
        zero_mass_model=model.zero_mass,
        zero_frac_empirical=emp.zero_fraction,
    )
