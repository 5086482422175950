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
KS walks it in fixed chunks, reading each chunk's ECDF limits by
`searchsorted` on the whole pool and the model CDF on that chunk alone,
so every other array `compare` holds is O(chunk) or O(bins + grid),
however many trials were pooled.
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
    """KS over the distinct values of the sorted pool that begin in pooled[lo : lo + _CHUNK].

    A value equal to pooled[lo - 1] began in an earlier chunk, so a run of
    equal values is taken once; a chunk inside such a run gives 0.  The
    temporaries are O(chunk) and are freed on return, before the next chunk.
    """
    chunk = pooled[lo : lo + _CHUNK]
    prev = pooled[lo - 1] if lo else np.nan  # NaN differs from every value
    xs = chunk[np.concatenate(([chunk[0] != prev], chunk[1:] != chunk[:-1]))]
    f = model_cdf(model, xs)
    right = np.max(np.abs(f - np.searchsorted(pooled, xs, side="right") / len(pooled)), initial=0)
    f[xs == 0.0] = 0.0  # the left limit at the atom: model_cdf is 0 below zero
    left = np.max(np.abs(f - np.searchsorted(pooled, xs, side="left") / len(pooled)), initial=0)
    return float(max(right, left))


def compare(model: SpectralDensity, emp: EmpiricalSpectrum) -> ComparisonReport:
    """KS and L1 distances between a predicted density and pooled eigenvalues.

    KS is the two-sided sup over the pooled points; at the shared atom at
    zero the pre-jump (left) limits of both CDFs are compared against
    each other, so agreeing zero masses do not register as distance.
    The sorted pool is walked in chunks of 4096 values (`_chunk_ks`), and
    the largest chunk sup is the KS.  A chunk's distinct values are read
    off it with a neighbour mask, not np.unique, which would sort a copy
    of the pool again and on first use imports numpy.ma (about 1 MB).
    Their ECDF limits are `searchsorted` positions in the whole pool and
    the model CDF is evaluated on them alone, so beside the pool compare
    holds a few arrays of one chunk and O(bins + grid) ones: about 0.17 MB
    at a 1500-point grid, for 25 500 pooled values or for a million.
    """
    pooled = emp.pooled
    ks = max(_chunk_ks(model, pooled, lo) for lo in range(0, len(pooled), _CHUNK))

    mids = 0.5 * (emp.hist_edges[:-1] + emp.hist_edges[1:])
    emp_density = np.interp(model.grid, mids, emp.hist_heights, left=0.0, right=0.0)
    l1 = float(np.trapezoid(np.abs(model.values - emp_density), model.grid))

    return ComparisonReport(
        ks=ks,
        l1=l1,
        zero_mass_model=model.zero_mass,
        zero_frac_empirical=emp.zero_fraction,
    )
