"""Quantitative model-vs-simulation comparison.

The headline statistic is the Kolmogorov-Smirnov distance between the
predicted CDF and the pooled empirical CDF, evaluated at the pooled
eigenvalues with proper one-sided limits at the shared atom at zero.
The predicted CDF is F in closed form from the solved roots at the grid
nodes, interpolated between them: no quadrature and no rescaling.  An
L1 density distance against the simulation histogram complements it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .mc import EmpiricalSpectrum
from .rmt import SpectralDensity


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
    """
    a = d.zero_mass
    xs = np.asarray(x, dtype=float)
    inside = np.interp(xs, d.grid, d.cdf - a * (d.grid >= 0)) + a
    out = np.select([xs < 0, xs > d.grid[-1]], [0.0, 1.0], inside)
    return out if out.ndim else float(out)


def compare(model: SpectralDensity, emp: EmpiricalSpectrum) -> ComparisonReport:
    """KS and L1 distances between a predicted density and pooled eigenvalues.

    KS is the two-sided sup over the pooled points; at the shared atom at
    zero the pre-jump (left) limits of both CDFs are compared against
    each other, so agreeing zero masses do not register as distance.
    The distinct pooled values are read off the sorted pool with a
    neighbour mask: np.unique would sort a copy of it again, and on first
    use it imports numpy.ma, about 1 MB.
    """
    pooled = emp.pooled  # ascending, so its distinct values follow each change
    xs = pooled[np.concatenate(([True], pooled[1:] != pooled[:-1]))]
    f_right = model_cdf(model, xs)
    f_left = np.where(xs == 0.0, 0.0, f_right)  # model_cdf is 0 below zero
    e_right = emp.ecdf(xs)
    e_left = np.searchsorted(pooled, xs, side="left") / len(pooled)
    ks = max(
        float(np.max(np.abs(f_right - e_right))),
        float(np.max(np.abs(f_left - e_left))),
    )

    mids = 0.5 * (emp.hist_edges[:-1] + emp.hist_edges[1:])
    emp_density = np.interp(model.grid, mids, emp.hist_heights, left=0.0, right=0.0)
    l1 = float(np.trapezoid(np.abs(model.values - emp_density), model.grid))

    return ComparisonReport(
        ks=ks,
        l1=l1,
        zero_mass_model=model.zero_mass,
        zero_frac_empirical=emp.zero_fraction,
    )
