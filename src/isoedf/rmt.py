"""Free multiplicative convolution of an atomic spectrum with the Wishart family.

For a population measure H = sum_i w_i delta(t_i) and aspect ratio
c = N/L, the Stieltjes transform m(z) of the limiting sample-covariance
spectrum solves the self-consistency equation

    m = sum_i w_i / (t_i (1 - c - c z m) - z),

the scalar master equation of the convolution.  Cleared of denominators
it is a degree-(k+1) polynomial in m; stieltjes_by_enumeration is the
per-point reference that enumerates its roots.  The grid solver instead
works on the whole grid at once in u = m + a/z, the transform of the
continuous part, where a = max(0, 1 - 1/c) is the zero atom's mass and
u = m for c <= 1.  With b = 1 - 1/c - a (0 for c >= 1) it reads

    G(u) = z u - a + sum_i w_i / (1 + c t_i (u + b/z)) = 0

and has exactly one root with Im u > 0; no term of G grows like 1/c.
One Newton continuation runs on the whole grid, summing G over at most
2^16 atoms x points at a time, while Im z steps down from the far field
to eta by a factor of 0.03 per level, each level starting from the root
above moved along its tangent.  A level above eta only supplies the
start of the next, so it is solved to a relative step of 1e-4 and only
on a subgrid: one grid point per bin of width 2 Im z plus the last
point.  Only a root that Newton landed, one whose full step from the
last iterate stays above the real axis, anchors its level: the tangent
du/dz is formed at those roots from Newton's own G' there, and the
roots and tangents are interpolated linearly onto the rest.  A landed
point whose start was already within 1e-4 of its root takes no further
level: it moves along its tangent straight to eta.  At those heights m
is smooth on the scale of Im z, so against solving every point at every
level the curves move by at most 4.3e-14 of their maximum (3.8e-15 on
the benchmark scenarios).  Every point is solved at eta, to a step of
1e-14; Newton's stop and a level's leave test measure against one
scale, max(1 - a, |u|), where 1 - a is the continuous part's mass.  The
last Newton sweep is the acceptance test: Newton returns the iterate
at which G was last evaluated with G and G' there, and a point whose
root has Im u <= 0 or a residual above 1e-10 raises SolverError.  The
density is Im u/pi, and the CDF is read from the same roots in closed
form, with no quadrature (_cdf).
"""

from __future__ import annotations

import cmath
import math
import time
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .ecm import ArrayNoiseConfig, check_int, ensemble_spectrum
from .linalg import poly_roots
from .spike import AtomicMeasure, classify, full_measure, reduce
from .specfun import check_ratio, zero_atom_mass

_RESIDUAL_TOL = 1e-10
_NEWTON_MAX_ITER = 20
_NEWTON_TOL = 1e-14
_ETA_RATIO = 0.03  # Im z shrinks by this factor per continuation level
_LEVEL_TOL = 1e-4  # relative Newton step that ends a level above eta
_BIN_WIDTH = 2.0  # a level above eta solves one grid point per bin this many Im z wide
_BLOCK_ELEMENTS = 2**16  # atoms x points in one block of _blocks; bounds the temporaries


class SolverError(RuntimeError):
    """A root failed the acceptance test: Im u > 0 and residual <= 1e-10.

    The message names the test, or both tests, that the root at z failed.
    """

    def __init__(self, z: complex, residual: float, im_u: float):
        self.z = z
        self.residual = residual
        self.im_u = im_u
        failed = []
        if not im_u > 0:
            failed.append(f"Im u = {im_u:.3e} <= 0")
        if not residual <= _RESIDUAL_TOL:
            failed.append(f"residual {residual:.3e} > {_RESIDUAL_TOL:g}")
        super().__init__(f"no admissible root at z = {z}: {' and '.join(failed)}")


@dataclass(frozen=True)
class FmcProblem:
    """Population spectrum plus aspect ratio; the input to the convolution."""

    measure: AtomicMeasure
    c: float

    def __post_init__(self):
        check_ratio(self.c)

    @property
    def zero_mass(self) -> float:
        return zero_atom_mass(self.c)


def polynomial_coefficients(p: FmcProblem, z: complex) -> np.ndarray:
    """Ascending coefficients in m of the denominator-cleared master equation.

    The polynomial has degree atom count + 1.  For the unit single-atom
    measure it is the quadratic  c z m^2 - (1 - c - z) m + 1.
    """
    atoms, c, z = p.measure.atoms, p.c, complex(z)
    k = len(atoms)
    # each factor is a_j + b_j m with a_j = t_j (1-c) - z, b_j = -c z t_j
    factors = [(t * (1 - c) - z, -c * z * t) for t, _ in atoms]
    coeffs = np.zeros(k + 2, dtype=complex)
    for i, (_, w) in enumerate(atoms):
        partial = np.array([1.0 + 0j])
        for j, (aj, bj) in enumerate(factors):
            if j != i:
                partial = np.convolve(partial, [aj, bj])
        coeffs[:k] += w * partial
    full = np.array([1.0 + 0j])
    for aj, bj in factors:
        full = np.convolve(full, [aj, bj])
    coeffs[1:] -= full
    return coeffs


def _newton(ct, w, a, b, z, u, tol=_NEWTON_TOL):
    """Newton on G(u) = z u - a + sum_i w_i / (1 + c t_i (u + b/z)), one root per z.

    ct = c t and w are (atoms, 1) columns; z and u are 1-D; b/z is formed
    once per call (it is 0 for c >= 1).  Each sweep takes G and G' from _g
    at the points still moving, picked by todo: on the first sweep a
    slice of every point, which copies the arrays whole where an index
    would gather and scatter them, and after it an index.  A step that
    would take Im u from positive to nonpositive is cut to land at half
    the old height, so an iterate never leaves the half plane that holds
    the root; the arrays are touched for the cut only where a tentative
    iterate has Im u <= 0.  A point stops once its step is at most tol
    relative to max(1 - a, |u|): 1 - a is the continuous part's mass, the
    scale of the far-field start -(1 - a)/z, and 1 for c <= 1.

    Returns the corrected roots u - step, and the iterates at which G was
    last evaluated together with G and G' there: the acceptance test runs
    on those, so it needs no further evaluation of G, and a level above
    eta takes its tangent from that G'.  The iterates lie within one
    final step, at most tol relative, of the corrected roots; a point
    that runs out of iterations returns its last evaluated iterate too.
    """
    u = np.array(u, dtype=complex)
    at, g_at, dg_at = np.empty_like(u), np.empty_like(u), np.empty_like(u)
    shift = b / z
    index, todo = np.arange(len(u)), slice(None)
    for _ in range(_NEWTON_MAX_ITER):
        ui = u[todo]
        g, dg = _g(ct, w, a, z[todo], ui, ui + shift[todo])
        at[todo], g_at[todo], dg_at[todo] = ui, g, dg
        step = g / dg
        new = ui - step
        low = new.imag <= 0
        if low.any():
            low &= ui.imag > 0
            step[low] *= 0.5 * ui.imag[low] / step.imag[low]  # to half the old height
            new[low] = ui[low] - step[low]
        u[todo] = new
        todo = index[todo][np.abs(step) > tol * np.maximum(1 - a, np.abs(new))]
        if not len(todo):
            break
    return u, at, g_at, dg_at


def _blocks(ct, v):
    """Yield (s, 1 + c t v[s]) over v in slices s of at most _BLOCK_ELEMENTS atoms x points.

    Each block is a fresh atoms x points array that the caller may
    overwrite.  It is dropped here before the next one is formed, so a
    caller that drops it too, as _g and _cdf do, holds one block at a
    time.  c t_i v_j is written as one real product of the column c t
    with the interleaved (re, im) pairs of a contiguous v: that is the
    complex product exactly while Im v > 0, and at most a zero's sign
    away from it elsewhere.  The plain ct * v, which casts ct to complex,
    gives the same bits but not the same time: on the mc_n51 benchmark's
    reduced N = 51 predictions, predict_s read a median 3.44 ms with it
    against 3.27 ms, over nine fresh 8 s runs each on a 2-vCPU host.
    """
    size = max(1, _BLOCK_ELEMENTS // len(ct))
    for lo in range(0, len(v), size):
        s = slice(lo, lo + size)
        t = np.multiply(ct, v[s].view(float)).view(complex)  # c t v
        t += 1
        yield s, t
        del t


def _g(ct, w, a, z, u, v):
    """G(u) and G'(u) = z - sum_i c t_i w_i / (1 + c t_i v)^2 at v = u + b/z.

    Each block of 1 + c t v from _blocks is inverted in place; its
    weighted atom sum is one matrix product with the row of w, and after
    squaring it in place, one with the row of c t w, formed once per call.
    G = (z u - a) + sum and G' are assembled in place, in that order.
    """
    g, dg = np.empty_like(v), np.empty_like(v)
    ctw = (ct * w).T
    for s, t in _blocks(ct, v):
        np.reciprocal(t, out=t)
        g[s] = _row_times(w.T, t)
        t *= t
        dg[s] = _row_times(ctw, t)
        del t  # freed before the next block is formed: one block at a time
    zu = z * u
    zu -= a
    zu += g
    return zu, np.subtract(z, dg, out=dg)


def _row_times(row, t):
    """row @ t for a real (1, atoms) row and a complex (atoms, points) array.

    Done as one real product on the interleaved (re, im) view of t.
    """
    return (row @ t.view(float)).view(complex)[0]


def _accepted(a, z, u, g):
    """Im u > 0 and raw residual |m - map(m)| / max(1, |m|) <= 1e-10, m = u - a/z.

    g is G(u) as Newton evaluated it at u, and the raw residual m - map(m)
    equals G(u)/z.  G has one root with Im u > 0, so the accepted root is
    unique; as Im(-a/z) >= 0 and Im(b/z) >= 0, it also has Im m > 0 and
    Im(m + (1 - 1/c)/z) > 0.
    """
    residual = np.abs(g / z) / np.maximum(1.0, np.abs(u - a / z))
    return (u.imag > 0) & (residual <= _RESIDUAL_TOL), residual


def _continue(ct, w, a, b, x, eta, top):
    """Roots at x + i eta, reached by Newton at Im z = 0.03 top, 0.03^2 top, ..., eta.

    The first level starts from the far-field value u = -(1 - a)/z at
    Im z = top, i.e. m = -1/z.  The levels above eta only have to land the
    next start near its root, so they stop at a relative step of
    _LEVEL_TOL, and each solves only a subgrid of the points still
    descending: the first x of every bin floor(x / (_BIN_WIDTH h)) plus the
    last one of the whole grid.  Only the landed roots anchor the level:
    those where a full Newton step from the last iterate, -G/G' there,
    would not cross the real axis.  A root whose steps were still being
    cut to half its height stopped on their shrinking size, not near the
    root, so it is interpolated like the unsolved points; where no root
    landed, the level hands its starts down unchanged.  At the landed
    points the tangent is du/dz = b/z^2 - (u + b/z)/G' (b = 0 for c >= 1),
    with the G' Newton formed on its last step there, or 0 where that is
    not finite.  The roots and tangents are interpolated linearly in x
    onto the other descending points: m(x + i h) is smooth on the scale
    h, so those make starts about as good as solved roots would.  Each
    next start is u + du/dz i (h_new - h), or u where that is not finite
    or has Im u <= 0.  Where the bins are narrower than the grid spacing
    every point is its own bin, so the low levels and a graded or
    non-uniform grid take the same path; there the interpolation's nodes
    are the landed points themselves, and np.interp returns their roots
    exactly.  A landed point whose start was already within _LEVEL_TOL
    of its root, on Newton's scale max(1 - a, |u|), leaves the descent:
    after anchoring its level's interpolation, it takes its tangent
    straight to eta (h_new = eta).  The level at eta solves every point to
    _NEWTON_TOL and returns what _newton returns there.
    """
    h = max(top, eta)
    u = -(1 - a) / (x + 1j * h)
    live = np.arange(len(x))  # the points still descending
    while True:
        h = max(eta, _ETA_RATIO * h)
        if h == eta or not len(live):
            return _newton(ct, w, a, b, x + 1j * eta, u)
        xl = x[live]
        first = np.ones(len(xl), dtype=bool)
        with np.errstate(over="ignore", invalid="ignore"):
            # below h ~ 1e-308 the bin numbers overflow to inf; their steps
            # inf - inf are nan, not 0, so every point stays its own bin
            bins = np.floor(xl / (_BIN_WIDTH * h))
            first[1:-1] = np.subtract(bins[1:-1], bins[:-2]) != 0
        sub = np.flatnonzero(first)
        xs, start = xl[sub], u[live[sub]]
        zs = xs + 1j * h
        roots, at, g, slope = _newton(ct, w, a, b, zs, start, _LEVEL_TOL)
        with np.errstate(all="ignore"):
            landed = at.imag > (g / slope).imag  # a full step from the last iterate stays up
            leave = np.zeros(len(xl), dtype=bool)
            near = np.abs(roots - start) <= _LEVEL_TOL * np.maximum(1 - a, np.abs(roots))
            leave[sub] = landed & near
            # the next start: at the next level, or at eta for a point that leaves
            dz = 1j * (np.where(leave, eta, max(eta, _ETA_RATIO * h)) - h)
            shift = b / zs  # shift/zs, not b/zs^2: at tiny c it cancels (roots + shift)/G' exactly
            tangent = shift / zs - (roots + shift) / slope
            tangent[~np.isfinite(tangent)] = 0
            xs, roots, tangent = xs[landed], roots[landed], tangent[landed]
            if not len(xs):
                continue  # no root anchors this level: its starts go down unchanged
            ul = np.interp(xl, xs, roots)
            guess = ul + np.interp(xl, xs, tangent) * dz
        u[live] = np.where(np.isfinite(guess) & (guess.imag > 0), guess, ul)
        live = live[~leave]


def _columns(p: FmcProblem):
    """ct = c t and w as (atoms, 1) columns, a = p.zero_mass and b = 1 - 1/c - a."""
    a = p.zero_mass
    return p.c * p.measure.locations[:, None], p.measure.weights[:, None], a, 1 - 1 / p.c - a


def _solve(p: FmcProblem, x: np.ndarray, eta: float) -> np.ndarray:
    """Roots u = m + a/z at z = x + i eta for every x.

    One eta continuation solves the whole grid, and its last Newton
    sweep gives each root with its G.  If a root fails the acceptance
    test on those, SolverError names the first such point's z, residual
    and Im u.
    """
    ct, w, a, b = _columns(p)
    z = x + 1j * eta
    _, u, g, _ = _continue(ct, w, a, b, x, eta, max(10.0, 2 * float(x[-1])))
    ok, residual = _accepted(a, z, u, g)
    if not ok.all():
        j = np.flatnonzero(~ok)[0]
        raise SolverError(complex(z[j]), float(residual[j]), float(u[j].imag))
    return u


def _upper_half_plane(z: complex) -> complex:
    z = complex(z)
    if not (z.imag > 0 and cmath.isfinite(z)):
        raise ValueError(f"z must be finite and lie in the upper half plane, got {z}")
    return z


def stieltjes_at(p: FmcProblem, z: complex) -> complex:
    """Stieltjes transform of the limiting spectrum at z (upper half plane).

    Runs the grid solver at the one point Re z with eta = Im z (z finite);
    a root that fails the acceptance test raises SolverError.
    """
    z = _upper_half_plane(z)
    u = _solve(p, np.array([z.real]), z.imag)[0]
    return complex(u - p.zero_mass / z)


def stieltjes_by_enumeration(p: FmcProblem, z: complex) -> complex:
    """Stieltjes transform at z by enumeration: the per-point O(k^3) reference.

    Each companion-matrix root of polynomial_coefficients(p, z) is polished
    by Newton on G; the one that passes the acceptance test with the least
    residual is returned, else SolverError.  Where the polynomial's monic
    coefficients overflow, as they can at small c (reduced N = 51,
    c = 1e-7 in the band of its top atom), poly_roots raises NumericError.
    The grid solver never calls this; z must be finite with Im z > 0.
    """
    z = _upper_half_plane(z)
    ct, w, a, b = _columns(p)
    roots = poly_roots(polynomial_coefficients(p, z))
    zs = np.full(len(roots), z)
    _, u, g, _ = _newton(ct, w, a, b, zs, roots + a / z)
    ok, residual = _accepted(a, zs, u, g)
    if not ok.any():
        j = np.argmin(np.where(np.isnan(residual), np.inf, residual))
        raise SolverError(z, float(residual[j]), float(u[j].imag))
    return complex(u[ok][np.argmin(residual[ok])] - a / z)


def _check_grid(grid) -> np.ndarray:
    """grid as a float array; ValueError unless finite, strictly ascending, 1-D, >= 2 points."""
    grid = np.asarray(grid, dtype=float)
    ok = grid.ndim == 1 and len(grid) >= 2 and np.isfinite(grid).all()
    if not (ok and np.all(np.diff(grid) > 0)):
        raise ValueError("grid must be a finite, strictly ascending 1-D array of >= 2 points")
    return grid


def _cdf(p: FmcProblem, x: np.ndarray, eta: float, u: np.ndarray) -> np.ndarray:
    """The limiting CDF F at each x, in closed form from the roots u at z = x + i eta.

    With v = u + b/z, a the zero atom's mass and every arg a principal value,

        F(x) = 1 + (1/pi) [Im(z u) - sum_i w_i arg(1 + c t_i v) + arg(-z u - b)/c - arg z]
               + (a/pi) atan2(eta, x) - a [x < 0],

    that is -Im L(z)/pi for L(z) = int log(lambda - z) dF(lambda), L' = -m,
    written with no term of size 1/c.  The atan2 term takes back the zero
    atom's Lorentzian tail at height eta, and the last one keeps the atom
    out of F below 0, so a node at exactly 0 takes the right limit and
    includes it.  The args are taken block by block from _blocks, each
    block dropped before the next is formed, as in _g.
    """
    ct, w, a, b = _columns(p)
    z = x + 1j * eta
    v = u + b / z
    args = np.empty(len(x))
    for s, t in _blocks(ct, v):
        args[s] = (w.T @ np.angle(t))[0]
        del t  # freed before the next block is formed: one block at a time
    zu = z * u
    bracket = zu.imag - args + np.angle(-zu - b) / p.c - np.angle(z)
    return 1 + bracket / math.pi + a / math.pi * np.arctan2(eta, x) - a * (x < 0)


@dataclass(frozen=True)
class SpectralDensity:
    """The limiting spectrum of a problem along a grid, read from its roots.

    Building one checks the grid and eta and solves the roots u = m + a/z
    at z = x + i eta for every grid point x, as `density_curve` describes;
    the grid may be any finite, strictly ascending 1-D sequence of >= 2
    points and is stored as a float array.  Everything else is read from
    the roots on first use and kept: `values`, the continuous part's
    density Im u/pi, and `cdf`, the model CDF F at each node in closed
    form.  `trapezoid_mass` integrates `values` by trapezoids, as the
    curve's own resolution check; `cdf` does not use it.
    """

    problem: FmcProblem
    grid: np.ndarray = field(repr=False)
    eta: float
    roots: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        grid = _check_grid(self.grid)
        if not 0 < self.eta < math.inf:
            raise ValueError(f"eta must be finite and > 0, got {self.eta}")
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "roots", _solve(self.problem, grid, self.eta))

    @property
    def zero_mass(self) -> float:
        return self.problem.zero_mass

    @cached_property
    def values(self) -> np.ndarray:
        return self.roots.imag / math.pi

    @cached_property
    def cdf(self) -> np.ndarray:
        """F at each grid node: the zero atom from x = 0 on plus the continuous part."""
        return _cdf(self.problem, self.grid, self.eta, self.roots)

    @property
    def trapezoid_mass(self) -> float:
        return float(np.trapezoid(self.values, self.grid))

    @property
    def total_mass(self) -> float:
        return self.zero_mass + self.trapezoid_mass


def density_curve(p: FmcProblem, grid: np.ndarray, eta: float = 1e-6) -> SpectralDensity:
    """Density of the continuous part, Im u(x + i eta)/pi, along a grid.

    u = m + a/z is m itself for c <= 1 and m without the zero atom's pole
    for c > 1.  All grid points are solved together by predictor-corrector
    Newton continuation in Im z, from max(10, 2 x_max) down to eta by
    factors of 0.03.  Each level above eta solves one grid point per bin
    of width 2 Im z and interpolates the rest from the roots Newton
    landed; a landed point whose start was already within 1e-4 of its
    root goes straight to eta.  The level at eta solves every point.
    Grid points and eta must be finite, and the grid may reach x <= 0 at
    every c, as u has no pole at 0; a point whose root fails the
    acceptance test raises SolverError.  The result keeps the roots, from
    which its CDF is formed when first read.
    """
    return SpectralDensity(p, grid, eta)


def default_grid(p: FmcProblem, points: int) -> np.ndarray:
    """Grid covering the limiting support with edge margins.

    Ends at hi = 1.25 t_max (1+sqrt(c))^2, beyond every atom's smeared
    band t (1 +- sqrt(c))^2.  When the bulk reaches the origin,
    t_min (1-sqrt(c))^2 < 1e-4 hi (c near 1), the density behaves like
    x^(-1/2) there and a uniform grid cannot integrate it to the mass
    tolerance, so the points are graded as u^2 on [1e-6, hi].  Otherwise
    the grid is uniform from max(1e-4, 0.5 t_min (1-sqrt(c))^2 for c < 1).
    A measure with every atom at 0 has no support to cover: ValueError.
    """
    check_int("points", points, 16)
    rc = math.sqrt(p.c)
    locs = p.measure.locations
    t_min, t_max = float(locs[0]), float(locs[-1])
    if t_max == 0:
        raise ValueError("default_grid needs an atom above 0: every atom sits at 0")
    hi = 1.25 * t_max * (1 + rc) ** 2
    edge = t_min * (1 - rc) ** 2
    if edge < 1e-4 * hi:
        u = np.linspace(math.sqrt(1e-6), math.sqrt(hi), points)
        return u * u
    lo = 0.5 * edge if p.c < 1 else 0.0
    return np.linspace(max(1e-4, lo), hi, points)


@dataclass(frozen=True)
class EdfPrediction:
    """Predicted density plus provenance of the run.

    `wall_ms` covers the whole call; it includes the eigensolve only when
    the array's spectrum was not already cached by `ensemble_spectrum`.
    `stage_ms` splits it: `spectrum` (the ensemble spectrum), `measure`
    (the collapse or the full measure) and `density` (grid and
    `density_curve`); their sum is at most `wall_ms`.
    """

    density: SpectralDensity
    atom_count: int
    mode: str
    c: float
    wall_ms: float
    stage_ms: dict[str, float]


def predict_edf(
    cfg: ArrayNoiseConfig,
    c: float,
    mode: str = "reduced",
    points: int = 1500,
    eta: float = 1e-6,
) -> EdfPrediction:
    """End-to-end prediction: spectrum -> (collapse | keep all) -> density."""
    if mode not in ("reduced", "full"):
        raise ValueError(f"mode must be 'reduced' or 'full', got {mode!r}")
    start = time.perf_counter()
    spectrum = ensemble_spectrum(cfg)
    t_spectrum = time.perf_counter()
    if mode == "reduced":
        measure = reduce(classify(spectrum, c))
    else:
        measure = full_measure(spectrum)
    problem = FmcProblem(measure=measure, c=c)
    t_measure = time.perf_counter()
    density = density_curve(problem, default_grid(problem, points), eta)
    t_density = time.perf_counter()
    stage_ms = {
        "spectrum": (t_spectrum - start) * 1e3,
        "measure": (t_measure - t_spectrum) * 1e3,
        "density": (t_density - t_measure) * 1e3,
    }
    return EdfPrediction(
        density=density,
        atom_count=len(measure.atoms),
        mode=mode,
        c=c,
        wall_ms=(time.perf_counter() - start) * 1e3,
        stage_ms=stage_ms,
    )
