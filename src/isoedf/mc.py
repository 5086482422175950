"""Monte Carlo ground truth: Wishart trials, sample covariances, pooling.

Each trial draws the eigenvalues of the sample covariance (1/L) X X^H of
X = A G, N x L proper complex Gaussians G coloured by a covariance square
root A.  With Sigma = U Lambda U^T, U^T G has the law of G, so the
eigenvalues have the law of those of (1/L) D G G^H D for the diagonal
D = Lambda^(1/2): a trial is coloured by the scales sqrt(lambda) of the
cached ensemble spectrum, and never forms the N x N covariance, its
square root or a colouring product.  G G^H is drawn by the Bartlett
decomposition of the complex Wishart matrix (Goodman, Ann. Math. Statist.
34, 1963): it has the law of T T^H for a lower-trapezoidal N x min(N, L)
factor T, so a trial draws about N min(N, L)/2 normals and min(N, L)
gammas, not N L normals.  The eigenvalues are the squared singular values
of D T over L, from one SVD with no Gram; they are pooled over trials.  A
trial allocates its few arrays afresh, none of size N x L or N x N.
Every trial draws from a counter-based Philox stream keyed by (seed,
trial), which makes the result bit-identical no matter how trials are
distributed over workers, for a fixed numpy and LAPACK build and BLAS
thread count: the bits depend on the algorithms of numpy's
`Generator.standard_normal` and `standard_gamma` and of LAPACK's `gesdd`,
and at N = 256 (L = 1024 and 128) one OpenBLAS thread and two gave
eigenvalues that differ by up to 1.3e-15 relative in every trial, though
at N = 51 (L = 204, 51 and 34) they matched.  Each worker re-keys one
Philox per trial.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np

from .ecm import ArrayNoiseConfig, check_int, ensemble_spectrum
from .linalg import psd_floor, singular_values

# No caller here any more: perfbench's tracer looks these three up on this
# module by name, so they stay importable from it until the benchmark
# revision (ROADMAP item 11) drops them.
from .ecm import build_ecm  # noqa: F401
from .linalg import hermitian_eigenvalues, sqrt_psd  # noqa: F401

_ZERO_CLAMP_REL = 1e-9
_THREADS_ENV = "ISO_EDF_THREADS"


@dataclass(frozen=True)
class McConfig:
    """One simulation campaign: array, snapshot count, trials, seed, binning."""

    cfg: ArrayNoiseConfig
    snapshots: int
    trials: int
    seed: int = 0
    bins: int = 75

    def __post_init__(self):
        for name in ("snapshots", "trials", "bins"):
            check_int(name, getattr(self, name), 1)
        check_int("seed", self.seed, 0, 2**64)

    @property
    def c(self) -> float:
        return self.cfg.n / self.snapshots


def make_stream(seed: int, trial: int) -> np.random.Generator:
    """Philox stream for one trial keyed by (seed, trial); raises outside [0, 2**64).

    run_mc gives each trial this stream without building a new Philox.
    """
    check_int("seed", seed, 0, 2**64)
    check_int("trial", trial, 0, 2**64)
    key = np.array([seed, trial], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def gaussian_snapshots(n: int, l: int, stream: np.random.Generator) -> np.ndarray:
    """n x l matrix of iid proper complex Gaussians with E|g|^2 = 1, a new array.

    numpy's `Generator.standard_normal` draws the 2 n l real parts in one
    call, row by row with each entry's real part before its imaginary one,
    and the pairs are viewed as complex and scaled by sqrt(1/2), so real
    and imaginary parts carry variance 1/2 each.  The bits are those of
    numpy's Generator normal algorithm.
    """
    check_int("n", n, 1)
    check_int("l", l, 1)
    return stream.standard_normal((n, 2 * l)).view(complex) * np.sqrt(0.5)


def scm_eigenvalues(scales: np.ndarray, l: int, stream: np.random.Generator) -> np.ndarray:
    """Eigenvalues (descending) of one sample covariance (1/L) X X^H, X = D G.

    D = diag(scales): run_mc passes sqrt(lambda) of the ensemble spectrum,
    which gives the eigenvalue law of any X = A G with A A^T = Sigma.
    Drawn by the Bartlett decomposition, with k = min(n, L): the entries
    of the n x k factor T below its diagonal are `gaussian_snapshots`
    normals, drawn first and laid out row by row, and its diagonal is
    T_ii = sqrt(Gamma(L - i, 1)) for i < k, drawn next by numpy's
    `standard_gamma`.  The rows of T are scaled in place by `scales`, and
    the eigenvalues are s^2 / L for the k singular values s of D T (one
    `singular_values` call), followed by the n - k rank-deficiency zeros
    as exact 0.0 when L < n; both parts are already descending.  A trial
    allocates T and the result afresh, nothing of size n x L or n x n,
    and returns a new array; its bits depend on numpy's Generator normal
    and gamma algorithms and on LAPACK's SVD.  ValueError unless `scales`
    is a real 1-D vector of n >= 2 finite values >= 0 (a 1 x 1 factor has
    no normals to draw) and L >= 1 is an integer.
    """
    if np.iscomplexobj(scales):
        raise ValueError("scales must be real")
    scales = np.asarray(scales, dtype=float)
    if scales.ndim != 1:
        raise ValueError(f"scales must be a vector, got shape {scales.shape}")
    n = len(scales)
    check_int("n", n, 2)
    check_int("l", l, 1)
    if not 0 <= scales.min() <= scales.max() < np.inf:  # a NaN is refused too
        raise ValueError("scales must be finite and >= 0")
    k = min(n, l)
    t = np.zeros((n, k), dtype=complex)
    below = np.tri(n, k, -1, dtype=bool)
    t[below] = gaussian_snapshots(1, np.count_nonzero(below), stream)[0]
    np.fill_diagonal(t, np.sqrt(stream.standard_gamma(l - np.arange(k, dtype=float))))
    t *= scales[:, None]
    vals = np.zeros(n)
    np.square(singular_values(t), out=vals[:k])
    vals[:k] /= l
    return vals


@dataclass(frozen=True)
class EmpiricalSpectrum:
    """Pooled sample-covariance eigenvalues across trials.

    Built from `per_trial`, each trial's raw descending eigenvalues as one
    row, and the histogram's bin count; everything else is derived from
    them at construction, so `dataclasses.replace` with a new `per_trial`
    re-derives it.  `pooled` is ascending and passes `psd_floor`, so a
    negative beyond round-off raises; the eigenvalues below 1e-9 of the
    pooled maximum (the rank-deficiency zeros plus round-off) are then
    snapped to exactly 0.0 and counted in `zero_count`.  The histogram of
    the nonzero part has `bins` equal bins on [0, 1.05 max]; its heights
    are normalized so the continuous area equals the nonzero fraction.
    When L < N the N - L rank-deficiency zeros of each trial are exactly
    0.0, since a trial's SVD gives only L singular values.  ValueError unless
    `per_trial` is a non-empty 2-D array of finite values with a positive
    maximum, and unless the bin width 1.05 max / bins is a normal float,
    which keeps the heights finite and the top edge above the maximum.

    Construction holds one pool-sized array beside `per_trial`: `pooled`,
    the floored copy of the ravelled trials, sorted in place.
    `zero_count` and the histogram counts are `searchsorted` positions in
    it.  np.histogram's bins are [e_i, e_i+1) but the last, which is
    closed; no value reaches the top edge 1.05 max, so the left positions
    of the edges give np.histogram's counts, and it would sort another
    copy.
    """

    per_trial: np.ndarray = field(repr=False)
    bins: int
    pooled: np.ndarray = field(init=False, repr=False)
    zero_count: int = field(init=False)
    hist_edges: np.ndarray = field(init=False, repr=False)
    hist_heights: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        per_trial = np.asarray(self.per_trial, dtype=float)
        ok = per_trial.ndim == 2 and per_trial.size
        # the one copy of the pool, floored and then sorted in place; an empty or
        # non-2-D per_trial floors [0.0], which the test of the maximum refuses
        pooled = psd_floor(per_trial.ravel() if ok else [0.0])
        pooled.sort()
        g_max = float(pooled[-1])  # no value is < 0, so a finite maximum bounds them all
        if not 0 < g_max < np.inf:
            raise ValueError(
                "per_trial must be a non-empty 2-D array of finite eigenvalues, not all <= 0"
            )
        check_int("bins", self.bins, 1)
        width = 1.05 * g_max / self.bins
        if not np.finfo(float).tiny <= width < np.inf:
            raise ValueError(f"bin width 1.05 max / bins = {width:.3e} is not a normal float")
        zero_count = int(np.searchsorted(pooled, _ZERO_CLAMP_REL * g_max))
        pooled[:zero_count] = 0.0
        edges = np.linspace(0.0, 1.05 * g_max, self.bins + 1)
        # np.histogram's counts, read off the sorted nonzero part: every value
        # is below the top edge, so the closed last bin counts as half-open
        cum = np.searchsorted(pooled[zero_count:], edges)
        heights = np.diff(cum) / (len(pooled) * np.diff(edges))
        for name, value in (
            ("per_trial", per_trial),
            ("pooled", pooled),
            ("zero_count", zero_count),
            ("hist_edges", edges),
            ("hist_heights", heights),
        ):
            object.__setattr__(self, name, value)

    @property
    def trials(self) -> int:
        return len(self.per_trial)

    @property
    def zero_fraction(self) -> float:
        return self.zero_count / len(self.pooled)

    def ecdf(self, x) -> np.ndarray:
        """Empirical CDF evaluated at x (scalar or array)."""
        return np.searchsorted(self.pooled, x, side="right") / len(self.pooled)


def _worker_count(trials: int) -> int:
    """Threads for run_mc: ISO_EDF_THREADS, a positive integer, default 1.

    One thread is the default: at N = 51 on two CPUs, one thread ran
    2 x 500 Bartlett trials (L = 204 and 34) in 0.44 s and two threads in
    0.53 s (medians of 18 runs each).
    """
    raw = os.environ.get(_THREADS_ENV, "1")
    requested = int(raw) if raw.isdecimal() else raw
    check_int(_THREADS_ENV, requested, 1)
    return min(requested, trials)


def run_mc(mc: McConfig) -> EmpiricalSpectrum:
    """Eigenvalues of every trial, pooled and histogrammed by EmpiricalSpectrum.

    Every trial is coloured by scales = sqrt(lambda) of the cached
    `ensemble_spectrum`, taken once per campaign and shared read-only.
    Trials run on `_worker_count` threads.  `concurrent.futures` (which
    loads `logging`) is imported only where more than one is asked for, so
    `import isoedf` and a one-thread run never load it.
    """
    scales = np.sqrt(ensemble_spectrum(mc.cfg).values)
    scales.flags.writeable = False  # shared by every worker
    n, l = mc.cfg.n, mc.snapshots
    per_trial = np.empty((mc.trials, n))

    def run_range(lo: int, hi: int) -> None:
        stream = make_stream(mc.seed, lo)
        state = stream.bit_generator.state
        for trial in range(lo, hi):
            # make_stream(seed, trial) without a new Philox: key (seed, trial),
            # counter 0 and an empty buffer
            state["state"]["key"][1] = trial
            stream.bit_generator.state = state
            per_trial[trial] = scm_eigenvalues(scales, l, stream)

    workers = _worker_count(mc.trials)
    if workers == 1:
        run_range(0, mc.trials)
    else:
        from concurrent.futures import ThreadPoolExecutor  # loads logging too

        bounds = np.linspace(0, mc.trials, workers + 1).astype(int)
        with ThreadPoolExecutor(max_workers=workers) as pool:
            futures = [
                pool.submit(run_range, int(a), int(b))
                for a, b in zip(bounds[:-1], bounds[1:])
            ]
            for fut in futures:
                fut.result()

    return EmpiricalSpectrum(per_trial=per_trial, bins=mc.bins)
