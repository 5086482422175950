"""Monte Carlo ground truth: Wishart trials, sample covariances, pooling.

Each trial draws the sample covariance (1/L) A G G^H A^T of N x L proper
complex Gaussians G, coloured by the real covariance square root A, by the
Bartlett decomposition of the complex Wishart matrix (Goodman, Ann. Math.
Statist. 34, 1963): G G^H has the law of T T^H for a lower-trapezoidal
N x min(N, L) factor T, so a trial draws about N min(N, L)/2 normals and
min(N, L) gammas, not N L normals.  The eigenvalues, taken from whichever
Gram of A T is smaller, are pooled over trials.  A trial allocates its
few arrays afresh, none of size N x L.  Every trial draws from a
counter-based Philox stream keyed by (seed, trial), which makes the result
bit-identical no matter how trials are distributed over workers, for a
fixed numpy and BLAS build and thread count: the bits depend on the
algorithms of numpy's `Generator.standard_normal` and `standard_gamma`,
and at N = 51, L = 204 one OpenBLAS thread and two gave eigenvalues that
differ by up to 7.2e-15 relative in every trial.  Each worker re-keys one
Philox per trial.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np

from .ecm import ArrayNoiseConfig, build_ecm, check_int
from .linalg import hermitian_eigenvalues, psd_floor, sqrt_psd

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


def scm_eigenvalues(sigma_half: np.ndarray, l: int, stream: np.random.Generator) -> np.ndarray:
    """Eigenvalues (descending) of one sample covariance (1/L) X X^H, X = A G.

    Drawn by the Bartlett decomposition, with k = min(n, L): the entries
    of the n x k factor T below its diagonal are `gaussian_snapshots`
    normals, drawn first and laid out row by row, and its diagonal is
    T_ii = sqrt(Gamma(L - i, 1)) for i < k, drawn next by numpy's
    `standard_gamma`.  A T is coloured by a real GEMM on T viewed as an
    n x 2k real array, half the flops of the complex product; a complex
    sigma_half = A is rejected, since that view would silently drop its
    imaginary part.  The eigenvalues are those of the n x n Gram
    (1/L) (A T)(A T)^H for L >= n, or of the L x L Gram (1/L) (A T)^H (A T)
    for L < n, with the n - L rank-deficiency zeros exact 0.0.  A trial
    allocates T, A T and the Gram afresh, nothing of size n x L, and
    returns a new array; its bits depend on numpy's Generator normal and
    gamma algorithms.  ValueError unless n >= 2 (a 1 x 1 factor has no
    normals to draw) and L >= 1 are integers.
    """
    if np.iscomplexobj(sigma_half):
        raise ValueError("sigma_half must be real")
    n = sigma_half.shape[0]
    check_int("n", n, 2)
    check_int("l", l, 1)
    k = min(n, l)
    t = np.zeros((n, k), dtype=complex)
    below = np.tri(n, k, -1, dtype=bool)
    t[below] = gaussian_snapshots(1, np.count_nonzero(below), stream)[0]
    np.fill_diagonal(t, np.sqrt(stream.standard_gamma(l - np.arange(k, dtype=float))))
    x = (sigma_half @ t.view(float)).view(complex)
    gram = x @ x.conj().T if l >= n else x.conj().T @ x
    vals = hermitian_eigenvalues(gram / l)
    if l >= n:
        return vals
    return np.sort(np.concatenate([vals, np.zeros(n - l)]))[::-1]


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
    0.0, since only the L x L Gram is solved.  ValueError unless
    `per_trial` is a non-empty 2-D array of finite values with a positive
    maximum.

    Construction holds one pool-sized array beside `per_trial`: `pooled`,
    the floored copy of the ravelled trials, sorted in place.
    `zero_count` and the histogram counts are `searchsorted` positions in
    it, the counts by np.histogram's own rule (each bin [e_i, e_i+1) but
    the last, which is closed), so they equal np.histogram's, which would
    sort another copy.
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
        zero_count = int(np.searchsorted(pooled, _ZERO_CLAMP_REL * g_max))
        pooled[:zero_count] = 0.0
        edges = np.linspace(0.0, 1.05 * g_max, self.bins + 1)
        # np.histogram's counts, read off the sorted nonzero part: each bin is
        # half-open [e_i, e_i+1) but the last, which is closed
        cum = np.searchsorted(pooled[zero_count:], edges, side="left")
        cum[-1] = np.searchsorted(pooled[zero_count:], edges[-1], side="right")
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

    Trials run on `_worker_count` threads.  `concurrent.futures` (which
    loads `logging`) is imported only where more than one is asked for, so
    `import isoedf` and a one-thread run never load it.
    """
    sigma_half = sqrt_psd(build_ecm(mc.cfg))
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
            per_trial[trial] = scm_eigenvalues(sigma_half, l, stream)

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
