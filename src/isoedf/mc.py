"""Monte Carlo ground truth: Wishart trials, sample covariances, pooling.

Each trial draws the sample covariance (1/L) A G G^H A^T of N x L proper
complex Gaussians G, coloured by the real covariance square root A, by the
Bartlett decomposition of the complex Wishart matrix (Goodman, Ann. Math.
Statist. 34, 1963): G G^H has the law of T T^H for a lower-trapezoidal
N x min(N, L) factor T, so a trial draws about N min(N, L)/2 normals and
min(N, L) gammas, not N L normals.  The eigenvalues, taken from whichever
Gram of A T is smaller, are pooled over trials.  Every trial draws from a
counter-based Philox stream keyed by (seed, trial), which makes the result
bit-identical no matter how trials are distributed over workers, for a
fixed BLAS build and thread count: at N = 51, L = 204 one OpenBLAS thread
and two gave eigenvalues that differ by up to 7.2e-15 relative in every
trial.  Each worker re-keys one Philox per trial and writes its trials
into one reused `TrialWorkspace`, so an array taken from a passed
workspace is overwritten by the next trial.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .ecm import ArrayNoiseConfig, build_ecm, check_int
from .linalg import hermitian_eigenvalues, sqrt_psd

_ZERO_CLAMP_REL = 1e-9
_THREADS_ENV = "ISO_EDF_THREADS"
_QUARTER_TURNS = np.array([1, 1j, -1, -1j])  # i**q


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


class SnapshotWorkspace:
    """The arrays `gaussian_snapshots` writes for an n x l draw, allocated once.

    Each call writes every buffer in full before reading it, so nothing
    carries over between draws; the result, `g`, is overwritten by the
    next draw given the same workspace.
    """

    def __init__(self, n: int, l: int):
        check_int("n", n, 1)
        check_int("l", l, 1)
        self.shape = (n, l)
        self.uniforms = np.empty((2, n, l))  # u1, u2; then the quarter turns
        self.quarters = np.empty((n, l))  # q; then 1 + sin
        self.sine = np.empty((n, l))
        self.index = np.empty((n, l), dtype=np.intp)
        self.g = np.empty((n, l), dtype=complex)


class TrialWorkspace:
    """The arrays one Bartlett trial writes, allocated once for an (n, l).

    With k = min(n, l): the n x k factor T, whose entries above the
    diagonal stay 0 and whose other entries every trial rewrites; the
    `SnapshotWorkspace` for the n k - k (k + 1)/2 normals below its
    diagonal; the k gammas of its diagonal; A T, its conjugate and the
    k x k Gram.  Nothing is of size n x l, so a trial's memory does not
    grow with l.  A worker builds one and passes it to every trial it
    runs; what a call returns from the workspace is overwritten by the
    next call given the same workspace.  Reuse changes no bits: a trial's
    eigenvalues depend only on its stream and on the BLAS build and
    thread count.
    """

    def __init__(self, n: int, l: int):
        check_int("n", n, 2)  # a 1 x 1 factor has no normals to draw
        check_int("l", l, 1)
        self.shape = (n, l)
        k = min(n, l)
        rows, cols = np.tril_indices(n, -1, k)
        self.lower = rows * k + cols  # flat positions in T below the diagonal
        self.normals = SnapshotWorkspace(1, len(self.lower))
        self.gamma_shapes = l - np.arange(k, dtype=float)  # |T_ii|^2 ~ Gamma(L - i, 1)
        self.gamma = np.empty(k)
        self.t = np.zeros((n, k), dtype=complex)
        self.diagonal = self.t.reshape(-1)[:: k + 1][:k]  # a view of T's diagonal
        self.x = np.empty((n, 2 * k))  # A T as n x 2k reals
        self.x_conj = np.empty((n, k), dtype=complex)
        self.gram = np.empty((k, k), dtype=complex)


def gaussian_snapshots(
    n: int, l: int, stream: np.random.Generator, *, work: SnapshotWorkspace | None = None
) -> np.ndarray:
    """n x l matrix of iid proper complex Gaussians with E|g|^2 = 1.

    Box-Muller in polar form: |g|^2 is unit-mean exponential and the
    phase 2 pi u2 is uniform, so real and imaginary parts carry variance
    1/2 each.  The phase is split exactly as u2 = q/4 + r with q the
    nearest quarter turn, so |2 pi r| <= pi/4; one sine of that small
    angle gives sin, and cos = sqrt((1 - sin)(1 + sin)) >= 1/sqrt(2)
    loses nothing to cancellation.  Turning by q quarters is exact.
    Over 2 M samples the unit phase stayed within 2.1e-16 of an
    extended-precision cos and sin of 2 pi u2, where the rounded
    full-range angle alone is off by up to 6.9e-16; and one sine of a
    small angle costs less than a sine and a cosine over [0, 2 pi).

    Every step runs in place in `work`, and the result is `work.g`: with
    a passed workspace it is overwritten by the next trial.  Without one,
    a fresh workspace is built, so the result is a new array.
    """
    if work is None:
        work = SnapshotWorkspace(n, l)
    elif work.shape != (n, l):
        raise ValueError(f"workspace is for {work.shape}, not {(n, l)}")
    u1, u2 = work.uniforms
    q, sine, g = work.quarters, work.sine, work.g
    stream.random(out=work.uniforms)  # u1 then u2, as two draws of n x l
    np.negative(u1, out=u1)
    np.log1p(u1, out=u1)  # 1 - u1 lies in (0, 1]
    np.negative(u1, out=u1)
    radius = np.sqrt(u1, out=u1)
    np.multiply(u2, 4, out=q)
    np.rint(q, out=q)
    np.copyto(work.index, q, casting="unsafe")
    np.multiply(q, 0.25, out=sine)
    np.subtract(u2, sine, out=sine)  # u2 - q/4 is exact
    np.multiply(sine, 2 * np.pi, out=sine)
    np.sin(sine, out=sine)
    np.subtract(1, sine, out=u2)
    np.add(1, sine, out=q)  # q is spent once copied into the index
    np.multiply(u2, q, out=u2)
    np.sqrt(u2, out=u2)
    np.multiply(radius, u2, out=g.real)
    np.multiply(radius, sine, out=g.imag)
    turns = work.uniforms.reshape(n, 2 * l).view(complex)  # u1, u2 are spent
    np.take(_QUARTER_TURNS, work.index, mode="wrap", out=turns)
    np.multiply(g, turns, out=g)
    return g


def scm_eigenvalues(
    sigma_half: np.ndarray, l: int, stream: np.random.Generator, *,
    work: TrialWorkspace | None = None,
) -> np.ndarray:
    """Eigenvalues (descending) of one sample covariance (1/L) X X^H, X = A G.

    Drawn by the Bartlett decomposition, with k = min(n, L): the entries
    of the n x k factor T below its diagonal are `gaussian_snapshots`
    normals, drawn first and laid out row by row, and its diagonal is
    T_ii = sqrt(Gamma(L - i, 1)) for i < k.  A T is coloured by a real GEMM
    on T viewed as an n x 2k real array, half the flops of the complex
    product; a complex sigma_half = A is rejected, since that view would
    silently drop its imaginary part.  The eigenvalues are those of the
    n x n Gram (1/L) (A T)(A T)^H for L >= n, or of the L x L Gram
    (1/L) (A T)^H (A T) for L < n, with the n - L rank-deficiency zeros
    exact 0.0.  Everything is written into `work`, or into a fresh
    workspace when none is passed; the eigenvalues are a new array.
    """
    if np.iscomplexobj(sigma_half):
        raise ValueError("sigma_half must be real")
    n = sigma_half.shape[0]
    if work is None:
        work = TrialWorkspace(n, l)
    elif work.shape != (n, l):
        raise ValueError(f"workspace is for {work.shape}, not {(n, l)}")
    normals = gaussian_snapshots(1, len(work.lower), stream, work=work.normals)
    work.t.put(work.lower, normals)
    np.sqrt(stream.standard_gamma(work.gamma_shapes, out=work.gamma), out=work.diagonal)
    np.matmul(sigma_half, work.t.view(float), out=work.x)
    x = work.x.view(complex)
    x_conj = np.conjugate(x, out=work.x_conj)
    if l >= n:
        np.matmul(x, x_conj.T, out=work.gram)
    else:
        np.matmul(x_conj.T, x, out=work.gram)
    vals = hermitian_eigenvalues(np.divide(work.gram, l, out=work.gram))
    if l >= n:
        return vals
    return np.sort(np.concatenate([vals, np.zeros(n - l)]))[::-1]


@dataclass(frozen=True)
class EmpiricalSpectrum:
    """Pooled sample-covariance eigenvalues across trials.

    Built from `per_trial`, each trial's raw descending eigenvalues as one
    row, and the histogram's bin count; everything else is derived from
    them at construction, so `dataclasses.replace` with a new `per_trial`
    re-derives it.  `pooled` is ascending, with the eigenvalues below 1e-9
    of the pooled maximum (the rank-deficiency zeros plus round-off)
    snapped to exactly 0.0 and counted in `zero_count`.  The histogram of
    the nonzero part has `bins` equal bins on [0, 1.05 max]; its heights
    are normalized so the continuous area equals the nonzero fraction.
    When L < N the N - L rank-deficiency zeros of each trial are exactly
    0.0, since only the L x L Gram is solved.  ValueError unless
    `per_trial` is a non-empty 2-D array of finite values with a positive
    maximum.
    """

    per_trial: np.ndarray = field(repr=False)
    bins: int
    pooled: np.ndarray = field(init=False, repr=False)
    zero_count: int = field(init=False)
    hist_edges: np.ndarray = field(init=False, repr=False)
    hist_heights: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        per_trial = np.asarray(self.per_trial, dtype=float)
        pooled = np.sort(per_trial.ravel())
        ok = per_trial.ndim == 2 and per_trial.size and np.isfinite(pooled).all()
        if not (ok and pooled[-1] > 0):
            raise ValueError(
                "per_trial must be a non-empty 2-D array of finite eigenvalues, not all <= 0"
            )
        check_int("bins", self.bins, 1)
        g_max = float(pooled[-1])
        zero_count = int(np.count_nonzero(pooled < _ZERO_CLAMP_REL * g_max))
        pooled[:zero_count] = 0.0
        edges = np.linspace(0.0, 1.05 * g_max, self.bins + 1)
        counts, _ = np.histogram(pooled[zero_count:], bins=edges)
        heights = counts / (len(pooled) * np.diff(edges))
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
    2 x 500 trials (L = 204 and 34) in 0.75 s and two threads in 1.28 s.
    """
    raw = os.environ.get(_THREADS_ENV, "1")
    requested = int(raw) if raw.isdecimal() else raw
    check_int(_THREADS_ENV, requested, 1)
    return min(requested, trials)


def run_mc(mc: McConfig) -> EmpiricalSpectrum:
    """Eigenvalues of every trial, pooled and histogrammed by EmpiricalSpectrum."""
    sigma_half = sqrt_psd(build_ecm(mc.cfg))
    n, l = mc.cfg.n, mc.snapshots
    per_trial = np.empty((mc.trials, n))

    def run_range(lo: int, hi: int) -> None:
        work = TrialWorkspace(n, l)
        stream = make_stream(mc.seed, lo)
        state = stream.bit_generator.state
        for trial in range(lo, hi):
            # make_stream(seed, trial) without a new Philox: key (seed, trial),
            # counter 0 and an empty buffer
            state["state"]["key"][1] = trial
            stream.bit_generator.state = state
            per_trial[trial] = scm_eigenvalues(sigma_half, l, stream, work=work)

    workers = _worker_count(mc.trials)
    if workers == 1:
        run_range(0, mc.trials)
    else:
        bounds = np.linspace(0, mc.trials, workers + 1).astype(int)
        with ThreadPoolExecutor(max_workers=workers) as pool:
            futures = [
                pool.submit(run_range, int(a), int(b))
                for a, b in zip(bounds[:-1], bounds[1:])
            ]
            for fut in futures:
                fut.result()

    return EmpiricalSpectrum(per_trial=per_trial, bins=mc.bins)
