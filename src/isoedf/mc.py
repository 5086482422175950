"""Monte Carlo ground truth: correlated snapshots, sample covariances, pooling.

Each trial draws an N x L matrix of proper complex Gaussians through a
counter-based Philox stream keyed by (seed, trial), colors it with the
real covariance square root, and pools the sample-covariance
eigenvalues, taken from whichever Gram, N x N or L x L, is smaller.
Keying streams by trial index makes the result bit-identical no matter
how trials are distributed over workers.  Each worker writes its trials
into one reused `TrialWorkspace`, so a snapshot matrix or Gram taken from
a passed workspace is overwritten by the next trial.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .ecm import ArrayNoiseConfig, build_ecm
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
            v = getattr(self, name)
            if int(v) != v or v < 1:
                raise ValueError(f"{name} must be a positive integer, got {v}")
        # make_stream keys Philox with the seed mod 2**64, so -1 would alias 2**64 - 1
        if not isinstance(self.seed, (int, np.integer)) or not 0 <= self.seed < 2**64:
            raise ValueError(f"seed must be an integer in [0, 2**64), got {self.seed!r}")

    @property
    def c(self) -> float:
        return self.cfg.n / self.snapshots


def make_stream(seed: int, trial: int) -> np.random.Generator:
    """Counter-based stream for one trial; (seed, trial) is the Philox key."""
    key = np.array([np.uint64(seed & (2**64 - 1)), np.uint64(trial)], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


class TrialWorkspace:
    """The arrays one Monte Carlo trial writes, allocated once for an (n, l).

    A worker builds one and passes it to every trial it runs, so a trial
    allocates nothing of size n x l.  Each call writes the buffers it uses
    in full before reading them, so nothing carries over between trials;
    what a call returns from the workspace is overwritten by the next call
    given the same workspace.  In a fresh process at N = 51, L = 204,
    fresh arrays for every trial took ~28% of run_mc's time: glibc handed
    their memory back to the OS on each free, and every trial took ~130
    minor page faults to get it back.
    """

    def __init__(self, n: int, l: int):
        if n < 1 or l < 1:
            raise ValueError("matrix dimensions must be positive")
        self.shape = (n, l)
        self.uniforms = np.empty((2, n, l))  # u1, u2; then the quarter turns
        self.quarters = np.empty((n, l))  # q; then 1 + sin
        self.sine = np.empty((n, l))
        self.index = np.empty((n, l), dtype=np.intp)
        self.g = np.empty((n, l), dtype=complex)  # then conj(X), once X is coloured
        self.x = np.empty((n, 2 * l))  # X as n x 2L reals
        self.gram = np.empty((min(n, l),) * 2, dtype=complex)


def gaussian_snapshots(
    n: int, l: int, stream: np.random.Generator, *, work: TrialWorkspace | None = None
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
        work = TrialWorkspace(n, l)
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
    """Eigenvalues (descending) of one sample covariance (1/L) X X^H.

    X = sigma_half G is colored by a real GEMM on G viewed as an
    n x 2L real array, half the flops of the complex product; a complex
    sigma_half is rejected, since that view would silently drop its
    imaginary part.  For L < n the nonzero eigenvalues are those of the
    L x L Gram (1/L) X^H X, and the n - L rank-deficiency zeros are
    exact 0.0.  G, X and the Gram are written into `work`, or into a
    fresh workspace when none is passed; the eigenvalues are a new array.
    """
    if np.iscomplexobj(sigma_half):
        raise ValueError("sigma_half must be real")
    n = sigma_half.shape[0]
    if work is None:
        work = TrialWorkspace(n, l)
    g = gaussian_snapshots(n, l, stream, work=work)
    np.matmul(sigma_half, g.view(float), out=work.x)
    x = work.x.view(complex)
    x_conj = np.conjugate(x, out=g)  # G is spent once X is coloured
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

    `pooled` is ascending with sub-clamp values snapped to exactly 0.0;
    `per_trial` keeps the raw descending eigenvalues of each trial.  When
    L < N the N - L rank-deficiency zeros of each trial are exactly 0.0,
    since only the L x L Gram is solved.
    """

    pooled: np.ndarray = field(repr=False)
    trials: int
    zero_count: int
    hist_edges: np.ndarray = field(repr=False)
    hist_heights: np.ndarray = field(repr=False)
    per_trial: np.ndarray = field(repr=False)

    @property
    def zero_fraction(self) -> float:
        return self.zero_count / len(self.pooled)

    def ecdf(self, x) -> np.ndarray:
        """Empirical CDF evaluated at x (scalar or array)."""
        return np.searchsorted(self.pooled, x, side="right") / len(self.pooled)


def _worker_count(trials: int) -> int:
    """Threads for run_mc: ISO_EDF_THREADS (<= 0 means one per CPU), default 1.

    One thread is the default: at N = 51 on two CPUs, one thread ran
    2 x 500 trials (L = 204 and 34) in 0.75 s and two threads in 1.28 s.
    """
    raw = os.environ.get(_THREADS_ENV, "1")
    try:
        requested = int(raw)
    except ValueError as e:
        raise ValueError(f"{_THREADS_ENV} must be an integer, got {raw!r}") from e
    if requested <= 0:
        requested = os.cpu_count() or 1
    return max(1, min(requested, trials))


def run_mc(mc: McConfig) -> EmpiricalSpectrum:
    """Pool eigenvalues over all trials and histogram the nonzero part.

    Eigenvalues below 1e-9 of the pooled maximum are the rank-deficiency
    zeros (plus round-off) and are clamped to exactly 0.  Histogram
    heights are normalized so the continuous area equals the nonzero
    fraction; the zero mass is reported separately.
    """
    sigma_half = sqrt_psd(build_ecm(mc.cfg))
    n, l = mc.cfg.n, mc.snapshots
    per_trial = np.empty((mc.trials, n))

    def run_range(lo: int, hi: int) -> None:
        work = TrialWorkspace(n, l)
        for trial in range(lo, hi):
            stream = make_stream(mc.seed, trial)
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

    pooled = np.sort(per_trial.ravel())
    g_max = float(pooled[-1])
    clamp = _ZERO_CLAMP_REL * g_max
    zero_count = int(np.count_nonzero(pooled < clamp))
    pooled[:zero_count] = 0.0
    edges = np.linspace(0.0, 1.05 * g_max, mc.bins + 1)
    counts, _ = np.histogram(pooled[zero_count:], bins=edges)
    heights = counts / (len(pooled) * np.diff(edges))
    return EmpiricalSpectrum(
        pooled=pooled,
        trials=mc.trials,
        zero_count=zero_count,
        hist_edges=edges,
        hist_heights=heights,
        per_trial=per_trial,
    )
