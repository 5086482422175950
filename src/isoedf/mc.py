"""Monte Carlo ground truth: correlated snapshots, sample covariances, pooling.

Each trial draws an N x L matrix of proper complex Gaussians through a
counter-based Philox stream keyed by (seed, trial), colors it with the
covariance square root, and pools the sample-covariance eigenvalues.
Keying streams by trial index makes the result bit-identical no matter
how trials are distributed over workers.
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

    @property
    def c(self) -> float:
        return self.cfg.n / self.snapshots


def make_stream(seed: int, trial: int) -> np.random.Generator:
    """Counter-based stream for one trial; (seed, trial) is the Philox key."""
    key = np.array([np.uint64(seed & (2**64 - 1)), np.uint64(trial)], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def gaussian_snapshots(n: int, l: int, stream: np.random.Generator) -> np.ndarray:
    """n x l matrix of iid proper complex Gaussians with E|g|^2 = 1.

    Box-Muller in polar form: |g|^2 is unit-mean exponential and the
    phase is uniform, so real and imaginary parts carry variance 1/2
    each.  radius cos and radius sin are written into the real and
    imaginary parts of one array, which costs less than a complex exp.
    """
    if n < 1 or l < 1:
        raise ValueError("matrix dimensions must be positive")
    u1 = stream.random((n, l))
    u2 = stream.random((n, l))
    radius = np.sqrt(-np.log1p(-u1))  # 1 - u1 lies in (0, 1]
    phase = 2 * np.pi * u2
    g = np.empty((n, l), dtype=complex)
    np.multiply(radius, np.cos(phase), out=g.real)
    np.multiply(radius, np.sin(phase), out=g.imag)
    return g


def scm_eigenvalues(sigma_half: np.ndarray, l: int, stream: np.random.Generator) -> np.ndarray:
    """Eigenvalues (descending) of one sample covariance (1/L) X X^H."""
    n = sigma_half.shape[0]
    snapshots = sigma_half @ gaussian_snapshots(n, l, stream)
    scm = (snapshots @ snapshots.conj().T) / l
    return hermitian_eigenvalues(scm)


@dataclass(frozen=True)
class EmpiricalSpectrum:
    """Pooled sample-covariance eigenvalues across trials.

    `pooled` is ascending with sub-clamp values snapped to exactly 0.0;
    `per_trial` keeps the raw descending eigenvalues of each trial.
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

    One thread is the default: at N = 51 on two CPUs, two threads ran
    2 x 500 trials in 1.47 s against 1.29 s for one.
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
        for trial in range(lo, hi):
            per_trial[trial] = scm_eigenvalues(sigma_half, l, make_stream(mc.seed, trial))

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
