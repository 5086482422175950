"""Limiting eigenvalue densities for sample covariance matrices of
cylindrically isotropic line-array noise.

Pipeline: Bessel-kernel ensemble covariance -> spiked-model collapse of
its spectrum to a few atoms -> free multiplicative convolution with the
Wishart family (numeric Stieltjes-transform solve) -> density curve,
validated against Monte Carlo sample-covariance eigenvalues.
"""

from .ecm import ArrayNoiseConfig, EnsembleSpectrum, build_ecm, ensemble_spectrum
from .linalg import NumericError, hermitian_eigenvalues, poly_roots, sqrt_psd, sym_eigenvalues
from .mc import EmpiricalSpectrum, McConfig, gaussian_snapshots, make_stream, run_mc, scm_eigenvalues
from .report import ComparisonReport, compare, model_cdf
from .rmt import (
    EdfPrediction,
    FmcProblem,
    SolverError,
    SpectralDensity,
    default_grid,
    density_curve,
    polynomial_coefficients,
    predict_edf,
    stieltjes_at,
    stieltjes_by_enumeration,
)
from .specfun import MpParams, bessel_j0, mp_density, zero_atom_mass
from .spike import AtomicMeasure, SpikeClassification, classify, full_measure, reduce

__version__ = "0.1.0"

__all__ = [
    "ArrayNoiseConfig",
    "AtomicMeasure",
    "ComparisonReport",
    "EdfPrediction",
    "EmpiricalSpectrum",
    "EnsembleSpectrum",
    "FmcProblem",
    "McConfig",
    "MpParams",
    "NumericError",
    "SolverError",
    "SpectralDensity",
    "SpikeClassification",
    "bessel_j0",
    "build_ecm",
    "classify",
    "compare",
    "default_grid",
    "density_curve",
    "ensemble_spectrum",
    "full_measure",
    "gaussian_snapshots",
    "hermitian_eigenvalues",
    "make_stream",
    "model_cdf",
    "mp_density",
    "poly_roots",
    "polynomial_coefficients",
    "predict_edf",
    "reduce",
    "run_mc",
    "scm_eigenvalues",
    "sqrt_psd",
    "stieltjes_at",
    "stieltjes_by_enumeration",
    "sym_eigenvalues",
    "zero_atom_mass",
]
