"""Exact multiplicities and multiplicity bounds from degree-matrix data.

Computes the multiplicity of codimension-2 Cohen-Macaulay and
codimension-3 Gorenstein graded algebras by three independent routes,
verifies the Herzog-Huneke-Srinivasan bounds and their sharper
refinements in exact integer arithmetic, and exhaustively sweeps
parameter ranges for sharpness cases and counterexamples.
"""
from .betti import (
    BettiTable,
    KPolynomial,
    Purity,
    ShiftSummary,
    huneke_miller,
    k_polynomial,
    multiplicity,
    shift_summary,
)
from .bounds import (
    BoundVerdict,
    Prop24Verdict,
    SharpnessVerdict,
    cm2_bounds,
    gor3_bounds,
    hhs_bounds,
    prop24_bound,
    sharpness,
    srinivasan_bounds,
)
from .cm2 import DegreeMatrixCM2
from .errors import DegmultError
from .gor3 import DegreeMatrixGor3
from .oracle import MonomialStaircase, colength, minimalize
from .sweep import (
    HuntReport,
    SweepConfig,
    SweepReport,
    enumerate_cm2,
    enumerate_gor3,
    hunt,
    verify_all,
)

__version__ = "0.1.0"

__all__ = [
    "BettiTable",
    "BoundVerdict",
    "DegmultError",
    "DegreeMatrixCM2",
    "DegreeMatrixGor3",
    "HuntReport",
    "KPolynomial",
    "MonomialStaircase",
    "Prop24Verdict",
    "Purity",
    "SharpnessVerdict",
    "ShiftSummary",
    "SweepConfig",
    "SweepReport",
    "cm2_bounds",
    "colength",
    "enumerate_cm2",
    "enumerate_gor3",
    "gor3_bounds",
    "hhs_bounds",
    "huneke_miller",
    "hunt",
    "k_polynomial",
    "minimalize",
    "multiplicity",
    "prop24_bound",
    "sharpness",
    "shift_summary",
    "srinivasan_bounds",
    "verify_all",
]
