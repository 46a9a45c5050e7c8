"""Exact multiplicities and multiplicity bounds from degree-matrix data.

Computes the multiplicity of codimension-2 Cohen-Macaulay and
codimension-3 Gorenstein graded algebras by three independent routes,
verifies the Herzog-Huneke-Srinivasan bounds and their sharper
refinements in exact integer arithmetic, and exhaustively sweeps
parameter ranges for sharpness cases and counterexamples.

Every name is reached through its module (``from degmult import
betti``); the package root re-exports nothing, and ``pyproject.toml``
alone holds the version.
"""
