"""Exception hierarchy shared by all degmult modules, and the strict
integer rule every loader applies to input from outside the program."""
from __future__ import annotations


class DegmultError(Exception):
    """Base class for all errors raised by this package."""


class InvalidDiagonal(DegmultError):
    """A degree-matrix main-diagonal entry is not strictly positive."""


class NotMonotone(DegmultError):
    """Degree-matrix entries violate the monotone ordering b_i >= a_i, b_i >= a_{i+1}."""


class CenterTooSmall(DegmultError):
    """The center entry d of a symmetric degree matrix is smaller than a_1."""


class NotArtinian(DegmultError):
    """A monomial staircase lacks a pure power of x or of y."""


class DivisionError(DegmultError):
    """(1-s)^c does not divide K, or Q(1) <= 0: table and codimension are inconsistent."""


class DivisibilityError(DegmultError):
    """p! does not divide the product of pure shifts: no such pure resolution exists."""


class InternalMismatch(DegmultError):
    """Two expressions that are provably equal disagreed; signals an implementation bug."""


class CharacterizationViolated(DegmultError):
    """Sharpness flags and purity disagree; would falsify the sharpness characterization."""


class UnknownTarget(DegmultError):
    """Hunt was asked for a target it does not know."""


class ParseError(DegmultError):
    """Malformed JSON document or command-line value."""


def as_list(xs: object, name: str) -> list | tuple:
    """``xs`` if it is a list or tuple, else ValueError naming field ``name``."""
    if not isinstance(xs, (list, tuple)):
        raise ValueError(f"{name} must be a list, got {xs!r}")
    return xs


def as_int_tuple(xs: object, name: str) -> tuple[int, ...]:
    """The entries of list ``xs`` as a tuple, refusing anything but true integers.

    Bools and other int subclasses, floats and strings raise ValueError rather
    than being coerced, so ``2.7`` never becomes ``2`` and ``true`` never ``1``;
    a string or object ``xs`` is refused whole, never split into characters.
    """
    out = tuple(as_list(xs, name))
    if set(map(type, out)) <= {int}:
        return out
    bad = next(x for x in out if type(x) is not int)
    raise ValueError(f"{name} entries must be integers, got {bad!r}")


def as_int_pair(xs: object, name: str, pair: str) -> tuple[int, int]:
    """An item of field ``name`` as two true integers, else ValueError."""
    if not isinstance(xs, (list, tuple)) or len(xs) != 2:
        raise ValueError(f"{name} entries must be {pair} pairs, got {xs!r}")
    return as_int_tuple(xs, name)
