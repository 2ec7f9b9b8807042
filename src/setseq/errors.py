"""Exception taxonomy shared across the package.

Every error raised on a domain-level failure derives from SetseqError so the
CLI can map it to a stable name on stderr (the class name is the contract).
"""

from __future__ import annotations

__all__ = [
    "SetseqError",
    "BudgetExhausted",
    "Infeasible",
    "CaseNotApplicable",
    "PreconditionViolated",
    "NotCovered",
    "PairingNotCovered",
    "InternalSearchFailed",
    "PlanSizeMismatch",
    "TargetSumNonzero",
    "NonCanonical",
    "OutOfRange",
    "NotOddDegree",
    "NotPowerOfTwo",
    "TooFewVertices",
    "NotLeaf",
    "TooSmall",
]


class SetseqError(Exception):
    """Base class for all domain errors raised by this package."""


class BudgetExhausted(SetseqError):
    """A bounded search ran out of its time or node budget."""


class Infeasible(SetseqError):
    """Exhaustive search proved that no solution exists."""


class CaseNotApplicable(SetseqError):
    """A specialised solver was called outside its hypothesis."""


class PreconditionViolated(SetseqError):
    """Structured input failed a documented precondition."""


def _as_tuple(items: object, what: str) -> tuple:
    """items as a tuple, or PreconditionViolated: "{what}, got {type}" when not iterable."""
    try:
        return tuple(items)
    except TypeError:
        raise PreconditionViolated(f"{what}, got {type(items).__name__}") from None


def _as_int(text: str, what: str) -> int:
    """int(text), or PreconditionViolated(what): no int, or one with "_" or non-ASCII digits."""
    if "_" not in text and text.isascii():
        try:
            return int(text)
        except ValueError:
            pass
    raise PreconditionViolated(what)


class NotCovered(SetseqError):
    """The instance falls outside every implemented constructive case."""


class PairingNotCovered(NotCovered):
    """A construction needed a pair partition that no solver case covers."""


class InternalSearchFailed(SetseqError):
    """A step the underlying theory guarantees to succeed did not.

    Raising this (rather than asserting) keeps the failure diagnosable; it
    indicates a bug or a genuinely new counterexample, never bad user input.
    """


class PlanSizeMismatch(SetseqError):
    """Pendant counts do not sum to the required power of two."""


class TargetSumNonzero(SetseqError):
    """The multiset of pairing targets has nonzero XOR."""


class NonCanonical(SetseqError):
    """A caterpillar degree list is not in canonical form."""


class OutOfRange(SetseqError):
    """A parameter lies outside the supported range."""


class NotOddDegree(SetseqError):
    """The construction requires every vertex degree to be odd."""


class NotPowerOfTwo(SetseqError):
    """The construction requires the vertex count to be a power of two."""


class TooFewVertices(SetseqError):
    """The tree is too small for the requested construction."""


class NotLeaf(SetseqError):
    """A designated attachment vertex must have degree 1."""


class TooSmall(SetseqError):
    """The base tree is below the minimum size for the construction."""
