"""Shared error types, and the default work budgets past which
`TooLarge` and `Overflow` are raised.

Every operation that rejects its input raises one of these instead of
returning a sentinel, so callers (and the CLI) can map failures to a
structured kind plus a witness.
"""

import sys

DEFAULT_AUT_BOUND = 12          # vertices `symmetry.automorphism_group` takes
DEFAULT_COSET_LIMIT = 10_000    # cosets `cayley.coset_enumerate` defines


class PlanarBlocksError(Exception):
    """Base class; ``kind`` is a stable machine-readable tag."""

    kind = "error"

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness

    def payload(self):
        out = {"kind": self.kind, "message": str(self)}
        if self.witness is not None:
            out["witness"] = self.witness
        return out


class MalformedInput(PlanarBlocksError):
    kind = "malformed-input"


class NotConnected(PlanarBlocksError):
    kind = "not-connected"


class PreconditionViolated(PlanarBlocksError):
    kind = "precondition-violated"


class HingeVertex(PlanarBlocksError):
    """Torso requested at a tree vertex that is a cut-point class."""

    kind = "hinge-vertex"


class NotAnAutomorphism(PlanarBlocksError):
    kind = "not-an-automorphism"


class TooLarge(PlanarBlocksError):
    kind = "too-large"


class BadExponent(PlanarBlocksError):
    kind = "bad-exponent"


class Overflow(PlanarBlocksError):
    """Coset enumeration gave no finite group within its limit.

    "group is infinite" carries a certificate, found before any table is
    built: the orbifold Euler characteristic of a surface or triangle
    presentation (``euler_characteristic``, at most 0) or the rank of the free part of
    the abelianisation (``free_abelian_rank``, at least 1).  Otherwise
    the search ran out of budget, which proves nothing: the table hit
    its definition cap (``defined``), or the group has more elements
    than the limit (``order``).  Every witness also names the ``limit``.
    """

    kind = "overflow"


class InvariantViolated(PlanarBlocksError):
    """A result failed one of its own correctness checks."""

    kind = "invariant-violated"


def invariant(cond, message, witness=None):
    """Raise InvariantViolated unless cond; unlike assert, kept under -O."""
    if not cond:
        raise InvariantViolated(message, witness=witness)


def to_int(text):
    """int(text) for text checked to be decimal digits after an optional
    minus sign, where int() fails only past the interpreter's limit on
    the digits it converts (`sys.get_int_max_str_digits`): TooLarge."""
    try:
        return int(text)
    except ValueError:
        raise TooLarge("number has too many digits", witness={
            "digits": len(text.lstrip("-")),
            "limit": sys.get_int_max_str_digits()}) from None
