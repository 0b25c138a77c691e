"""Exception types shared across the package, and its size limits.

Every error that a verification routine can raise deliberately is a subclass
of TotrefError, so callers (in particular the CLI) can separate usage
problems, unmet mathematical preconditions, and failed checks.
"""


class TotrefError(Exception):
    """Base class for all deliberate errors raised by this package."""


class ParseError(TotrefError):
    """Malformed element expression."""


class UnknownVariable(ParseError):
    """Expression references a variable the ring does not declare."""


class DimensionMismatch(TotrefError):
    """Matrix shapes are incompatible for the requested operation."""


class NotAComplex(TotrefError):
    """Composite of two consecutive maps is nonzero."""


class WrongBackend(TotrefError):
    """Operation only makes sense on the other ring backend."""


class NonHomogeneous(TotrefError):
    """Graded operation received inhomogeneous data."""


class UnitInput(TotrefError):
    """A zero-divisor candidate turned out to be a unit."""


class PreconditionFailed(TotrefError):
    """A theorem hypothesis does not hold for the supplied data."""


class EquivalenceViolation(TotrefError):
    """Conditions that are provably equivalent disagreed; internal bug."""


class InvalidResolution(TotrefError):
    """Claimed free resolution is not a resolution (composite or exactness)."""


class InconclusiveStrategy(TotrefError):
    """Non-isomorphism strategy could not separate the two modules."""


class TooLarge(TotrefError):
    """Brute-force enumeration would exceed the configured budget."""


# every size limit, as the default of the budget it caps: the cells of a
# finite coset table or enumeration, the elements of End/m End that the End
# idempotent decision tests, and the integer CLI flags whose work grows
# with their value (n_max also caps the number of --b multipliers)
LIMITS = {"carrier": 2_000_000, "end_maps": 4096,
          "length": 64, "i_max": 64, "n_max": 16}


def check_size(value: int, cap: int, message: str, **fields) -> None:
    """Raise TooLarge past ``cap``, with ``message`` formatted with the
    ``value``, the ``cap`` and ``fields``."""
    if value > cap:
        raise TooLarge(message.format(value=value, cap=cap, **fields))
