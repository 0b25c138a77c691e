"""Exception types shared across the package.

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
