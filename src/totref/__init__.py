"""Exact construction and verification of totally reflexive module families
built from an exact pair of zero divisors.

The package provides two computable ring backends (Z/p^k with optional
nilpotent extension, and F_p[x..]/(monomials)), exact matrix algebra over
them, presented modules with certified exactness checks, the two-parameter
module families attached to an exact pair of zero divisors, and a hom-module
calculator that turns cokernel presentations of both arguments into a
cokernel presentation of their hom module.  Every verification routine
returns a certificate object recording its verdict and the scope (exhaustive
or degree bounded) at which it was established.
"""

from .errors import TotrefError
from .linalg import ideal_membership
from .rings import FiniteLocalRing, GradedMonomialRing, ring_from_descriptor

__all__ = [
    "TotrefError",
    "FiniteLocalRing",
    "GradedMonomialRing",
    "ring_from_descriptor",
    "ideal_membership",
]

__version__ = "0.1.0"
