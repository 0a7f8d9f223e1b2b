"""The form every exact scalar part takes: an int when integral, else a
Fraction with denominator > 1.  GaussRat parts, Poly coefficients, basis
coordinates and the vectors of ``linalg.solve`` all keep it."""

from fractions import Fraction

from quantact.expr import GaussRat


def assert_int_first(x):
    """Each part is an int when integral, else a Fraction with denominator > 1;
    x a GaussRat or an (re, im) pair."""
    for part in (x.key() if isinstance(x, GaussRat) else x):
        if type(part) is not int:
            assert type(part) is Fraction and part.denominator > 1, repr(part)
