"""The form every exact scalar part takes: an int when integral, else a
Fraction with denominator > 1.  Poly coefficients, basis coordinates and
the vectors of ``linalg.solve`` all keep it."""

from fractions import Fraction


def assert_int_first(pair):
    """Each part of the (re, im) pair is an int when integral, else a
    Fraction with denominator > 1."""
    for part in pair:
        if type(part) is not int:
            assert type(part) is Fraction and part.denominator > 1, repr(part)
