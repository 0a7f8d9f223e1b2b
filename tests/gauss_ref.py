"""A Gaussian rational a + b*i for the reference computations of the tests.

``quantact`` holds every exact scalar as an (re, im) pair and has no scalar
class; the oracles here compute with this one instead, so that they share
no scalar arithmetic with the code under test.  Parts take the form of the
pairs (``int_first``): an int when integral, else a Fraction.
"""

from fractions import Fraction


def _part(v):
    v = Fraction(v)
    return v.numerator if v.denominator == 1 else v


class Gauss:
    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re, self.im = _part(re), _part(im)

    @staticmethod
    def of(v):
        """v as a Gauss: an int, a Fraction, an (re, im) pair or a Gauss."""
        return v if isinstance(v, Gauss) else Gauss(*v) if isinstance(v, tuple) else Gauss(v)

    def __add__(self, other):
        other = Gauss.of(other)
        return Gauss(self.re + other.re, self.im + other.im)

    def __sub__(self, other):
        other = Gauss.of(other)
        return Gauss(self.re - other.re, self.im - other.im)

    def __neg__(self):
        return Gauss(-self.re, -self.im)

    def __mul__(self, other):
        other = Gauss.of(other)
        return Gauss(self.re * other.re - self.im * other.im,
                     self.re * other.im + self.im * other.re)

    def inv(self):
        n = Fraction(self.re * self.re + self.im * self.im)
        return Gauss(self.re / n, -self.im / n)

    def is_zero(self):
        return self.re == 0 and self.im == 0

    def __eq__(self, other):
        if not isinstance(other, (Gauss, int, Fraction, tuple)):
            return NotImplemented
        other = Gauss.of(other)
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        return hash((self.re, self.im))

    def key(self):
        """The (re, im) pair, in the form ``quantact`` keeps it."""
        return (self.re, self.im)

    def to_complex(self):
        return complex(self.re, self.im)

    def __repr__(self):
        return "Gauss(%s, %s)" % (self.re, self.im)
