"""Exact scalar fields: Q and the prime fields F_p.

A scalar of Q is an `int` when it is integral and a `fractions.Fraction`
only when it is not, so integral documents (Beilinson's constants are all
+-1) run on small ints from parse to reduction and never load `fractions`.
A document names its field by "Q" or "F<p>" (`field_by_name`); F_p lives
in `primefield`, which loads only for an "F<p>" name, the way `fractions`
loads only for a value that is not an integer.  Parsing and validating a
document over Q needs only this module; the matrices over these fields are
in `exactlin`.
"""


class ExactLinError(ValueError):
    pass


def _integral(q):
    """A Fraction (or int) as an int when integral, else unchanged."""
    return q.numerator if q.denominator == 1 else q


class RationalField:
    """Q, with each scalar an int when integral and a Fraction otherwise.

    Sums and products of ints stay ints; a result that involves a Fraction
    is turned back into an int when it is integral, so the representation
    is canonical.  `inv` makes a Fraction only for a pivot other than +-1.
    """

    name = "Q"
    zero = 0
    one = 1

    def of(self, value):
        """Coerce an int, a Fraction or a rational string ("-3", "1/2")."""
        if value.__class__ is int:
            return value
        if isinstance(value, str):
            digits = value[1:] if value[:1] == "-" else value
            if digits.isascii() and digits.isdigit():
                return int(value)
        from fractions import Fraction

        if isinstance(value, (int, Fraction, str)):
            return _integral(Fraction(value))
        raise ExactLinError(f"cannot coerce {value!r} into Q")

    def add(self, a, b):
        c = a + b
        return c if c.__class__ is int else _integral(c)

    def mul(self, a, b):
        c = a * b
        return c if c.__class__ is int else _integral(c)

    def neg(self, a):
        return -a

    def inv(self, a):
        if a == 1 or a == -1:
            return int(a)
        from fractions import Fraction

        return _integral(Fraction(1) / a)

    def is_zero(self, a):
        return a == 0

    def to_str(self, a):
        return str(a)

    def __repr__(self):
        return "Q"

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("Q")


QQ = RationalField()


def field_by_name(name):
    """Resolve "Q" or "F<p>" to a field object."""
    if name == "Q":
        return QQ
    digits = name[1:]
    if name.startswith("F") and digits.isascii() and digits.isdigit():
        from .primefield import MAX_PRIME, PrimeField  # only an F<p> name compiles F_p
        if len(digits.lstrip("0")) > len(str(MAX_PRIME)):  # before int(): no huge parse
            raise ExactLinError(f"{len(digits)}-digit p is not below 2^64")
        return PrimeField(int(digits))
    raise ExactLinError(f"unknown field {name!r}")
