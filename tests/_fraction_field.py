"""Reference field: Q with every scalar a `fractions.Fraction`.

`exactlin.QQ` keeps integral values as ints and makes a Fraction only for a
value that is not integral.  This is the plain all-Fraction field it
replaced; the tests run the engine over both and require equal answers.
"""

from fractions import Fraction

from excol.exactlin import ExactLinError


class FractionField:
    name = "Q"

    def of(self, value):
        if isinstance(value, Fraction):
            return value
        if isinstance(value, (int, str)):
            return Fraction(value)
        raise ExactLinError(f"cannot coerce {value!r} into Q")

    zero = Fraction(0)
    one = Fraction(1)

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def inv(self, a):
        return 1 / a

    def is_zero(self, a):
        return a == 0

    def to_str(self, a):
        return str(a)

    def __repr__(self):
        return "Q (Fraction reference)"


FRACTIONS = FractionField()
