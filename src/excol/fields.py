"""Exact scalar fields: Q and the prime fields F_p.

A scalar of Q is an `int` when it is integral and a `fractions.Fraction`
only when it is not, so integral documents (Beilinson's constants are all
+-1) run on small ints from parse to reduction and never load `fractions`.
A scalar of F_p is a plain int in [0, p).  A document names its field by
"Q" or "F<p>" (`field_by_name`).  Parsing and validating a document needs
only this module; the matrices over these fields are in `exactlin`.
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


MAX_PRIME = 1 << 64
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(p):
    """Miller-Rabin with the bases 2..37: deterministic for p < 3.18 * 10^23."""
    if p < 2 or any(p % a == 0 for a in _MR_BASES):
        return p in _MR_BASES
    d, s = p - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _MR_BASES:
        x = pow(a, d, p)
        if x != 1 and all(pow(x, 1 << k, p) != p - 1 for k in range(s)):
            return False
    return True


class PrimeField:
    def __init__(self, p):
        if not (p < MAX_PRIME and is_prime(p)):
            raise ExactLinError(f"{p} is not a prime below 2^64")
        self.p = p
        self.name = f"F{p}"
        self.zero = 0
        self.one = 1 % p

    def of(self, value):
        if isinstance(value, int):
            return value % self.p
        from fractions import Fraction

        if isinstance(value, str):
            value = Fraction(value)
        if isinstance(value, Fraction):
            den = value.denominator % self.p
            if den == 0:
                raise ExactLinError(
                    f"denominator of {value} vanishes mod {self.p}"
                )
            return value.numerator * pow(den, -1, self.p) % self.p
        raise ExactLinError(f"cannot coerce {value!r} into F_{self.p}")

    def add(self, a, b):
        return (a + b) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def inv(self, a):
        if a % self.p == 0:
            raise ZeroDivisionError(f"0 is not invertible in F_{self.p}")
        return pow(a, -1, self.p)

    def is_zero(self, a):
        return a % self.p == 0

    def to_str(self, a):
        return str(a % self.p)

    def __repr__(self):
        return self.name

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("Fp", self.p))


QQ = RationalField()


def field_by_name(name):
    """Resolve "Q" or "F<p>" to a field object."""
    if name == "Q":
        return QQ
    digits = name[1:]
    if name.startswith("F") and digits.isascii() and digits.isdigit():
        if len(digits.lstrip("0")) > len(str(MAX_PRIME)):  # before int(): no huge parse
            raise ExactLinError(f"{len(digits)}-digit p is not below 2^64")
        return PrimeField(int(digits))
    raise ExactLinError(f"unknown field {name!r}")
