"""The prime fields F_p, for p a prime below 2^64.

A scalar of F_p is a plain int in [0, p).  `fields.field_by_name` imports
this module only for an "F<p>" name, so a document over Q never compiles it.
"""

from .fields import ExactLinError

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
