"""Randomized valid collection specs for property tests.

The model is a truncated polynomial category: object i carries a charge c_i
and a degree offset delta_i; Ext(E_i, E_j) is the symmetric power
S^{c_j - c_i} V placed in internal degree delta_j - delta_i, the twisted
spaces are S^{c_i + C - c_j} V in degree delta_i + D - delta_j, and every
product is monomial multiplication truncated above a cutoff exponent.
Truncation is an ideal (exponents only grow), so associativity and the
module compatibilities hold for any draw; random diagonal rescalings of the
bases then scramble the structure constants without breaking anything.

On every chain the degrees telescope: the morphism factors sum to
delta_{a_p} - delta_{a_0} and the twisted one adds delta_{a_0} + D -
delta_{a_p}, so q = D (`d_shift` in `random_spec`) on each term.  Each T^t is then the one column
mp = t - D, every pair has gap 1, and the draws exercise only d_1.  The
later differentials d_r, r >= 2, are covered by the planted complexes of
`test_ss_oracle._planted_complex` and by `tests/data/sparse15.json` and the
`beauville_I0` fixture.
"""

from fractions import Fraction

from excol import products as pr
from excol.model import CollectionSpec

_SCALARS = [
    Fraction(1),
    Fraction(-1),
    Fraction(2),
    Fraction(-2),
    Fraction(1, 2),
    Fraction(3),
    Fraction(-1, 3),
]


def _monomials(nvars, degree):
    if degree == 0:
        return [(0,) * nvars]
    out = []

    def rec(prefix, remaining, slots):
        if slots == 1:
            out.append(prefix + (remaining,))
            return
        for e in range(remaining, -1, -1):
            rec(prefix + (e,), remaining - e, slots - 1)

    rec((), degree, nvars)
    return out


class _PolyModel:
    def __init__(self, nvars):
        self.nvars = nvars
        self._mons = {}
        self._index = {}

    def mons(self, d):
        if d not in self._mons:
            self._mons[d] = _monomials(self.nvars, d)
            self._index[d] = {m: i for i, m in enumerate(self._mons[d])}
        return self._mons[d]

    def dim(self, d):
        return len(self.mons(d))

    def table(self, da, db, scale_a, scale_b, scale_out):
        self.mons(da + db)
        out = {}
        for ia, ma in enumerate(self.mons(da)):
            for ib, mb in enumerate(self.mons(db)):
                prod = tuple(x + y for x, y in zip(ma, mb))
                io = self._index[da + db][prod]
                coeff = scale_a[ia] * scale_b[ib] / scale_out[io]
                out[(ia, ib)] = {io: coeff}
        return out


def random_spec(rng, n=None):
    """One random validated spec with n <= 4 (products all arity 2)."""
    n = n or rng.randint(1, 4)
    nvars = rng.randint(1, 2)
    poly = _PolyModel(nvars)
    charges = [0]
    for _ in range(n - 1):
        charges.append(charges[-1] + rng.randint(0, 2))
    delta = [rng.randint(-2, 2) for _ in range(n)]
    span = charges[-1] - charges[0]
    c_total = span + rng.randint(0, 2)
    d_shift = rng.randint(-1, 3)
    # one cutoff for all exponents: truncation stays an ideal across the
    # module action, so both association routes die together
    cut = rng.randint(0, 4)

    def a_expo(i, j):
        e = charges[j - 1] - charges[i - 1]
        return e if e <= cut else None

    def n_expo(i, j):
        e = charges[i - 1] + c_total - charges[j - 1]
        return e if e <= cut else None

    scales = {}

    def scale(kind, i, j, e):
        key = (kind, i, j)
        if key not in scales:
            scales[key] = [rng.choice(_SCALARS) for _ in range(poly.dim(e))]
        return scales[key]

    a_dims = {}
    n_dims = {}
    for i in range(1, n + 1):
        for j in range(i, n + 1):
            if i < j:
                e = a_expo(i, j)
                if e is not None:
                    a_dims[(i, j)] = {delta[j - 1] - delta[i - 1]: poly.dim(e)}
            e = n_expo(i, j)
            if e is not None:
                n_dims[(i, j)] = {
                    delta[i - 1] + d_shift - delta[j - 1]: poly.dim(e)
                }

    products = {}
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            for l in range(j + 1, n + 1):
                ea, eb = a_expo(i, j), a_expo(j, l)
                if ea is None or eb is None or a_expo(i, l) is None:
                    continue
                key = pr.key_aa(
                    (i, j, l),
                    (delta[j - 1] - delta[i - 1], delta[l - 1] - delta[j - 1]),
                )
                products[key] = poly.table(
                    ea,
                    eb,
                    scale("A", i, j, ea),
                    scale("A", j, l, eb),
                    scale("A", i, l, ea + eb),
                )
    for tw in range(1, n + 1):
        for j1 in range(tw, n + 1):
            for j2 in range(j1 + 1, n + 1):
                ea, en = a_expo(j1, j2), n_expo(tw, j2)
                if ea is None or en is None or n_expo(tw, j1) is None:
                    continue
                key = pr.key_an(
                    tw,
                    (j1, j2),
                    (
                        delta[j2 - 1] - delta[j1 - 1],
                        delta[tw - 1] + d_shift - delta[j2 - 1],
                    ),
                )
                products[key] = poly.table(
                    ea,
                    en,
                    scale("A", j1, j2, ea),
                    scale("N", tw, j2, en),
                    scale("N", tw, j1, ea + en),
                )
    for j in range(1, n + 1):
        for i1 in range(1, j + 1):
            for i2 in range(i1 + 1, j + 1):
                en, ea = n_expo(i1, j), a_expo(i1, i2)
                if en is None or ea is None or n_expo(i2, j) is None:
                    continue
                key = pr.key_na(
                    j,
                    (i1, i2),
                    (
                        delta[i1 - 1] + d_shift - delta[j - 1],
                        delta[i2 - 1] - delta[i1 - 1],
                    ),
                )
                products[key] = poly.table(
                    en,
                    ea,
                    scale("N", i1, j, en),
                    scale("A", i1, i2, ea),
                    scale("N", i2, j, en + ea),
                )

    return CollectionSpec(
        n=n,
        dim_x=rng.randint(0, 3),
        field_name="Q",
        a_dims=a_dims,
        n_dims=n_dims,
        tables=products,
    )
