"""Reference spectral sequence from explicit Z_r / B_r subspaces.

An independent page-by-page engine: for every page r, column j and total
degree t it builds

    Z_r(j, t) = {x in F^j T^t : d x in F^{j+r}}

with an explicit basis and takes E_r = Z_r / (Z_{r-1}(j+1) + d Z_{r-1}(j-r+1)).
It is slow (a kernel per (r, j, t)) but shares nothing with the reduction
except the assembled complex, so the tests use it as an oracle on small
inputs.
"""

from types import SimpleNamespace

from _matrices import d_matrix
from excol.exactlin import Matrix, Subspace, kernel_basis, subquotient_dim


def _filtration_columns(cx, t, j):
    """Coordinates of T^t lying in filtration level >= j."""
    mps = cx.coordinate_mp(t)
    return [i for i, mp in enumerate(mps) if mp >= j]


def _restricted_kernel(cx, t, j, bound):
    """{x in F^j T^t : d x in F^bound T^{t+1}} as a Subspace of T^t."""
    cols = _filtration_columns(cx, t, j)
    dim_t = cx.t_dims.get(t, 0)
    if not cols:
        return Subspace(dim_t, [], cx.field)
    d = d_matrix(cx, t)
    if not d.entries:
        return Subspace(dim_t, [{c: cx.field.one} for c in cols], cx.field)
    rows = [i for i, mp in enumerate(cx.coordinate_mp(t + 1)) if mp < bound]
    row_pos = {r: i for i, r in enumerate(rows)}
    col_pos = {c: i for i, c in enumerate(cols)}
    m = Matrix.zero(len(rows), len(cols), cx.field)
    for (r, c), v in d.entries.items():
        if r in row_pos and c in col_pos:
            m.entries[(row_pos[r], col_pos[c])] = v
    small = kernel_basis(m)
    lifted = [{cols[i]: v for i, v in vec.items()} for vec in small.basis]
    return Subspace(dim_t, lifted, cx.field)


def _apply_d(cx, t, sub):
    dim_next = cx.t_dims.get(t + 1, 0)
    if sub.dim == 0:  # T^t may be empty: build no d_t for it
        return Subspace(dim_next, [], cx.field)
    d = d_matrix(cx, t)
    return Subspace(dim_next, [d.apply(v) for v in sub.basis], cx.field)


def _sum(a, b):
    return Subspace(a.ambient_dim, a.basis + b.basis, a.field)


def spectral_sequence(cx):
    """Pages, limit page, stable page and survivors, as a namespace.

    Pages run through r = width + 1, the limit page; survivors maps (mp, q)
    to the (Z, B) pair at the limit.
    """
    bidegrees = {}
    for tms in cx.by_t.values():
        for tm in tms:
            key = (tm.mp, tm.q)
            bidegrees[key] = bidegrees.get(key, 0) + tm.dim
    if not bidegrees:
        return SimpleNamespace(pages={1: {}}, infinity={}, stable_page=1, survivors={})
    mp_values = sorted({mp for mp, _ in bidegrees})
    r_inf = mp_values[-1] - mp_values[0] + 1
    zcache = {}

    def z_space(r, j, t):
        """{x in F^j T^t : d x in F^{j+r}}; r = 0 degenerates to F^j itself."""
        if t not in cx.t_dims:
            return Subspace(0, [], cx.field)
        key = (r, j, t)
        got = zcache.get(key)
        if got is None:
            if r > 0:
                got = _restricted_kernel(cx, t, j, j + r)
            else:
                got = Subspace(
                    cx.t_dims[t],
                    [{c: cx.field.one} for c in _filtration_columns(cx, t, j)],
                    cx.field,
                )
            zcache[key] = got
        return got

    pages = {}
    for r in range(1, r_inf + 1):
        table = {}
        for (mp, q) in bidegrees:
            t = q + mp
            z = z_space(r, mp, t)
            border = _sum(
                z_space(r - 1, mp + 1, t),
                _apply_d(cx, t - 1, z_space(r - 1, mp - r + 1, t - 1)),
            )
            dim = subquotient_dim(z, border)
            if dim:
                table[(mp, q)] = dim
        pages[r] = table

    infinity = {}
    survivors = {}
    for (mp, q) in bidegrees:
        t = q + mp
        z = z_space(r_inf, mp, t)  # = ker d cap F^mp: width exceeded
        border = _sum(
            z_space(r_inf, mp + 1, t),
            _apply_d(cx, t - 1, z_space(r_inf, mp - r_inf, t - 1)),
        )
        dim = subquotient_dim(z, border)
        survivors[(mp, q)] = (z, border)
        if dim:
            infinity[(mp, q)] = dim

    stable = 1
    for r in sorted(pages, reverse=True):
        if pages[r] != infinity:
            stable = r + 1
            break
    return SimpleNamespace(
        pages=pages, infinity=infinity, stable_page=min(stable, r_inf),
        survivors=survivors,
    )
