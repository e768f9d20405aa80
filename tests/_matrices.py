"""Small matrix constructors, the rank, and d_t as a matrix, for tests only.

The program builds its matrices entry by entry and never asks for a rank
alone; tests state small matrices by their rows and compare ranks.  A
complex stores each d_t as columns {col: {row: value}}; the tests read and
write it through `d_matrix` and `columns`, so the layout is named here once.
"""

from excol.exactlin import QQ, ExactLinError, Matrix, Subspace, rref


def identity(n, field=QQ):
    return Matrix(n, n, {(i, i): field.one for i in range(n)}, field)


def from_rows(rows_data, field=QQ):
    rows = len(rows_data)
    cols = len(rows_data[0]) if rows else 0
    m = Matrix.zero(rows, cols, field)
    for r, row in enumerate(rows_data):
        if len(row) != cols:
            raise ExactLinError("ragged rows")
        for c, v in enumerate(row):
            m[r, c] = field.of(v)
    return m


def full(ambient_dim, field=QQ):
    """The whole space k^ambient_dim."""
    return Subspace(ambient_dim, [{i: field.one} for i in range(ambient_dim)], field)


def rank(m):
    return rref(m).rank


def d_matrix(cx, t):
    """d_t of the complex cx as a Matrix, its stored entries copied as they are."""
    m = Matrix.zero(cx.t_dims.get(t + 1, 0), cx.t_dims.get(t, 0), cx.field)
    m.entries = {(r, c): v for c, col in cx.differential(t).items() for r, v in col.items()}
    return m


def columns(m):
    """The columns {col: {row: value}} of a Matrix, as a complex stores d_t."""
    cols = {}
    for (r, c), v in m.entries.items():
        cols.setdefault(c, {})[r] = v
    return cols
