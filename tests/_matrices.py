"""Small matrix constructors and the rank, for tests only.

The program builds its matrices entry by entry and never asks for a rank
alone; tests state small matrices by their rows and compare ranks.
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
