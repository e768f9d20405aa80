"""Exact linear algebra over the fields of `fields`.

Everything downstream (cohomology ranks, spectral sequence pages) reduces to
exact rank computations, so no floating point is allowed anywhere.
Matrices are sparse, keyed by (row, col); vectors are sparse dicts
col -> scalar.  Only code that builds a complex loads this module; the
field names its callers use are re-exported here.
"""

from collections import namedtuple

from .fields import QQ, ExactLinError, field_by_name  # noqa: F401


class ContainmentError(ExactLinError):
    """Raised when a claimed subspace inclusion fails."""


class Matrix:
    """Sparse matrix acting on column vectors: self maps k^cols -> k^rows.

    No zero entries are stored; indices are bounds-checked on insertion.
    """

    __slots__ = ("rows", "cols", "entries", "field")

    def __init__(self, rows, cols, entries=None, field=QQ):
        if rows < 0 or cols < 0:
            raise ExactLinError("negative matrix dimensions")
        self.rows = rows
        self.cols = cols
        self.field = field
        self.entries = {}
        if entries:
            for (r, c), v in entries.items():
                self[r, c] = v

    @classmethod
    def zero(cls, rows, cols, field=QQ):
        return cls(rows, cols, None, field)

    def __getitem__(self, key):
        return self.entries.get(key, self.field.zero)

    def __setitem__(self, key, value):
        r, c = key
        if not (0 <= r < self.rows and 0 <= c < self.cols):
            raise ExactLinError(f"index {key} out of bounds")
        if self.field.is_zero(value):
            self.entries.pop(key, None)
        else:
            self.entries[key] = value

    def add_to(self, r, c, value):
        self[r, c] = self.field.add(self[r, c], value)

    def is_zero(self):
        return not self.entries

    def compose(self, other):
        """Matrix product self @ other (apply other first)."""
        if self.cols != other.rows:
            raise ExactLinError("shape mismatch in compose")
        f = self.field
        by_row = {}
        for (r, c), v in other.entries.items():
            by_row.setdefault(r, []).append((c, v))
        out = Matrix(self.rows, other.cols, None, f)
        for (r, k), a in self.entries.items():
            for c, b in by_row.get(k, ()):
                out.add_to(r, c, f.mul(a, b))
        return out

    def apply(self, vec):
        """Apply to a sparse column vector, returning a sparse vector."""
        f = self.field
        out = {}
        by_col = {}
        for (r, c), v in self.entries.items():
            by_col.setdefault(c, []).append((r, v))
        for c, x in vec.items():
            for r, a in by_col.get(c, ()):
                s = f.add(out.get(r, f.zero), f.mul(a, x))
                if f.is_zero(s):
                    out.pop(r, None)
                else:
                    out[r] = s
        return out

    def row_dicts(self):
        rows = [dict() for _ in range(self.rows)]
        for (r, c), v in self.entries.items():
            rows[r][c] = v
        return rows

    def __eq__(self, other):
        return (
            isinstance(other, Matrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and self.field == other.field
            and self.entries == other.entries
        )

    def __repr__(self):
        return f"Matrix({self.rows}x{self.cols}, {len(self.entries)} nonzero)"


RrefResult = namedtuple("RrefResult", "matrix rank pivot_cols")


def axpy(fld, x, a, y):
    """x += a * y on sparse vectors, in place."""
    for k, v in y.items():
        s = fld.add(x.get(k, fld.zero), fld.mul(a, v))
        if fld.is_zero(s):
            x.pop(k, None)
        else:
            x[k] = s


def _rref_rows(rows, field):
    """Reduced row echelon form on a list of sparse row dicts, in place-ish.

    Returns (reduced rows with zero rows dropped, pivot column list).
    """
    f = field
    reduced = []
    pivots = []
    work = [dict(r) for r in rows if r]
    # process columns left to right, selecting pivot rows greedily
    for row in work:
        # reduce against existing pivots
        for prow, pcol in zip(reduced, pivots):
            coef = row.get(pcol)
            if coef is not None:
                axpy(f, row, f.neg(coef), prow)
        if not row:
            continue
        pcol = min(row)
        inv = f.inv(row[pcol])
        row = {c: f.mul(inv, v) for c, v in row.items()}
        # back-substitute into earlier pivot rows
        for prow in reduced:
            coef = prow.get(pcol)
            if coef is not None:
                axpy(f, prow, f.neg(coef), row)
        reduced.append(row)
        pivots.append(pcol)
    order = sorted(range(len(pivots)), key=lambda i: pivots[i])
    return [reduced[i] for i in order], [pivots[i] for i in order]


def rref(m):
    """Reduced row echelon form of a Matrix."""
    rows, pivots = _rref_rows(m.row_dicts(), m.field)
    out = Matrix(m.rows, m.cols, None, m.field)
    for r, row in enumerate(rows):
        for c, v in row.items():
            out.entries[(r, c)] = v
    return RrefResult(out, len(pivots), pivots)


def kernel_basis(m):
    """Basis of {v : m v = 0}, as a Subspace of k^cols."""
    f = m.field
    res = rref(m)
    pivset = set(res.pivot_cols)
    rows = res.matrix.row_dicts()[: res.rank]
    basis = []
    for free in range(m.cols):
        if free in pivset:
            continue
        vec = {free: f.one}
        for row, pcol in zip(rows, res.pivot_cols):
            coef = row.get(free)
            if coef is not None:
                vec[pcol] = f.neg(coef)
        basis.append(vec)
    return Subspace(m.cols, basis, f)


class Subspace:
    """A subspace of k^ambient_dim, stored by a reduced (RREF) basis.

    The canonical basis makes equality and containment tests cheap, and the
    length of the basis is the dimension by construction.
    """

    __slots__ = ("ambient_dim", "basis", "pivots", "field")

    def __init__(self, ambient_dim, basis, field=QQ):
        self.ambient_dim = ambient_dim
        self.field = field
        rows, pivots = _rref_rows(basis, field)
        for row in rows:
            if row and max(row) >= ambient_dim:
                raise ExactLinError("vector exceeds ambient dimension")
        self.basis = rows
        self.pivots = pivots

    @property
    def dim(self):
        return len(self.basis)

    def reduce(self, vec):
        """Residue of vec after reduction modulo the subspace basis."""
        f = self.field
        vec = dict(vec)
        for row, pcol in zip(self.basis, self.pivots):
            coef = vec.get(pcol)
            if coef is not None:
                axpy(f, vec, f.neg(coef), row)
        return vec

    def contains(self, vec):
        return not self.reduce(vec)

    def __eq__(self, other):
        return (
            isinstance(other, Subspace)
            and self.ambient_dim == other.ambient_dim
            and self.basis == other.basis
        )

    def __repr__(self):
        return f"Subspace(dim {self.dim} of k^{self.ambient_dim})"


def subquotient_dim(z, b):
    """dim Z/B for subspaces B <= Z of the same ambient space.

    Raises ContainmentError when B is not contained in Z.
    """
    if z.ambient_dim != b.ambient_dim:
        raise ContainmentError("ambient dimension mismatch")
    if not all(z.contains(v) for v in b.basis):
        raise ContainmentError("B is not contained in Z")
    return z.dim - b.dim
