"""The normal complex of an exceptional collection and its spectral sequence.

For a collection E_1, ..., E_n the bigraded space in bidegree (-p, q) is the
sum, over strictly increasing chains a_0 < ... < a_p and degree splits
k_0 + ... + k_p = q, of

    Ext^{k_0}(E_{a_0}, E_{a_1}) (x) ... (x) Ext^{k_p}(E_{a_p}, S^{-1} E_{a_0})

with the twisted factor always last.  Since the input is a minimal model the
internal differential vanishes, so this bigraded space is already the first
page; its terms and table (`ChainTerm`, `enumerate_terms`, `build_e1`) live
in `pseudoheight`, beside the chain walk, and are re-exported here.  The
differential is the signed sum of product blocks: compositions of
adjacent factors, the composition of the trailing factor into the twisted
one, the cyclic wrap through the inverse Serre functor, and one block per
supplied higher product; an arity-k block moves column -p to -p + (k-1).
d . d = 0 says that the products satisfy the A-infinity relations (see
`products`); they are verified exactly at build time, before any matrix is
built, and a failure names the relation's window.

Total degree is t = q - p.  The decreasing column filtration by -p gives the
spectral sequence; its page-r differential is exactly the arity-(r+1) part.
Every page comes from one filtered column reduction of each d_t, cached on
the complex.  Each T^t is laid out in filtration order (mp never increases
along its coordinates), so the reduction reads d_t as assembled.  Each
pivot pairs a coordinate of T^t with one of T^{t+1} across a gap
g = mp(row) - mp(col), the pair lives on the pages E_1 .. E_g, and the
unpaired coordinates are the limit page and the cohomology (the persistence
pairing of the filtration, as in Edelsbrunner-Harer, Computational
Topology, ch. VII).
The d_t are reduced in increasing t, with clearing (`FilteredReduction`);
survivor bases are read off a reduction of every column, on demand.

`perfbench/tracing.py` wraps functions here by name, the re-exported
first-page ones too, and reads `diffs[t].entries`: the README lists what a
change here keeps for it, the module-level `exactlin` import included.
"""

import itertools
from collections import namedtuple

from .exactlin import Matrix, Subspace, axpy
from .fields import ExactLinError, field_by_name
from .model import INF, SpecError
from .pseudoheight import ChainTerm, build_e1, enumerate_terms  # noqa: F401


class DifferentialError(ValueError):
    """d . d != 0: an A-infinity relation of the products fails."""


# one signed product block of the differential between two ChainTerms
Block = namedtuple("Block", "source target key sign")


def _windows(p, max_arity):
    """(consumed word positions, output position) of every product window.

    Positions 0..p-1 are the morphism letters and p the twisted one.  Per
    arity: the morphism runs, the trailing run into the twisted letter, and
    the wrap of the twisted letter onto the leading run.  The output takes
    the given position among the kept letters.
    """
    for m in range(2, max_arity + 1):
        for r in range(p - m + 1):
            yield tuple(range(r, r + m)), r
        if m - 1 <= p:
            yield tuple(range(p - m + 1, p + 1)), p - m + 1
            yield (p,) + tuple(range(m - 1)), p - m + 1


def _term_blocks(spec, term, term_lookup):
    """All differential blocks leaving a term, absent products skipped."""
    from . import products as pr
    p = term.p
    a_degs = term.degs[:p]
    n_deg = term.degs[p]
    letters = term.letters()
    blocks = []
    for consumed, out_pos in _windows(p, spec.max_arity):
        key = pr.window_key([letters[i] for i in consumed])
        if not spec.product_table(key):
            continue
        word = [x for i, x in enumerate(letters) if i not in consumed]
        word.insert(out_pos, pr.target_space(key))
        # the inverse of `letters`: a_0 from the twisted letter, then targets
        chain = (word[-1][1],) + tuple(x[2] for x in word[:-1])
        target = term_lookup.get((chain, tuple(x[3] for x in word)))
        if target is None:
            continue
        sign = pr.block_sign(key, a_degs, n_deg, out_pos)
        blocks.append((Block(term, target, key, sign), (consumed, out_pos)))
    return blocks


def _block_entries(spec, block, placement, fld):
    """Yield (target_index, source_index, coefficient) over the block."""
    term, target = block.source, block.target
    consumed, out_pos = placement
    kept = [i for i in range(term.p + 1) if i not in consumed]
    src_strides = term.strides()
    tgt_strides = target.strides()
    out_stride = tgt_strides.pop(out_pos)
    # (source offset, target offset) of each assignment of the kept letters
    rests = [
        (
            sum(b * src_strides[i] for i, b in zip(kept, rest)),
            sum(b * s for b, s in zip(rest, tgt_strides)),
        )
        for rest in itertools.product(*[range(term.factor_dims[i]) for i in kept])
    ]
    for src_combo, row in spec.product_table(block.key).items():
        src_off = sum(b * src_strides[i] for i, b in zip(consumed, src_combo))
        outs = [(out * out_stride, fld.of(block.sign * c)) for out, c in row.items()]
        for src_base, tgt_base in rests:
            for tgt_off, coeff in outs:
                yield tgt_base + tgt_off, src_base + src_off, coeff


class NormalComplex:
    """The assembled total complex, graded by total degree.

    Each T^t is laid out in filtration order: by_t[t] is sorted by
    (p, chain, degs) and the terms take consecutive coordinates in that
    order, so mp never increases along T^t.  The reduction relies on it.
    """

    def __init__(
        self, spec, fld, terms, term_lookup, by_t, offsets, t_dims, diffs, blocks
    ):
        self.spec = spec
        self.field = fld
        self.terms = terms
        self.term_lookup = term_lookup  # (chain, degs) -> ChainTerm
        self.by_t = by_t
        self.offsets = offsets
        self.t_dims = t_dims
        self.diffs = diffs  # t -> Matrix from T^t to T^{t+1}
        self.blocks = blocks
        self._mp_cache = {}
        self._reduction = None

    def differential(self, t):
        got = self.diffs.get(t)
        if got is not None:
            return got
        return Matrix.zero(self.t_dims.get(t + 1, 0), self.t_dims.get(t, 0), self.field)

    def term_offset(self, term):
        return self.offsets[(term.chain, term.degs)]

    def coordinate_mp(self, t):
        """For each coordinate of T^t, the column index -p it belongs to."""
        got = self._mp_cache.get(t)
        if got is None:
            got = [tm.mp for tm in self.by_t.get(t, ()) for _ in range(tm.dim)]
            self._mp_cache[t] = got
        return got

    def reduction(self):
        """The filtered column reduction of every d_t, built on first use."""
        if self._reduction is None:
            self._reduction = FilteredReduction(self)
        return self._reduction


def assemble_differential(spec, check=True):
    """Build the full differential.

    Unless check=False, every A-infinity relation of the products is
    verified first, which is d . d = 0 (see `products`); a failing relation
    raises DifferentialError naming its window.
    """
    fld = field_by_name(spec.field_name)
    tables = {**spec.products, **spec.higher}
    if check and tables:  # products.py is compiled only for a spec with tables
        from . import products as pr
        failing = pr.failing_relations(tables, fld)
        if failing:  # a window failing on two outputs is named once
            named = dict.fromkeys(pr.describe(window) for window, _ in failing)
            raise DifferentialError(
                "d.d != 0: the A-infinity relation fails on "
                + "; ".join(list(named)[:4])
            )
    terms = enumerate_terms(spec)
    term_lookup = {(tm.chain, tm.degs): tm for tm in terms}
    by_t = {}
    for tm in terms:
        by_t.setdefault(tm.t, []).append(tm)
    offsets = {}
    t_dims = {}
    for t, tms in by_t.items():
        tms.sort(key=lambda tm: (tm.p, tm.chain, tm.degs))  # filtration order
        off = 0
        for tm in tms:
            offsets[(tm.chain, tm.degs)] = off
            off += tm.dim
        t_dims[t] = off
    sums = {}  # t -> {(row, col): field element}, summed as the blocks arrive
    all_blocks = []
    for tm in terms if tables else ():
        src_off = offsets[(tm.chain, tm.degs)]
        for block, placement in _term_blocks(spec, tm, term_lookup):
            all_blocks.append(block)
            acc = sums.setdefault(tm.t, {})
            tgt_off = offsets[(block.target.chain, block.target.degs)]
            for ti, si, coeff in _block_entries(spec, block, placement, fld):
                key = (tgt_off + ti, src_off + si)
                acc[key] = fld.add(acc[key], coeff) if key in acc else coeff
    diffs = {}
    for t, acc in sums.items():
        rows, cols = t_dims.get(t + 1, 0), t_dims[t]
        bad = next((k for k in acc if not (0 <= k[0] < rows and 0 <= k[1] < cols)), None)
        if bad is not None:
            raise ExactLinError(f"index {bad} out of bounds")
        diffs[t] = Matrix.zero(rows, cols, fld)
        diffs[t].entries = {k: v for k, v in acc.items() if not fld.is_zero(v)}
    return NormalComplex(
        spec, fld, terms, term_lookup, by_t, offsets, t_dims, diffs, all_blocks
    )


def total_cohomology(cx):
    """dim ker/im of the total differential in every populated degree."""
    pairs = cx.reduction().pairs
    return {
        t: dim - len(pairs.get(t, ())) - len(pairs.get(t - 1, ()))
        for t, dim in sorted(cx.t_dims.items())
    }


# -- the filtered reduction ----------------------------------------------------


def _reduce(cx, t, track=False, cleared=()):
    """Column-reduce d_t : T^t -> T^{t+1} in filtration order.

    The coordinates are in filtration order (see `NormalComplex`), so the
    columns are visited by index and only earlier columns are added to
    later ones; the pivot ("low") of a column is its last nonzero row.
    Returns {col: (low row, reduced column normalized at its low)} over the
    nonzero reduced columns and {col: cocycle} over the zero ones, the
    cocycle being the column's vector after the additions; unless track is
    set, no cocycle is kept.  The columns in `cleared` are known to reduce
    to zero and are not visited.
    """
    f = cx.field
    work = {}
    for (r, c), v in cx.differential(t).entries.items():
        if c not in cleared:
            work.setdefault(c, {})[r] = v
    by_low = {}  # low row -> (reduced column, its cochain)
    pivots = {}
    cycles = {}
    for c in range(cx.t_dims.get(t, 0)):
        if c in cleared:
            continue
        col = work.get(c, {})
        chain = {c: f.one} if track else None
        low = max(col, default=None)
        while low in by_low:
            coef = f.neg(col[low])
            axpy(f, col, coef, by_low[low][0])
            if track:
                axpy(f, chain, coef, by_low[low][1])
            low = max(col, default=None)
        if col:
            scale = f.inv(col[low])
            col = {k: f.mul(scale, v) for k, v in col.items()}
            if track:
                chain = {k: f.mul(scale, v) for k, v in chain.items()}
            by_low[low] = (col, chain)
            pivots[c] = (low, col)
        elif track:
            cycles[c] = chain
    return pivots, cycles


class FilteredReduction:
    """The persistence pairing of every d_t under the column filtration.

    pairs[t] maps a column of T^t to its low row of T^{t+1}; gaps[t] maps
    every paired coordinate of T^t to g = mp(row) - mp(col) >= 1.  A paired
    coordinate lives on the pages E_1 .. E_g and is killed by d_g; an
    unpaired one lives on every page, E_inf included.

    The d_t are reduced in increasing t, with clearing (Chen and Kerber,
    "Persistent homology computation with a twist", EuroCG 2011): the low
    row of a reduced column of d_{t-1} is a coboundary, so as a column of
    d_t it reduces to zero and is skipped.
    """

    def __init__(self, cx):
        self.pairs = {}
        self.gaps = {t: {} for t in cx.t_dims}
        for t in sorted(cx.diffs):
            cleared = set(self.pairs.get(t - 1, {}).values())
            pivots = _reduce(cx, t, cleared=cleared)[0]
            self.pairs[t] = {c: r for c, (r, _) in pivots.items()}
            mp, mp_next = cx.coordinate_mp(t), cx.coordinate_mp(t + 1)
            for c, r in self.pairs[t].items():
                self.gaps[t][c] = self.gaps[t + 1][r] = mp_next[r] - mp[c]


# -- spectral sequence -------------------------------------------------------


class SpectralSequencePages:
    """Page tables E_r (r >= 1), the limit page, and survivor bases."""

    def __init__(self, pages, infinity, stable_page, cx):
        self.pages = pages  # r -> {(mp, q): dim}
        self.infinity = infinity
        self.stable_page = stable_page
        self._cx = cx
        self._reduced = {}  # t -> tracked reduction of d_t

    def page(self, r):
        top = max(self.pages)
        return self.pages[min(r, top)]

    def survivors(self, mp, q):
        """Cocycle space and boundary space presenting E_inf at (mp, q).

        Z = ker d cap F^mp and B = (ker d cap F^{mp+1}) + (im d cap F^mp)
        in T^t: ker d cap F^j is spanned by the cocycles of the zero columns
        of d_t at levels >= j, im d cap F^mp by the reduced columns of
        d_{t-1} lying in F^mp.
        """
        if (mp, q) not in self.pages[1]:
            return None
        cx = self._cx
        t = mp + q
        for s in (t - 1, t):
            if s not in self._reduced:
                self._reduced[s] = _reduce(cx, s, track=True)
        mps = cx.coordinate_mp(t)
        cycles = self._reduced[t][1]
        z = [v for c, v in cycles.items() if mps[c] >= mp]
        b = [v for c, v in cycles.items() if mps[c] > mp] + [
            col for low, col in self._reduced[t - 1][0].values()
            if mps[low] >= mp
        ]
        dim = cx.t_dims[t]
        return Subspace(dim, z, cx.field), Subspace(dim, b, cx.field)


def spectral_sequence(cx, max_page=None):
    """The column-filtration spectral sequence, read off the reduction.

    E_r at (mp, q) counts the coordinates of that bidegree that are unpaired
    or paired with a gap >= r.  Pages run through r = width + 1, where only
    the unpaired coordinates (the limit page) remain, and on to max_page as
    copies of the limit page.
    """
    if max_page is not None and max_page < 1:
        raise SpecError(f"max_page must be >= 1, got {max_page}")
    gaps = cx.reduction().gaps
    lives = {}  # (mp, q) -> the last page each coordinate lives on
    for t in cx.t_dims:
        for i, mp in enumerate(cx.coordinate_mp(t)):
            lives.setdefault((mp, t - mp), []).append(gaps[t].get(i, INF))
    if not lives:
        return SpectralSequencePages({1: {}}, {}, 1, cx)
    mps = [mp for mp, _ in lives]
    r_inf = max(mps) - min(mps) + 1
    pages = {
        r: {key: n for key, last in lives.items() if (n := sum(g >= r for g in last))}
        for r in range(1, r_inf + 1)
    }
    infinity = pages[r_inf]
    for r in range(r_inf + 1, (max_page or 0) + 1):
        pages[r] = dict(infinity)
    top_gap = max((g for gs in gaps.values() for g in gs.values()), default=0)
    return SpectralSequencePages(pages, infinity, min(top_gap + 1, r_inf), cx)
