"""The normal complex of an exceptional collection and its spectral sequence.

For a collection E_1, ..., E_n the bigraded space in bidegree (-p, q) is the
sum, over strictly increasing chains a_0 < ... < a_p and degree splits
k_0 + ... + k_p = q, of

    Ext^{k_0}(E_{a_0}, E_{a_1}) (x) ... (x) Ext^{k_p}(E_{a_p}, S^{-1} E_{a_0})

with the twisted factor always last.  Since the input is a minimal model the
internal differential vanishes, so this bigraded space is already the first
page; its terms and table (`ChainTerm`, `enumerate_terms`, `build_e1`) live
in `firstpage`, which `e1` reads alone, and are re-exported here.  The
differential is the signed sum of product blocks: compositions of
adjacent factors, the composition of the trailing factor into the twisted
one, the cyclic wrap through the inverse Serre functor, and one block per
supplied higher product; an arity-k block moves column -p to -p + (k-1).
d . d = 0 says that the products satisfy the A-infinity relations (see
`relations`); they are verified exactly at build time, before any matrix is
built, and a failure names the relation's window.

Total degree is t = q - p.  The decreasing column filtration by -p gives the
spectral sequence; its page-r differential is exactly the arity-(r+1) part.
The cohomology, every page, the limit page, the survivors and the
coboundaries that the fullness pairing must vanish on all come from one
filtered column reduction of each d_t, cached on the complex.  Each T^t is
laid out in filtration order (mp never increases along its coordinates), so
the reduction reads d_t as assembled.  Each pivot pairs a coordinate of T^t
with one of T^{t+1} across a gap g = mp(row) - mp(col), the pair lives on
the pages E_1 .. E_g, and the unpaired coordinates are the limit page and
the cohomology (the persistence pairing of the filtration, as in
Edelsbrunner-Harer, Computational Topology, ch. VII); only the pairs are
stored, and `spectral_sequence` derives the gaps.  Each d_t is built and
reduced on first use, in increasing t, with clearing and a cochain per
column (`NormalComplex.reduction`): the reduced columns span the image, and
the unpaired coordinates' cochains complete them to a kernel basis, which
`survivors` returns filed by level.  `spectral_sequence` stops at the page
r = width + 1, which is the limit page; `heights.Analysis.pages` holds it
once per spec, and the `ss` command pads it out to `--max-page`.

Each d_t is stored once, as columns {col: {row: value}} that only this module
reads, each entry written once.  `perfbench/tracing.py` wraps functions here
by name, the re-exported first-page ones too, and reads `diffs` only while
it is empty: the README lists what a change here keeps for it, the
module-level `exactlin` import too.
"""

import itertools
from collections import Counter, defaultdict, namedtuple

from .exactlin import axpy
from .fields import EngineError, ExactLinError, field_by_name
from .model import INF
from .firstpage import ChainTerm, build_e1, enumerate_terms  # noqa: F401


class DifferentialError(EngineError):
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
    from .relations import block_sign
    p = term.p
    letters = term.letters()
    blocks = []
    for consumed, out_pos in _windows(p, spec.max_arity):
        key = pr.window_key([letters[i] for i in consumed])
        if not spec.tables.get(key):
            continue
        word = [x for i, x in enumerate(letters) if i not in consumed]
        word.insert(out_pos, pr.target_space(key))
        # the inverse of `letters`: a_0 from the twisted letter, then targets
        chain = (word[-1][1],) + tuple(x[2] for x in word[:-1])
        target = term_lookup.get((chain, tuple(x[3] for x in word)))
        if target is None:
            continue
        sign = block_sign(key, term.degs[:p], term.degs[p], out_pos)
        blocks.append((Block(term, target, key, sign), (consumed, out_pos)))
    return blocks


def _block_entries(spec, block, placement, fld):
    """Yield (target_index, source_index, coefficient) of each nonzero entry of the block."""
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
    ranges = [range(term.factor_dims[i]) for i in consumed]
    in_target = range(target.factor_dims[out_pos]).__contains__
    for src_combo, row in spec.tables[block.key].items():
        if not (all(map(range.__contains__, ranges, src_combo)) and all(map(in_target, row))):
            raise ExactLinError(f"{block.key} index {src_combo} -> {list(row)} out of bounds")
        src_off = sum(b * src_strides[i] for i, b in zip(consumed, src_combo))
        outs = [(out * out_stride, v) for out, c in row.items()
                if not fld.is_zero(v := fld.of(block.sign * c))]
        for src_base, tgt_base in rests:
            for tgt_off, coeff in outs:
                yield tgt_base + tgt_off, src_base + src_off, coeff


class NormalComplex:
    """The total complex, graded by total degree, each d_t built on first use.

    Each T^t is laid out in filtration order: by_t[t] is sorted by
    (p, chain, degs) and the terms take consecutive coordinates in that
    order, so mp never increases along T^t.  The reduction relies on it.
    """

    def __init__(self, spec, fld, term_lookup, by_t, offsets, t_dims, diffs):
        self.spec = spec
        self.field = fld
        self.term_lookup = term_lookup  # (chain, degs) -> ChainTerm
        self.by_t = by_t
        self.offsets = offsets
        self.t_dims = t_dims
        self.diffs = diffs  # t -> d_t as columns {col: {row: value}}, as built so far
        self._mp_cache = {}
        self.pairs, self.image, self.cycles = {}, {}, {}  # t -> the reduction of d_t

    def differential(self, t):
        """The columns of d_t from the blocks leaving T^t's terms, built on first use.

        Two windows of one word remove different objects, so no two blocks
        leaving a term reach one target term: each entry is written once.
        """
        got = self.diffs.get(t)
        if got is not None:
            return got
        spec = self.spec
        cols = defaultdict(dict)  # col -> {row: field element}
        for tm in self.by_t.get(t, ()) if spec.tables else ():
            src_off = self.term_offset(tm)
            for block, placement in _term_blocks(spec, tm, self.term_lookup):
                tgt_off = self.term_offset(block.target)
                for ti, si, coeff in _block_entries(spec, block, placement, self.field):
                    cols[src_off + si][tgt_off + ti] = coeff
        cols.default_factory = None  # from here a read never adds a column
        self.diffs[t] = cols
        return cols

    def apply(self, t, vec):
        """d_t vec for a sparse vector {col: value} on T^t, one pass over its columns."""
        d, out = self.differential(t), {}
        for c, v in vec.items():
            axpy(self.field, out, v, d.get(c, {}))
        return out

    def term_offset(self, term):
        return self.offsets[(term.chain, term.degs)]

    def coordinate_mp(self, t):
        """For each coordinate of T^t, the column index -p it belongs to."""
        got = self._mp_cache.get(t)
        if got is None:
            got = [tm.mp for tm in self.by_t.get(t, ()) for _ in range(tm.dim)]
            self._mp_cache[t] = got
        return got

    def reduction(self, through=INF):
        """The persistence pairing of every d_t through `through`; returns the complex.

        pairs[t] maps a column of T^t to its low row of T^{t+1}.  Both live on
        the pages E_1 .. E_g, g = mp(row) - mp(col) >= 1, and are killed by d_g
        (`spectral_sequence` derives g; no gap is stored); an unpaired
        coordinate lives on every page, E_inf included.  image[t] maps each low
        row to its reduced column, a basis of im d_t, and cycles[t] maps each
        unpaired coordinate of T^t to its cocycle; together, cycles[t] and
        image[t-1] are a basis of ker d_t with one low per vector, and a vector
        lies in F^j exactly when its low's level is >= j.

        T^t is reduced once a reader asks for it, after every lower degree,
        with clearing (Chen and Kerber, "Persistent homology computation with
        a twist", EuroCG 2011): the low row of a reduced column of d_{t-1} is
        a coboundary, so as a column of d_t it reduces to zero and is skipped;
        that reduced column is its cocycle.
        """
        for t in sorted(t for t in self.t_dims if t <= through and t not in self.pairs):
            self.pairs[t], self.image[t], self.cycles[t] = _reduce(
                self, t, cleared=self.image.get(t - 1, {})
            )
        return self


def assemble_differential(spec):
    """Lay out the total complex; each d_t is assembled on first use.

    The terms are listed first, so the n <= 24 cap is named before any
    failing A-infinity relation of the products, which is d . d != 0 (see
    `relations`) and raises DifferentialError naming its window.
    """
    fld = field_by_name(spec.field_name)
    terms = enumerate_terms(spec)
    if spec.tables:  # relations.py is compiled only for a spec with tables
        from .relations import describe, failing_relations
        failing = failing_relations(spec.tables, fld)
        if failing:  # a window failing on two outputs is named once
            named = dict.fromkeys(describe(window) for window, _ in failing)
            raise DifferentialError(
                "d.d != 0: the A-infinity relation fails on "
                + "; ".join(list(named)[:4])
            )
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
    return NormalComplex(spec, fld, term_lookup, by_t, offsets, t_dims, {})


def total_cohomology(cx):
    """dim ker/im of the total differential in every populated degree."""
    cycles = cx.reduction().cycles
    return {t: len(cycles[t]) for t in sorted(cx.t_dims)}


# -- the filtered reduction ----------------------------------------------------


def _reduce(cx, t, cleared=()):
    """Column-reduce d_t : T^t -> T^{t+1} in filtration order, with cochains.

    The coordinates are in filtration order (see `NormalComplex`), so the
    columns are visited by index and only earlier columns are added to
    later ones; the pivot ("low") of a column is its last nonzero row.
    Returns (pairs, image, cycles): pairs maps each column that reduces to
    nonzero to its low row, image maps that low row to the reduced column
    normalized at it (together a basis of im d_t), and cycles maps each
    column that reduces to zero to its cocycle, the column's cochain after
    the additions.  The columns in `cleared` are known to reduce to zero
    and are not visited.
    """
    f = cx.field
    d = cx.differential(t)
    pairs, image, cycles = {}, {}, {}
    chains = {}  # low row -> the cochain of its reduced column
    for c in range(cx.t_dims.get(t, 0)):
        if c in cleared:
            continue
        col = dict(d.get(c, {}))  # the cached d_t is never edited
        chain = {c: f.one}
        low = max(col, default=None)
        while low in image:
            coef = f.neg(col[low])
            axpy(f, col, coef, image[low])
            axpy(f, chain, coef, chains[low])
            low = max(col, default=None)
        if col:
            scale = f.inv(col[low])
            image[low] = {k: f.mul(scale, v) for k, v in col.items()}
            chains[low] = {k: f.mul(scale, v) for k, v in chain.items()}
            pairs[c] = low
        else:
            cycles[c] = chain
    return pairs, image, cycles


# -- spectral sequence -------------------------------------------------------


class SpectralSequencePages:
    """Page tables E_r (r >= 1), the limit page, and survivor bases."""

    def __init__(self, pages, infinity, stable_page, cx):
        self.pages = pages  # r -> {(mp, q): dim}
        self.infinity = infinity
        self.stable_page = stable_page
        self._cx = cx

    def page(self, r):
        return self.pages[min(r, max(self.pages))]

    def survivors(self, mp, q):
        """Bases (Z, B) of the cocycles and boundaries presenting E_inf at (mp, q).

        Z = ker d cap F^mp and B = (ker d cap F^{mp+1}) + (im d cap F^mp)
        in T^t, as lists of the reduction's kernel vectors filed by the
        level of their lows: B is the reduced columns of d_{t-1} at level
        >= mp and the cocycles above mp, Z is B plus the cocycles at mp.
        The lows are distinct, so len(Z) - len(B) is the E_inf dimension.
        """
        if (mp, q) not in self.pages[1]:
            return None
        t = mp + q
        cx = self._cx.reduction(t)
        mps, cycles = cx.coordinate_mp(t), cx.cycles[t]
        border = [col for low, col in cx.image.get(t - 1, {}).items() if mps[low] >= mp]
        border += [v for c, v in cycles.items() if mps[c] > mp]
        return border + [v for c, v in cycles.items() if mps[c] == mp], border


def spectral_sequence(cx):
    """The column-filtration spectral sequence, read off the reduction.

    E_1 at (mp, q) counts the coordinates of that bidegree.  A pair across
    the gap g = mp(row) - mp(col) takes its two coordinates off every page
    after E_g, so E_r is E_{r-1} less the coordinates paired across r - 1.
    Pages run through r = width + 1, where only the unpaired coordinates
    (the limit page) remain; `page` reads any later page as the limit page.
    """
    page = Counter()
    for tm in itertools.chain.from_iterable(cx.by_t.values()):
        page[tm.mp, tm.q] += tm.dim
    dying = defaultdict(Counter)  # g -> {(mp, q): coordinates there paired across g}
    for t, pairs in cx.reduction().pairs.items():
        mp, mp_next = cx.coordinate_mp(t), cx.coordinate_mp(t + 1)
        for c, r in pairs.items():
            lo, hi = mp[c], mp_next[r]
            dying[hi - lo].update(((lo, t - lo), (hi, t + 1 - hi)))
    mps = [mp for mp, _ in page] or [0]
    r_inf = max(mps) - min(mps) + 1
    pages = {1: dict(page)}
    for r in range(2, r_inf + 1):
        page -= dying.get(r - 1, Counter())
        pages[r] = dict(page)
    stable = min(max(dying, default=0) + 1, r_inf)
    return SpectralSequencePages(pages, pages[r_inf], stable, cx)
