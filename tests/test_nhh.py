import itertools
import os
import random
from fractions import Fraction
from math import comb

import pytest

import _specgen
from _dd_oracle import assemble_unchecked
from _matrices import d_matrix, rank
from excol import FIXTURE_NAMES, fixtures
from excol import products as pr
from excol.fields import ExactLinError
from excol.model import CollectionSpec, SpecError, parse
from excol.nhh import (
    DifferentialError,
    _term_blocks,
    assemble_differential,
    build_e1,
    spectral_sequence,
    total_cohomology,
)
from excol.pseudoheight import pseudoheight


def _terms(cx):
    return [tm for tms in cx.by_t.values() for tm in tms]


def _blocks(cx):
    """Every differential block, leaving every term of the complex."""
    return [
        block
        for tm in _terms(cx)
        for block, _ in _term_blocks(cx.spec, tm, cx.term_lookup)
    ]


def test_first_page_projective_line():
    table = build_e1(fixtures.fixture_spec("beilinson_p1"))
    assert table == {(0, 1): 6, (-1, 1): 4}


def test_first_page_point():
    table = build_e1(fixtures.fixture_spec("point"))
    assert table == {(0, 0): 1}


def _counted_first_page(n):
    """Independent counting of the page for the projective-space fixture:
    chains and degree splits fed straight through binomial dimensions."""
    nvars = n

    def a_dim(i, j):
        return comb(j - i + nvars - 1, nvars - 1)

    def n_dim(i, j):
        return comb(i + n - j + nvars - 1, nvars - 1)

    table = {}
    for size in range(1, n + 1):
        for chain in itertools.combinations(range(1, n + 1), size):
            p = size - 1
            dim = n_dim(chain[0], chain[-1])
            for s in range(p):
                dim *= a_dim(chain[s], chain[s + 1])
            key = (-p, n - 1)
            table[key] = table.get(key, 0) + dim
    return table


@pytest.mark.parametrize("n", [2, 3, 4])
def test_first_page_matches_counting_oracle(n):
    spec = fixtures.fixture_spec(f"beilinson_p{n - 1}")
    table = build_e1(spec)
    assert table == _counted_first_page(n)


def test_first_page_needs_exact_data():
    with pytest.raises(SpecError):
        build_e1(fixtures.fixture_spec("burniat"))


def test_projective_line_block_has_rank_three():
    # V (x) V -> S^2 V (+) S^2 V by (f, g) -> (gf, +-fg): rank 3
    cx = assemble_differential(fixtures.fixture_spec("beilinson_p1"))
    d0 = d_matrix(cx, 0)
    assert (d0.rows, d0.cols) == (6, 4)
    assert rank(d0) == 3


def test_single_object_zero_differential():
    cx = assemble_differential(fixtures.fixture_spec("point"))
    assert cx.t_dims == {0: 1} and not d_matrix(cx, 0).entries


def test_beauville_block_targets():
    # the full-chain source maps into exactly the four published summands
    spec = fixtures.fixture_spec("beauville_I0")
    cx = assemble_differential(spec)
    sources = [b for b in _blocks(cx) if b.source.chain == (1, 2, 3, 4)]
    targets = {(b.target.chain, b.target.degs) for b in sources}
    assert targets == {
        ((1, 3, 4), (2, 1, 3)),
        ((1, 2, 4), (1, 2, 3)),
        ((1, 2, 3), (1, 1, 4)),
        ((2, 3, 4), (1, 1, 4)),
    }
    d3 = d_matrix(cx, 3)
    assert rank(d3) == 1


def test_total_cohomology_projective_spaces():
    # the collections are full, so the answer is forced by the polyvector
    # field cohomology of the ambient space
    expected = {
        "point": {0: 1},
        "beilinson_p1": {0: 1, 1: 3},
        "beilinson_p2": {0: 1, 1: 8, 2: 10},
    }
    for name, want in expected.items():
        cx = assemble_differential(fixtures.fixture_spec(name))
        assert total_cohomology(cx) == want


def test_minimal_nonzero_degree_is_pseudoheight():
    for name in ["beilinson_p1", "beilinson_p2", "godeaux", "beauville_I0"]:
        spec = fixtures.fixture_spec(name)
        table = build_e1(spec)
        min_t = min(mp + q for (mp, q), d in table.items() if d)
        assert min_t == pseudoheight(spec).ph(spec.dim_x)


def test_spectral_sequence_projective_line():
    cx = assemble_differential(fixtures.fixture_spec("beilinson_p1"))
    ss = spectral_sequence(cx)
    assert ss.pages[1] == {(0, 1): 6, (-1, 1): 4}
    assert ss.pages[2] == {(0, 1): 3, (-1, 1): 1}
    assert ss.infinity == {(0, 1): 3, (-1, 1): 1}
    assert ss.stable_page == 2


def test_spectral_sequence_zero_differential():
    spec = CollectionSpec(
        n=2, dim_x=0,
        a_dims={(1, 2): {0: 2}},
        n_dims={(1, 1): {1: 1}, (1, 2): {1: 2}},
    )
    cx = assemble_differential(spec)
    ss = spectral_sequence(cx)
    assert ss.pages[1] == ss.infinity
    assert ss.stable_page == 1


def test_beauville_second_page_kills_the_deep_corner():
    cx = assemble_differential(fixtures.fixture_spec("beauville_I0"))
    ss = spectral_sequence(cx)
    assert ss.pages[1][(-3, 6)] == 1
    assert (-3, 6) not in ss.pages[2]
    assert ss.infinity[(0, 4)] == 36


def _arity_three_spec():
    """No products except one arity-3 block: its page-2 differential is the
    only map in the whole complex."""
    return CollectionSpec(
        n=4, dim_x=0,
        a_dims={(1, 2): {0: 1}, (2, 3): {0: 1}, (3, 4): {0: 1}, (1, 4): {-1: 1}},
        n_dims={(1, 4): {1: 1}, (1, 1): {0: 1}},
        higher={
            pr.key_aa((1, 2, 3, 4), (0, 0, 0)): {(0, 0, 0): {0: Fraction(1)}}
        },
    )


def test_higher_product_drives_page_two():
    spec = _arity_three_spec()
    cx = assemble_differential(spec)
    assert total_cohomology(cx) == {-2: 0, -1: 0, 0: 1}
    ss = spectral_sequence(cx)
    assert ss.pages[1] == {(-3, 1): 1, (-1, 0): 1, (0, 0): 1}
    assert ss.pages[2] == ss.pages[1]  # nothing of arity 2 exists
    assert ss.pages[3] == {(0, 0): 1}
    assert ss.infinity == {(0, 0): 1}
    assert ss.stable_page == 3


def test_degenerate_no_twisted_spaces():
    spec = CollectionSpec(n=2, dim_x=0, a_dims={(1, 2): {0: 3}}, n_dims={})
    cx = assemble_differential(spec)
    assert cx.t_dims == {}
    assert total_cohomology(cx) == {}
    assert spectral_sequence(cx).infinity == {}


def test_square_zero_violation_reported():
    spec = fixtures.fixture_spec("beilinson_p2")
    key = pr.key_aa((1, 2, 3), (0, 0))
    table = {src: dict(row) for src, row in spec.products[key].items()}
    out = next(iter(table[(0, 0)]))
    table[(0, 0)][out] *= 2
    spec.products[key] = table
    with pytest.raises(DifferentialError) as err:
        assemble_differential(spec)
    assert "chain (1, 2, 3)" in str(err.value)


def _rescaled(spec, rng):
    """Conjugate every structure constant by random diagonal basis changes."""
    scales = {}

    def scale_for(kind, i, j, deg, dim):
        key = (kind, i, j, deg)
        if key not in scales:
            scales[key] = [
                Fraction(rng.choice([1, 2, 3, -1, -2]), rng.choice([1, 2]))
                for _ in range(dim)
            ]
        return scales[key]

    def dim_of(kind, i, j, deg):
        return (spec.a_space(i, j) if kind == "A" else spec.n_space(i, j))[deg]

    new_products = {}
    for key, table in spec.products.items():
        srcs = pr.source_spaces(key)
        tk, ti, tj, tdeg = pr.target_space(key)
        s_out = scale_for(tk, ti, tj, tdeg, dim_of(tk, ti, tj, tdeg))
        new_table = {}
        for combo, row in table.items():
            factor = Fraction(1)
            for (k, i, j, deg), idx in zip(srcs, combo):
                factor *= scale_for(k, i, j, deg, dim_of(k, i, j, deg))[idx]
            new_table[combo] = {o: v * factor / s_out[o] for o, v in row.items()}
        new_products[key] = new_table
    return CollectionSpec(
        n=spec.n, dim_x=spec.dim_x, field_name=spec.field_name,
        a_dims=spec.a_dims, n_dims=spec.n_dims, products=new_products,
    )


def test_page_dims_invariant_under_rescaling():
    rng = random.Random(7)
    for _ in range(10):
        spec = _specgen.random_spec(rng)
        twin = _rescaled(spec, rng)
        ss1 = spectral_sequence(assemble_differential(spec))
        ss2 = spectral_sequence(assemble_differential(twin))
        assert ss1.pages == ss2.pages
        assert ss1.infinity == ss2.infinity


def test_random_specs_converge():
    # limit-page dims sum to the total cohomology in every degree
    rng = random.Random(99)
    for _ in range(25):
        spec = _specgen.random_spec(rng)
        cx = assemble_differential(spec)
        nhh = total_cohomology(cx)
        ss = spectral_sequence(cx)
        for t, dim in nhh.items():
            got = sum(d for (mp, q), d in ss.infinity.items() if q + mp == t)
            assert got == dim


def test_prime_field_matches_rationals_on_projective_plane():
    spec = fixtures.fixture_spec("beilinson_p2")
    spec.field_name = "F1009"
    cx = assemble_differential(spec)
    assert total_cohomology(cx) == {0: 1, 1: 8, 2: 10}


def test_no_block_leaves_the_zero_column():
    # differentials only shorten chains, so the -p = 0 column never emits
    for name in ["beilinson_p2", "beauville_I0", "godeaux"]:
        cx = assemble_differential(fixtures.fixture_spec(name))
        assert all(b.source.p >= 1 for b in _blocks(cx))


def test_beauville_degree_three_is_on_the_deep_corner_only():
    table = build_e1(fixtures.fixture_spec("beauville_I0"))
    degree_three = {(mp, q): d for (mp, q), d in table.items() if mp + q == 3}
    assert degree_three == {(-3, 6): 1}


def test_sign_convention_frozen_on_projective_line():
    # locks the shipped Koszul convention: the trailing composition enters
    # with a minus sign, the wrap with a plus, on the line's pair chain
    cx = assemble_differential(fixtures.fixture_spec("beilinson_p1"))
    d0 = d_matrix(cx, 0)
    fr = Fraction
    # T^0 basis: x(x)x, x(x)y, y(x)x, y(x)y; T^1: x2,xy,y2 twice
    expected = {
        (0, 0): fr(-1), (3, 0): fr(1),
        (1, 1): fr(-1), (4, 1): fr(1),
        (1, 2): fr(-1), (4, 2): fr(1),
        (2, 3): fr(-1), (5, 3): fr(1),
    }
    assert d0.entries == expected


def test_all_three_arity_three_block_kinds():
    # one arity-3 product of each kind, no compositions of arity 2: the
    # page-2 differential carries all of them at once
    spec = CollectionSpec(
        n=4, dim_x=0,
        a_dims={(1, 2): {0: 1}, (2, 3): {0: 1}, (3, 4): {0: 1}, (1, 4): {-1: 1}},
        n_dims={(1, 4): {1: 1}, (1, 1): {0: 1}, (1, 2): {0: 1}, (3, 4): {0: 1}},
        higher={
            pr.key_aa((1, 2, 3, 4), (0, 0, 0)): {(0, 0, 0): {0: Fraction(1)}},
            pr.key_an(1, (2, 3, 4), (0, 0, 1)): {(0, 0, 0): {0: Fraction(1)}},
            pr.key_na(4, (1, 2, 3), (1, 0, 0)): {(0, 0, 0): {0: Fraction(1)}},
        },
    )
    cx = assemble_differential(spec)
    placements = {(b.key[0], b.target.chain) for b in _blocks(cx)}
    assert placements == {("AA", (1, 4)), ("AN", (1, 2)), ("NA", (3, 4))}
    assert total_cohomology(cx) == {-2: 0, -1: 2, 0: 1}
    ss = spectral_sequence(cx)
    assert ss.pages[1] == {(-3, 1): 1, (-1, 0): 3, (0, 0): 1}
    assert ss.pages[2] == ss.pages[1]
    assert ss.pages[3] == {(-1, 0): 2, (0, 0): 1}
    assert ss.infinity == ss.pages[3]


def _naive_second_page(cx):
    """Independent oracle for page 2: assemble the arity-2 differential
    bidegree by bidegree and take plain kernel-modulo-image dimensions,
    bypassing the nested-subquotient machinery entirely."""
    from excol.exactlin import Matrix
    from excol.nhh import _block_entries

    dims = {}
    offsets = {}
    for tm in _terms(cx):
        key = (tm.mp, tm.q)
        offsets[(tm.chain, tm.degs)] = dims.get(key, 0)
        dims[key] = dims.get(key, 0) + tm.dim
    mats = {}  # source bidegree -> matrix of the column-raising differential
    for tm in _terms(cx):
        skey = (tm.mp, tm.q)
        for block, placement in _term_blocks(cx.spec, tm, cx.term_lookup):
            if pr.arity_of(block.key) != 2:
                continue
            tgt = block.target
            tkey = (tgt.mp, tgt.q)
            assert tkey == (tm.mp + 1, tm.q)
            mat = mats.get(skey)
            if mat is None:
                mat = Matrix.zero(dims.get(tkey, 0), dims[skey], cx.field)
                mats[skey] = mat
            so = offsets[(tm.chain, tm.degs)]
            to = offsets[(tgt.chain, tgt.degs)]
            for ti, si, coeff in _block_entries(cx.spec, block, placement, cx.field):
                mat.add_to(to + ti, so + si, coeff)
    page = {}
    for key, dim in dims.items():
        rank_out = rank(mats[key]) if key in mats else 0
        prev = (key[0] - 1, key[1])
        rank_in = rank(mats[prev]) if prev in mats else 0
        if dim - rank_out - rank_in:
            page[key] = dim - rank_out - rank_in
    return page


def test_second_page_matches_naive_oracle():
    names = ["beilinson_p1", "beilinson_p2", "beauville_I0", "godeaux", "point"]
    for name in names:
        cx = assemble_differential(fixtures.fixture_spec(name))
        ss = spectral_sequence(cx)
        assert ss.page(2) == _naive_second_page(cx), name
    rng = random.Random(424242)
    for _ in range(40):
        spec = _specgen.random_spec(rng)
        cx = assemble_differential(spec)
        ss = spectral_sequence(cx)
        assert ss.page(2) == _naive_second_page(cx)


@pytest.mark.parametrize("index", [10**6, -(10**6)])
def test_assembly_refuses_an_index_outside_the_matrix(index):
    # a spec built in code is not checked by parse: the assembly still refuses it
    spec = fixtures.fixture_spec("beilinson_p1")
    key = min(spec.products)
    spec.products[key] = {(0, 0): {index: 1}}
    cx = assemble_unchecked(spec)
    with pytest.raises(ExactLinError, match="out of bounds"):
        for t in cx.t_dims:  # each d_t is checked as it is built
            cx.differential(t)


def test_a_coefficient_zero_in_the_field_leaves_no_entry():
    # one coefficient of P^1 becomes 1009: an entry over Q, zero over F_1009
    spec = fixtures.fixture_spec("beilinson_p1")
    key = min(spec.products)
    src = min(spec.products[key])
    spec.products[key][src] = {out: 1009 * c for out, c in spec.products[key][src].items()}
    over_q = assemble_unchecked(spec)
    spec.field_name = "F1009"
    over_p = assemble_unchecked(spec)
    assert over_q.t_dims == over_p.t_dims
    dropped = 0
    for t in over_p.t_dims:
        entries = d_matrix(over_q, t).entries
        kept = {k: v % 1009 for k, v in entries.items() if v % 1009}
        assert d_matrix(over_p, t).entries == kept
        assert all(over_p.differential(t).values())  # and no column left empty
        dropped += len(entries) - len(kept)
    assert dropped > 0


def _layout_specs():
    """Every exact fixture, the two data documents and 100 random specs."""
    for name in FIXTURE_NAMES:
        spec = fixtures.fixture_spec(name)
        if spec.is_exact:
            yield name, spec
    for name in ("arity3.json", "sparse15.json"):
        path = os.path.join(os.path.dirname(__file__), "data", name)
        with open(path, encoding="utf-8") as fh:
            yield name, parse(fh.read())
    rng = random.Random(3)
    for k in range(100):
        yield f"draw {k}", _specgen.random_spec(rng)


def test_coordinates_are_laid_out_in_filtration_order():
    """mp never increases along T^t, and each term's coordinates carry its mp.

    The reduction visits columns and reads pivots by index, so this layout
    is what makes it a filtered reduction.
    """
    drops = 0
    for label, spec in _layout_specs():
        cx = assemble_differential(spec)
        for t, terms in cx.by_t.items():
            mps = cx.coordinate_mp(t)
            assert len(mps) == cx.t_dims[t], (label, t)
            assert all(a >= b for a, b in zip(mps, mps[1:])), (label, t)
            drops += sum(a > b for a, b in zip(mps, mps[1:]))
            for tm in terms:
                off = cx.term_offset(tm)
                assert [mps[off + i] for i in range(tm.dim)] == [tm.mp] * tm.dim, (label, tm)
    # the projective and random specs have one column per T^t (their degrees
    # telescope); beauville_I0 and sparse15 have T^t spanning several
    assert drops >= 6


def test_no_two_blocks_leaving_a_term_reach_one_target_term():
    """Each entry of d_t is written once, so no two blocks may overlap.

    Two windows of one word remove different objects, hence reach different
    target terms; a product kind that broke this would overwrite entries
    in `NormalComplex.differential` instead of summing them.  Checked on
    the layout specs and 200 more random specs (300 draws in all).
    """
    rng = random.Random(32)
    more = ((f"draw {100 + k}", _specgen.random_spec(rng)) for k in range(200))
    shared = 0
    for label, spec in itertools.chain(_layout_specs(), more):
        cx = assemble_differential(spec)
        for tm in _terms(cx):
            targets = [block.target for block, _ in _term_blocks(spec, tm, cx.term_lookup)]
            assert len(set(targets)) == len(targets), (label, tm)
            shared += len(targets) > 1
    assert shared > 100  # many terms have several blocks leaving them
