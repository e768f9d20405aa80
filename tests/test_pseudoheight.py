import json
from pathlib import Path

import pytest

from _three_valued import brute_cyclic
from excol import fixtures, model, qualitative
from excol.cli import main
from excol.model import INF, NONZERO, ZERO, CollectionSpec, SpecError
from excol.pseudoheight import (
    iter_chains,
    pseudoheight,
    qualitative_ph_bounds,
    rel_height,
)
from excol.qualitative import QualitativeExtTable

ROOT = Path(__file__).resolve().parents[1]


def test_rel_height_basic():
    assert rel_height({0: 2, 1: 3}) == 0
    assert rel_height({}) == INF
    assert rel_height({2: 5, 4: 1}) == 2


def test_rel_height_godeaux_twisted_pair():
    spec = fixtures.fixture_spec("godeaux")
    # Ext into the twist of E_2 from E_3 starts in degree 2 anticanonically
    assert rel_height(spec.n_space(2, 3)) - spec.dim_x == 2


def test_chain_enumeration():
    chains = list(iter_chains(3))
    assert len(chains) == 7
    assert chains == sorted(chains, key=lambda c: (len(c), c))  # witness order
    assert (1, 2, 3) in chains


def test_chain_enumeration_capped():
    with pytest.raises(SpecError):
        list(iter_chains(25))


@pytest.mark.parametrize("statuses", [
    [],
    # clashes with the deduced ZERO at (1, 2, 0): the cap is still reported
    [{"src": 1, "dst": 2, "deg": 0, "status": NONZERO}],
], ids=["no-clash", "clash"])
@pytest.mark.parametrize("command", ["pseudoheight", "height", "fullness"])
def test_cap_is_checked_before_the_deductions(tmp_path, capsys, monkeypatch, command,
                                              statuses):
    # the degree criterion deduces O(n^2) statuses; past the cap on n the
    # walk refuses the document before it builds the three-valued reader
    n = 1200
    doc = {
        "n": n,
        "dim_x": 2,
        "objects": [{"canonical_degree": -(i % 7)} for i in range(n)],
        "flags": {"is_surface": True, "line_bundles": True,
                  "ample_canonical": True, "k_squared": 1},
        "qualitative": {"degree_window": [0, 2], "statuses": statuses},
    }
    path = tmp_path / "wide.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    calls = []
    real = qualitative.Deductions.__init__
    monkeypatch.setattr(qualitative.Deductions, "__init__",
                        lambda self, spec: calls.append(spec) or real(self, spec))
    assert main([command, str(path)]) == 1
    assert capsys.readouterr().err == f"error: chain enumeration capped at n <= 24, got {n}\n"
    assert calls == []


@pytest.mark.parametrize("command", ["pseudoheight", "e1", "ss", "height", "report",
                                     "fullness"])
def test_cap_is_reported_before_a_failing_relation(tmp_path, capsys, command):
    # a doubled product coefficient breaks d.d = 0, and n is past the cap:
    # every engine command names the cap, whichever stage it reaches first
    doc = json.loads((ROOT / "fixtures" / "beilinson_p2.json").read_text())
    doc["products"][0]["entries"][0][3] = "2"
    doc["n"] = 25
    del doc["objects"]
    path = tmp_path / "two-faults.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert main([command, str(path)]) == 1
    assert capsys.readouterr().err == "error: chain enumeration capped at n <= 24, got 25\n"


def test_pseudoheight_projective_line():
    # length-0 chains give 1, the full chain gives 0 + 1 - 1 = 0
    spec = fixtures.fixture_spec("beilinson_p1")
    res = pseudoheight(spec)
    assert res.ph(spec.dim_x) == 0
    assert res.witness_chain == (1, 2)


def test_pseudoheight_single_object():
    spec = fixtures.fixture_spec("point")
    res = pseudoheight(spec)
    assert res.ph(spec.dim_x) == 0 and res.witness_chain == (1,)


def test_pseudoheight_godeaux():
    spec = fixtures.fixture_spec("godeaux")
    res = pseudoheight(spec)
    assert res.ph(spec.dim_x) == 3
    assert res.ph_ac == 1
    assert res.witness_chain == (2, 3)


def test_pseudoheight_prefers_short_witness_on_ties():
    spec = CollectionSpec(
        n=2, dim_x=0,
        a_dims={(1, 2): {1: 1}},
        n_dims={(1, 1): {2: 1}, (2, 2): {2: 1}, (1, 2): {2: 1}},
    )
    res = pseudoheight(spec)
    assert res.ph(spec.dim_x) == 2
    assert res.witness_chain == (1,)  # ties go to length-0 chains


def test_pseudoheight_skips_dead_chains():
    # no twisted space on the pair chain: it contributes nothing
    spec = CollectionSpec(n=2, dim_x=0, a_dims={(1, 2): {0: 1}},
                          n_dims={(1, 1): {3: 1}})
    res = pseudoheight(spec)
    assert res.ph(spec.dim_x) == 3 and res.witness_chain == (1,)


def test_pseudoheight_all_chains_dead():
    spec = CollectionSpec(n=2, dim_x=0, a_dims={(1, 2): {0: 1}}, n_dims={})
    res = pseudoheight(spec)
    assert res.ph(spec.dim_x) == INF and res.witness_chain is None


def test_exact_spec_without_dims_pins_infinity():
    # exact data with no Ext spaces at all: every chain is dead
    spec = CollectionSpec(n=2, dim_x=1)
    bounds = qualitative_ph_bounds(spec)
    assert (bounds.lower, bounds.upper, bounds.witness_chain) == (INF, INF, None)
    assert pseudoheight(spec).ph(spec.dim_x) == INF


def test_pseudoheight_requires_exact_data():
    spec = fixtures.fixture_spec("burniat")
    with pytest.raises(SpecError):
        pseudoheight(spec)


def test_qualitative_bounds_burniat_pinned():
    spec = fixtures.fixture_spec("burniat")
    bounds = qualitative_ph_bounds(spec)
    assert (bounds.lower, bounds.upper) == (2, 2)
    assert len(bounds.witness_chain) == 1


def test_qualitative_bounds_beauville_i1():
    spec = fixtures.fixture_spec("beauville_I1")
    bounds = qualitative_ph_bounds(spec)
    assert (bounds.lower, bounds.upper) == (2, 2)


def _beauville_i0_qualitative_only():
    """The qualitative shadow of the first Beauville collection."""
    statuses = {}
    for u, v in [(1, 2), (2, 3), (3, 4)]:
        statuses[(u, v, 1)] = NONZERO
    statuses[(4, 4 + 1, 1)] = NONZERO
    return CollectionSpec(
        n=4, dim_x=2,
        canonical_degrees=[0, -2, -4, -6],
        labels=[f"L{i}" for i in range(1, 5)],
        qualitative=QualitativeExtTable(4, statuses, (0, 2)),
        flags={
            "is_surface": True, "ample_canonical": True, "line_bundles": True,
            "h2_anticanonical_nonzero": True, "k_squared": 8,
        },
    )


def test_qualitative_bounds_beauville_i0():
    bounds = qualitative_ph_bounds(_beauville_i0_qualitative_only())
    assert (bounds.lower, bounds.upper) == (1, 1)
    assert bounds.witness_chain == (1, 2, 3, 4)


def test_qualitative_bounds_all_unknown():
    spec = CollectionSpec(n=2, dim_x=1,
                          qualitative=QualitativeExtTable(2, {}, None))
    bounds = qualitative_ph_bounds(spec)
    assert bounds.lower == -INF and bounds.upper == INF


def test_qualitative_bounds_contain_exact_value():
    for name in ["beilinson_p1", "beilinson_p2", "godeaux", "beauville_I0", "point"]:
        spec = fixtures.fixture_spec(name)
        ph = pseudoheight(spec)
        bounds = qualitative_ph_bounds(spec)
        assert bounds.lower <= ph.ph_ac <= bounds.upper


# cyclic Ext^1-connectivity, the hypothesis of the lower-bound lemma, read
# by the tests' reference (the engine reads only the se-intervals)
def test_cyclic_connectivity_beauville_i0():
    verdict, witness = brute_cyclic(_beauville_i0_qualitative_only())
    assert verdict is True
    assert witness == (1, 2, 3, 4)


def test_cyclic_connectivity_beauville_i1_false():
    spec = fixtures.fixture_spec("beauville_I1")
    verdict, witness = brute_cyclic(spec)
    assert verdict is False and witness is None


def test_cyclic_connectivity_burniat_false():
    spec = fixtures.fixture_spec("burniat")
    assert brute_cyclic(spec)[0] is False


def test_cyclic_connectivity_single_object():
    spec = CollectionSpec(
        n=1, dim_x=2,
        qualitative=QualitativeExtTable(1, {(1, 2, 1): ZERO}, (0, 2)),
    )
    assert brute_cyclic(spec) == (False, None)


def test_cyclic_connectivity_unknown():
    spec = CollectionSpec(n=1, dim_x=2,
                          qualitative=QualitativeExtTable(1, {}, (0, 2)))
    assert brute_cyclic(spec) == (None, None)


def test_cyclic_connectivity_exact_route():
    # exact dims pin every degree-1 status without an explicit table
    verdict, witness = brute_cyclic(
        fixtures.fixture_spec("beauville_I0"))
    assert verdict is True and witness == (1, 2, 3, 4)
    verdict, witness = brute_cyclic(fixtures.fixture_spec("godeaux"))
    assert verdict is False and witness is None


def test_cyclic_connectivity_exact_without_dims():
    # exact data without dims: every Ext is zero, so no chain is connected
    assert brute_cyclic(CollectionSpec(n=1, dim_x=2)) == (False, None)


def test_exact_dims_decide_over_clashing_statuses():
    # one exact Hom(E_1, E_2) and a NONZERO status there that the degree
    # criterion contradicts: validate fails, the walks read the dims alone
    doc = json.loads(fixtures.fixture_document("burniat"))
    doc["ext"] = [{"src": 1, "dst": 2, "deg": 0, "dim": 1}]
    doc["qualitative"]["statuses"].append(
        {"src": 1, "dst": 2, "deg": 0, "status": "NONZERO"})
    spec = model.parse(doc)
    assert qualitative.Deductions(spec).clash().startswith("qualitative conflict")
    assert not model.validate(spec).ok
    # no twisted dims, so every chain has a zero closing link
    assert brute_cyclic(spec) == (False, None)
    assert qualitative_ph_bounds(spec) == (INF, INF, None)
