"""The flags' deductions read per key, against the merge of every deduction.

`qualitative.Deductions` reads the degree criterion at the keys a check
visits; the references here list every deduction (`Deductions.updates`),
merge them into the statuses one at a time, and check every merged key, as
the merge did before the criterion was read per key.  The first clash and
every `qualitative_consistency` problem must come out the same.
"""

import json
import random

import pytest

from excol import qualitative, validation
from excol.cli import main
from excol.model import NONZERO, ZERO, CollectionSpec, SpecError, link_key, parse
from excol.qualitative import Deductions, QualitativeExtTable

SURFACE = {"is_surface": True, "line_bundles": True}


def reference_merge(spec):
    """Every deduction merged into the statuses in turn; a clash raises."""
    table = spec.qualitative or QualitativeExtTable(spec.n)
    statuses, window = dict(table.statuses), table.degree_window
    for key, st in Deductions(spec).updates().items():
        if statuses.get(key, st) != st:
            raise SpecError(f"qualitative conflict at {key}: {statuses[key]} vs {st}")
        if window is not None and st == NONZERO and not window[0] <= key[2] <= window[1]:
            raise SpecError(f"NONZERO status at {key} outside degree window")
        statuses[key] = st
    return QualitativeExtTable(table.n, statuses, window)


def reference_check(spec):
    """`qualitative_consistency` over every merged status."""
    try:
        table = reference_merge(spec)
    except SpecError as exc:
        return [str(exc)]
    if not spec.is_exact:
        return []
    dims_at = {}
    for kind, spaces in (("A", spec.a_dims), ("N", spec.n_dims)):
        for (i, j), dims in spaces.items():
            src, dst, shift = link_key(spec, kind, i, j)
            dims_at.update(((src, dst, d - shift), m) for d, m in dims.items())
    keys = dims_at.keys() | {k for k in table.statuses if validation.is_link_key(spec, *k[:2])}
    problems = []
    for key in sorted(keys):
        st, dim = table.status(*key), dims_at.get(key, 0)
        if st == (ZERO if dim > 0 else NONZERO):
            problems.append(f"status {st} at {key} but exact dim {dim}")
    return problems


def random_spec(rng):
    """Statuses anywhere in range, a window or none, any of the surface flags."""
    n = rng.randint(1, 7)
    window = rng.choice([None, (0, 0), (0, 1), (0, 2), (-1, 2), (2, 3)])
    statuses = {}
    for _ in range(rng.randint(0, 4 * n)):
        key = (rng.randint(1, n), rng.randint(1, 2 * n), rng.choice([-1, 0, 1, 2]))
        st = rng.choice([ZERO, NONZERO])
        if st == NONZERO and window and not window[0] <= key[2] <= window[1]:
            continue  # parse refuses these
        statuses[key] = st
    pairs = [(i, j) for i in range(1, n + 1) for j in range(i, n + 1)]
    exact = rng.random() < 0.5
    flags = {name: rng.random() < 0.8 for name in
             ("is_surface", "line_bundles", "ample_canonical", "h2_anticanonical_nonzero")}
    flags["k_squared"] = rng.randint(0, 4)
    return CollectionSpec(
        n=n, dim_x=rng.randint(0, 2),
        a_dims={(i, j): {rng.randint(0, 2): 1} for i, j in pairs
                if exact and i < j and rng.random() < 0.4},
        n_dims={(i, j): {rng.randint(0, 4): 1} for i, j in pairs
                if exact and rng.random() < 0.4},
        qualitative=QualitativeExtTable(n, statuses, window) if statuses or window else None,
        canonical_degrees=[rng.randint(-3, 3) for _ in range(n)],
        flags=flags,
    )


SPECS = [random_spec(random.Random(seed)) for seed in range(400)]


@pytest.mark.parametrize("seed", range(len(SPECS)))
def test_checks_match_the_merge_of_every_deduction(seed):
    spec = SPECS[seed]
    assert list(validation._check_qualitative(spec)) == reference_check(spec)
    try:
        want = reference_merge(spec)
    except SpecError as exc:
        with pytest.raises(SpecError) as got:
            qualitative.merged_table(spec)
        assert str(got.value) == str(exc)
    else:
        assert qualitative.merged_table(spec) == want


def test_random_specs_clash_every_way():
    # both kinds of conflict, the window and the exact check all occur
    details = " ".join(p for spec in SPECS for p in reference_check(spec))
    for part in ("NONZERO vs ZERO", "ZERO vs NONZERO", "outside degree window",
                 "but exact dim 0", "but exact dim 1"):
        assert part in details, part


def _wide_document(n, statuses, exact):
    doc = {
        "n": n,
        "dim_x": 2,
        "objects": [{"canonical_degree": -(i % 7)} for i in range(n)],
        "flags": dict(SURFACE, ample_canonical=True, h2_anticanonical_nonzero=True,
                      k_squared=1),
        "qualitative": {"degree_window": [0, 2], "statuses": statuses},
    }
    if exact:  # with Hom(E_1, E_2), which the degree criterion also kills
        doc["ext"] = [{"src": 1, "dst": 2, "deg": 0, "dim": 1}]
    return doc


@pytest.mark.parametrize("exact", [False, True], ids=["statuses", "exact"])
def test_validate_reads_the_degree_criterion_per_key(tmp_path, capsys, monkeypatch, exact):
    # the criterion would deduce O(n^2) ZEROs: validate reads it at the
    # stated and the exact keys only, and lists none of them
    n = 1200
    statuses = [{"src": 1, "dst": 2, "deg": 0, "status": ZERO},
                {"src": 5, "dst": 1, "deg": 0, "status": ZERO}]
    path = tmp_path / "wide.json"
    path.write_text(json.dumps(_wide_document(n, statuses, exact)), encoding="utf-8")
    calls, real = [], qualitative.hom_vanishes
    monkeypatch.setattr(qualitative, "hom_vanishes",
                        lambda *args: calls.append(args[1:]) or real(*args))
    monkeypatch.setattr(qualitative, "hom_vanishing_updates", None)  # never listed
    code = main(["validate", str(path), "--json"])
    report = json.loads(capsys.readouterr().out)
    checked = {(s["src"], s["dst"]) for s in statuses} | ({(1, 2)} if exact else set())
    assert set(calls) == checked
    if not exact:
        assert code == 0 and report["ok"]
        return
    # the flag's NONZERO at (i, n + i, 2) has no dims: n problems, five named
    [check] = [c for c in report["checks"] if not c["passed"]]
    assert check["name"] == "qualitative_consistency"
    assert check["detail"].startswith(
        "status ZERO at (1, 2, 0) but exact dim 1; status NONZERO at (1, 1201, 2)")


@pytest.mark.parametrize("n", [8, 2_000_000])
def test_validate_stops_once_the_report_is_decided(tmp_path, capsys, monkeypatch, n):
    # the h2 flag deduces NONZERO at (i, n + i, 2) for every i and no dims
    # back them: validate reads the first six, names five, whatever n is
    doc = {"n": n, "dim_x": 2, "ext": [{"src": 1, "dst": 2, "deg": 0, "dim": 1}],
           "flags": dict(SURFACE, h2_anticanonical_nonzero=True)}
    path = tmp_path / "h2.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    calls, real = [], Deductions.status
    monkeypatch.setattr(Deductions, "status",
                        lambda self, key: calls.append(key) or real(self, key))
    monkeypatch.setattr(Deductions, "updates", None)  # never listed
    assert main(["validate", str(path), "--json"]) == 1
    [check] = [c for c in json.loads(capsys.readouterr().out)["checks"] if not c["passed"]]
    assert check["name"] == "qualitative_consistency"
    assert check["detail"] == "; ".join(
        f"status NONZERO at ({i}, {n + i}, 2) but exact dim 0" for i in range(1, 6)) + "..."
    # the one exact key, then the deduced NONZEROs up to the sixth problem
    assert calls == [(1, 2, 0)] + [(i, n + i, 2) for i in range(1, 7)]


# three objects of one canonical degree, K^2 = 1: the criterion kills every
# Hom but the identities, and the h2 flag deduces NONZERO at (i, 3 + i, 2)
CLASHES = [
    {"src": 3, "dst": 5, "deg": 0, "status": NONZERO},
    {"src": 1, "dst": 4, "deg": 2, "status": ZERO},
    {"src": 2, "dst": 1, "deg": 0, "status": NONZERO},
]


@pytest.mark.parametrize("window, statuses, message", [
    # the criterion's ZEROs merge first, in key order; the least key overall,
    # (1, 4, 2), clashes with a NONZERO, which merges later
    ([0, 2], CLASHES, "qualitative conflict at (2, 1, 0): NONZERO vs ZERO"),
    ([0, 2], CLASHES[:2], "qualitative conflict at (3, 5, 0): NONZERO vs ZERO"),
    ([0, 2], CLASHES[1:2], "qualitative conflict at (1, 4, 2): ZERO vs NONZERO"),
    # a window without degree 2 refuses the first NONZERO, after any ZERO clash
    ([0, 1], CLASHES[1:2], "qualitative conflict at (1, 4, 2): ZERO vs NONZERO"),
    ([0, 1], [], "NONZERO status at (1, 4, 2) outside degree window"),
    ([0, 1], CLASHES[:1], "qualitative conflict at (3, 5, 0): NONZERO vs ZERO"),
], ids=["three", "two", "nonzero", "window-clash", "window", "window-after-zero"])
def test_the_first_clash_is_reported(tmp_path, capsys, window, statuses, message):
    doc = {
        "n": 3,
        "dim_x": 2,
        "objects": [{"canonical_degree": 0}] * 3,
        "flags": dict(SURFACE, ample_canonical=True, h2_anticanonical_nonzero=True,
                      k_squared=1),
        "qualitative": {"degree_window": window, "statuses": statuses},
    }
    with pytest.raises(SpecError) as merged:
        reference_merge(parse(doc))
    assert str(merged.value) == message
    path = tmp_path / "clash.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["validate", str(path), "--json"]) == 1
    [check] = [c for c in json.loads(capsys.readouterr().out)["checks"] if not c["passed"]]
    assert check == {"name": "qualitative_consistency", "passed": False, "detail": message}
    assert main(["pseudoheight", str(path)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
