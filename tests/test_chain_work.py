"""Chain walks cost O(n^2 + live chains), and the bounds O(n^3), not 2^n.

The sparse spec has n = 20, one Ext(1, 2) and the diagonal twisted spaces:
20 live chains out of 2^20 - 1.  On a dense qualitative surface every chain
is live, and the bounds still take one min-plus pass over the links.  Work
is counted, not timed: the lines executed inside the package, and the
Ext-space lookups.
"""

import os
import sys

import pytest

from excol import nhh
from excol.model import CollectionSpec
from excol.nhh import enumerate_terms
from excol.pseudoheight import pseudoheight, qualitative_ph_bounds
from excol.qualitative import QualitativeExtTable

N = 20


class _Budget(Exception):
    pass


def _sparse_20():
    """One Ext(1, 2) and diagonal twisted spaces: 20 live chains of 2^20 - 1."""
    return CollectionSpec(
        n=N,
        dim_x=1,
        a_dims={(1, 2): {0: 1}},
        n_dims={(i, i): {1: 1} for i in range(1, N + 1)},
    )


def _dense_surface(n):
    """An ample-canonical surface of line bundles, no statuses: 2^n - 1 live chains."""
    return CollectionSpec(
        n=n,
        dim_x=2,
        canonical_degrees=[8 - i // 3 for i in range(n)],
        qualitative=QualitativeExtTable(n, {}, (0, 2)),
        flags={"is_surface": True, "ample_canonical": True, "line_bundles": True,
               "h2_anticanonical_nonzero": True, "k_squared": 3},
    )


def _lines_run(fn, budget):
    """Run fn, counting the lines it executes inside the excol package.

    Raises _Budget as soon as the count passes the budget, so a 2^n walk
    stops early instead of running to the end under the tracer.
    """
    count = [0]
    package = os.path.dirname(nhh.__file__)

    def local(frame, event, arg):
        if event == "line":
            count[0] += 1
            if count[0] > budget:
                raise _Budget
        return local

    def tracer(frame, event, arg):
        return local if frame.f_code.co_filename.startswith(package) else None

    sys.settrace(tracer)
    try:
        fn()
    finally:
        sys.settrace(None)
    return count[0]


@pytest.mark.parametrize("walk", ["enumerate_terms", "qualitative_ph_bounds",
                                  "pseudoheight"])
def test_sparse_walk_work_is_quadratic_not_exponential(walk):
    spec = _sparse_20()
    fn = {
        "enumerate_terms": enumerate_terms,
        "qualitative_ph_bounds": qualitative_ph_bounds,
        "pseudoheight": pseudoheight,
    }[walk]
    live = N
    budget = 25 * (N * N + live)  # the 2^n walk needs millions of lines
    try:
        _lines_run(lambda: fn(spec), budget)
    except _Budget:
        pytest.fail(f"{walk} ran more than {budget} lines on a sparse n = {N} spec")


@pytest.mark.parametrize("n", [20, 24])
def test_dense_bounds_work_is_cubic_not_exponential(n):
    spec = _dense_surface(n)
    budget = 5 * n ** 3  # the 2^n walk needs millions of lines
    try:
        _lines_run(lambda: qualitative_ph_bounds(spec), budget)
    except _Budget:
        pytest.fail(f"qualitative_ph_bounds ran more than {budget} lines on a dense n = {n} spec")


def test_sparse_space_lookups_are_quadratic():
    spec = _sparse_20()
    calls = {"a_space": 0, "n_space": 0}
    for name in calls:
        method = getattr(spec, name)

        def counted(i, j, method=method, name=name):
            calls[name] += 1
            if sum(calls.values()) > 10 * N * N:
                raise _Budget
            return method(i, j)

        setattr(spec, name, counted)
    try:
        terms = enumerate_terms(spec)
        qualitative_ph_bounds(spec)
    except _Budget:
        pytest.fail(f"more than {10 * N * N} Ext-space lookups: {calls}")
    assert [t.chain for t in terms] == [(i,) for i in range(1, N + 1)]
    # each link is looked up once per walk
    assert calls == {"a_space": 2 * N * (N - 1) // 2, "n_space": 2 * N * (N + 1) // 2}
