"""Each command line computes each pipeline stage at most once."""

import contextlib
import functools
import io
import sys

import pytest

# every module that imports a counted function by name is loaded before the
# counters go in, so that its copy of the name is swapped as well
from excol import fixtures, fullness, heights, nhh  # noqa: F401
from excol import pseudoheight as ph_module
from excol.cli import main

COMMANDS = ["validate", "pseudoheight", "e1", "ss", "height", "report", "fullness"]


@pytest.fixture
def counts(monkeypatch):
    """Count the chain walks and the assemblies, wherever they are called from.

    A chain walk is an outermost call of either chain-engine entry point, so
    an entry point that delegates to the other counts once.
    """
    tally = {"walks": 0, "assemblies": 0}
    depth = [0]

    def walk(fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            if depth[0] == 0:
                tally["walks"] += 1
            depth[0] += 1
            try:
                return fn(*args, **kwargs)
            finally:
                depth[0] -= 1

        return counted

    def assembly(fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            tally["assemblies"] += 1
            return fn(*args, **kwargs)

        return counted

    swaps = {
        ph_module.qualitative_ph_bounds: walk(ph_module.qualitative_ph_bounds),
        ph_module.pseudoheight: walk(ph_module.pseudoheight),
        nhh.assemble_differential: assembly(nhh.assemble_differential),
    }
    for name, mod in list(sys.modules.items()):
        if name == "excol" or name.startswith("excol."):
            for attr, val in list(vars(mod).items()):
                if callable(val) and val in swaps:
                    monkeypatch.setattr(mod, attr, swaps[val])
    return tally


@pytest.mark.parametrize("cmd", COMMANDS)
@pytest.mark.parametrize("name", fixtures.fixture_list())
def test_each_stage_runs_at_most_once(counts, cmd, name):
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        main([cmd, name, "--json"])
    assert counts["walks"] <= 1, counts
    assert counts["assemblies"] <= 1, counts
