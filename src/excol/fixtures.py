"""The built-in fixtures: each is its canonical document, stored in `data/`.

The Beilinson documents are those `documents.beilinson_fixture` builds.
The surface documents encode facts proved elsewhere in the literature;
every encoded vanishing is labelled with its source in the metadata block,
since the Ext data of those surfaces is an assumption of the run, not
something this tool computes.  Surface models keep only the spaces and
products that the published arguments constrain; everything else is zero.
That is enough to reproduce the known heights, and the assumptions list is
the contract.  `fixture <name>` prints the stored text as it is, so it
loads neither `model` nor `fields`.
"""

import os

from . import FIXTURE_NAMES


def fixture_document(name):
    """The canonical JSON text of a built-in fixture; KeyError for any other name."""
    if name not in FIXTURE_NAMES:  # before a path is built from it
        raise KeyError(f"unknown fixture {name!r}")
    path = os.path.join(os.path.dirname(__file__), "data", f"{name}.json")
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def fixture_spec(name):
    from .model import parse
    return parse(fixture_document(name))
