"""Heights, spectral sequences and fullness certificates for exceptional
collections, from user-supplied Ext-algebra data, over exact arithmetic."""

import importlib

__version__ = "0.1.0"

# the built-in fixtures, here so that `fixture --list` loads no other module
FIXTURE_NAMES = (
    "beilinson_p1",
    "beilinson_p2",
    "beilinson_p3",
    "burniat",
    "beauville_I0",
    "beauville_I1",
    "godeaux",
    "point",
)

# submodule -> the public names it defines; both load on first access (PEP 562),
# so `import excol` loads no submodule, and no public name is a submodule's name
_EXPORTS = {
    "exactlin": "Matrix Subspace kernel_basis rref subquotient_dim",
    "documents": "beilinson_fixture serialize",
    "firstpage": "build_e1",
    "fullness": "full_check not_full_check",
    "heights": "Analysis build_report height heph_shortcut",
    "model": "CollectionSpec parse validate",
    "nhh": "assemble_differential spectral_sequence total_cohomology",
    "pseudoheight": "qualitative_ph_bounds rel_height",
    "qualitative": "QualitativeExtTable",
}
_HOME = {name: mod for mod, names in _EXPORTS.items() for name in names.split()}
__all__ = sorted(_HOME)


def __getattr__(name):
    if name not in _EXPORTS and name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f".{_HOME.get(name, name)}", __name__)
    return module if name in _EXPORTS else getattr(module, name)
