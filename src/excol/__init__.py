"""Heights, spectral sequences and fullness certificates for exceptional
collections, from user-supplied Ext-algebra data, over exact arithmetic."""

from .exactlin import Matrix, Subspace, kernel_basis, rref, subquotient_dim
from .fullness import beilinson_fixture, full_check, not_full_check
from .heights import Analysis, HeightReport, build_report, height, heph_shortcut
from .heights import hkr_total
from .model import CollectionSpec, QualitativeExtTable, parse, serialize, validate
from .nhh import assemble_differential, build_e1, spectral_sequence, total_cohomology
from .pseudoheight import (
    cyclically_ext1_connected,
    pseudoheight,
    qualitative_ph_bounds,
    rel_height,
)

__version__ = "0.1.0"
