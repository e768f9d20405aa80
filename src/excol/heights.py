"""Height of a collection and the induced Hochschild-cohomology comparison.

The height is the minimal degree in which the cohomology of the normal
complex is nonzero.  It bounds the restriction map from the Hochschild
cohomology of the ambient variety to that of the orthogonal complement: an
isomorphism up to height - 2 and a monomorphism in height - 1; height >= 4
makes the formal deformation spaces agree.

Exact data gives a point value.  If higher products are declared truncated,
only pages up to the supplied arity are trusted: the minimal nonzero total
degree of the last trusted page is a lower bound, and it is attained exactly
when a class in the -p = 0 column sits at that minimal degree (nothing maps
out of that column and nothing of smaller degree can hit it).  Qualitative
data goes through the pseudoheight interval; a pinned interval attained on a
length-0 chain is again exact.

`Analysis` computes each of these stages at most once per spec; the module
functions below are projections of it.
"""

from collections import namedtuple
from functools import cached_property

from .model import INF, Record
from .pseudoheight import qualitative_ph_bounds


class Height(namedtuple("Height", "lo hi nhh_vanishes", defaults=(False,))):
    """A height value: a point when lo == hi, else the interval [lo, hi].

    nhh_vanishes: all cohomology is zero, so the collection may be full.
    """

    __slots__ = ()

    @property
    def is_point(self):
        return self.lo == self.hi

    def shifted(self, amount):
        return Height(self.lo - amount, self.hi - amount, self.nhh_vanishes)

    def __str__(self):
        def fmt(v):
            return str(v) if v in (INF, -INF) else str(int(v))

        if self.is_point:
            return fmt(self.lo)
        return f"[{fmt(self.lo)}, {fmt(self.hi)}]"


class HeightReport(Record):
    def __init__(
        self, ph, ph_ac, height, height_ac, used_shortcut, iso_range, mono_degree,
        deformation_equivalent, nhh_dims=None, hoh_x_dims=None, hoh_a_dims=None,
        witness=None,
    ):
        self.ph = ph  # None unless pinned
        self.ph_ac = ph_ac
        self.height = height  # Height
        self.height_ac = height_ac  # Height
        self.used_shortcut = used_shortcut  # none | heph | qualitative
        # the restriction map is an isomorphism for k <= iso_range
        self.iso_range = iso_range
        self.mono_degree = mono_degree  # and a monomorphism at k = mono_degree
        self.deformation_equivalent = deformation_equivalent
        self.nhh_dims = nhh_dims
        self.hoh_x_dims = hoh_x_dims
        self.hoh_a_dims = hoh_a_dims
        self.witness = witness


def comparison_report(spec, h, hoh_x_dims=None, nhh_dims=None, **extra):
    """Assemble the full report from a computed height.

    Only the proven lower bound drives the comparison: iso range h.lo - 2,
    monomorphism at h.lo - 1, deformation equivalence at h.lo >= 4.
    """
    iso = h.lo - 2
    hoh_a = None
    if hoh_x_dims is not None:
        hoh_a = [d if k <= iso else None for k, d in enumerate(hoh_x_dims)]
    return HeightReport(
        height=h,
        height_ac=h.shifted(spec.dim_x),
        iso_range=iso,
        mono_degree=h.lo - 1,
        deformation_equivalent=h.lo >= 4,
        hoh_x_dims=hoh_x_dims,
        hoh_a_dims=hoh_a,
        nhh_dims=nhh_dims,
        **extra,
    )


class Analysis:
    """Everything derived from one spec, each stage computed at most once.

    The stages are lazy and memoized: the chain-engine bounds, the height
    shortcut, the complex (its relations checked once), its cohomology and
    pages, the height, the report and the fullness verdict.  The `ss`,
    `height`, `report` and `fullness` commands read their answers off one
    Analysis.  The complex builds and reduces each degree on first use, and
    the height on exact data with complete higher products stops at the first
    surviving cocycle: `fullness` reads no degree above the height.
    """

    def __init__(self, spec):
        self.spec = spec

    @cached_property
    def bounds(self):
        """Anticanonical pseudoheight interval, pinned on exact data."""
        return qualitative_ph_bounds(self.spec)

    @property
    def ph_ac(self):
        """The anticanonical pseudoheight when the bounds pin it, else None."""
        return self.bounds.ph_ac

    @property
    def ph(self):
        return self.bounds.ph(self.spec.dim_x)

    @property
    def shortcut(self):
        """Height equals pseudoheight on pinned bounds with a length-0 witness.

        A class on a length-0 chain at the minimal total degree receives no
        differential and emits none, so it survives to the limit page.
        """
        witness = self.bounds.witness_chain
        if witness is not None and len(witness) == 1 and self.bounds.pinned:
            return self.ph
        return None

    @cached_property
    def complex(self):
        from .nhh import assemble_differential
        return assemble_differential(self.spec)

    @cached_property
    def cohomology(self):
        """Normal cohomology dims on exact data, None otherwise."""
        if self.spec.is_exact:
            from .nhh import total_cohomology
            return total_cohomology(self.complex)

    @cached_property
    def pages(self):
        from .nhh import spectral_sequence
        return spectral_sequence(self.complex)

    @cached_property
    def height(self):
        spec = self.spec
        if not spec.is_exact:
            if self.shortcut is not None:
                return Height(self.shortcut, self.shortcut)
            return Height(self.bounds.lower + spec.dim_x, INF)
        page = None
        if spec.higher_complete:  # walk t upward; no later degree is built
            cx = self.complex
            lo = next((t for t in sorted(cx.t_dims) if cx.reduction(t).cycles[t]), INF)
        else:
            # trusted through the page driven by the largest supplied arity
            page = self.pages.page(spec.max_arity)
            lo = min((mp + q for (mp, q), d in page.items() if d > 0), default=INF)
        if lo == INF:
            return Height(INF, INF, nhh_vanishes=True)
        if page is None or page.get((0, lo)) or self.shortcut == lo:
            return Height(lo, lo)
        return Height(lo, INF)

    def report(self, hoh_x_dims=None):
        """The comparison report; hoh_x_dims are the ambient HOH dims."""
        shortcut = "heph" if self.shortcut is not None else "none"
        return comparison_report(
            self.spec,
            self.height,
            hoh_x_dims,
            nhh_dims=self.cohomology,
            ph=self.ph,
            ph_ac=self.ph_ac,
            used_shortcut=shortcut if self.spec.is_exact else "qualitative",
            witness=self.bounds.witness_chain,
        )

    @cached_property
    def fullness(self):
        """NOT_FULL from a positive height, else the cocycle certificate."""
        from .fullness import INCONCLUSIVE, FullnessVerdict, full_check, not_full_check
        verdict = not_full_check(self.height)
        if verdict is not None:
            return verdict
        if not self.spec.is_exact:
            return FullnessVerdict(
                INCONCLUSIVE, "no exact data: cannot run the cocycle certificate"
            )
        return full_check(self.complex)


def heph_shortcut(spec):
    """The height when the shortcut applies (see Analysis.shortcut), else None."""
    return Analysis(spec).shortcut


def height(spec):
    """Height of the collection and the normal cohomology dims (exact only)."""
    analysis = Analysis(spec)
    return analysis.height, analysis.cohomology


def build_report(spec, hoh_x_dims=None):
    """End-to-end report: pseudoheight, height, comparison ranges."""
    return Analysis(spec).report(hoh_x_dims)
