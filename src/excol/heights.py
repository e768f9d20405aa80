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

`Analysis` computes each of these stages at most once per spec, and every
answer a command prints is one of its attributes; the comparison
(`comparison_report`) is the only thing computed from the height alone.  The
module functions below are projections of it.
"""

from collections import namedtuple
from functools import cached_property

from .model import INF
from .pseudoheight import qualitative_ph_bounds


class Height(namedtuple("Height", "lo hi")):
    """A height value: a point when lo == hi, else the interval [lo, hi]."""

    __slots__ = ()

    @property
    def is_point(self):
        return self.lo == self.hi

    def shifted(self, amount):
        return Height(self.lo - amount, self.hi - amount)

    def __str__(self):
        def fmt(v):
            return str(v) if v in (INF, -INF) else str(int(v))

        if self.is_point:
            return fmt(self.lo)
        return f"[{fmt(self.lo)}, {fmt(self.hi)}]"


Comparison = namedtuple("Comparison", "iso_range mono_degree deformation_equivalent hoh_a_dims")


def comparison_report(h, hoh_x_dims=None):
    """The theorem's comparison at the proven lower bound h.lo of a height h.

    HH^k(X) -> HH^k(A) is an isomorphism for k <= iso_range = h.lo - 2 and a
    monomorphism at mono_degree = h.lo - 1; h.lo >= 4 makes the deformation
    spaces agree.  The ambient dims hoh_x_dims carry over up to iso_range.
    """
    iso = h.lo - 2
    hoh_a = None
    if hoh_x_dims is not None:
        hoh_a = [d if k <= iso else None for k, d in enumerate(hoh_x_dims)]
    return Comparison(iso, h.lo - 1, h.lo >= 4, hoh_a)


class Analysis:
    """Everything derived from one spec, each stage computed at most once.

    The stages are lazy and memoized: the chain-engine bounds, the height
    shortcut, the complex (its relations checked once), its cohomology and
    pages, the height and the fullness verdict.  The `ss`, `height`, `report`
    and `fullness` commands read their answers off one Analysis.  The complex
    builds and reduces each degree on first use, and the height on exact data
    with complete higher products stops at the first surviving cocycle:
    `fullness` reads no degree above the height.
    """

    def __init__(self, spec):
        self.spec = spec

    @cached_property
    def bounds(self):
        """Anticanonical pseudoheight interval, pinned on exact data."""
        return qualitative_ph_bounds(self.spec)

    @property
    def shortcut(self):
        """Height equals pseudoheight on pinned bounds with a length-0 witness.

        A class on a length-0 chain at the minimal total degree receives no
        differential and emits none, so it survives to the limit page.
        """
        witness = self.bounds.witness_chain
        if witness is not None and len(witness) == 1 and self.bounds.pinned:
            return self.bounds.ph(self.spec.dim_x)
        return None

    @property
    def used_shortcut(self):
        """How the height was found: "heph", "none", or "qualitative" data."""
        if not self.spec.is_exact:
            return "qualitative"
        return "heph" if self.shortcut is not None else "none"

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
        if page is None or page.get((0, lo)) or self.shortcut == lo:
            return Height(lo, lo)
        return Height(lo, INF)

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
    """The comparison (`comparison_report`) at the collection's height."""
    return comparison_report(Analysis(spec).height, hoh_x_dims)
