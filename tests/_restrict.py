"""Sub-collections: the objects a spec keeps, and every record reindexed.

Any subset of an exceptional collection is exceptional, and its Ext spaces,
Serre-twisted spaces and product tables are those of the whole collection
between the kept objects.  `restrict(spec, keep)` keeps the objects in
`keep` (1-based), numbers them 1..len(keep) in their old order, and keeps
exactly the records whose objects are all kept.  A fullness certificate
names the whole collection, so the restriction carries none.
"""

from excol.model import CollectionSpec
from excol.qualitative import QualitativeExtTable


def restrict(spec, keep):
    """The sub-collection of `spec` on the objects `keep`, reindexed."""
    new = {old: k for k, old in enumerate(sorted(keep), 1)}
    if len(new) != len(keep) or not set(new) <= set(range(1, spec.n + 1)):
        raise ValueError(f"keep {keep} is not a set of objects of 1..{spec.n}")

    def pairs(dims):
        return {
            (new[i], new[j]): dict(space)
            for (i, j), space in dims.items()
            if i in new and j in new
        }

    def tables(products):  # the twisted letter's object `aux` must be kept too
        return {
            (kind, new.get(aux), tuple(new[x] for x in chain), degs): table
            for (kind, aux, chain, degs), table in products.items()
            if {*chain, aux} - {None} <= new.keys()
        }

    qualitative = None
    if spec.qualitative is not None:  # dst = n + i is E_i twisted by -K
        n, m = spec.n, len(new)
        statuses = {
            (new[src], new[dst] if dst <= n else m + new[dst - n], deg): status
            for (src, dst, deg), status in spec.qualitative.statuses.items()
            if src in new and (dst - 1) % n + 1 in new
        }
        qualitative = QualitativeExtTable(m, statuses, spec.qualitative.degree_window)
    kept = sorted(new)
    return CollectionSpec(
        n=len(new),
        dim_x=spec.dim_x,
        field_name=spec.field_name,
        a_dims=pairs(spec.a_dims),
        n_dims=pairs(spec.n_dims),
        tables=tables(spec.tables),
        qualitative=qualitative,
        labels=None if spec.labels is None else [spec.labels[i - 1] for i in kept],
        canonical_degrees=(
            None if spec.canonical_degrees is None
            else [spec.canonical_degrees[i - 1] for i in kept]
        ),
        flags=dict(spec.flags),
        metadata=dict(spec.metadata, restricted_to=kept),
    )
