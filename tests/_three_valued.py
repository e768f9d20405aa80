"""References for three-valued Ext knowledge, written out from the definitions.

The engine reads the flags' deductions one key at a time
(`qualitative.Deductions`); these references list every deduction from
the rules themselves, merge them into the stated statuses one at a time
and read each link of a chain from the merge.  None of them calls the
engine's reader.
"""

from excol.model import INF, NONZERO, UNKNOWN, ZERO, SpecError
from excol.pseudoheight import iter_chains


def listed_deductions(spec):
    """Every status the flags deduce: the ZEROs, then the NONZEROs, each in key order.

    On a surface of line bundles with ample canonical class, a nonzero map
    between non-isomorphic line bundles raises the canonical degree, and
    E_i (x) omega^{-1} has degree deg(E_i) - K^2: so Hom(E_src, E_dst) = 0,
    ZERO at (src, dst, 0), whenever deg(src) >= deg(dst) for dst != src in
    the extended collection.  A nonzero H^2(omega^{-1}) is NONZERO at
    (i, n + i, 2) for each object i.
    """
    flags, n = spec.flags, spec.n
    surface = flags.get("is_surface") and flags.get("line_bundles")
    degrees, k_squared = spec.canonical_degrees, flags.get("k_squared")
    listed = {}
    if surface and flags.get("ample_canonical") and None not in (degrees, k_squared):
        extended = list(degrees) + [d - k_squared for d in degrees]
        if len(extended) != 2 * n:
            raise SpecError("need one degree per object of the extended collection")
        for src in range(1, n + 1):
            for dst in range(1, 2 * n + 1):
                if dst != src and extended[src - 1] >= extended[dst - 1]:
                    listed[src, dst, 0] = ZERO
    if surface and flags.get("h2_anticanonical_nonzero"):
        for i in range(1, n + 1):
            listed[i, n + i, 2] = NONZERO
    return listed


def merged_statuses(spec):
    """(statuses, window): every deduction added to the stated statuses in turn.

    A deduction that clashes with a status, or a deduced NONZERO outside the
    degree window, raises SpecError with the engine's message.
    """
    table = spec.qualitative
    statuses = dict(table.statuses) if table else {}
    window = table.degree_window if table else None
    for key, st in listed_deductions(spec).items():
        if statuses.get(key, st) != st:
            raise SpecError(f"qualitative conflict at {key}: {statuses[key]} vs {st}")
        if window is not None and st == NONZERO and not window[0] <= key[2] <= window[1]:
            raise SpecError(f"NONZERO status at {key} outside degree window")
        statuses[key] = st
    return statuses, window


def link_reading(spec):
    """(kind, i, j) -> the link's anticanonical se-interval and Ext^1 status.

    Ext(E_i, E_j) is the A link (i, j), and the closing Ext(E_j, S^{-1} E_i)
    the N link (i, j), whose dims sit dim_x above the anticanonical degree
    and whose statuses are filed under (j, n + i).  Exact dims decide;
    otherwise a status is stated, deduced, ZERO outside the degree window
    or UNKNOWN, and the interval runs from the first degree not known ZERO
    (-inf without a window) to the first known NONZERO.
    """
    if spec.is_exact:
        def read(kind, i, j):
            dims = spec.a_dims.get((i, j), {}) if kind == "A" else spec.n_dims.get((i, j), {})
            shift = 0 if kind == "A" else spec.dim_x
            se = min((d for d, m in dims.items() if m > 0), default=INF) - shift
            return (se, se), NONZERO if dims.get(1 + shift, 0) > 0 else ZERO

        return read
    statuses, window = merged_statuses(spec)

    def status(src, dst, deg):
        if (src, dst, deg) in statuses:
            return statuses[src, dst, deg]
        if window is not None and not window[0] <= deg <= window[1]:
            return ZERO
        return UNKNOWN

    def read(kind, i, j):
        src, dst = (i, j) if kind == "A" else (j, spec.n + i)
        if window is None:
            degs = sorted(d for s, t, d in statuses if (s, t) == (src, dst))
            lo = -INF
        else:
            degs = range(window[0], window[1] + 1)
            lo = next((d for d in degs if status(src, dst, d) != ZERO), INF)
        hi = next((d for d in degs if status(src, dst, d) == NONZERO), INF)
        return (lo, hi), status(src, dst, 1)

    return read


def chain_links(chain):
    """Links of a chain: consecutive pairs, then the twisted closing pair N(a_0, a_p)."""
    for s in range(len(chain) - 1):
        yield ("A", chain[s], chain[s + 1])
    yield ("N", chain[0], chain[-1])


def brute_cyclic(spec):
    """Three-valued: is some chain linked by nonzero Ext^1 all around?

    (True, witness) for the first chain, in the order of `iter_chains`,
    whose every link is NONZERO in degree 1; (False, None) when every chain
    has a link ZERO there; (None, None) otherwise.
    """
    read = link_reading(spec)
    unknown = False
    for chain in iter_chains(spec.n):
        statuses = [read(*link)[1] for link in chain_links(chain)]
        if all(st == NONZERO for st in statuses):
            return (True, chain)
        if ZERO not in statuses:
            unknown = True
    return (None, None) if unknown else (False, None)
