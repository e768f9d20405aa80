"""What the engine commands print: pseudoheight, e1, ss, height, report, fullness.

Each `cmd_*(spec, args)` returns (JSON payload, text lines).  Here are the
chain-walk answers and the shared helpers; the `Analysis` answers are in
`analysis_views`.  `cli.VIEWS` names each command's module, so only the six
engine commands load this one, and `pseudoheight` and `e1` neither
`analysis_views` nor `heights`.
"""


def _jval(v):
    if v in (float("inf"), float("-inf")):
        return str(v)
    return int(v) if isinstance(v, float) else v


def _grid_lines(title, table):
    if not table:
        return [f"{title}: empty"]
    mps = sorted({mp for mp, _ in table})
    qs = sorted({q for _, q in table}, reverse=True)
    width = max(4, max(len(str(d)) for d in table.values()) + 2)
    out = [f"{title} (rows q, columns -p):"]
    header = "      " + "".join(str(mp).rjust(width) for mp in mps)
    out.append(header)
    for q in qs:
        cells = []
        for mp in mps:
            d = table.get((mp, q))
            cells.append((str(d) if d else ".").rjust(width))
        out.append(f"  q={q:<3}" + "".join(cells))
    return out


def _table_json(table):
    return [[mp, q, d] for (mp, q), d in sorted(table.items())]


def _witness(bounds):
    chain = bounds.witness_chain
    return list(chain) if chain else None


def _interval(bounds):
    """Keys and line of an open (qualitative) pseudoheight interval."""
    lo, hi = _jval(bounds.lower), _jval(bounds.upper)
    payload = {"ph_ac_lower": lo, "ph_ac_upper": hi, "witness": _witness(bounds)}
    return payload, f"anticanonical pseudoheight interval: [{lo}, {hi}]"


def cmd_pseudoheight(spec, args):
    from .pseudoheight import qualitative_ph_bounds
    bounds = qualitative_ph_bounds(spec)
    if spec.is_exact:
        ph, ph_ac = _jval(bounds.ph(spec.dim_x)), _jval(bounds.ph_ac)
        payload = {"ph": ph, "ph_ac": ph_ac, "witness": _witness(bounds)}
        lines = [
            f"pseudoheight: {ph}",
            f"anticanonical pseudoheight: {ph_ac}",
            f"witness chain: {bounds.witness_chain}",
        ]
        if args.anticanonical:
            lines = lines[1:] + lines[:1]
    else:
        payload, line = _interval(bounds)
        lines = [line, f"upper bound witness chain: {bounds.witness_chain}"]
    return payload, lines


def cmd_e1(spec, args):
    from .firstpage import build_e1
    table = build_e1(spec)
    nonzero_t = [mp + q for (mp, q), d in table.items() if d]
    payload = {
        "entries": _table_json(table),
        "min_total_degree": _jval(min(nonzero_t, default=float("inf"))),
    }
    lines = _grid_lines("first page", table)
    lines.append(f"minimal total degree: {payload['min_total_degree']}")
    return payload, lines
