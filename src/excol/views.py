"""What the engine commands print: pseudoheight, e1, ss, height, report, fullness.

Each `cmd_*(spec, args)` reads its answer off one `heights.Analysis` (or,
for `e1`, the first page) and returns it as (JSON payload, text lines).
`excol.cli` loads this module only for these six commands, so `validate`
and `fixture` compile none of it.
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


def _nhh_json(dims):
    return {str(t): d for t, d in sorted(dims.items())}


def _analysis(spec):
    from .heights import Analysis
    return Analysis(spec)


def _witness(a):
    chain = a.bounds.witness_chain
    return list(chain) if chain else None


def _interval(a):
    """Keys and line of an open (qualitative) pseudoheight interval."""
    lo, hi = _jval(a.bounds.lower), _jval(a.bounds.upper)
    payload = {"ph_ac_lower": lo, "ph_ac_upper": hi, "witness": _witness(a)}
    return payload, f"anticanonical pseudoheight interval: [{lo}, {hi}]"


def cmd_pseudoheight(spec, args):
    a = _analysis(spec)
    if a.spec.is_exact:
        payload = {"ph": _jval(a.ph), "ph_ac": _jval(a.ph_ac), "witness": _witness(a)}
        lines = [
            f"pseudoheight: {payload['ph']}",
            f"anticanonical pseudoheight: {payload['ph_ac']}",
            f"witness chain: {a.bounds.witness_chain}",
        ]
        if args.anticanonical:
            lines = lines[1:] + lines[:1]
    else:
        payload, line = _interval(a)
        lines = [line, f"upper bound witness chain: {a.bounds.witness_chain}"]
    return payload, lines


def cmd_e1(spec, args):
    from .nhh import build_e1
    table, _ = build_e1(spec)
    nonzero_t = [mp + q for (mp, q), d in table.items() if d]
    payload = {
        "entries": _table_json(table),
        "min_total_degree": _jval(min(nonzero_t, default=float("inf"))),
    }
    lines = _grid_lines("first page", table)
    lines.append(f"minimal total degree: {payload['min_total_degree']}")
    return payload, lines


def cmd_ss(spec, args):
    from .nhh import spectral_sequence
    ss = spectral_sequence(_analysis(spec).complex, max_page=args.max_page)
    payload = {
        "pages": {str(r): _table_json(t) for r, t in sorted(ss.pages.items())},
        "stable_page": ss.stable_page,
        "infinity": _table_json(ss.infinity),
    }
    lines = []
    shown = args.max_page or ss.stable_page
    for r in sorted(ss.pages):
        if r > shown:
            break
        lines += _grid_lines(f"page {r}", ss.pages[r])
    lines.append(f"stabilizes at page {ss.stable_page}")
    lines += _grid_lines("limit page", ss.infinity)
    return payload, lines


def cmd_height(spec, args):
    a = _analysis(spec)
    h = a.height
    if a.spec.is_exact:
        payload = {"ph": _jval(a.ph), "ph_ac": _jval(a.ph_ac)}
        payload["nhh"] = _nhh_json(a.cohomology)
        lines = [
            f"pseudoheight: {payload['ph']} (witness {a.bounds.witness_chain})",
            f"height: {h}",
            "normal cohomology dims: "
            + ", ".join(f"{t}: {d}" for t, d in payload["nhh"].items()),
        ]
        if h.nhh_vanishes:
            lines.append(
                "warning: normal cohomology vanishes entirely; "
                "see the fullness command"
            )
    else:
        payload, line = _interval(a)
        lines = [line, f"height: {h}"]
    payload.update(he_lo=_jval(h.lo), he_hi=_jval(h.hi))
    return payload, lines


def cmd_report(spec, args):
    a = _analysis(spec)
    rep = a.report(args.hoh or None)  # `--hoh=` gives no dims
    payload = {
        "ph": _jval(rep.ph),
        "ph_ac": _jval(rep.ph_ac),
        "he_lo": _jval(rep.height.lo),
        "he_hi": _jval(rep.height.hi),
        "he_ac_lo": _jval(rep.height_ac.lo),
        "he_ac_hi": _jval(rep.height_ac.hi),
        "used_shortcut": rep.used_shortcut,
        "iso_range": _jval(rep.iso_range),
        "mono_degree": _jval(rep.mono_degree),
        "deformation_equivalent": rep.deformation_equivalent,
        "witness": _witness(a),
    }
    if rep.nhh_dims is not None:
        payload["nhh"] = _nhh_json(rep.nhh_dims)
    if rep.hoh_x_dims is not None:
        payload["hoh_x"] = rep.hoh_x_dims
        payload["hoh_a"] = rep.hoh_a_dims
    if rep.ph is None:
        ph_line = _interval(a)[1]
    else:
        ph_line = f"pseudoheight: {_jval(rep.ph)} (anticanonical {_jval(rep.ph_ac)})"
    lines = [
        ph_line,
        f"height: {rep.height} (anticanonical {rep.height_ac})",
        f"shortcut used: {rep.used_shortcut}",
        f"restriction map: isomorphism for k <= {_jval(rep.iso_range)}, "
        f"monomorphism at k = {_jval(rep.mono_degree)}",
        f"deformation spaces agree: {rep.deformation_equivalent}",
    ]
    if rep.hoh_a_dims is not None:
        shown = [
            f"HOH^{k}(complement) = {d}"
            for k, d in enumerate(rep.hoh_a_dims)
            if d is not None
        ]
        lines.append("; ".join(shown) if shown else "no complement dims implied")
    return payload, lines


def cmd_fullness(spec, args):
    verdict = _analysis(spec).fullness
    payload = {"status": verdict.status, "evidence": verdict.evidence}
    return payload, [f"{verdict.status}: {verdict.evidence}"]
