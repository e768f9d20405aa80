"""What the engine commands print: pseudoheight, e1, ss, height, report, fullness.

Each `cmd_*(spec, args)` reads its answer off one `heights.Analysis` and
returns it as (JSON payload, text lines); `pseudoheight` and `e1` read the
chain walk of `pseudoheight` instead, so they compile neither `heights` nor
the complex.
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
    from .pseudoheight import build_e1
    table = build_e1(spec)
    nonzero_t = [mp + q for (mp, q), d in table.items() if d]
    payload = {
        "entries": _table_json(table),
        "min_total_degree": _jval(min(nonzero_t, default=float("inf"))),
    }
    lines = _grid_lines("first page", table)
    lines.append(f"minimal total degree: {payload['min_total_degree']}")
    return payload, lines


def cmd_ss(spec, args):
    ss = _analysis(spec).pages
    pages = dict(ss.pages)  # past width + 1 each page is the limit page, if any
    while pages[1] and len(pages) < (args.max_page or 0):
        pages[len(pages) + 1] = ss.infinity
    payload = {
        "pages": {str(r): _table_json(t) for r, t in sorted(pages.items())},
        "stable_page": ss.stable_page,
        "infinity": _table_json(ss.infinity),
    }
    lines = []
    shown = args.max_page or ss.stable_page
    for r in sorted(pages):
        if r > shown:
            break
        lines += _grid_lines(f"page {r}", pages[r])
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
        if h.lo == float("inf"):
            lines.append(
                "warning: normal cohomology vanishes entirely; "
                "see the fullness command"
            )
    else:
        payload, line = _interval(a.bounds)
        lines = [line, f"height: {h}"]
    payload.update(he_lo=_jval(h.lo), he_hi=_jval(h.hi))
    return payload, lines


def cmd_report(spec, args):
    from .heights import comparison_report
    a = _analysis(spec)
    used_shortcut = a.used_shortcut  # the chain walk's SpecError comes first
    h, h_ac = a.height, a.height.shifted(spec.dim_x)
    cmp = comparison_report(h, args.hoh or None)  # `--hoh=` gives no dims
    payload = {
        "ph": _jval(a.ph),
        "ph_ac": _jval(a.ph_ac),
        "he_lo": _jval(h.lo),
        "he_hi": _jval(h.hi),
        "he_ac_lo": _jval(h_ac.lo),
        "he_ac_hi": _jval(h_ac.hi),
        "used_shortcut": used_shortcut,
        "iso_range": _jval(cmp.iso_range),
        "mono_degree": _jval(cmp.mono_degree),
        "deformation_equivalent": cmp.deformation_equivalent,
        "witness": _witness(a.bounds),
    }
    if a.cohomology is not None:
        payload["nhh"] = _nhh_json(a.cohomology)
    if cmp.hoh_a_dims is not None:
        payload["hoh_x"] = args.hoh
        payload["hoh_a"] = cmp.hoh_a_dims
    if a.ph is None:
        ph_line = _interval(a.bounds)[1]
    else:
        ph_line = f"pseudoheight: {_jval(a.ph)} (anticanonical {_jval(a.ph_ac)})"
    lines = [
        ph_line,
        f"height: {h} (anticanonical {h_ac})",
        f"shortcut used: {used_shortcut}",
        f"restriction map: isomorphism for k <= {_jval(cmp.iso_range)}, "
        f"monomorphism at k = {_jval(cmp.mono_degree)}",
        f"deformation spaces agree: {cmp.deformation_equivalent}",
    ]
    if cmp.hoh_a_dims is not None:
        shown = [
            f"HOH^{k}(complement) = {d}"
            for k, d in enumerate(cmp.hoh_a_dims)
            if d is not None
        ]
        lines.append("; ".join(shown) if shown else "no complement dims implied")
    return payload, lines


def cmd_fullness(spec, args):
    verdict = _analysis(spec).fullness
    payload = {"status": verdict.status, "evidence": verdict.evidence}
    return payload, [f"{verdict.status}: {verdict.evidence}"]
