"""What `ss`, `height`, `report` and `fullness` print, off one `heights.Analysis` (see `views`)."""

from .heights import Analysis, comparison_report
from .views import _grid_lines, _interval, _jval, _table_json, _witness


def _nhh_json(dims):
    return {str(t): d for t, d in sorted(dims.items())}


def cmd_ss(spec, args):
    ss = Analysis(spec).pages
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
    a = Analysis(spec)
    h = a.height
    if a.spec.is_exact:
        payload = {"ph": _jval(a.bounds.ph(spec.dim_x)), "ph_ac": _jval(a.bounds.ph_ac)}
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
    a = Analysis(spec)
    used_shortcut = a.used_shortcut  # the chain walk's SpecError comes first
    h, h_ac = a.height, a.height.shifted(spec.dim_x)
    cmp = comparison_report(h, args.hoh or None)  # `--hoh=` gives no dims
    ph, ph_ac = a.bounds.ph(spec.dim_x), a.bounds.ph_ac
    payload = {
        "ph": _jval(ph),
        "ph_ac": _jval(ph_ac),
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
    if ph is None:
        ph_line = _interval(a.bounds)[1]
    else:
        ph_line = f"pseudoheight: {_jval(ph)} (anticanonical {_jval(ph_ac)})"
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
    verdict = Analysis(spec).fullness
    payload = {"status": verdict.status, "evidence": verdict.evidence}
    return payload, [f"{verdict.status}: {verdict.evidence}"]
