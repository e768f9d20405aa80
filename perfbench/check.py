"""Expected answers and the output checker.

References are computed from the document files by code of this directory
alone: the first page and the pseudoheight from a walk over live chains
only, the qualitative interval from the status rules, and the published
answers (HKR dimensions of projective space, the literature verdicts of the
surface fixtures).  Answers that have no independent formula are checked
across commands on the same document: chi of the first page against chi of
the cohomology, the limit page against the cohomology, the report against
the height.
"""

from __future__ import annotations

import itertools
import json
import os

INF = float("inf")

# HKR: dim H^t = sum of h^0(Lambda^t T) over the ambient projective space
HKR = {
    3: {0: 1, 1: 8, 2: 10},
    4: {0: 1, 1: 15, 2: 45, 3: 35},
}

# verdicts pinned by the literature (and by the acceptance tests)
LITERATURE = {
    "beilinson_p2": {"status": "FULL"},
    "beilinson_p3": {"status": "FULL"},
    "burniat": {"status": "NOT_FULL", "he": (4, 4)},
    "beauville_I0": {"status": "NOT_FULL", "he": (4, 4)},
    "godeaux": {"status": "NOT_FULL", "he": (4, 4), "ph": 3, "witness": [2, 3]},
}


def jv(v):
    """A value as the program's JSON writes it."""
    if v == INF:
        return "inf"
    if v == -INF:
        return "-inf"
    return v


def _live_chains(n, a_cost, n_cost):
    """Chains whose every link has a finite cost, by depth-first search.

    Yields (chain, link costs); only links that are present are followed,
    so the walk is proportional to the number of live prefixes.
    """
    def extend(chain, costs):
        closing = n_cost(chain[0], chain[-1])
        if closing != INF:
            yield tuple(chain), costs + [closing]
        for nxt in range(chain[-1] + 1, n + 1):
            c = a_cost(chain[-1], nxt)
            if c != INF:
                yield from extend(chain + [nxt], costs + [c])

    for a0 in range(1, n + 1):
        yield from extend([a0], [])


def chain_minimum(n, a_cost, n_cost):
    """min over live chains of (sum of link costs) - p, with its witness.

    Ties go to the shortest chain, then the lexicographically smallest.
    """
    best = None
    for chain, costs in _live_chains(n, a_cost, n_cost):
        key = (sum(costs) - (len(chain) - 1), len(chain), chain)
        if best is None or key < best:
            best = key
    if best is None:
        return INF, None
    return best[0], list(best[2])


class Reference:
    """Expected answers for one document."""

    def __init__(self, name, doc, nhh=None):
        self.n = doc["n"]
        self.dim_x = doc["dim_x"]
        self.exact = bool(doc.get("ext") or doc.get("serre_ext")) or (
            "qualitative" not in doc
        )
        self.literature = LITERATURE.get(name, {})
        self.nhh = nhh  # known cohomology dims, or None
        flags = doc.get("flags", {})
        self.higher_complete = flags.get("higher_products_complete", True)
        self.has_certificate = "fullness" in doc
        if self.exact:
            self._exact(doc)
        else:
            self._qualitative(doc, flags)

    # -- exact documents ----------------------------------------------------

    def _exact(self, doc):
        a = {}
        for r in doc.get("ext", ()):
            a.setdefault((r["src"], r["dst"]), {})[r["deg"]] = r["dim"]
        nsp = {}
        for r in doc.get("serre_ext", ()):
            nsp.setdefault((r["twist_src"], r["from"]), {})[r["deg"]] = r["dim"]
        a_se = lambda i, j: min(a[(i, j)]) if (i, j) in a else INF
        n_se = lambda i, j: min(nsp[(i, j)]) if (i, j) in nsp else INF
        self.ph, self.witness = chain_minimum(self.n, a_se, n_se)
        e1 = {}
        for chain, _ in _live_chains(self.n, a_se, n_se):
            spaces = [a[(chain[s], chain[s + 1])] for s in range(len(chain) - 1)]
            spaces.append(nsp[(chain[0], chain[-1])])
            for degs in itertools.product(*[sorted(sp) for sp in spaces]):
                dim = 1
                for sp, d in zip(spaces, degs):
                    dim *= sp[d]
                key = (1 - len(chain), sum(degs))
                e1[key] = e1.get(key, 0) + dim
        self.e1 = [[mp, q, d] for (mp, q), d in sorted(e1.items())]
        self.e1_chi = sum((-1) ** ((mp + q) % 2) * d for mp, q, d in self.e1)
        self.min_t = min((mp + q for mp, q, _ in self.e1), default=INF)

    # -- qualitative documents ----------------------------------------------

    def _qualitative(self, doc, flags):
        n = self.n
        q = doc["qualitative"]
        lo_w, hi_w = q["degree_window"]
        statuses = {(r["src"], r["dst"], r["deg"]): r["status"] for r in q["statuses"]}
        degree_rule = (
            flags.get("is_surface")
            and flags.get("ample_canonical")
            and flags.get("line_bundles")
            and "k_squared" in flags
            and all("canonical_degree" in o for o in doc.get("objects", [{}]))
        )
        if degree_rule:
            degs = [o["canonical_degree"] for o in doc["objects"]]
            ext_deg = degs + [d - flags["k_squared"] for d in degs]
        h2_cap = (
            flags.get("is_surface")
            and flags.get("line_bundles")
            and flags.get("h2_anticanonical_nonzero")
        )

        def status(src, dst, deg):
            if (src, dst, deg) in statuses:
                return statuses[(src, dst, deg)]
            if deg == 0 and degree_rule and dst != src:
                if ext_deg[src - 1] >= ext_deg[dst - 1]:
                    return "ZERO"
            if deg == 2 and h2_cap and dst == n + src:
                return "NONZERO"
            return "ZERO" if not lo_w <= deg <= hi_w else "UNKNOWN"

        def interval(src, dst):
            lo = hi = INF
            for d in range(lo_w, hi_w + 1):
                st = status(src, dst, d)
                if st != "ZERO" and lo == INF:
                    lo = d
                if st == "NONZERO":
                    hi = d
                    break
            return lo, hi

        a_iv = {(i, j): interval(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)}
        n_iv = {(i, j): interval(j, n + i) for i in range(1, n + 1) for j in range(i, n + 1)}
        self.lower, _ = chain_minimum(
            n, lambda i, j: a_iv[(i, j)][0], lambda i, j: n_iv[(i, j)][0]
        )
        self.upper, self.witness = chain_minimum(
            n, lambda i, j: a_iv[(i, j)][1], lambda i, j: n_iv[(i, j)][1]
        )
        pinned = self.lower == self.upper
        if pinned and self.witness is not None and len(self.witness) == 1:
            self.he = (self.lower + self.dim_x,) * 2
        else:
            lo = self.lower + self.dim_x if self.lower != INF else INF
            self.he = (lo, INF)
        self.ph = self.lower + self.dim_x if pinned else None


class Failures:
    """Failed job ids with the first reason for each."""

    def __init__(self):
        self.reasons = {}

    def expect(self, job, cond, msg):
        if not cond and job.id not in self.reasons:
            self.reasons[job.id] = f"{job.label}: {msg}"
        return cond


# what a payload of the wrong shape raises inside the checks
_MALFORMED = (KeyError, TypeError, ValueError, AttributeError, IndexError)


def _table_t(entries):
    out = {}
    for mp, q, d in entries:
        out[mp + q] = out.get(mp + q, 0) + d
    return out


def check_pass(jobs, results, refs, fixture_dir):
    """Check one pass; returns Failures.

    results maps job id -> (exit code, stdout text).  Each job is checked
    against its document's reference; cross-command checks compare jobs on
    the same document and blame the later command of the pair.
    """
    fails = Failures()
    parsed = {}
    for job in jobs:
        code, out = results[job.id]
        if not fails.expect(job, code == 0, f"exit code {code}"):
            continue
        if job.cmd == "fixture":
            with open(f"{fixture_dir}/{job.target}.json", encoding="utf-8") as fh:
                fails.expect(job, out == fh.read(), "differs from the shipped file")
            continue
        try:
            payload = json.loads(out)
        except ValueError:
            payload = None
        if not fails.expect(job, isinstance(payload, dict), "stdout is not a JSON object"):
            continue
        try:
            if job.cmd == "startup":
                shipped = sorted(f[:-5] for f in os.listdir(fixture_dir) if f.endswith(".json"))
                fails.expect(job, sorted(payload["fixtures"]) == shipped, "fixture list")
                continue
            parsed.setdefault(job.target, {})[job.cmd] = (job, payload)
            ref = refs[job.target]
            (_EXACT if ref.exact else _QUALITATIVE)[job.cmd](fails, job, payload, ref)
        except _MALFORMED as exc:
            fails.expect(job, False, f"malformed output: {exc!r}")
    for target, by_cmd in parsed.items():
        if not refs[target].exact:
            continue  # every qualitative answer is checked against the reference
        try:
            _cross_exact(fails, by_cmd, refs[target])
        except _MALFORMED as exc:
            for job, _ in by_cmd.values():
                fails.expect(job, False, f"malformed output: {exc!r}")
    return fails


# -- single-command checks ----------------------------------------------------


def _validate(fails, job, p, ref):
    fails.expect(job, p.get("ok") is True and all(c["passed"] for c in p["checks"]),
                 "validation failed")


def _ph_exact(fails, job, p, ref):
    fails.expect(job, p.get("ph") == jv(ref.ph), f"ph {p.get('ph')} != {jv(ref.ph)}")
    ph_ac = ref.ph - ref.dim_x if ref.ph != INF else INF
    fails.expect(job, p.get("ph_ac") == jv(ph_ac), "ph_ac")
    if job.cmd == "pseudoheight":
        fails.expect(job, p.get("witness") == ref.witness, f"witness {p.get('witness')}")
    lit = ref.literature
    if "ph" in lit:
        fails.expect(job, p.get("ph") == lit["ph"], "literature pseudoheight")
    if "witness" in lit and job.cmd == "pseudoheight":
        fails.expect(job, p.get("witness") == lit["witness"], "literature witness")


def _e1(fails, job, p, ref):
    fails.expect(job, p.get("entries") == ref.e1, "first page")
    fails.expect(job, p.get("min_total_degree") == jv(ref.min_t), "minimal degree")


def _ss_exact(fails, job, p, ref):
    pages = p.get("pages", {})
    fails.expect(job, pages.get("1") == ref.e1, "page 1 is not the first page")
    order = sorted(pages, key=int)
    for r_prev, r_next in zip(order, order[1:]):
        prev = {(mp, q): d for mp, q, d in pages[r_prev]}
        for mp, q, d in pages[r_next]:
            fails.expect(job, d <= prev.get((mp, q), 0), f"page {r_next} grew")
    if ref.nhh is not None:
        fails.expect(job, _table_t(p.get("infinity", [])) == ref.nhh, "limit page")
        # one row of the first page: d_r vanishes for r >= 2
        fails.expect(job, p.get("stable_page") == 2, "stable page")


def _he_literature(fails, job, p, ref):
    if "he" in ref.literature:
        lo, hi = ref.literature["he"]
        fails.expect(job, (p.get("he_lo"), p.get("he_hi")) == (lo, hi), "literature height")


def _height_exact(fails, job, p, ref):
    _ph_exact(fails, job, p, ref)
    nhh = {int(t): d for t, d in p.get("nhh", {}).items()}
    if ref.nhh is not None:
        fails.expect(job, nhh == ref.nhh, f"cohomology {nhh}")
    chi = sum((-1) ** (t % 2) * d for t, d in nhh.items())
    fails.expect(job, chi == ref.e1_chi, f"chi {chi} != chi of the first page {ref.e1_chi}")
    if ref.higher_complete:
        nonzero = [t for t, d in nhh.items() if d > 0]
        he = min(nonzero) if nonzero else INF
        fails.expect(job, (p.get("he_lo"), p.get("he_hi")) == (jv(he), jv(he)),
                     "height is not the minimal nonzero degree")
    _he_literature(fails, job, p, ref)


def _report_common(fails, job, p, ref):
    lo = p.get("he_lo")
    lo_num = INF if lo == "inf" else lo
    iso = lo_num - 2 if lo_num != INF else INF
    fails.expect(job, p.get("iso_range") == jv(iso), "iso range")
    fails.expect(job, p.get("mono_degree") == jv(lo_num - 1 if lo_num != INF else INF),
                 "mono degree")
    fails.expect(job, p.get("deformation_equivalent") == (lo_num == INF or lo_num >= 4),
                 "deformation verdict")
    _he_literature(fails, job, p, ref)


def _report_exact(fails, job, p, ref):
    _ph_exact(fails, job, p, ref)
    fails.expect(job, p.get("witness") == ref.witness, "witness")
    shortcut = "heph" if ref.witness is not None and len(ref.witness) == 1 else "none"
    fails.expect(job, p.get("used_shortcut") == shortcut, "shortcut")
    _report_common(fails, job, p, ref)


def _fullness(fails, job, p, ref):
    if "status" in ref.literature:
        fails.expect(job, p.get("status") == ref.literature["status"],
                     f"literature verdict {p.get('status')}")


def _ph_qualitative(fails, job, p, ref):
    fails.expect(job, (p.get("ph_ac_lower"), p.get("ph_ac_upper"))
                 == (jv(ref.lower), jv(ref.upper)), "pseudoheight interval")
    fails.expect(job, p.get("witness") == ref.witness, f"witness {p.get('witness')}")


def _height_qualitative(fails, job, p, ref):
    _ph_qualitative(fails, job, p, ref)
    fails.expect(job, (p.get("he_lo"), p.get("he_hi")) == tuple(map(jv, ref.he)), "height")
    _he_literature(fails, job, p, ref)


def _report_qualitative(fails, job, p, ref):
    fails.expect(job, (p.get("he_lo"), p.get("he_hi")) == tuple(map(jv, ref.he)), "height")
    fails.expect(job, p.get("ph") == jv(ref.ph), "pinned pseudoheight")
    fails.expect(job, p.get("witness") == ref.witness, "witness")
    fails.expect(job, p.get("used_shortcut") == "qualitative", "shortcut")
    _report_common(fails, job, p, ref)


def _fullness_qualitative(fails, job, p, ref):
    _fullness(fails, job, p, ref)
    lo = ref.he[0]
    want = "NOT_FULL" if lo != INF and lo > 0 else "INCONCLUSIVE"
    fails.expect(job, p.get("status") == want, f"verdict {p.get('status')} != {want}")


def _ss_qualitative(fails, job, p, ref):
    fails.expect(job, p == {"infinity": [], "pages": {"1": []}, "stable_page": 1},
                 "qualitative documents have no terms")


_EXACT = {
    "validate": _validate,
    "pseudoheight": _ph_exact,
    "e1": _e1,
    "ss": _ss_exact,
    "height": _height_exact,
    "report": _report_exact,
    "fullness": _fullness,
}
_QUALITATIVE = {
    "validate": _validate,
    "pseudoheight": _ph_qualitative,
    "ss": _ss_qualitative,
    "height": _height_qualitative,
    "report": _report_qualitative,
    "fullness": _fullness_qualitative,
}


# -- cross-command checks -------------------------------------------------------


def _cross_exact(fails, by_cmd, ref):
    height = by_cmd.get("height")
    if height is None:
        return
    hp = height[1]
    nhh = {int(t): d for t, d in hp.get("nhh", {}).items()}
    if "ss" in by_cmd:
        job, p = by_cmd["ss"]
        limit = _table_t(p.get("infinity", []))
        fails.expect(job, all(limit.get(t, 0) == d for t, d in nhh.items())
                     and set(limit) <= set(nhh), "limit page does not sum to the cohomology")
    if "report" in by_cmd:
        job, p = by_cmd["report"]
        fails.expect(job, {k: p.get(k) for k in ("he_lo", "he_hi", "nhh")}
                     == {k: hp.get(k) for k in ("he_lo", "he_hi", "nhh")},
                     "report disagrees with height")
    if "fullness" in by_cmd:
        job, p = by_cmd["fullness"]
        lo = hp.get("he_lo")
        if isinstance(lo, int) and lo > 0:
            want = "NOT_FULL"
        elif ref.has_certificate:
            want = "FULL"
        else:
            want = "INCONCLUSIVE"
        fails.expect(job, p.get("status") == want, f"verdict {p.get('status')} != {want}")
