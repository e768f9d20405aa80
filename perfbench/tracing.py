"""In-process traced pass: spans around the public functions of each module.

The wrappers are installed from here, at run time, on the imported
``excol`` modules; the program's source is not touched.  A span records
(name, start, end, parent, job id); spans stay in memory and are written
once at the end of the run.  A layer's self time is the time of its spans
minus the time of their child spans.
"""

from __future__ import annotations

import functools
import sys
import time

# (module, attribute, span name); a method is "Class.method"
WRAPPED = [
    ("model", "parse", "model.parse"),
    ("model", "validate", "model.validate"),
    ("fixtures", "fixture_document", "fixtures.document"),
    ("fixtures", "fixture_spec", "fixtures.document"),
    ("pseudoheight", "pseudoheight", "pseudoheight.exact"),
    ("pseudoheight", "qualitative_ph_bounds", "pseudoheight.qualitative"),
    ("nhh", "enumerate_terms", "nhh.enumerate"),
    ("nhh", "build_e1", "nhh.enumerate"),
    ("nhh", "assemble_differential", "nhh.assemble"),
    ("nhh", "total_cohomology", "nhh.cohomology"),
    ("nhh", "spectral_sequence", "nhh.ss"),
    ("exactlin", "rref", "exactlin.rref"),
    ("exactlin", "kernel_basis", "exactlin.kernel"),
    ("exactlin", "Subspace.__init__", "exactlin.subspace"),
    ("exactlin", "subquotient_dim", "exactlin.subspace"),
    ("exactlin", "Matrix.apply", "exactlin.apply"),
    ("exactlin", "Matrix.compose", "exactlin.compose"),
    ("heights", "height", "heights.height"),
    ("heights", "build_report", "heights.report"),
    ("heights", "heph_shortcut", "heights.report"),
    ("heights", "comparison_report", "heights.report"),
    ("fullness", "full_check", "fullness.check"),
    ("fullness", "not_full_check", "fullness.check"),
]

# per-layer self times: metric -> span names
SELF_TIMES = {
    "cli.self_s": ["cli.main"],
    "model.parse_s": ["model.parse"],
    "model.validate_s": ["model.validate"],
    "fixtures.document_s": ["fixtures.document"],
    "pseudoheight.exact_s": ["pseudoheight.exact"],
    "pseudoheight.qualitative_s": ["pseudoheight.qualitative"],
    "nhh.enumerate_s": ["nhh.enumerate"],
    "nhh.assemble_s": ["nhh.assemble"],
    "nhh.cohomology_s": ["nhh.cohomology"],
    "nhh.ss_s": ["nhh.ss"],
    "exactlin.rref_s": ["exactlin.rref"],
    "exactlin.subspace_s": ["exactlin.subspace"],
    "exactlin.kernel_s": ["exactlin.kernel"],
    "exactlin.apply_s": ["exactlin.apply"],
    "exactlin.compose_s": ["exactlin.compose"],
    "exactlin.self_s": ["exactlin.rref", "exactlin.subspace", "exactlin.kernel",
                        "exactlin.apply", "exactlin.compose"],
    "heights.self_s": ["heights.height", "heights.report"],
    "fullness.self_s": ["fullness.check"],
}

# call counts: metric -> span names
CALLS = {
    "pseudoheight.exact_calls": ["pseudoheight.exact"],
    "pseudoheight.qualitative_calls": ["pseudoheight.qualitative"],
    "nhh.assemble_calls": ["nhh.assemble"],
    "nhh.ss_calls": ["nhh.ss"],
    "exactlin.rref_calls": ["exactlin.rref"],
    "exactlin.subspace_builds": ["exactlin.subspace"],
    "exactlin.kernel_calls": ["exactlin.kernel"],
    "exactlin.apply_calls": ["exactlin.apply"],
    "exactlin.compose_calls": ["exactlin.compose"],
    "heights.height_calls": ["heights.height"],
}


class Tracer:
    """Span and counter recorder for one traced pass."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index, job id]
        self._stack = []
        self.job = None
        self.counts = {}
        self.maxima = {}

    def open(self, name):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, self.job])
        self._stack.append(idx)
        return idx

    def close(self, idx):
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def add(self, key, amount=1):
        self.counts[key] = self.counts.get(key, 0) + amount

    def peak(self, key, value):
        self.maxima[key] = max(self.maxima.get(key, 0), value)

    def layer_metrics(self):
        """Per-layer self times, counts and ratios of this pass."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        self_by_name = {}
        calls_by_name = {}
        for (name, start, end, _, _), inner in zip(self.spans, child):
            self_by_name[name] = self_by_name.get(name, 0.0) + (end - start - inner)
            calls_by_name[name] = calls_by_name.get(name, 0) + 1
        out = {m: sum(self_by_name.get(n, 0.0) for n in names)
               for m, names in SELF_TIMES.items()}
        out.update({m: sum(calls_by_name.get(n, 0) for n in names)
                    for m, names in CALLS.items()})
        c = self.counts
        out["model.doc_bytes"] = c.get("doc_bytes", 0)
        out["pseudoheight.chains_walked"] = c.get("chains_walked", 0)
        out["nhh.terms"] = c.get("terms", 0)
        walked = c.get("enumerate_walked", 0)
        out["nhh.live_chain_ratio"] = c.get("live_chains", 0) / walked if walked else 0.0
        out["nhh.complex_dim"] = self.maxima.get("complex_dim", 0)
        out["nhh.nnz"] = self.maxima.get("nnz", 0)
        out["exactlin.rref_rows"] = c.get("rref_rows", 0)
        rows = c.get("rref_rows", 0)
        out["exactlin.rank_yield"] = c.get("rref_rank", 0) / rows if rows else 0.0
        return out


def _after_hooks(tr):
    """Counters taken at the span boundaries, after the span has closed."""

    def parse(args, res):
        doc = args[0]
        if isinstance(doc, (str, bytes)):
            tr.add("doc_bytes", len(doc))

    def enumerate_terms(args, res):
        tr.add("terms", len(res))
        tr.add("live_chains", len({t.chain for t in res}))

    def assemble(args, res):
        tr.peak("complex_dim", sum(res.t_dims.values()))
        tr.peak("nnz", sum(len(m.entries) for m in res.diffs.values()))

    def rref(args, res):
        tr.add("rref_rows", len({r for r, _ in args[0].entries}))
        tr.add("rref_rank", res.rank)

    return {
        ("model", "parse"): parse,
        ("nhh", "enumerate_terms"): enumerate_terms,
        ("nhh", "assemble_differential"): assemble,
        ("exactlin", "rref"): rref,
    }


def _wrap(tr, fn, name, after):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        idx = tr.open(name)
        try:
            res = fn(*args, **kwargs)
        finally:
            tr.close(idx)
        if after is not None:
            after(args, res)
        return res

    return traced


def _counted_chains(tr, fn):
    @functools.wraps(fn)
    def iter_chains(n):
        k = 0
        try:
            for k, chain in enumerate(fn(n), 1):
                yield chain
        finally:
            tr.add("chains_walked", k)
            if tr._stack and tr.spans[tr._stack[-1]][0] == "nhh.enumerate":
                tr.add("enumerate_walked", k)

    return iter_chains


def install(tr):
    """Wrap the listed functions in every loaded excol module; returns undo."""
    mods = {k[len("excol."):]: m for k, m in sys.modules.items() if k.startswith("excol.")}
    hooks = _after_hooks(tr)
    swaps = {}  # original module-level function -> wrapper
    undo = []
    for modname, attr, name in WRAPPED:
        mod = mods[modname]
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(mod, cls_name)
            orig = getattr(cls, meth)
            setattr(cls, meth, _wrap(tr, orig, name, None))
            undo.append((cls, meth, orig))
        else:
            orig = getattr(mod, attr)
            swaps[orig] = _wrap(tr, orig, name, hooks.get((modname, attr)))
    orig = mods["pseudoheight"].iter_chains
    swaps[orig] = _counted_chains(tr, orig)
    # rebind every name that refers to a wrapped function, imports included
    for mod in mods.values():
        for attr, val in list(vars(mod).items()):
            if callable(val) and not isinstance(val, type) and val in swaps:
                setattr(mod, attr, swaps[val])
                undo.append((mod, attr, val))

    def uninstall():
        for owner, attr, val in undo:
            setattr(owner, attr, val)

    return uninstall
