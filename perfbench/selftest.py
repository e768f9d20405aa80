"""Self-test of the output checker: corrupted answers must count as failed.

    python3 perfbench/selftest.py

Run from the root of a checkout.  It builds both workloads, runs one pass
of each in this process, checks that the untouched outputs pass, then
corrupts one job's output at a time and checks that each corruption is
counted as a failed job.  Exits 1 if any corruption goes unnoticed.
"""

from __future__ import annotations

import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run  # noqa: E402
import workloads  # noqa: E402


def _edit(field, change):
    """Corruption of one JSON field of a job's output."""

    def corrupt(code, out):
        payload = json.loads(out)
        payload[field] = change(payload[field])
        return code, json.dumps(payload)

    return corrupt


# (workload, command, document, corruption)
CORRUPTIONS = [
    ("projective", "height", "beilinson_p2", _edit("nhh", lambda d: dict(d, **{"1": 9}))),
    ("projective", "ss", "beilinson_p3", _edit("infinity", lambda e: e + [[0, 9, 1]])),
    ("projective", "fullness", "beilinson_p2", _edit("status", lambda s: "NOT_FULL")),
    ("projective", "height", "beilinson_p3", _edit("nhh", lambda d: [1])),
    ("projective", "fixture", "beilinson_p2", lambda code, out: (code, out.replace("1", "2", 1))),
    ("chains", "height", "burniat", _edit("he_lo", lambda v: v - 1)),
    ("chains", "fullness", "beauville_I0", _edit("status", lambda s: "INCONCLUSIVE")),
    ("chains", "pseudoheight", "godeaux", _edit("witness", lambda w: [1, 3])),
    ("chains", "report", "beauville_I0", _edit("iso_range", lambda v: v + 1)),
    ("chains", "pseudoheight", "sparse15", _edit("ph", lambda v: 99)),
    ("chains", "e1", "sparse16", _edit("entries", lambda e: e + [[9, 9, 1]])),
    ("chains", "height", "sparse16", _edit("nhh", lambda d: dict(d, **{"9": 1}))),
    ("chains", "pseudoheight", "surface12", _edit("ph_ac_upper", lambda v: 99)),
    ("chains", "fullness", "surface12", _edit("status", lambda s: "FULL")),
    ("chains", "validate", "surface12", _edit("ok", lambda v: False)),
    ("chains", "e1", "sparse15", lambda code, out: (1, out)),
    ("chains", "report", "surface12", lambda code, out: (code, out[:-3])),
]


def main():
    co = run.Checkout(os.getcwd())
    cli = co.import_excol()
    passes = {}
    for name in workloads.WORKLOADS:
        wl = workloads.build(name, 0, co.root,
                             os.path.join(co.root, ".perfbench", f"selftest-{name}"))
        _, results = run.in_process_pass(cli, wl)
        baseline = run.Run(wl, co.fixtures)
        baseline.check(results)
        if baseline.failed:
            print(f"selftest: the untouched {name} outputs fail:", baseline.reasons)
            return 1
        passes[name] = (wl, results)
    missed = 0
    for name, cmd, target, corrupt in CORRUPTIONS:
        wl, results = passes[name]
        job = next(j for j in wl.jobs if j.cmd == cmd and j.target == target)
        bad = dict(results)
        bad[job.id] = corrupt(*results[job.id])
        counted = run.Run(wl, co.fixtures)
        counted.check(bad)
        seen = counted.failed > 0
        missed += not seen
        verdict = counted.reasons[0] if seen else "NOT COUNTED"
        print(f"{'ok  ' if seen else 'MISS'} {name} {cmd} {target}: {verdict}")
    print(f"selftest: {len(CORRUPTIONS) - missed} of {len(CORRUPTIONS)} corruptions counted")
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main())
