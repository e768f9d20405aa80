"""The two workloads: their documents, references and jobs.

A job is one ``excol`` command line.  A pass runs every job of a workload
once, in an order shuffled from the seed.  Why each workload exists is in
NOTES.md.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
from dataclasses import dataclass

from check import HKR, Reference
import docs

PRIME = "F2147483647"  # 2^31 - 1
EXACT_COMMANDS = ["validate", "pseudoheight", "e1", "ss", "height", "report", "fullness"]
QUALITATIVE_COMMANDS = [c for c in EXACT_COMMANDS if c != "e1"]
STARTUP_JOBS = 5  # startup_s is the median of these, per pass
WORKLOADS = ["projective", "chains"]
SURFACES = ["burniat", "beauville_I0", "godeaux"]


@dataclass
class Job:
    id: int
    cmd: str  # an excol command, or "startup" for `fixture --list`
    target: str | None  # document key, or fixture name for `fixture`
    argv: list

    @property
    def metric(self):
        return f"{self.cmd}_s"

    @property
    def label(self):
        return " ".join(self.argv)


@dataclass
class Workload:
    docs: dict  # key -> {"path", "sha256", "bytes"}
    refs: dict  # key -> check.Reference
    jobs: list


class _Workbench:
    def __init__(self, root, workdir):
        self.root = root
        self.workdir = workdir
        self.docs = {}
        self.refs = {}
        self.jobs = []

    def shipped(self, name, nhh=None):
        path = os.path.join("fixtures", f"{name}.json")
        with open(os.path.join(self.root, path), encoding="utf-8") as fh:
            text = fh.read()
        return self._register(name, path, text, nhh)

    def generated(self, key, doc):
        text = json.dumps(doc, sort_keys=True)
        path = os.path.join(self.workdir, f"{key}.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        return self._register(key, os.path.relpath(path, self.root), text, None)

    def _register(self, key, path, text, nhh):
        data = text.encode("utf-8")
        self.docs[key] = {
            "path": path,
            "sha256": hashlib.sha256(data).hexdigest(),
            "bytes": len(data),
        }
        self.refs[key] = Reference(key, json.loads(text), nhh)
        return key

    def job(self, cmd, target, *extra):
        if cmd == "startup":
            argv = ["fixture", "--list", "--json"]
        elif cmd == "fixture":
            argv = ["fixture", target]
        else:
            argv = [cmd, self.docs[target]["path"], "--json", *extra]
        self.jobs.append(Job(len(self.jobs), cmd, target, argv))

    def every_command(self, key):
        cmds = EXACT_COMMANDS if self.refs[key].exact else QUALITATIVE_COMMANDS
        for cmd in cmds:
            self.job(cmd, key)


def _projective(b, rng):
    for name, n in (("beilinson_p2", 3), ("beilinson_p3", 4)):
        b.every_command(b.shipped(name, HKR[n]))
        b.job("fixture", name)
    # the same document over F_p must give the answer over Q
    b.job("height", "beilinson_p3", "--field", PRIME)


def _chains(b, rng):
    for n in (15, 16):
        b.every_command(b.generated(f"sparse{n}", docs.sparse_exact(rng, n)))
    b.every_command(b.generated("surface12", docs.qualitative_surface(rng, 12)))
    # the shipped surfaces: small, with verdicts known from the literature
    for name in SURFACES:
        b.every_command(b.shipped(name))
        b.job("fixture", name)


_BUILD = {
    "projective": _projective,
    "chains": _chains,
}


def build(name, seed, root, workdir):
    """Generate and write the documents, compute references, list the jobs."""
    os.makedirs(workdir, exist_ok=True)
    rng = random.Random(seed)
    b = _Workbench(root, workdir)
    _BUILD[name](b, rng)
    for _ in range(STARTUP_JOBS):
        b.job("startup", None)
    rng.shuffle(b.jobs)
    return Workload(b.docs, b.refs, b.jobs)
