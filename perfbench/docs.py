"""Seeded collection documents for the benchmark workloads.

Every generator takes a ``random.Random`` and returns a plain JSON-ready
dict in the document format of the README, so the program under test only
ever sees the written files.  Nothing here imports the program.
"""

from __future__ import annotations

SURFACE_FLAGS = {
    "is_surface": True,
    "ample_canonical": True,
    "line_bundles": True,
    "h2_anticanonical_nonzero": True,
}


def sparse_exact(rng, n):
    """A sparse exact document: a few Ext links, no products.

    Every object has a diagonal twisted space, so every one-object chain is
    live; a handful of Ext links, some of them closed by an off-diagonal
    twisted space, make a few longer chains live.  Without products the
    differential is zero, so the whole first page is the cohomology.
    """
    ext = {}
    for _ in range(n // 2 + 2):
        i = rng.randint(1, n - 1)
        j = rng.randint(i + 1, min(n, i + 4))
        ext[(i, j)] = (rng.randint(0, 2), rng.choice([1, 1, 2]))
    serre = {(i, i): (rng.randint(2, 4), 1) for i in range(1, n + 1)}
    # close a few paths of one to three links with a twisted space
    starts = sorted({i for i, _ in ext})
    for _ in range(n // 3):
        a0 = rng.choice(starts)
        ap = a0
        for _ in range(rng.randint(1, 3)):
            nxt = [j for (i, j) in ext if i == ap]
            if not nxt:
                break
            ap = rng.choice(sorted(nxt))
        if ap != a0:
            serre[(a0, ap)] = (rng.randint(0, 2), 1)
    return {
        "n": n,
        "dim_x": rng.randint(1, 3),
        "ext": [
            {"src": i, "dst": j, "deg": deg, "dim": dim}
            for (i, j), (deg, dim) in sorted(ext.items())
        ],
        "serre_ext": [
            {"twist_src": i, "from": j, "deg": deg, "dim": dim}
            for (i, j), (deg, dim) in sorted(serre.items())
        ],
    }


def qualitative_surface(rng, n):
    """A surface-style document of line bundles with only Ext^1 statuses.

    Canonical degrees are non-increasing, so the ample-canonical degree
    criterion kills every forward Hom; the degree window is [0, 2] and the
    H^2 cap pins the top of every one-object chain.
    """
    degrees = [rng.randint(4, 8)]
    for _ in range(n - 1):
        degrees.append(degrees[-1] - rng.randint(0, 1))
    statuses = []
    for src in range(1, n + 1):
        # forward Ext links (src, dst) and twisted links (src, n + a0)
        targets = list(range(src + 1, n + 1)) + [n + a0 for a0 in range(1, src + 1)]
        for dst in targets:
            if rng.random() < 0.25:
                statuses.append(
                    {
                        "src": src,
                        "dst": dst,
                        "deg": 1,
                        "status": rng.choice(["ZERO", "ZERO", "NONZERO"]),
                    }
                )
    return {
        "n": n,
        "dim_x": 2,
        "objects": [
            {"label": f"L{i + 1}", "canonical_degree": d}
            for i, d in enumerate(degrees)
        ],
        "qualitative": {"degree_window": [0, 2], "statuses": statuses},
        "flags": dict(SURFACE_FLAGS, k_squared=rng.randint(1, 9)),
    }
