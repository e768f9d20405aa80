"""A fixed reference job that measures how fast the host runs right now.

    python3 perfbench/probe.py

It does what an excol job does, in miniature and with the standard library
only: start an interpreter, import the modules the command line imports,
reduce a small matrix of fractions and print a JSON line.  Its work never
changes, so the time it takes tracks only the host: on a shared machine the
same job runs up to 1.7 times slower while other tenants load the core.
run.py times this probe between jobs and scales each job's time by it (see
NOTES.md).  Changing this file changes the unit of every timing in the
benchmark.
"""

import argparse  # noqa: F401  (imported for its cost, as excol.cli does)
import dataclasses  # noqa: F401
import json
from fractions import Fraction

N = 11


def main():
    x = 12345
    rows = []
    for _ in range(N):
        row = []
        for _ in range(N + 3):
            x = (x * 1103515245 + 12345) % 2147483648
            row.append(Fraction(x % 19 - 9, x % 7 + 1))
        rows.append(row)
    r = 0
    for c in range(N + 3):
        p = next((i for i in range(r, N) if rows[i][c]), None)
        if p is None:
            continue
        rows[r], rows[p] = rows[p], rows[r]
        inv = 1 / rows[r][c]
        rows[r] = [v * inv for v in rows[r]]
        for i in range(N):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        r += 1
    print(json.dumps({"rank": r, "pivot": str(rows[0][0])}))


if __name__ == "__main__":
    main()
