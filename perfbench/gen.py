"""The benchmark's own exact arithmetic: pure diagrams, poset walks, counts.

Everything here is written from the definitions, without the library, so
that generated inputs, reference answers and set-up time do not move when
the library's poset or functional code changes.  Diagrams are plain dicts
``{(i, j): value}`` with exact rational or integer values.
"""

from __future__ import annotations

import json
from fractions import Fraction
from math import factorial, lcm


def pure_entries(degrees) -> dict:
    """pi(d)[i, d_i] = 1 / prod_{j != i} |d_j - d_i|, all positive."""
    out = {}
    for i, di in enumerate(degrees):
        prod = 1
        for j, dj in enumerate(degrees):
            if j != i:
                prod *= abs(dj - di)
        out[(i, di)] = Fraction(1, prod)
    return out


def pure_lcm(degrees) -> int:
    """Smallest positive integer L with L * pi(d) integral."""
    return lcm(*(v.denominator for v in pure_entries(degrees).values()))


def add_scaled(acc: dict, degrees, scalar) -> None:
    """acc += scalar * pi(d), dropping entries that cancel to zero."""
    for pos, v in pure_entries(degrees).items():
        total = acc.get(pos, 0) + scalar * v
        if total:
            acc[pos] = total
        else:
            acc.pop(pos, None)


def combination(terms) -> dict:
    """sum c * pi(d) over (c, d) in terms."""
    acc: dict = {}
    for c, d in terms:
        add_scaled(acc, d, c)
    return acc


def _raises(d, N, first):
    last = len(d) - 1
    for i in range(first, last + 1):
        if d[i] + 1 > N + i:
            continue
        if i < last and d[i] + 1 >= d[i + 1]:
            continue
        yield d[:i] + (d[i] + 1,) + d[i + 1:]


def covers_of(d: tuple, window, first: int = 0) -> list:
    """Degree sequences covering d in window (n, M, N, s_min).

    A cover raises one degree by one, staying strictly increasing and below
    the ceiling N + i, or drops the last degree once it sits on its ceiling
    and the codimension stays at least s_min.  ``first`` > 0 freezes the
    leading degrees (used to stay generated in degree zero).
    """
    _, _, N, s_min = window
    out = list(_raises(d, N, first))
    s = len(d) - 1
    if s - 1 >= s_min and d[s] == N + s:
        out.append(d[:-1])
    return out


def walk(rng, window, first: int = 0) -> list:
    """A random saturated chain from the window minimum to a top element."""
    n, M, _, _ = window
    cur = tuple(range(M, M + n + 1))
    out = [cur]
    while True:
        nxt = covers_of(cur, window, first)
        if not nxt:
            return out
        cur = rng.choice(nxt)
        out.append(cur)


def window_sequences(window) -> list:
    """Every degree sequence of the window, codimension descending."""
    n, M, N, s_min = window
    out = []
    for s in range(n, s_min - 1, -1):
        def extend(prefix, i):
            if i == s + 1:
                out.append(prefix)
                return
            lo = M + i if not prefix else max(M + i, prefix[-1] + 1)
            for v in range(lo, N + i + 1):
                extend(prefix + (v,), i + 1)

        extend((), 0)
    return out


def is_maximal_chain(chain, window) -> bool:
    """Starts at the minimum, ends at the maximum, every step is a cover."""
    n, M, N, s_min = window
    if chain[0] != tuple(range(M, M + n + 1)):
        return False
    if chain[-1] != tuple(range(N, N + s_min + 1)):
        return False
    return all(b in covers_of(a, window) for a, b in zip(chain, chain[1:]))


def hook_count(window) -> int:
    """Maximal chains of the window, by the hook-length formula.

    Chains biject with standard numberings of the (N - M + 1) x (n + 1)
    grid minus the s_min + 1 cells fixed at the end of the bottom row:
    row lengths n + 1 repeated N - M times, then n - s_min.
    """
    n, M, N, s_min = window
    rows = [n + 1] * (N - M) + ([n - s_min] if n > s_min else [])
    if not rows:
        return 1
    heights = [sum(1 for r in rows if r > c) for c in range(rows[0])]
    hooks = 1
    for i, r in enumerate(rows):
        for c in range(r):
            hooks *= (r - c - 1) + (heights[c] - i - 1) + 1
    return factorial(sum(rows)) // hooks


def codimension(b: dict, n: int) -> int:
    """Number of leading Herzog-Kuhl equations sum (-1)^i b[i,j] j^m = 0."""
    s = 0
    while s <= n:
        if sum((-1) ** i * v * j**s for (i, j), v in b.items()):
            return s
        s += 1
    return s


def derived_window(b: dict, n: int) -> tuple:
    """(n, M, N, s_min): support rows and codimension, capped at n."""
    offsets = [j - i for i, j in b]
    return (n, min(offsets), max(offsets), min(codimension(b, n), n))


def single_element(window) -> bool:
    """The window holds exactly one pure diagram, pi(M, ..., M + n)."""
    n, M, N, s_min = window
    return M == N and s_min == n


def to_json(n: int, b: dict) -> str:
    """Diagram document in the library's JSON format, entries sorted."""
    entries = [[i, j, str(v)] for (i, j), v in sorted(b.items())]
    return json.dumps({"n": n, "entries": entries})
