"""The three workloads: seeded inputs, timed operations, independent checks.

A workload is built once per session from its seed (set-up) and then hands
out the session's operations, the same list for every session of a seed.
Each operation has a ``kind``, a ``run`` callable that is the only timed
part, and a ``check`` that compares the answer with a route computed by the
benchmark itself; ``check`` returns ``None`` when the answer is right and a
one-line reason otherwise.

* ``tables``: integer Betti tables generated in degree zero, one chain each,
  plus the shipped quotient fixture: parse -> greedy -> emit -> bounds.
* ``cone``: members and near-misses over a fixed pool of windows; cone
  membership by inequalities, greedy + verification, chain expansion.
* ``windows``: in-process CLI runs over a fixed list of windows: chain
  counts, chain listings, facet listings and fan verification.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

import gen

HERE = Path(__file__).resolve().parent

# The fixture's decomposition is the paper's worked example.
FIXTURE = "fixtures/quotient_x2_xy_xz2.json"
FIXTURE_TERMS = [
    (Fraction(6), (0, 2, 3, 5)),
    (Fraction(12), (0, 2, 4, 5)),
    (Fraction(2), (0, 3, 4)),
    (Fraction(1), (0, 3)),
]


@dataclass
class Op:
    kind: str
    label: str
    run: Callable[[], object]
    check: Callable[[object], str | None]


def _terms(dec) -> list:
    return [(c, tuple(p.degrees)) for c, p in dec.terms]


class Tables:
    """A seeded stream of integer tables generated in degree zero.

    n in 3..12, width N - M in 1..6, 1..12 elements of one chain with random
    integer weights, and the shipped fixture first.  Within a session almost
    every degree sequence is new, and no chain is ever enumerated.
    """

    SESSION = 400

    def __init__(self, lib, seed: int, root: Path):
        self.lib = lib
        self.rng = random.Random(seed)
        self.fixture = (root / FIXTURE).read_text(encoding="utf-8")

    def _table(self):
        rng = self.rng
        n = rng.randint(3, 12)
        window = (n, 0, rng.randint(1, 6), rng.randint(0, n))
        chain = gen.walk(rng, window, first=1)
        k = rng.randint(1, min(12, len(chain)))
        picks = sorted(rng.sample(range(len(chain)), k))
        terms = [(Fraction(rng.randint(1, 9) * gen.pure_lcm(chain[p])), chain[p]) for p in picks]
        return n, terms

    def _op(self, label: str, text: str, terms) -> Op:
        lib = self.lib

        def run():
            b = lib.io.parse_diagram(text, "json")
            dec = lib.decompose.greedy_decompose(b)
            emitted = lib.io.emit_decomposition(dec)
            return dec, emitted, lib.hilbert.multiplicity_bounds(b).passed

        expected_json = [[str(c), list(d)] for c, d in terms]

        def check(result):
            dec, emitted, passed = result
            if _terms(dec) != terms:
                return "greedy terms differ from the generating chain"
            if json.loads(emitted) != expected_json:
                return "emitted decomposition differs from the generating chain"
            if not passed:
                return "multiplicity bounds report a violation on a cone member"
            return None

        return Op("pipeline", label, run, check)

    def ops(self) -> list[Op]:
        out = [self._op("fixture", self.fixture, FIXTURE_TERMS)]
        for k in range(1, self.SESSION):
            n, terms = self._table()
            out.append(self._op(f"table {k}", gen.to_json(n, gen.combination(terms)), terms))
        return out


# Window pool for ``cone``: n <= 6, sized so the seed builds every facet
# set of the pool within a few seconds.  Two single-element windows hold
# the multiples of one Koszul-type pure diagram.
CONE_WINDOWS = [
    (2, 0, 0, 2),
    (3, 0, 0, 3),
    (2, 0, 1, 0),
    (2, 0, 2, 1),
    (3, 0, 1, 0),
    (3, 0, 2, 2),
    (3, 0, 2, 1),
    (4, 0, 1, 0),
    (4, 0, 2, 3),
    (5, 0, 1, 2),
    (6, 0, 1, 2),
]


@dataclass
class ConeInput:
    window: tuple
    chain: list
    picks: list
    terms: list
    member: object
    near: object
    near_entries: dict
    near_label: bool


class Cone:
    """Members and near-misses of the pool windows, four query kinds.

    A member is a positive integer combination of elements of a random
    maximal chain of its window, always including the window's minimum and
    maximum, so its derived window is the pool window.  A near-miss is a
    member minus an integer multiple of a pure diagram of that window,
    resampled until its derived window is again the pool window, so every
    run builds the same facet sets.  Its label comes from greedy
    decomposition at set-up.
    """

    PER_WINDOW = 10

    def __init__(self, lib, seed: int, root: Path):
        self.lib = lib
        rng = random.Random(seed)
        self.order_rng = random.Random(seed + 1)
        self.inputs = {w: [self._input(rng, w, q % 5) for q in range(self.PER_WINDOW)] for w in CONE_WINDOWS}

    def _greedy_label(self, n: int, entries: dict) -> bool:
        lib = self.lib
        try:
            lib.decompose.greedy_decompose(lib.core.BettiDiagram(n, entries))
        except (lib.errors.InvalidDiagram, lib.errors.NotInCone):
            return False
        return True

    def _input(self, rng, window, k: int) -> ConeInput:
        """A member with k interior chain elements besides the two ends."""
        n = window[0]
        chain = gen.walk(rng, window)
        last = len(chain) - 1
        interior = rng.sample(range(1, last), min(k, max(last - 1, 0)))
        picks = sorted({0, last, *interior})
        terms = [(Fraction(rng.randint(1, 9) * gen.pure_lcm(chain[p])), chain[p]) for p in picks]
        member = gen.combination(terms)
        if gen.derived_window(member, n) != window:
            raise RuntimeError(f"member generated outside its window {window}")
        seqs = gen.window_sequences(window)
        for _ in range(1000):
            d = rng.choice(seqs)
            near = dict(member)
            gen.add_scaled(near, d, -rng.randint(1, 9) * gen.pure_lcm(d))
            if near and gen.derived_window(near, n) == window:
                break
        else:
            raise RuntimeError(f"no near-miss found in window {window}")
        BettiDiagram = self.lib.core.BettiDiagram
        return ConeInput(
            window,
            chain,
            picks,
            terms,
            BettiDiagram(n, member),
            BettiDiagram(n, near),
            near,
            self._greedy_label(n, near),
        )

    def _membership(self, kind: str, label: str, b, expected: bool) -> Op:
        fn = self.lib.functionals

        def run():
            return fn.membership_by_inequalities(b, fn.derived_window(b)).member

        def check(member):
            return None if member == expected else f"membership says {member}, greedy says {expected}"

        return Op(kind, label, run, check)

    def _verify(self, label: str, x: ConeInput) -> Op:
        dec_mod = self.lib.decompose

        def run():
            dec = dec_mod.greedy_decompose(x.member)
            return dec, dec_mod.verify_decomposition(dec, x.member)

        def check(result):
            dec, verdict = result
            if _terms(dec) != x.terms:
                return "greedy terms differ from the generating chain"
            return None if verdict.ok else f"verify_decomposition failed: {verdict.reason}"

        return Op("verify", label, run, check)

    def _expand(self, label: str, x: ConeInput) -> Op:
        lib = self.lib
        window = lib.poset.Window(*x.window)
        n = x.window[0]
        coefficient = dict(zip(x.picks, (c for c, _ in x.terms)))
        expected = [coefficient.get(k, 0) for k in range(len(x.chain))]

        def run():
            chain = lib.poset.Chain(tuple(lib.core.pure_diagram(s, n) for s in x.chain), window)
            return lib.functionals.expand_in_chain(x.member, chain)

        def check(coords):
            return None if coords == expected else "chain coordinates differ from the generating weights"

        return Op("expand", label, run, check)

    def ops(self) -> list[Op]:
        out = []
        for w, inputs in self.inputs.items():
            label = f"window {w} input"
            for q, x in enumerate(inputs):
                out.append(self._membership("member", f"{label} {q} member", x.member, True))
                if not gen.single_element(w):
                    out.append(self._membership("near_miss", f"{label} {q} near-miss", x.near, x.near_label))
                out.append(self._verify(f"{label} {q}", x))
                out.append(self._expand(f"{label} {q}", x))
        self.order_rng.shuffle(out)
        return out

    def defect_probe(self) -> list[str]:
        """Near-misses of single-element windows that membership accepts.

        Known defect: ``_boundary_facets_cached`` skips one-element chains,
        so a window holding a single pure diagram gets no inequality at all
        and ``membership_by_inequalities`` accepts every diagram of it,
        negative multiples of that diagram included.  These inputs stay out
        of the timed stream, whose operations must not fail, and are run
        here after timing so the defect shows in every ``cone`` run.
        """
        fn = self.lib.functionals
        wrong = []
        for w, inputs in self.inputs.items():
            if not gen.single_element(w):
                continue
            for x in inputs:
                verdict = fn.membership_by_inequalities(x.near, fn.derived_window(x.near)).member
                if verdict != x.near_label:
                    entries = {f"{i},{j}": str(v) for (i, j), v in sorted(x.near_entries.items())}
                    wrong.append(f"window {w}: member={verdict}, greedy={x.near_label}, entries {entries}")
        return wrong

    def probe_size(self) -> int:
        return sum(len(v) for w, v in self.inputs.items() if gen.single_element(w))


# Windows for ``windows``: n <= 4, width <= 3, every s_min of each (n, width)
# pair listed, capped where the seed lists, builds and verifies a window's
# facets within about 0.3 s, so one session stays near 3 s.  ``COUNT_ONLY``
# adds larger windows (24,024 and 60,060 chains) that only the count runs on.
def _all_s(pairs):
    return [(n, 0, width, s) for n, width in pairs for s in range(n + 1)]


WINDOWS = _all_s([(1, 1), (1, 2), (1, 3), (2, 1), (2, 2), (3, 1), (4, 1)]) + [
    (2, 0, 3, 2),
    (3, 0, 2, 1),
    (3, 0, 2, 2),
    (3, 0, 2, 3),
    (4, 0, 2, 4),
]
COUNT_ONLY = [(3, 0, 3, 0), (4, 0, 3, 3)]
COMMANDS = ["count", "list", "facets", "verify-fan"]
_ARGV = {
    "count": ("chains", "--count-only"),
    "list": ("chains",),
    "facets": ("facets",),
    "verify-fan": ("verify-fan",),
}
REFERENCE = HERE / "reference" / "facet_grids.json"


def window_key(w) -> str:
    return ",".join(map(str, w))


def load_reference() -> dict:
    doc = json.loads(REFERENCE.read_text(encoding="utf-8"))
    return {key: {tuple(map(tuple, g)) for g in grids} for key, grids in doc.items()}


class Windows:
    """Whole-window CLI commands, stdout captured in memory."""

    def __init__(self, lib, seed: int, root: Path):
        self.lib = lib
        self.order_rng = random.Random(seed)
        self.grids = load_reference()
        self.counts = {w: gen.hook_count(w) for w in WINDOWS + COUNT_ONLY}
        self.diagrams = {w: len(gen.window_sequences(w)) for w in WINDOWS}
        self.stdout_bytes = 0

    def _argv(self, w, command) -> list[str]:
        n, M, N, s = w
        sub, *flags = _ARGV[command]
        return ["--format", "json", sub, "--n", str(n), "--M", str(M), "--N", str(N), "--s", str(s), *flags]

    def _check(self, w, command, out: str) -> str | None:
        if command == "count":
            return None if int(out) == self.counts[w] else "count differs from the hook-length formula"
        doc = json.loads(out)
        if command == "list":
            chains = [tuple(map(tuple, c)) for c in doc]
            if len(chains) != self.counts[w] or len(set(chains)) != len(chains):
                return "listing does not hold each maximal chain once"
            if not all(gen.is_maximal_chain(c, w) for c in chains):
                return "listing holds a sequence that is not a maximal chain"
            return None
        if command == "facets":
            grids = {tuple(map(tuple, f["grid"])) for f in doc}
            return None if grids == self.grids[window_key(w)] else "facet functionals differ from the reference"
        if not doc["passed"] or doc["diagrams_checked"] != self.diagrams[w]:
            return "fan verification did not pass over every pure diagram"
        return None

    def _op(self, w, command) -> Op:
        argv = self._argv(w, command)
        cli = self.lib.cli

        def run():
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = cli.run(argv)
            return code, buf.getvalue()

        def check(result):
            code, out = result
            self.stdout_bytes += len(out)
            return f"exit code {code}" if code != 0 else self._check(w, command, out)

        return Op(command, f"{command} {w}", run, check)

    def ops(self) -> list[Op]:
        """A seeded interleaving of ``WINDOWS``; each window runs its
        commands in ``COMMANDS`` order, so ``facets`` always pays the cold
        facet build and the operations cost the same for every seed.  The
        large counts come last, once every facet set is built, so the
        session's memory peak does not depend on the order either."""
        slots = [w for w in WINDOWS for _ in COMMANDS]
        self.order_rng.shuffle(slots)
        pending = {w: list(COMMANDS) for w in WINDOWS}
        pairs = [(w, pending[w].pop(0)) for w in slots] + [(w, "count") for w in COUNT_ONLY]
        return [self._op(w, c) for w, c in pairs]


WORKLOADS = {"tables": Tables, "cone": Cone, "windows": Windows}
