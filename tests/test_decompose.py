"""Greedy chain decomposition and its verifier."""

import random
from fractions import Fraction
from math import lcm

import pytest

from bettidecomp import (
    BettiDiagram,
    Decomposition,
    Window,
    codimension,
    expand_in_chain,
    greedy_decompose,
    hilbert_series,
    maximal_chains,
    membership_by_inequalities,
    pure_diagram,
    verify_decomposition,
)
from bettidecomp import decompose
from bettidecomp.errors import InvalidDiagram, NotInCone
from bettidecomp.functionals import derived_window
from bettidecomp.poset import Chain


def terms_as_tuples(dec):
    return [(c, tuple(p.degrees)) for c, p in dec.terms]


class TestGreedyDecompose:
    def test_quotient_example(self, quotient_diagram):
        dec = greedy_decompose(quotient_diagram)
        assert terms_as_tuples(dec) == [
            (6, (0, 2, 3, 5)),
            (12, (0, 2, 4, 5)),
            (2, (0, 3, 4)),
            (1, (0, 3)),
        ]
        assert dec.reconstruct() == quotient_diagram

    def test_pure_diagram_is_single_term(self):
        b = pure_diagram((0, 2, 3, 5), 3).betti
        dec = greedy_decompose(b)
        assert terms_as_tuples(dec) == [(1, (0, 2, 3, 5))]

    def test_koszul(self):
        b = BettiDiagram(3, {(0, 0): 1, (1, 1): 3, (2, 2): 3, (3, 3): 1})
        assert terms_as_tuples(greedy_decompose(b)) == [(6, (0, 1, 2, 3))]

    def test_rejects_negative_entries(self):
        with pytest.raises(InvalidDiagram):
            greedy_decompose(BettiDiagram(2, {(0, 0): -1}))

    def test_names_the_first_negative_entry(self):
        b = BettiDiagram(2, {(2, 1): -3, (1, 4): Fraction(-1, 2), (0, 0): 1, (1, 2): 5})
        with pytest.raises(InvalidDiagram, match=r"^negative entry -1/2 at \(1, 4\)$"):
            greedy_decompose(b)

    def test_rejects_zero(self):
        with pytest.raises(InvalidDiagram):
            greedy_decompose(BettiDiagram(2, {}))

    def test_not_in_cone_carries_partial(self):
        # columns 0 and 1 share minimal degree 1: leading sequence fails
        b = BettiDiagram(2, {(0, 1): 1, (1, 1): 1})
        with pytest.raises(NotInCone) as info:
            greedy_decompose(b)
        assert info.value.reason == NotInCone.INVALID_LEADING_SEQUENCE
        assert info.value.residual == b
        assert info.value.partial == ()

    def test_missing_interior_column(self):
        b = BettiDiagram(2, {(0, 0): 1, (2, 4): 1})
        with pytest.raises(NotInCone):
            greedy_decompose(b)

    def test_codimension_monotone_chain(self, quotient_diagram):
        dec = greedy_decompose(quotient_diagram)
        codims = [p.codimension for _, p in dec.terms]
        assert codims == sorted(codims, reverse=True)
        assert codims[0] == quotient_diagram.projective_dimension()
        assert codims[-1] >= codimension(quotient_diagram)

    def test_integer_coefficients_on_integer_members(self):
        rng = random.Random(7)
        w = Window(3, 0, 2, 0)
        chains = list(maximal_chains(w))
        for _ in range(60):
            chain = rng.choice(chains)
            b = BettiDiagram(3, {})
            for p in rng.sample(list(chain.elements), rng.randint(1, 5)):
                scale = lcm(*(v.denominator for _, v in p.betti.items()))
                b = b + p.betti.scaled(scale * rng.randint(1, 4))
            dec = greedy_decompose(b)
            assert all(c.denominator == 1 for c, _ in dec.terms)
            assert dec.reconstruct() == b

    def test_agrees_with_chain_expansion(self):
        rng = random.Random(1234)
        w = Window(3, 0, 2, 0)
        chains = list(maximal_chains(w))
        for _ in range(40):
            chain = rng.choice(chains)
            picks = {k: Fraction(rng.randint(1, 8)) for k in rng.sample(range(len(chain)), 3)}
            b = BettiDiagram(3, {})
            for k, c in picks.items():
                b = b + chain[k].betti.scaled(c)
            dec = greedy_decompose(b)
            greedy_chain = Chain(tuple(p for _, p in dec.terms), w)
            refinement = next(c for c in chains if set(greedy_chain) <= set(c))
            coords = expand_in_chain(b, refinement)
            from_greedy = {tuple(p.degrees): c for c, p in dec.terms}
            for coord, element in zip(coords, refinement.elements):
                assert coord == from_greedy.get(tuple(element.degrees), 0)

    def test_membership_agreement(self, quotient_diagram):
        """Greedy succeeds exactly when all facet inequalities hold."""
        rng = random.Random(5150)
        cases = [quotient_diagram]
        w = Window(3, 0, 2, 0)
        chains = list(maximal_chains(w))
        for _ in range(25):
            chain = rng.choice(chains)
            b = BettiDiagram(3, {})
            for k in rng.sample(range(len(chain)), 3):
                b = b + chain[k].betti.scaled(rng.randint(1, 5))
            cases.append(b)
            entries = dict(b.items())
            pos = rng.choice(list(entries))
            entries[pos] = entries[pos] + Fraction(rng.randint(1, 3), rng.randint(2, 5))
            cases.append(BettiDiagram(3, entries))
        for b in cases:
            try:
                greedy_decompose(b)
                in_cone = True
            except NotInCone:
                in_cone = False
            assert membership_by_inequalities(b, derived_window(b)).member == in_cone

    def test_hilbert_series_additivity(self, quotient_diagram):
        dec = greedy_decompose(quotient_diagram)
        total = None
        for c, p in dec.terms:
            h = hilbert_series(p.betti).scaled(c)
            total = h if total is None else total + h
        assert total == hilbert_series(quotient_diagram)


class TestVerifyDecomposition:
    def test_quotient_verifies(self, quotient_diagram):
        dec = greedy_decompose(quotient_diagram)
        assert verify_decomposition(dec, quotient_diagram)

    def test_tampered_coefficient_fails(self, quotient_diagram):
        dec = greedy_decompose(quotient_diagram)
        tampered = Decomposition(
            ((Fraction(7), dec.terms[0][1]),) + dec.terms[1:], dec.n
        )
        result = verify_decomposition(tampered, quotient_diagram)
        assert not result and result.reason == "reconstruction"

    def test_random_cone_member_round_trip(self):
        rng = random.Random(31337)
        w = Window(2, 0, 2, 0)
        chains = list(maximal_chains(w))
        for _ in range(20):
            chain = rng.choice(chains)
            b = BettiDiagram(2, {})
            for k in rng.sample(range(len(chain)), 2):
                b = b + chain[k].betti.scaled(rng.randint(1, 6))
            dec = greedy_decompose(b)
            assert verify_decomposition(dec, b)

    def test_refines_without_enumerating_completions(self):
        # window (4, 0, 3, 0) has 1,662,804 maximal chains through both terms
        b = pure_diagram((0, 1, 2, 3, 4), 4).betti.scaled(24) + pure_diagram((3,), 4).betti
        dec = greedy_decompose(b)
        assert derived_window(b) == Window(4, 0, 3, 0)
        assert len(dec) == 2
        assert verify_decomposition(dec, b)

    def test_functional_mismatch(self, quotient_diagram, monkeypatch):
        # reconstruction holds, so only a dual functional that misreads a
        # coefficient can fail the check
        dec = greedy_decompose(quotient_diagram)
        real_rule, real_read = decompose._rule, decompose._read
        seen = []

        def rule(d0, p1, down, up, w):
            seen.append(p1)
            return real_rule(d0, p1, down, up, w)

        def misread(rule, entries, M):
            total = real_read(rule, entries, M)
            return total if len(seen) < 3 else total + 1

        monkeypatch.setattr(decompose, "_rule", rule)
        monkeypatch.setattr(decompose, "_read", misread)
        result = verify_decomposition(dec, quotient_diagram)
        assert not result and result.reason == "functional_mismatch"
        assert seen == dec.diagrams()[:3]

    def test_wrong_diagram_fails(self, quotient_diagram):
        dec = greedy_decompose(quotient_diagram)
        other = BettiDiagram(3, {(0, 0): 1})
        assert not verify_decomposition(dec, other)
