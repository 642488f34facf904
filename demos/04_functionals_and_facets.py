# Dual functionals, boundary facets, convexity, membership.
#
# A maximal chain is a basis of the window subspace; each basis element
# has an integer dual functional reading off its coefficient.  The chain
# subsets missing one element with a unique completion are the boundary
# facets of the simplicial fan, and their functionals are nonnegative on
# every diagram in the cone: membership becomes a finite inequality test
# with certificates.

from pathlib import Path

from bettidecomp import (
    Tableau,
    Window,
    boundary_facets,
    chain_from_tableau,
    coefficient_functional,
    membership_by_inequalities,
    parse_diagram,
    verify_fan_convexity,
)
from bettidecomp.functionals import derived_window

w = Window(n=3, M=0, N=2, s_min=0)
numbering = Tableau(((10, 4, 3, 1), (11, 6, 5, 2), (12, 9, 8, 7)))
chain = chain_from_tableau(numbering, w)

# The functional dual to the fifth chain element pi(0, 2, 3, 5):
f5 = coefficient_functional(chain[3], chain[4], chain[5], w)
print("functional of element 5 (case", f5.case.value + "):")
for row in f5.grid():
    print("  ", row)

fixture = Path(__file__).resolve().parent.parent / "fixtures" / "quotient_x2_xy_xz2.json"
quotient = parse_diagram(fixture.read_text(), "json")
print("applied to the quotient diagram:", f5(quotient))  # 6

# Boundary facets of the fan, one per distinct hyperplane, by kind:
facets = boundary_facets(w)
by_kind = {}
for facet in facets:
    by_kind.setdefault(facet.kind.value, 0)
    by_kind[facet.kind.value] += 1
print("boundary facets:", len(facets), by_kind)

# Convexity, verified extensionally: every facet functional >= 0 on every
# pure diagram of the window.
report = verify_fan_convexity(w)
print("fan convex:", report.passed,
      f"({report.facets_checked} facets x {report.diagrams_checked} diagrams)")

# Membership with certificate: drop the first syzygies from the quotient
# table and one of the facet inequalities goes negative.
print("quotient is a member:", membership_by_inequalities(quotient, derived_window(quotient)).member)

entries = dict(quotient.items())
del entries[(1, 2)]
from bettidecomp import BettiDiagram

broken = BettiDiagram(3, entries)
result = membership_by_inequalities(broken, derived_window(broken))
print("broken table is a member:", result.member)
print("violated functional value:", result.value, "at facet kind", result.violated.kind.value)
