# Hilbert series, multiplicity, and the shift bounds.
#
# The series of a diagram is S(t) / (1 - t)^n with S the alternating
# column generating polynomial.  Writing S = (1 - t)^s Q with s maximal,
# the multiplicity is Q(1).  For modules generated in degree zero the
# series is squeezed between the normalized pure series of the minimal
# and maximal shifts, giving e <= beta_0 * M_1 ... M_s / s!.

from pathlib import Path

from bettidecomp import (
    BettiDiagram,
    check_monotonicity,
    hilbert_series,
    multiplicity,
    multiplicity_bounds,
    normalize,
    parse_diagram,
    pure_diagram,
    shift_bounds,
)

fixture = Path(__file__).resolve().parent.parent / "fixtures" / "quotient_x2_xy_xz2.json"
quotient = parse_diagram(fixture.read_text(), "json")

h = hilbert_series(quotient)
print("numerator:", h.numerator)
print("hilbert function:", [str(v) for v in h.expand(8)])
print("multiplicity:", multiplicity(quotient))

sb = shift_bounds(quotient)
print("minimal shifts:", sb.minimal, " maximal shifts:", sb.maximal)

report = multiplicity_bounds(quotient, 12)
print("series squeeze holds:", report.lower_ok and report.upper_ok)
print(f"multiplicity bound: {report.multiplicity_value} <= {report.multiplicity_bound}",
      "(strict: not Cohen-Macaulay pure)" if not report.multiplicity_equality else "")

# The Koszul complex attains equality: e = 1 = 1 * (1*2*3) / 3!.
koszul = BettiDiagram(3, {(0, 0): 1, (1, 1): 3, (2, 2): 3, (3, 3): 1})
k = multiplicity_bounds(koszul, 12)
print("koszul equality:", k.multiplicity_equality, "pure:", k.is_pure)

# Series grow strictly along chains of normalized pure diagrams; that is
# what makes the squeeze work.
chain = [
    normalize(pure_diagram((0, 1, 2, 3), 3)),
    normalize(pure_diagram((0, 2, 3, 5), 3)),
    normalize(pure_diagram((0, 3, 5), 3)),
    normalize(pure_diagram((0, 3), 3)),
]
mono = check_monotonicity(chain, 20)
print("monotone along a chain of normalized diagrams:", mono.passed)
for pair in mono.pairs:
    print(f"  {pair.lower} -> {pair.upper}: nonnegative={pair.nonnegative}, strict={pair.strict}")
