# The poset of pure diagrams in a window, its chains, and numberings.
#
# Restricting degrees to M + i <= d_i <= N + i gives a finite poset with
# a unique minimum and maximum.  Maximal chains all have the same length,
# and correspond bijectively to numberings of the display grid that
# increase to the left and downwards (the order in which grid cells are
# vacated on the way up).  So the chains are counted by the hook-length
# formula, without listing them.

from bettidecomp import (
    Window,
    chain_from_tableau,
    chain_length,
    count_maximal_chains,
    leq,
    maximal_chains,
    pure_diagram,
    tableau_from_chain,
)

w = Window(n=2, M=0, N=1, s_min=0)
print("window n=2, rows [0, 1]:")
print("  chain length:", chain_length(w))          # 3 * 1 + 2 + 1 = 6
print("  maximal chains:", count_maximal_chains(w))  # 5

for k, chain in enumerate(maximal_chains(w), start=1):
    degrees = " < ".join(str(tuple(p.degrees)) for p in chain)
    print(f"  chain {k}: {degrees}")
    for row in tableau_from_chain(chain).rows:
        print("      ", row)

# The order: longer sequences with smaller degrees sit below.
a = pure_diagram((0, 1, 2), 2)
b = pure_diagram((0, 2), 2)
print("pi(0,1,2) <= pi(0,2):", leq(a, b))
print("pi(0,2) <= pi(0,1,2):", leq(b, a))

# Rebuilding a chain from its numbering round-trips.
t = tableau_from_chain(next(iter(maximal_chains(w))))
chain = chain_from_tableau(t, w)
print("round trip ok:", tableau_from_chain(chain) == t)

# The 12-element window used throughout the functional demos:
big = Window(n=3, M=0, N=2, s_min=0)
print("n=3, rows [0, 2]: chain length", chain_length(big),
      "with", count_maximal_chains(big), "maximal chains")

# The count needs no enumeration, however many chains there are:
huge = Window(n=6, M=0, N=5, s_min=0)
print("n=6, rows [0, 5]:", count_maximal_chains(huge), "maximal chains")  # 9490348077234178440
