"""Bracket arithmetic in the derivation algebra of the rank-two torus.

The algebra has basis d_i(alpha) for i in {1, 2} and alpha in Z^2, with

    [d_i(a), d_j(b)] = b_i d_j(a+b) - a_j d_i(a+b).

Two degenerate weights matter constantly: z = d1(0,0) and h2 = d2(0,0).
z is not central; it commutes exactly with the generators whose weight
has first component zero.
"""

from whitmod import bracket, bracket_decomposition, d, expand_decomposition, triangular_part

z = d(1, (0, 0))
h2 = d(2, (0, 0))

print("some brackets:")
for x, y in [
    (d(1, (1, 1)), d(1, (-1, -1))),
    (d(2, (0, 2)), d(2, (0, -1))),
    (d(1, (0, 1)), d(2, (0, -1))),
    (d(2, (1, 0)), d(1, (0, 1))),
]:
    print("  [%s, %s] = %s" % (x, y, bracket(x, y)))

print()
print("z is not central:")
for x in [d(1, (1, 2)), d(2, (-3, 0)), d(1, (0, 5))]:
    print("  [%s, z] = %s" % (x, bracket(x, z)))

print()
print("h2 reads off the second weight component:")
for x in [d(2, (0, 3)), d(1, (2, -1))]:
    print("  [%s, h2] = %s" % (x, bracket(x, h2)))

print()
print("triangular parts: (0,3) is %s, (-1,2) is %s, (0,0) is %s" % (
    triangular_part((0, 3)), triangular_part((-1, 2)), triangular_part((0, 0))))

# Every positive generator above the base weights decomposes through
# brackets of strictly smaller positive generators.  The two-term
# combination that is sometimes written down for i = 2 overshoots by a
# factor of two once alpha_2 > 2; the corrected form is a single scaled
# bracket.
print()
alpha = (1, 4)
for i in (1, 2):
    parts = bracket_decomposition(i, alpha)
    print("d%d%s = %s" % (i, alpha, " + ".join(
        "%s*[%s, %s]" % (c, x, y) for c, x, y in parts)))
    assert expand_decomposition(parts) == d(i, alpha)

raw = expand_decomposition(bracket_decomposition(2, alpha, corrected=False))
print("uncorrected two-term form for d2%s sums to %s  (twice the target)" % (alpha, raw))
