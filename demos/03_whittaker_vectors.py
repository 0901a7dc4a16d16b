"""Classifying the Whittaker vectors of a truncated slice.

whittaker_space assembles, over an exact rational nullspace, every
vector in a finite slice of the module on which all positive generators
act by their type values.  The expected answer is the line C[z] w and
nothing else, for every nonsingular type.
"""

import time

from whitmod import PsiSpec, Truncation, whittaker_space

trunc = Truncation(cap=(0, 3), entries=[(0, 1), (0, 2), (0, 3)], kmax=2, rmax=3)
print("slice: cap %s, entries %s, kmax %d, rmax %d -> %d monomials" % (
    trunc.cap, trunc.entries, trunc.kmax, trunc.rmax, len(trunc.basis())))

for values in [(1, 1, 1), (2, 3, 5), (1, -1, 7)]:
    spec = PsiSpec.of(*values)
    t0 = time.time()
    space = whittaker_space(trunc, spec)
    dt = time.time() - t0
    print()
    print("psi = %s  (%.2fs): %d Whittaker vectors" % (values, dt, len(space)))
    for v in space:
        print("  %s" % v)
