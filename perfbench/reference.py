"""Reference answers that do not share the library's solver code.

The module action itself (``whitmod.act``) is the object under study, so
the references use it, but they never call ``solver``'s elimination, span,
reduction or gcd code: they have their own slice membership test, their
own Fraction echelon and their own polynomial gcd.
"""

from fractions import Fraction

import whitmod

# Type values: d1(0,1) -> s1, d2(0,1) -> s2, d2(0,2) -> s3, every other
# positive generator -> 0.
_TYPE_SLOTS = {(1, (0, 1)): 0, (2, (0, 1)): 1, (2, (0, 2)): 2}


def expected_space(rmax):
    """The classification: the space is exactly {z^r w : r <= rmax}."""
    return {whitmod.basis_vector(r=r) for r in range(rmax + 1)}


def type_value(i, alpha, psi):
    """psi(d_i(alpha)) for a positive generator, psi a triple of Fractions."""
    slot = _TYPE_SLOTS.get((i, tuple(alpha)))
    return Fraction(0) if slot is None else Fraction(psi[slot])


def poly_times_w(coeffs):
    """The vector sum_r coeffs[r] z^r w."""
    out = whitmod.ModuleVector()
    for r, c in enumerate(coeffs):
        if c:
            out = out + whitmod.basis_vector(r=r, coeff=c)
    return out


def replay(v, steps, psi):
    """Apply each recorded (d_i(alpha) - psi(d_i(alpha)))^exponent to v.

    ``steps`` are the JSON steps of a reduction transcript; the type value
    is recomputed here, and a step whose recorded value disagrees raises.
    """
    spec = whitmod.PsiSpec.of(*psi)
    for step in steps:
        i, alpha = step["op"]["i"], tuple(step["op"]["alpha"])
        value = type_value(i, alpha, psi)
        if whitmod.Scalar.from_json(step["psi"]) != value:
            raise ValueError("transcript records the wrong type value at %r" % (step,))
        gen = whitmod.d(i, alpha)
        for _ in range(step["exponent"]):
            v = whitmod.act(gen, v, spec) - value * v
    return v


def in_slice(mono, trunc):
    """Slice membership, from the truncation's parameters alone."""
    entries = tuple(mono.lam) + tuple(mono.mu)
    if mono.k > trunc.kmax or mono.r > trunc.rmax:
        return False
    if any(e not in trunc.entries for e in entries):
        return False
    if trunc.lmax is not None and len(entries) > trunc.lmax:
        return False
    total = (sum(e[0] for e in entries), sum(e[1] for e in entries))
    return total <= tuple(trunc.cap)


def _column(mono):
    # Pure z^r w columns sort after every mixed column, so a reduced row
    # whose pivot is pure has no mixed entries at all.
    if not mono.lam and not mono.mu and not mono.k:
        return (1, mono.r)
    return (0, tuple(mono.lam), tuple(mono.mu), mono.k, mono.r)


def _insert(echelon, vec):
    """Reduce vec against the echelon; store it if new.  True when new."""
    row = {_column(m): c.as_fraction() for m, c in vec.terms()}
    while row:
        lead = min(row)
        pivot = echelon.get(lead)
        if pivot is None:
            inv = 1 / row[lead]
            echelon[lead] = {c: q * inv for c, q in row.items()}
            return True
        f = row.pop(lead)
        for c, q in pivot.items():
            if c != lead:
                nv = row.get(c, 0) - f * q
                if nv:
                    row[c] = nv
                else:
                    row.pop(c, None)
    return False


def _poly_rem(a, b):
    a = list(a)
    while len(a) >= len(b):
        f = a[-1] / b[-1]
        shift = len(a) - len(b)
        for j, q in enumerate(b):
            a[shift + j] -= f * q
        a.pop()
        while a and not a[-1]:
            a.pop()
    return a


def _monic(a):
    return [q / a[-1] for q in a]


def _poly_gcd(a, b):
    while b:
        a, b = b, _poly_rem(a, b)
    return _monic(a)


def pure_ideal(gen, trunc, spec):
    """Monic generator (coefficients, lowest first) of the ideal of pure
    rows in the slice span of the submodule generated by ``gen``, or None
    when the span holds no pure row.

    The span is searched the way the library defines it: from the seed,
    expanding the last new vector found first, with the raising operators
    of the induced box, the lowering operators of the entry pool and
    d2(0,0), d1(0,0); images leaving the slice are dropped and only new
    directions are expanded.
    """
    ops = [whitmod.d(i, alpha) for alpha in trunc.induced_box() for i in (1, 2)]
    ops += [whitmod.d(i, (-e[0], -e[1])) for e in trunc.entries for i in (1, 2)]
    ops += [whitmod.d(2, (0, 0)), whitmod.d(1, (0, 0))]

    def inside(v):
        return all(in_slice(m, trunc) for m, _ in v.terms())

    echelon = {}
    queue = []
    if gen and inside(gen) and _insert(echelon, gen):
        queue.append(gen)
    while queue:
        cur = queue.pop()
        for op in ops:
            img = whitmod.act(op, cur, spec)
            if img and inside(img) and _insert(echelon, img):
                queue.append(img)
    g = None
    for lead, row in echelon.items():
        if lead[0] != 1:
            continue
        coeffs = [Fraction(0)] * (1 + max(r for _, r in row))
        for (_, r), q in row.items():
            coeffs[r] = q
        g = coeffs if g is None else _poly_gcd(g, coeffs)
    return None if g is None else _monic(g)
