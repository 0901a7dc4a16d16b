"""Acceptance gate: ten end-to-end checks with hard time budgets.

Every test prints exactly one verdict line (the project's -rA default
makes them visible in the run summary) and fails loudly if the check or
its budget is missed.
"""

import random
import time
from fractions import Fraction

from whitmod.cli import main as cli_main
from whitmod.coeff import SYMBOLIC, PsiSpec, Scalar, ZPoly, poly_gcd
from whitmod.liecore import (
    LieElt,
    bracket,
    bracket_decomposition,
    d,
    expand_decomposition,
    is_positive,
    weight_cmp,
)
from whitmod.orders import TRIPLE_MIN
from whitmod.solver import (
    RULES,
    Truncation,
    _measure_of,
    _slice_span,
    random_instance,
    reduce_to_whittaker,
    simplicity_probe,
    submodule_generator,
    verify_lemma,
    whittaker_space,
)
from whitmod.textio import parse_lie, parse_scalar, parse_vector
from whitmod.wmod import ModuleVector, act, act_word, basis_vector, w_vector

PSI123 = PsiSpec.of(1, 2, 3)


def _verdict(n, ok, t0, budget, detail=""):
    elapsed = time.time() - t0
    ok = bool(ok) and elapsed < budget
    print("criterion %d: %s in %.1fs (budget %ds)%s"
          % (n, "PASS" if ok else "FAIL", elapsed, budget, detail))
    assert ok, "criterion %d failed" % n


def test_criterion_1_bracket_axioms():
    t0 = time.time()
    rng = random.Random(0xC1)
    ok = True
    for _ in range(1000):
        x, y, z = (
            d(rng.randint(1, 2), (rng.randint(-4, 4), rng.randint(-4, 4)))
            for _ in range(3)
        )
        if bracket(x, y) + bracket(y, x):
            ok = False
            break
        jac = (bracket(x, bracket(y, z)) + bracket(y, bracket(z, x))
               + bracket(z, bracket(x, y)))
        if jac:
            ok = False
            break
    _verdict(1, ok, t0, 30, " (antisymmetry and Jacobi, 1000 triples)")


def test_criterion_2_decomposition_round_trip():
    t0 = time.time()
    ok = True
    count = 0
    for a1 in range(-5, 6):
        for a2 in range(-5, 6):
            alpha = (a1, a2)
            if not is_positive(alpha) or weight_cmp(alpha, (0, 2)) <= 0:
                continue
            for i in (1, 2):
                count += 1
                parts = bracket_decomposition(i, alpha)
                if expand_decomposition(parts) != d(i, alpha):
                    ok = False
                raw = expand_decomposition(
                    bracket_decomposition(i, alpha, corrected=False))
                expected = 2 * d(i, alpha) if (i == 2 and a2 > 2) else d(i, alpha)
                if raw != expected:
                    ok = False
    _verdict(2, ok, t0, 10, " (%d generators, uncorrected factor-2 checked)" % count)


def test_criterion_3_action_respects_bracket():
    t0 = time.time()
    rng = random.Random(0xC3)
    pool = [
        (1, (0, 1)), (2, (0, 2)), (1, (0, -1)), (2, (0, -2)),
        (1, (-1, 1)), (2, (-1, 0)), (1, (0, 0)), (2, (0, 0)),
    ]
    ok = True
    for _ in range(200):
        v = act_word([rng.choice(pool) for _ in range(rng.randint(0, 4))], w_vector())
        x = d(rng.randint(1, 2), (rng.randint(-1, 1), rng.randint(-2, 2)))
        y = d(rng.randint(1, 2), (rng.randint(-1, 1), rng.randint(-2, 2)))
        lhs = act(x, act(y, v)) - act(y, act(x, v))
        if lhs != act(bracket(x, y), v):
            ok = False
            break
    _verdict(3, ok, t0, 120, " (200 symbolic commutator checks)")


def test_criterion_4_omega_defect_drops():
    t0 = time.time()
    rng = random.Random(0xC4)
    ok = True
    for _ in range(200):
        report = verify_lemma(random_instance("3.5", rng))
        if not report.passed or report.computed:
            ok = False
            break
    _verdict(4, ok, t0, 60, " (200 random instances)")


def test_criterion_5_whittaker_classification():
    t0 = time.time()
    trunc = Truncation(
        (0, 4), [(0, 1), (0, 2), (0, 3), (1, -1), (1, 0), (1, 1)], kmax=2, rmax=3)
    expected = {basis_vector(r=r) for r in range(4)}
    ok = len(trunc.basis()) == 432
    for spec in (PsiSpec.of(1, 1, 1), PsiSpec.of(2, 3, 5)):
        space = whittaker_space(trunc, spec)
        ok = ok and set(space) == expected
    _verdict(5, ok, t0, 300, " (432-monomial slice, two types)")


def test_criterion_6_rule_verification():
    t0 = time.time()
    rng = random.Random(0xC6)
    ok = True
    flagged = {"3.8.1", "3.11.2", "3.11.3"}
    seen_errata = set()
    for ident in sorted(RULES):
        for _ in range(50):
            report = verify_lemma(random_instance(ident, rng))
            if not report.passed:
                ok = False
            if report.errata:
                seen_errata.add(ident)
    ok = ok and seen_errata == flagged
    _verdict(6, ok, t0, 300, " (9 rules x 50 instances, errata on %s)"
             % ", ".join(sorted(seen_errata)))


def test_criterion_7_reduction_terminates_and_replays():
    t0 = time.time()
    rng = random.Random(0xC7)
    pool = [
        (1, (0, -1)), (1, (0, -2)), (1, (-1, 1)), (2, (0, -1)),
        (2, (0, -2)), (2, (-1, 0)), (2, (0, 0)), (1, (0, 0)),
    ]
    ok = True
    done = 0
    draws = 0
    while done < 100 and draws < 400:
        draws += 1
        word = [rng.choice(pool) for _ in range(rng.randint(1, 4))]
        v = act_word(word, w_vector(), PSI123)
        if not v:
            continue
        done += 1
        poly, transcript = reduce_to_whittaker(v, PSI123)
        if poly.degree is None:
            ok = False
            break
        expected = ModuleVector()
        for r, c in enumerate(poly.coeffs):
            if c:
                expected = expected + c * basis_vector(r=r)
        if transcript.replay(v, PSI123) != expected:
            ok = False
            break
        from whitmod.wmod import degree_of

        measures = [_measure_of(degree_of(v)[0])]
        measures += [_measure_of(step.degree_after) for step in transcript]
        if any(not b < a for a, b in zip(measures, measures[1:])):
            ok = False
            break
    ok = ok and done == 100
    _verdict(7, ok, t0, 300, " (100 reductions, replay exact, measure descends)")


def _pure_ideal_oracle(span, trunc):
    """Monic gcd of the span's fully pure rows (z-polynomial vectors).

    Echelonizes with the pure z^r w columns ordered last, so any row
    whose leading column lands in the pure block has no mixed support at
    all and reads off directly as a polynomial.
    """
    monos = trunc.basis()
    mixed = [m for m in monos if m.triple != TRIPLE_MIN]
    pure = [m for m in monos if m.triple == TRIPLE_MIN]
    order = {m: j for j, m in enumerate(mixed)}
    base = len(mixed)
    for j, m in enumerate(pure):
        order[m] = base + j
    echelon = {}
    for vec in span:
        row = {order[m]: c.as_fraction() for m, c in vec.terms()}
        while row:
            lead = min(row)
            prow = echelon.get(lead)
            if prow is None:
                inv = Fraction(1) / row[lead]
                echelon[lead] = {c: q * inv for c, q in row.items()}
                break
            f = row.pop(lead)
            for c, q in prow.items():
                if c == lead:
                    continue
                nv = row.get(c, Fraction(0)) - f * q
                if nv:
                    row[c] = nv
                else:
                    row.pop(c, None)
    g = None
    for lead, row in echelon.items():
        if lead < base:
            continue
        coeffs = [Fraction(0)] * (trunc.rmax + 1)
        for c, q in row.items():
            coeffs[pure[c - base].r] = q
        p = ZPoly([Scalar.rational(q) for q in coeffs])
        g = p if g is None else poly_gcd(g, p)
    return None if g is None else g.monic()


def test_criterion_8_submodule_generator_against_oracle():
    t0 = time.time()
    trunc = Truncation((0, 3), [(0, 1), (0, 2)], kmax=3, rmax=6)
    pool = [(1, (0, -1)), (2, (0, -1)), (2, (0, 0)), (1, (0, 0))]
    ok = True
    for seed in range(7000, 7020):
        rng = random.Random(seed)
        while True:
            deg = rng.randint(0, 3)
            coeffs = [Scalar.rational(rng.randint(-3, 3)) for _ in range(deg)]
            g = ZPoly(coeffs + [Scalar.rational(1)])
            gw = ModuleVector()
            for r, c in enumerate(g.coeffs):
                if c:
                    gw = gw + c * basis_vector(r=r)
            word = [rng.choice(pool) for _ in range(rng.randint(0, 2))]
            gen = act_word(word, gw, PSI123)
            if gen and trunc.contains_vector(gen):
                break
        computed = submodule_generator([gen], trunc, PSI123)
        oracle = _pure_ideal_oracle(_slice_span([gen], trunc, PSI123), trunc)
        if oracle is None or computed != oracle:
            ok = False
            break
    _verdict(8, ok, t0, 600, " (20 seeded cases vs pure-row oracle)")


def test_criterion_9_quotient_probes():
    t0 = time.time()
    trunc = Truncation((0, 3), [(0, 1), (0, 2), (0, 3)], kmax=2, rmax=0)
    monos = trunc.basis()
    ok = len(monos) == 54
    for mono in monos:
        v = basis_vector(mono.lam, mono.mu, mono.k, mono.r)
        c = simplicity_probe(v, 2, PSI123)
        if not c or not c.is_rational():
            ok = False
            break
    _verdict(9, ok, t0, 300, " (54 slice probes at a=2, all nonzero)")


def test_criterion_10_io_round_trips_and_exit_codes(capsys, monkeypatch):
    t0 = time.time()
    monkeypatch.delenv("WHIT_PSI", raising=False)
    ok = True

    fixtures = [
        (0, ["nf", "w"]),
        (1, ["reduce", "w - w"]),
        (2, ["nf", "q w"]),
        (3, ["probe", "h2 w", "--a", "2"]),
        (4, ["reduce", "d1(0,-1) d1(0,-2) w", "--max-steps", "1"]),
    ]
    for expected_code, argv in fixtures:
        code = cli_main(argv)
        capsys.readouterr()
        if code != expected_code:
            ok = False

    rng = random.Random(0xC10)
    lie_pool = [(1, (0, 1)), (2, (0, 2)), (1, (-1, 3)), (2, (4, -2)),
                (1, (0, 0)), (2, (0, 0))]
    vec_pool = [(1, (-1, 0)), (2, (0, -2)), (2, (0, 0)), (1, (0, 0)), (1, (0, 1))]

    def rand_scalar():
        total = Scalar.rational(rng.randint(-4, 4))
        for _ in range(rng.randint(0, 2)):
            mon = Scalar.rational(Fraction(rng.randint(1, 5), rng.randint(1, 3)))
            for _ in range(rng.randint(1, 2)):
                mon = mon * Scalar.generator(rng.randint(1, 3))
            total = total + (mon if rng.random() < 0.5 else -mon)
        return total

    trips = 0
    while trips < 30:
        x = LieElt()
        for i, alpha in rng.sample(lie_pool, rng.randint(1, 4)):
            x = x + d(i, alpha, rand_scalar())
        if not x:
            continue
        trips += 1
        if parse_lie(str(x)) != x or LieElt.from_json(x.to_json()) != x:
            ok = False
    while trips < 70:
        word = [rng.choice(vec_pool) for _ in range(rng.randint(0, 4))]
        v = rand_scalar() * act_word(word, w_vector())
        if not v:
            continue
        trips += 1
        if parse_vector(str(v)) != v or ModuleVector.from_json(v.to_json()) != v:
            ok = False
    while trips < 100:
        s = rand_scalar()
        if not s:
            continue
        trips += 1
        if parse_scalar(str(s)) != s or Scalar.from_json(s.to_json()) != s:
            ok = False

    _verdict(10, ok, t0, 30, " (100 text+JSON round trips, 5 exit-code fixtures)")
