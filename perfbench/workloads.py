"""The three workloads: inputs, timed job and reference check.

Each workload has four steps.  ``make_inputs`` runs in run.py and
turns a seed into JSON; ``build`` runs in the fresh worker process and is
the end of set-up; ``job`` is the timed section and returns one output
per case; ``check`` compares the outputs with references outside the
timed section and returns how many checks it made and one failure
message per failed check.

Every library call goes through a module attribute at call time
(``whitmod.act``, not a name bound at import), so tracing sees it.  Only
the public API is used.
"""

import contextlib
import hashlib
import io
import json
import random
from fractions import Fraction
from typing import Callable, NamedTuple

import whitmod
import whitmod.cli

import reference

PSI123 = (1, 2, 3)
DEFAULT_SEED = 1

# Criterion 5's slice with rmax lowered from 3 to 0 (108 monomials).
# Jobs of a few seconds let a run take the median of several, which
# this benchmark needs on a machine whose speed varies from one
# ten-second stretch to the next.
CLASSIFY_ENTRIES = [(0, 1), (0, 2), (0, 3), (1, -1), (1, 0), (1, 1)]

# Each ideal case is criterion 8's recipe with its degree and operator
# word fixed, so the seed only picks the (nonzero) coefficients of g:
# the span explored, and with it the work, is then the same for every
# seed, and run-to-run spread is the machine's, not the inputs'.  Both
# cases share their degree and word, so the first fills the act cache
# and the second runs on it warm.  The slice's rmax is lowered from 4 to
# 3 (192 monomials) so that a job takes a few seconds, as classify's does.
IDEAL_SLOTS = [(2, [(1, (0, -1)), (2, (0, 0))])] * 2

# Criterion 7's operator pool for the vectors handed to `whit reduce`.
# The words are drawn from it once, by a generator of their own, so every
# seed reduces the same words and pays for the same straightening; the
# seed picks each vector's multiple and the order of the calls.  The
# multiples are positive: a text that starts with "-" reads to argparse
# as an option unless it follows "--".
# `whit verify` runs with a fixed seed for the same reason: the size of
# its random instances, and with it the work, changes by up to 8% from
# one seed to the next, which a comparison across seeds would read as
# noise.
REDUCE_WORDS_SEED = 1
VERIFY_SEED = 1
REDUCE_POOL = [
    (1, (0, -1)), (1, (0, -2)), (1, (-1, 1)), (2, (0, -1)),
    (2, (0, -2)), (2, (-1, 0)), (2, (0, 0)), (1, (0, 0)),
]

SIZES = {
    "full": {
        "classify": {"cap": (0, 4), "entries": CLASSIFY_ENTRIES, "kmax": 2, "rmax": 0,
                     "types": 2},
        "ideal": {"cap": (0, 3), "entries": [(0, 1), (0, 2)], "kmax": 2, "rmax": 3,
                  "slots": IDEAL_SLOTS},
        "cli": {"verify": 50, "reduce": 100},
    },
    # A few seconds in all, for the benchmark's own tests.
    "tiny": {
        "classify": {"cap": (0, 2), "entries": [(0, 1), (0, 2)], "kmax": 1, "rmax": 1,
                     "types": 2},
        "ideal": {"cap": (0, 2), "entries": [(0, 1), (0, 2)], "kmax": 1, "rmax": 2,
                  "slots": IDEAL_SLOTS[:1]},
        "cli": {"verify": 1, "reduce": 4},
    },
}

ERRATA = {"3.8.1", "3.11.2", "3.11.3"}

# sha256 of everything the cli workload prints at the full size and the
# default seed, recorded from the library as it stood when the benchmark
# was written.  The output format must not change.
CLI_DIGEST = "c42d9397902133effdbf4456855e6e28c30f3ea40352a0c68c5e6624ecee3dfd"


class Failed:
    """The output of a case that raised."""

    def __init__(self, exc):
        self.text = "%s: %s" % (type(exc).__name__, exc)

    def __str__(self):
        return "raised " + self.text


def _slice_of(cfg):
    return {k: cfg[k] for k in ("cap", "entries", "kmax", "rmax")}


def _truncation(cfg):
    return whitmod.Truncation(cfg["cap"], cfg["entries"], cfg["kmax"], cfg["rmax"])


def _cases(fn, items):
    out = []
    for item in items:
        try:
            out.append(fn(item))
        except Exception as exc:  # a case that raises is a failed case, not a crash
            out.append(Failed(exc))
    return out


# ---------------------------------------------------------------------------
# classify: whittaker_space under two seeded nonsingular types


def _classify_inputs(seed, cfg):
    rng = random.Random(seed)
    values = (-3, -2, -1, 1, 2, 3)
    types = []
    while len(types) < cfg["types"]:
        t = [rng.choice(values) for _ in range(3)]
        if t not in types:
            types.append(t)
    return {"slice": _slice_of(cfg), "types": types}


def _classify_build(inputs):
    return {"trunc": _truncation(inputs["slice"]),
            "specs": [whitmod.PsiSpec.of(*t) for t in inputs["types"]]}


def _classify_job(built):
    return _cases(lambda spec: whitmod.whittaker_space(built["trunc"], spec), built["specs"])


def _classify_render(space):
    return str(space) if isinstance(space, Failed) else "; ".join(str(v) for v in space)


def _classify_check(built, outputs):
    expected = reference.expected_space(built["trunc"].rmax)
    failures = []
    for spec, space in zip(built["specs"], outputs):
        if isinstance(space, Failed) or len(space) != len(expected) or set(space) != expected:
            failures.append("classify %s: got %s" % (spec, _classify_render(space)))
    return len(outputs), failures


# ---------------------------------------------------------------------------
# ideal: submodule_generator over a seeded batch of generators


def _ideal_inputs(seed, cfg):
    rng = random.Random(seed)
    spec = whitmod.PsiSpec.of(*PSI123)
    trunc = _truncation(cfg)
    gens = []
    for deg, word in cfg["slots"]:
        for _ in range(100):
            coeffs = [rng.choice((-3, -2, -1, 1, 2, 3)) for _ in range(deg)] + [1]
            gen = whitmod.act_word(word, reference.poly_times_w(coeffs), spec)
            if gen and trunc.contains_vector(gen):
                gens.append(gen.to_json())
                break
        else:
            raise RuntimeError("no in-slice generator for slot %r" % ((deg, word),))
    return {"slice": _slice_of(cfg), "gens": gens}


def _ideal_build(inputs):
    return {"trunc": _truncation(inputs["slice"]),
            "spec": whitmod.PsiSpec.of(*PSI123),
            "gens": [whitmod.ModuleVector.from_json(g) for g in inputs["gens"]]}


def _ideal_job(built):
    trunc, spec = built["trunc"], built["spec"]
    return _cases(lambda gen: whitmod.submodule_generator([gen], trunc, spec), built["gens"])


def _ideal_check(built, outputs):
    failures = []
    for gen, poly in zip(built["gens"], outputs):
        expected = reference.pure_ideal(gen, built["trunc"], built["spec"])
        got = None if isinstance(poly, Failed) else [c.as_fraction() for c in poly.coeffs]
        if expected is None or got != expected:
            failures.append("ideal of %s: got %s, oracle %s" % (gen, poly, expected))
    return len(outputs), failures


# ---------------------------------------------------------------------------
# cli: `whit verify all` then `whit reduce` on seeded vectors, in process


def _reduce_words(count):
    rng = random.Random(REDUCE_WORDS_SEED)
    spec = whitmod.PsiSpec.of(*PSI123)
    words = []
    while len(words) < count:
        # word lengths cycle through 1..4
        word = [rng.choice(REDUCE_POOL) for _ in range(1 + len(words) % 4)]
        if whitmod.act_word(word, whitmod.w_vector(), spec):
            words.append(word)
    return words


def _reduce_vector(case, spec):
    word, multiple = case
    return whitmod.act_word(word, whitmod.w_vector(), spec) * multiple


def _cli_inputs(seed, cfg):
    rng = random.Random(seed)
    spec = whitmod.PsiSpec.of(*PSI123)
    cases = [[word, rng.choice((1, 2, 3))] for word in _reduce_words(cfg["reduce"])]
    rng.shuffle(cases)
    texts = [str(_reduce_vector(case, spec)) for case in cases]
    return {"verify": cfg["verify"], "cases": cases, "texts": texts,
            "digest": CLI_DIGEST if seed == DEFAULT_SEED and cfg == SIZES["full"]["cli"] else None}


def _cli_build(inputs):
    psi = ",".join(str(p) for p in PSI123)
    argvs = [["verify", "all", "--random", str(inputs["verify"]),
              "--seed", str(VERIFY_SEED), "--format", "json"]]
    argvs += [["reduce", text, "--psi", psi, "--format", "json"] for text in inputs["texts"]]
    return {"argvs": argvs, "inputs": inputs}


def _run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = whitmod.cli.main(argv)
        except SystemExit as exc:  # argparse refused the command line
            code = exc.code if isinstance(exc.code, int) else 1
    return code, out.getvalue(), err.getvalue()


def _cli_job(built):
    return _cases(_run_cli, built["argvs"])


def _cli_render(result):
    return str(result) if isinstance(result, Failed) else "%d\n%s" % (result[0], result[1])


def _cli_check(built, outputs):
    inputs = built["inputs"]
    failures = []
    verify = outputs[0]
    if isinstance(verify, Failed) or verify[0] != 0:
        failures.append("verify: %s" % _cli_render(verify))
    else:
        data = json.loads(verify[1])
        errata = {r["lemma"] for r in data["reports"] if r["errata"]}
        bad = [r["lemma"] for r in data["reports"] if not (r["match"] and r["filtration_ok"])]
        if data["failures"] or bad or errata != ERRATA:
            failures.append("verify: %d failure(s) %s, errata on %s"
                            % (data["failures"], bad, sorted(errata)))
    spec = whitmod.PsiSpec.of(*PSI123)
    psi = [Fraction(p) for p in PSI123]
    for case, result in zip(inputs["cases"], outputs[1:]):
        if isinstance(result, Failed) or result[0] != 0:
            failures.append("reduce %s: %s" % (case, _cli_render(result)))
            continue
        data = json.loads(result[1])
        coeffs = [whitmod.Scalar.from_json(c) for c in data["poly"]["coeffs"]]
        v = _reduce_vector(case, spec)
        try:
            replayed = reference.replay(v, data["transcript"]["steps"], psi)
        except ValueError as exc:
            failures.append("reduce %s: %s" % (case, exc))
            continue
        if not any(coeffs) or replayed != reference.poly_times_w(coeffs):
            failures.append("reduce %s: replay gives %s, poly %s" % (case, replayed, coeffs))
    if inputs["digest"] is not None:
        text = "".join(r[1] for r in outputs if not isinstance(r, Failed))
        digest = hashlib.sha256(text.encode()).hexdigest()
        if digest != inputs["digest"]:
            failures.append("cli stdout digest %s, recorded %s" % (digest, inputs["digest"]))
    return len(outputs) + (inputs["digest"] is not None), failures


class Workload(NamedTuple):
    make_inputs: Callable
    build: Callable
    job: Callable
    render: Callable  # one case output as text, for digests
    check: Callable
    # Spans the job must fire: its entry points and the action.  One that
    # stays silent means tracing missed a binding.  Inner layers that a
    # refactor may route around are reported but not required.
    spans: tuple


WORKLOADS = {
    "classify": Workload(_classify_inputs, _classify_build, _classify_job, _classify_render,
                         _classify_check, ("solver.whittaker_space", "wmod.act")),
    "ideal": Workload(_ideal_inputs, _ideal_build, _ideal_job, str, _ideal_check,
                      ("solver.submodule_generator", "solver.reduce_to_whittaker",
                       "wmod.act")),
    "cli": Workload(_cli_inputs, _cli_build, _cli_job, _cli_render, _cli_check,
                    ("cli.main", "textio.parse_vector", "solver.verify_lemma",
                     "solver.random_instance", "solver.reduce_to_whittaker", "wmod.act")),
}


def make_inputs(name, seed, size):
    return WORKLOADS[name].make_inputs(seed, SIZES[size][name])
