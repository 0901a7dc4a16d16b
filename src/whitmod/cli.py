"""Command line front end.

Exposes the calculator over plain text::

    whit bracket "d1(0,1)" "d2(0,-1)"
    whit act "d1(0,1)" "w"
    whit nf "d2(-1,2) d1(0,-1) h2 w"
    whit wvectors --cap 0,2 --entries "0,1;0,2" --kmax 2 --rmax 2 --psi 1,1,1
    whit reduce "h2 w"
    whit ideal "d1(0,-1) z w - 2 * d1(0,-1) w" --cap 0,3 --entries "0,1;0,2" \
        --kmax 2 --rmax 5 --psi 1,2,3
    whit quotient-act "d2(0,2)" "h2 w" --a 2 --psi 1,2,3
    whit probe "h2 w" --a 2 --psi 1,2,3
    whit verify lemma3.8.1 --random 20 --seed 7

Vector and operator arguments use the text grammar of ``textio``; an
argument starting with ``{`` is instead decoded from the JSON schema the
``--format json`` output produces.  ``--psi`` takes either ``symbolic``
or three comma-separated rationals; when absent, the ``WHIT_PSI``
environment variable is consulted before defaulting to symbolic.  The
rationals of ``--psi`` and ``--a`` are written ``p/q`` or as decimals;
exponent notation is refused.  An integer in the input, in these, in
``--cap``/``--entries``, in the integer flags (``--kmax``, ``--rmax``,
``--lmax``, ``--max-steps``, ``--random``, ``--seed``) or in the text
grammar, is written in the ASCII digits 0-9 only and may have at most
Python's bound on int digits (4300 by default); outputs are printed
exactly, at any size.  Operators are of the rank-two algebra: a JSON
operator whose weight is not two integers is malformed input.

Every command but ``bracket`` takes ``--psi``; every command takes
``--format``.

Exit codes: 0 success, 1 verification or probe failure, 2 malformed
input, 3 singular (zero or unspecialized where values are needed) type,
4 internal invariant violation, 141 standard output closed before all
of it was written (128 + SIGPIPE, the code a shell gives a process the
signal ends; nothing is printed to stderr).
"""

import argparse
import functools
import json
import os
import random
import sys

from .coeff import SingularPsi
from .liecore import LieElt, bracket
from .textio import ParseError, parse_int, parse_lie, parse_psi, parse_rational, parse_vector
from .wmod import ModuleVector, ZeroVector, NonDescent, act
from .solver import (
    NonTermination,
    ProbeFailed,
    HypothesisViolated,
    Truncation,
    whittaker_space,
    reduce_to_whittaker,
    quotient_act,
    simplicity_probe,
    submodule_generator,
    RULES,
    verify_lemma,
    random_instance,
)

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_PARSE = 2
EXIT_SINGULAR = 3
EXIT_INTERNAL = 4
EXIT_PIPE = 141


def _psi_of(args):
    text = args.psi
    if text is None:
        text = os.environ.get("WHIT_PSI")
    if text is None:
        text = "symbolic"
    return parse_psi(text)


def _decoded(text, what, from_json, parse):
    """text decoded by from_json when it starts with '{', else read by parse."""
    text = text.strip()
    if not text.startswith("{"):
        return parse(text)
    try:
        return from_json(json.loads(text))
    except (ValueError, KeyError, TypeError, RecursionError) as e:
        raise ParseError("bad %s JSON: %s" % (what, e), 0, ())


def _lie_arg(text):
    return _decoded(text, "operator", LieElt.from_json, parse_lie)


def _vector_arg(text, psi):
    return _decoded(text, "vector", ModuleVector.from_json, lambda t: parse_vector(t, psi))


def _int_flag(text, flag, minimum=None):
    """The value of an integer flag, read by parse_int, at least minimum if given."""
    try:
        value = parse_int(text)
    except ParseError as e:
        raise ParseError("%s: %s" % (flag, e), 0, ()) from None
    if minimum is not None and value < minimum:
        raise ParseError("%s must be at least %d, got %d" % (flag, minimum, value), 0, ())
    return value


def _pair(text):
    parts = text.split(",")
    if len(parts) != 2:
        raise ParseError("expected a,b with two integers, got %d comma-separated parts"
                         % len(parts), 0, ())
    return (parse_int(parts[0]), parse_int(parts[1]))


def _entries(text):
    out = []
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if chunk:
            out.append(_pair(chunk))
    if not out:
        raise ParseError("the entry pool cannot be empty", 0, ())
    return out


def _truncation(args):
    cap, entries = _pair(args.cap), _entries(args.entries)
    kmax, rmax = _int_flag(args.kmax, "--kmax"), _int_flag(args.rmax, "--rmax")
    lmax = None if args.lmax is None else _int_flag(args.lmax, "--lmax")
    try:
        return Truncation(cap=cap, entries=entries, kmax=kmax, rmax=rmax, lmax=lmax)
    except ValueError as e:
        raise ParseError(str(e), 0, ())


def _unbounded_output():
    """Lift Python's bound on the digits of an int printed from here on.

    The bound stays while the arguments are read, so an oversized input
    integer is a parse error; the results, computed exactly, may exceed
    it.  main restores the bound before it returns.
    """
    sys.set_int_max_str_digits(0)


def _emit(args, value, json_key=None):
    """Print value as text, or its JSON (wrapped under json_key when given)."""
    _unbounded_output()
    if args.format == "json":
        data = value.to_json()
        print(json.dumps({json_key: data} if json_key else data))
    else:
        print(value)


def _transcript_lines(transcript):
    lines = []
    for idx, step in enumerate(transcript, 1):
        lines.append("  %2d. rule %-7s op d%d(%d,%d)  psi %s  exponent %d  -> deg %s" % (
            idx, step.rule, step.i, step.alpha[0], step.alpha[1],
            step.psi_value, step.exponent, step.degree_after))
    return lines


def _cmd_bracket(args):
    _emit(args, bracket(_lie_arg(args.x), _lie_arg(args.y)))
    return EXIT_OK


def _cmd_act(args):
    psi = _psi_of(args)
    x = _lie_arg(args.x)
    v = _vector_arg(args.vector, psi)
    _emit(args, act(x, v, psi))
    return EXIT_OK


def _cmd_nf(args):
    psi = _psi_of(args)
    v = _vector_arg(args.vector, psi)
    _emit(args, v)
    return EXIT_OK


def _cmd_wvectors(args):
    psi = _psi_of(args)
    trunc = _truncation(args)
    space = whittaker_space(trunc, psi)
    _unbounded_output()
    if args.format == "json":
        print(json.dumps({"truncation": trunc.to_json(),
                          "size": len(space),
                          "space": [v.to_json() for v in space]}))
    else:
        print("%d whittaker vector(s) in the slice" % len(space))
        for v in space:
            print("  %s" % v)
    return EXIT_OK


def _cmd_reduce(args):
    max_steps = _int_flag(args.max_steps, "--max-steps", 1)
    psi = _psi_of(args)
    v = _vector_arg(args.vector, psi)
    poly, transcript = reduce_to_whittaker(v, psi, max_steps=max_steps)
    _unbounded_output()
    if args.format == "json":
        print(json.dumps({"poly": poly.to_json(),
                          "transcript": transcript.to_json()}))
    else:
        print("poly: %s" % poly)
        print("steps: %d" % len(transcript))
        for line in _transcript_lines(transcript):
            print(line)
    return EXIT_OK


def _cmd_ideal(args):
    psi = _psi_of(args)
    trunc = _truncation(args)
    gens = [_vector_arg(t, psi) for t in args.vectors]
    _emit(args, submodule_generator(gens, trunc, psi), "poly")
    return EXIT_OK


def _cmd_quotient_act(args):
    psi = _psi_of(args)
    x = _lie_arg(args.x)
    v = _vector_arg(args.vector, psi)
    _emit(args, quotient_act(x, v, parse_rational(args.a), psi))
    return EXIT_OK


def _cmd_probe(args):
    psi = _psi_of(args)
    v = _vector_arg(args.vector, psi)
    c = simplicity_probe(v, parse_rational(args.a), psi)
    _emit(args, c)
    if not c:
        return EXIT_MISMATCH
    return EXIT_OK


def _verify_target(text):
    name = text.strip().lower()
    if name == "all":
        return sorted(RULES)
    if name.startswith("lemma"):
        name = name[len("lemma"):]
    name = name.strip()
    if name not in RULES:
        raise ParseError(
            "unknown rule %r; use 'all' or one of %s" % (text, sorted(RULES)), 0, ())
    return [name]


def _cmd_verify(args):
    trials = _int_flag(args.random, "--random", 0)
    seed = _int_flag(args.seed, "--seed")
    psi = _psi_of(args)
    idents = _verify_target(args.target)
    rng = random.Random(seed)
    reports = []
    for ident in idents:
        for trial in range(trials):
            inst = random_instance(ident, rng)
            reports.append((trial, verify_lemma(inst, psi, stated=args.stated)))
    failures = sum(1 for _, r in reports if not r.passed)
    _unbounded_output()
    if args.format == "json":
        print(json.dumps({
            "mode": "stated" if args.stated else "verified",
            "failures": failures,
            "reports": [r.to_json() for _, r in reports],
        }))
    else:
        for trial, r in reports:
            status = "PASS" if r.passed else "FAIL"
            print("%-7s [%2d] match=%-5s filtration=%-5s %s" % (
                r.ident, trial, r.match, r.filtration_ok, status))
            for note in (r.errata if not trial else ()):
                print("          note: %s" % note)
        print("%d instance(s), %d failure(s)" % (len(reports), failures))
    return EXIT_MISMATCH if failures else EXIT_OK


def _add_format(sp):
    sp.add_argument("--format", choices=("text", "json"), default="text",
                    help="output format (default text)")


def _add_common(sp):
    _add_format(sp)
    sp.add_argument("--psi", default=None,
                    help="type values p1,p2,p3 (rationals) or 'symbolic'; "
                         "falls back to the WHIT_PSI environment variable")


def _add_truncation_flags(sp):
    sp.add_argument("--cap", required=True, help="weight-sum cap a,b")
    sp.add_argument("--entries", required=True,
                    help="pool of partition entries, e.g. '0,1;0,2'")
    sp.add_argument("--kmax", required=True, help="largest h2 exponent")
    sp.add_argument("--rmax", required=True, help="largest z exponent")
    sp.add_argument("--lmax", default=None,
                    help="bound on the total number of partition entries "
                         "(required when the cap's first component is positive)")


@functools.lru_cache(maxsize=1)
def build_parser():
    """The command line parser, built on first use and then shared; each
    parse_args call still reads into a fresh namespace."""
    parser = argparse.ArgumentParser(
        prog="whit",
        description="Exact Whittaker-module calculator for the derivation "
                    "algebra of the rank-two torus.")
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("bracket", help="bracket of two Lie elements")
    sp.add_argument("x")
    sp.add_argument("y")
    _add_format(sp)
    sp.set_defaults(func=_cmd_bracket)

    sp = sub.add_parser("act", help="act by a Lie element on a vector")
    sp.add_argument("x")
    sp.add_argument("vector")
    _add_common(sp)
    sp.set_defaults(func=_cmd_act)

    sp = sub.add_parser("nf", help="normal form of a vector expression")
    sp.add_argument("vector")
    _add_common(sp)
    sp.set_defaults(func=_cmd_nf)

    sp = sub.add_parser("wvectors", help="whittaker vectors of a truncated slice")
    _add_truncation_flags(sp)
    _add_common(sp)
    sp.set_defaults(func=_cmd_wvectors)

    sp = sub.add_parser("reduce", help="reduce a vector to a z-polynomial times w")
    sp.add_argument("vector")
    sp.add_argument("--max-steps", default="10000",
                    help="step cap, at least 1 (default 10000)")
    _add_common(sp)
    sp.set_defaults(func=_cmd_reduce)

    sp = sub.add_parser("ideal", help="monic generator of a submodule's ideal")
    sp.add_argument("vectors", nargs="+")
    _add_truncation_flags(sp)
    _add_common(sp)
    sp.set_defaults(func=_cmd_ideal)

    sp = sub.add_parser("quotient-act", help="act in the quotient where z = a")
    sp.add_argument("x")
    sp.add_argument("vector")
    sp.add_argument("--a", required=True, help="rational value of z")
    _add_common(sp)
    sp.set_defaults(func=_cmd_quotient_act)

    sp = sub.add_parser("probe", help="simplicity probe in the quotient where z = a")
    sp.add_argument("vector")
    sp.add_argument("--a", required=True, help="rational value of z")
    _add_common(sp)
    sp.set_defaults(func=_cmd_probe)

    sp = sub.add_parser("verify", help="check congruence rules on random instances")
    sp.add_argument("target", help="'all', a rule id like 3.8.1, or lemma3.8.1")
    sp.add_argument("--random", default="5", metavar="N",
                    help="instances per rule, at least 0 (default 5)")
    sp.add_argument("--seed", default="0")
    sp.add_argument("--stated", action="store_true",
                    help="check the printed coefficients verbatim instead of "
                         "the computation-backed ones")
    _add_common(sp)
    sp.set_defaults(func=_cmd_verify)

    return parser


def _discard_stdout():
    """Point the process's standard output at os.devnull, so that the
    interpreter's last flush of what is still buffered for the closed
    reader succeeds instead of reporting a second BrokenPipeError.  An
    in-memory stream has no descriptor and is left as it is."""
    try:
        fd = sys.stdout.fileno()
    except (AttributeError, OSError, ValueError):
        return
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, fd)
    os.close(devnull)


def main(argv=None):
    args = build_parser().parse_args(argv)
    digits = sys.get_int_max_str_digits()
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed reader shows here, not at exit
        return code
    except BrokenPipeError:
        _discard_stdout()
        return EXIT_PIPE
    except ParseError as e:
        print("parse error: %s" % e, file=sys.stderr)
        return EXIT_PARSE
    except SingularPsi as e:
        print("singular type: %s" % e, file=sys.stderr)
        return EXIT_SINGULAR
    except (ZeroVector, ProbeFailed) as e:
        print("probe failure: %s" % e, file=sys.stderr)
        return EXIT_MISMATCH
    except (NonDescent, NonTermination, HypothesisViolated) as e:
        print("internal invariant violation: %s" % e, file=sys.stderr)
        return EXIT_INTERNAL
    finally:
        sys.set_int_max_str_digits(digits)


if __name__ == "__main__":
    sys.exit(main())
