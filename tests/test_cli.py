import io
import json
import os
import subprocess
import sys
from fractions import Fraction

import pytest

from whitmod.cli import main
from whitmod.coeff import MAX_EXPONENT, PsiSpec, Scalar, ZPoly
from whitmod.liecore import LieElt, bracket, d
from whitmod.solver import quotient_act, simplicity_probe
from whitmod.textio import parse_lie, parse_vector
from whitmod.wmod import MAX_WORD_LENGTH, ModuleVector, act_word, basis_vector, w_vector

PSI123 = PsiSpec.of(1, 2, 3)
SLICE_FLAGS = ["--cap", "0,2", "--entries", "0,1;0,2", "--kmax", "1", "--rmax", "2"]


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_bracket_text(capsys):
    code, out, _ = run(capsys, "bracket", "d1(0,1)", "d2(0,-1)")
    assert code == 0
    assert parse_lie(out.strip()) == bracket(d(1, (0, 1)), d(2, (0, -1)))


def test_bracket_takes_no_psi(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["bracket", "d1(0,1)", "d2(0,-1)", "--psi", "garbage"])
    assert exc.value.code == 2
    assert "--psi" in capsys.readouterr().err


def test_bracket_json(capsys):
    code, out, _ = run(capsys, "bracket", "d1(1,1)", "d1(-1,-1)", "--format", "json")
    assert code == 0
    assert LieElt.from_json(json.loads(out)) == -2 * d(1, (0, 0))


def test_act(capsys):
    code, out, _ = run(capsys, "act", "d1(0,1)", "w", "--psi", "1,2,3")
    assert code == 0
    assert parse_vector(out.strip(), PSI123) == w_vector()


def test_nf_and_json_round_trip(capsys):
    code, out, _ = run(capsys, "nf", "d2(-1,2) d1(0,-1) h2 w")
    assert code == 0
    expected = act_word([(2, (-1, 2)), (1, (0, -1)), (2, (0, 0))], w_vector())
    assert parse_vector(out.strip()) == expected
    # the JSON output feeds back in as an input argument
    code, out, _ = run(capsys, "nf", "d2(-1,2) d1(0,-1) h2 w", "--format", "json")
    assert code == 0
    code, out2, _ = run(capsys, "nf", out.strip())
    assert code == 0
    assert parse_vector(out2.strip()) == expected


def test_nf_zero_prints_zero(capsys):
    code, out, _ = run(capsys, "nf", "w - w")
    assert code == 0
    assert out.strip() == "0"


def test_wvectors(capsys):
    code, out, _ = run(capsys, "wvectors", *SLICE_FLAGS, "--psi", "1,1,1")
    assert code == 0
    assert out.splitlines()[0].startswith("3 whittaker vector(s)")
    code, out, _ = run(capsys, "wvectors", *SLICE_FLAGS, "--psi", "2,3,5",
                       "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["size"] == 3
    for item in data["space"]:
        v = ModuleVector.from_json(item)
        for mono, _ in v.terms():
            assert mono.k == 0 and not mono.lam and not mono.mu


def test_reduce_text_and_json(capsys):
    code, out, _ = run(capsys, "reduce", "h2 w")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("poly:")
    assert lines[1] == "steps: 1"
    code, out, _ = run(capsys, "reduce", "h2 w", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert ZPoly.from_json(data["poly"]) == ZPoly([Scalar.rational(-2) * Scalar.generator(3)])
    assert len(data["transcript"]["steps"]) == 1
    assert data["transcript"]["steps"][0]["rule"] == "3.7"


def test_ideal(capsys):
    code, out, _ = run(
        capsys, "ideal", "d1(0,-1) z w - 2 * d1(0,-1) w",
        "--cap", "0,3", "--entries", "0,1;0,2", "--kmax", "2", "--rmax", "5",
        "--psi", "1,2,3")
    assert code == 0
    assert out.strip() == str(ZPoly([Scalar.rational(-2), Scalar.rational(1)]))


def test_quotient_act(capsys):
    code, out, _ = run(capsys, "quotient-act", "d2(0,2)", "h2 w",
                       "--a", "2", "--psi", "1,2,3")
    assert code == 0
    expected = quotient_act(d(2, (0, 2)), basis_vector(k=1), 2, PSI123)
    assert parse_vector(out.strip(), PSI123) == expected


def test_probe(capsys):
    code, out, _ = run(capsys, "probe", "h2 w", "--a", "2", "--psi", "1,2,3")
    assert code == 0
    assert out.strip() == "-6"


def test_verify_single_rule(capsys):
    code, out, _ = run(capsys, "verify", "lemma3.8.1", "--random", "3", "--seed", "7")
    assert code == 0
    lines = out.splitlines()
    assert sum(1 for l in lines if "PASS" in l) == 3
    assert any("note:" in l for l in lines)
    assert lines[-1].endswith("0 failure(s)")


def test_verify_all_json(capsys):
    code, out, _ = run(capsys, "verify", "all", "--random", "1", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["failures"] == 0
    assert len(data["reports"]) == 9


def test_verify_stated_mode_fails(capsys):
    code, out, _ = run(capsys, "verify", "3.11.3", "--random", "2", "--stated")
    assert code == 1
    assert "FAIL" in out
    code, out, _ = run(capsys, "verify", "lemma3.11.2", "--random", "1", "--stated")
    assert code == 1
    # 3.8.1's statement itself is sound, so stated mode still passes
    code, out, _ = run(capsys, "verify", "3.8.1", "--random", "2", "--stated")
    assert code == 0


def test_parse_error_exit(capsys):
    code, _, err = run(capsys, "nf", "q w")
    assert code == 2
    assert "parse error" in err
    code, _, err = run(capsys, "verify", "3.99")
    assert code == 2
    code, _, err = run(capsys, "quotient-act", "z", "w", "--a", "two")
    assert code == 2


def test_main_twice_in_one_process(capsys):
    code, out, _ = run(capsys, "reduce", "h2 w", "--psi", "1,2,3", "--max-steps", "5",
                       "--format", "json")
    assert code == 0
    json.loads(out)
    # the flags of the first call do not carry over to the second
    code, out, _ = run(capsys, "reduce", "h2 w")
    assert code == 0
    assert out.startswith("poly: ")


@pytest.mark.parametrize("cap", ["0", "-1"])
def test_nonpositive_step_cap_is_a_parse_error(capsys, cap):
    code, out, err = run(capsys, "reduce", "h2 w", "--max-steps", cap)
    assert code == 2
    assert out == ""
    assert err.startswith("parse error: ") and err.count("\n") == 1


LONG_WORD = "z " + "d1(-1,0) " * 1199 + "w"
LONG_JSON = json.dumps(basis_vector(k=1500).to_json())


@pytest.mark.parametrize("argv", [
    ["nf", LONG_WORD],
    ["act", "d1(0,1)", LONG_JSON],
    # the parser refuses the power before it builds the word
    ["nf", "d1(-1,0)^%d w" % 10 ** 30],
], ids=["text", "json", "huge-power"])
def test_word_over_the_bound_is_a_parse_error(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("parse error: ") and err.count("\n") == 1


def test_word_at_the_bound_straightens(capsys):
    code, out, _ = run(capsys, "nf", "z d1(-1,0)^%d w" % (MAX_WORD_LENGTH - 1), "--format", "json")
    assert code == 0
    lam = [(1, 0)] * (MAX_WORD_LENGTH - 1)
    # [z, d1(-1,0)] = -d1(-1,0), paid once per factor z moves past
    expected = basis_vector(lam, r=1) - (MAX_WORD_LENGTH - 1) * basis_vector(lam)
    assert ModuleVector.from_json(json.loads(out)) == expected


def test_singular_type_exit(capsys):
    code, _, err = run(capsys, "wvectors", *SLICE_FLAGS)
    assert code == 3
    assert "singular" in err
    code, _, err = run(capsys, "probe", "h2 w", "--a", "2")
    assert code == 3
    code, _, err = run(capsys, "wvectors", *SLICE_FLAGS, "--psi", "1,0,3")
    assert code == 3


def test_probe_failure_exit(capsys):
    code, _, err = run(capsys, "reduce", "w - w")
    assert code == 1
    assert "probe failure" in err
    code, _, err = run(capsys, "probe", "z w - 2 * w", "--a", "2", "--psi", "1,2,3")
    assert code == 1


def test_psi_env_fallback(capsys, monkeypatch):
    monkeypatch.setenv("WHIT_PSI", "1,2,3")
    code, out, _ = run(capsys, "act", "d2(0,1)", "w")
    assert code == 0
    assert parse_vector(out.strip(), PSI123) == 2 * w_vector()
    # an explicit flag wins over the environment
    code, out, _ = run(capsys, "act", "d2(0,1)", "w", "--psi", "1,1,1")
    assert code == 0
    assert parse_vector(out.strip()) == w_vector()


BAD_SLICE_FLAGS = {
    # a cap with a positive first component needs --lmax
    "wvectors-cap-without-lmax": ["wvectors", "--cap", "1,0", "--entries", "0,1",
                                  "--kmax", "1", "--rmax", "1", "--psi", "1,2,3"],
    "ideal-cap-without-lmax": ["ideal", "w", "--cap", "1,0", "--entries", "0,1",
                               "--kmax", "1", "--rmax", "1", "--psi", "1,2,3"],
    "negative-kmax": ["wvectors", "--cap", "0,2", "--entries", "0,1", "--kmax", "-1",
                      "--rmax", "1", "--psi", "1,2,3"],
    "negative-lmax": ["wvectors", "--cap", "0,2", "--entries", "0,1", "--kmax", "1",
                      "--rmax", "1", "--lmax", "-1", "--psi", "1,2,3"],
    "nonpositive-entry": ["wvectors", "--cap", "0,2", "--entries", "0,-1", "--kmax", "1",
                          "--rmax", "1", "--psi", "1,2,3"],
    "negative-cap": ["wvectors", "--cap=-1,0", "--entries", "0,1", "--kmax", "1",
                     "--rmax", "1", "--psi", "1,2,3"],
}


@pytest.mark.parametrize("argv", BAD_SLICE_FLAGS.values(), ids=BAD_SLICE_FLAGS.keys())
def test_bad_slice_is_a_parse_error(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("parse error: ") and err.count("\n") == 1


def _vector_json(**fields):
    term = dict(basis_vector().to_json()["terms"][0], **fields)
    return json.dumps({"terms": [term]})


def _operator_json(**fields):
    term = dict(d(1, (0, 1)).to_json()["terms"][0], **fields)
    return json.dumps({"terms": [term]})


def _refuse_to_compute(*args):
    raise AssertionError("an exponent over the bound reached the arithmetic")


def _exponents(e):
    return {"monomials": [{"e": e, "num": "1", "den": "1"}]}


def _fraction_json(num, den):
    return _vector_json(coeff={"monomials": [{"e": [0, 0, 0], "num": num, "den": den}]})


HUGE_EXPONENT = _exponents([10 ** 9, 0, 0])
# more digits than Python's default bound of 4300 on int <-> str conversion
OVER_DIGITS = "1" * 4400
ONE_TERM = _vector_json(coeff=_exponents([0, 0, 0]))  # num "1", den "1"
# operators of weights that are not pairs, which d cannot build
RANK3 = _operator_json(alpha=[0, 1, 0])
RANK3_OTHER = _operator_json(i=3, alpha=[1, 0, -1])
WVECTORS = ["wvectors", "--cap", "0,2", "--entries", "0,1", "--psi", "1,2,3"]

MALFORMED = {
    "negative-k": ["nf", _vector_json(k=-1)],
    "negative-r": ["nf", _vector_json(r=-1)],
    "exponent-text": ["nf", "s1^100000000 * w"],
    "exponent-text-in-poly": ["nf", "(1 + s2^%d) * w" % (MAX_EXPONENT + 1)],
    "exponent-json": ["nf", _vector_json(coeff=HUGE_EXPONENT)],
    "exponent-json-specialized": ["reduce", _vector_json(coeff=HUGE_EXPONENT),
                                  "--psi", "1,2,3"],
    "zero-denominator": ["nf", _vector_json(coeff={"monomials": [{"e": [0, 0, 0], "num": "1",
                                                                  "den": "0"}]})],
    "bool-k": ["nf", _vector_json(k=True)],
    "float-k": ["nf", _vector_json(k=1.7)],
    "short-exponent-list": ["nf", _vector_json(coeff=_exponents([1]))],
    "long-exponent-list": ["nf", _vector_json(coeff=_exponents([0, 0, 0, 5]))],
    "short-partition-entry": ["nf", _vector_json(**{"lambda": [[0]]})],
    "long-partition-entry": ["nf", _vector_json(**{"lambda": [[0, 1, 7]]})],
    "rank-act": ["act", RANK3, "w"],
    "rank-quotient-act": ["quotient-act", RANK3, "w", "--a", "2", "--psi", "1,2,3"],
    "rank-bracket": ["bracket", "d1(0,1)", RANK3],
    "rank-bracket-both": ["bracket", RANK3, RANK3_OTHER, "--format", "json"],
    "float-num": ["nf", _vector_json(coeff={"monomials": [{"e": [0, 0, 0], "num": 1.7,
                                                           "den": "1"}]})],
    "bool-den": ["nf", _vector_json(coeff={"monomials": [{"e": [0, 0, 0], "num": "1",
                                                          "den": True}]})],
    "float-alpha": ["act", _operator_json(alpha=[0.9, 1]), "w"],
    "bool-i": ["act", _operator_json(i=True), "w"],
    "string-alpha": ["act", _operator_json(i=1, alpha="01"), "w"],
    "deep-json": ["nf", '{"terms": ' + "[" * 3000 + "]" * 3000 + "}"],
    "psi-exponent": ["nf", "w", "--psi", "1e1000000,1,1"],
    "a-exponent": ["probe", "h2 w", "--a", "1e1000000", "--psi", "1,2,3"],
    "negative-random": ["verify", "all", "--random", "-3"],
    "digits-text": ["nf", OVER_DIGITS + " * w"],
    "digits-text-weight": ["nf", "d1(-%s,0) w" % OVER_DIGITS],
    "digits-json": ["nf", ONE_TERM.replace('"1"', OVER_DIGITS, 1)],
    "digits-json-string": ["nf", ONE_TERM.replace('"1"', '"%s"' % OVER_DIGITS)],
    "digits-psi": ["nf", "w", "--psi", OVER_DIGITS + ",1,1"],
    "digits-a": ["probe", "h2 w", "--a", "1/" + OVER_DIGITS, "--psi", "1,2,3"],
    # integers are ASCII digits: no other script's digits, no underscores
    "arabic-indic-digit-text": ["nf", "\u0663 * w"],
    "underscore-cap": ["wvectors", "--cap", "0,1_0", "--entries", "0,1", "--kmax", "0",
                       "--rmax", "0", "--psi", "1,2,3"],
    "arabic-indic-digit-cap": ["wvectors", "--cap", "0,\u0662", "--entries", "0,1",
                               "--kmax", "0", "--rmax", "0", "--psi", "1,2,3"],
    "arabic-indic-digit-psi": ["nf", "w", "--psi", "\u0661,2,3"],
    "underscore-psi": ["nf", "w", "--psi", "1_000,2,3"],
    "arabic-indic-digit-kmax": WVECTORS + ["--kmax", "\u0660", "--rmax", "0"],
    "underscore-rmax": WVECTORS + ["--kmax", "0", "--rmax", "0_0"],
    "arabic-indic-digit-lmax": WVECTORS + ["--kmax", "0", "--rmax", "0", "--lmax", "\u0662"],
    "underscore-max-steps": ["reduce", "h2 w", "--max-steps", "\u0661_0"],
    "arabic-indic-digit-random": ["verify", "3.7", "--random", "\u0661"],
    "underscore-seed": ["verify", "3.7", "--random", "1", "--seed", "1_0"],
    # a JSON integer string is written as to_json writes it: '-' and ASCII digits
    "arabic-indic-digit-json": ["nf", _fraction_json("\u0663", "1")],
    "underscore-json": ["nf", _fraction_json("3", "1_0")],
    "spaces-json": ["nf", _fraction_json(" 3 ", "1")],
    "plus-sign-json": ["nf", _fraction_json("3", "+1")],
    "empty-entry-pool": ["wvectors", "--cap", "0,2", "--entries", ";", "--kmax", "0",
                         "--rmax", "0", "--psi", "1,2,3"],
    "zero-denominator-text": ["nf", "1/0 * w"],
}


@pytest.mark.parametrize("argv", MALFORMED.values(), ids=MALFORMED.keys())
def test_malformed_input_is_a_parse_error(capsys, monkeypatch, argv):
    # were an exponent bound missing, its case would fail at once
    # instead of running on
    monkeypatch.setattr(Scalar, "__pow__", _refuse_to_compute)
    monkeypatch.setattr(Scalar, "specialize", _refuse_to_compute)
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("parse error: ") and err.count("\n") == 1


def test_a_superscript_digit_is_no_digit(capsys):
    # refused as a character, not as an integer over the digit bound
    code, _, err = run(capsys, "nf", "\u00b2 * w")
    assert code == 2
    assert err == "parse error: unexpected character '\u00b2' at offset 0\n"


@pytest.mark.parametrize("argv", [
    ["nf", "w", "--psi", OVER_DIGITS + ",1,1"],
    ["probe", "h2 w", "--a", "1/" + OVER_DIGITS, "--psi", "1,2,3"],
    ["wvectors", "--cap", "0," + OVER_DIGITS, "--entries", "0,1", "--kmax", "0", "--rmax", "0"],
    ["wvectors", "--cap", "0,1," + OVER_DIGITS, "--entries", "0,1", "--kmax", "0", "--rmax", "0"],
], ids=["psi", "a", "cap", "cap-arity"])
def test_a_long_argument_is_not_echoed(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("parse error: ") and err.count("\n") == 1
    assert len(err) < 200, err


def test_exponent_at_the_bound_is_accepted(capsys):
    code, out, _ = run(capsys, "nf", "s3^%d * w" % MAX_EXPONENT)
    assert code == 0
    assert out.strip() == "s3^%d * w" % MAX_EXPONENT


def _unbounded(render):
    """render() with Python's bound on int digits lifted, then restored."""
    digits = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return render()
    finally:
        sys.set_int_max_str_digits(digits)


NINES = "9" * 100  # z^400 of it has 40000 digits, over the bound


def test_values_over_the_digit_bound_print_exactly(capsys):
    code, out, _ = run(capsys, "quotient-act", "d2(0,2)", "z^400 w", "--a", NINES,
                       "--psi", "1,2,3")
    assert code == 0
    # d2(0,2) commutes with z and acts on w by the third type value
    assert out == _unbounded(lambda: "%d * w\n" % (3 * int(NINES) ** 400))
    code, out, _ = run(capsys, "probe", "z^400 h2 w", "--a", NINES, "--psi", "1,2,3",
                       "--format", "json")
    assert code == 0
    c = simplicity_probe(basis_vector(k=1, r=400), Fraction(int(NINES)), PSI123)
    assert json.loads(out) == _unbounded(c.to_json)
    assert len(json.loads(out)["monomials"][0]["num"]) > 40000


@pytest.mark.parametrize("argv", [
    ["quotient-act", "d2(0,2)", "z^400 w", "--a", NINES, "--psi", "1,2,3"],
    ["nf", OVER_DIGITS + " * w"],
    ["reduce", "w - w"],
], ids=["printed", "parse-error", "probe-failure"])
def test_main_restores_the_digit_bound(capsys, argv):
    before = sys.get_int_max_str_digits()
    run(capsys, *argv)
    assert sys.get_int_max_str_digits() == before


class _ClosedPipe(io.StringIO):
    """An in-memory stdout whose reader has gone: every write fails."""

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")


@pytest.mark.parametrize("argv", [
    ["bracket", "d1(0,1)", "d2(0,-1)"],
    ["verify", "all", "--random", "1"],
], ids=["bracket", "verify"])
def test_closed_stdout_exits_141_in_process(capsys, monkeypatch, argv):
    monkeypatch.setattr(sys, "stdout", _ClosedPipe())
    assert main(argv) == 141
    assert capsys.readouterr().err == ""


def test_closed_stdout_exits_141_through_a_pipe():
    # about 129 KB of output, more than a pipe and the stdout buffer hold
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    proc = subprocess.Popen([sys.executable, "-m", "whitmod.cli", "verify", "all",
                             "--random", "300", "--seed", "7"],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env)
    first = proc.stdout.readline()
    proc.stdout.close()  # what `| head -1` does once it has its line
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=120) == 141
    assert first.startswith("3.10 ")
    assert err == ""
