"""`whit verify`, `whit reduce`, `whit wvectors` and `whit ideal` print
exactly what their golden files record.

The verify and reduce files were recorded before the rule table and the
reduction dispatch were rewritten, the wvectors and ideal files before
the slice span and the echelon moved to integer rows, so they pin that
those rewrites changed no output byte.
"""

import json
import os

import pytest

from whitmod.cli import main

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")

VERIFY = [
    ("verify_all.txt", [], 0),
    ("verify_all.json", ["--format", "json"], 0),
    ("verify_all_stated.txt", ["--stated"], 1),
    ("verify_all_stated.json", ["--stated", "--format", "json"], 1),
]

# together their transcripts use every reduction rule
REDUCE = [
    "d2(-1,2) d1(0,-1) h2 w",
    "d1(-1,1) w",
    "d1(0,-1) w",
    "d1(0,-2) w + d2(0,-1) d1(0,-1) w",
    "d1(0,-1) d1(0,-1) w + d2(0,-1) w",
]
# README's slices; the second type is rational, so its rows carry
# denominators before they are cleared
WVECTORS = ["wvectors", "--cap", "0,2", "--entries", "0,1;0,2", "--kmax", "2", "--rmax", "2"]
IDEAL_SLICE = ["--cap", "0,3", "--entries", "0,1;0,2", "--kmax", "2", "--rmax", "5"]
COMMANDS = {
    "wvectors_psi123": WVECTORS + ["--psi", "1,2,3"],
    "wvectors_rational": WVECTORS + ["--psi", "1/2,-2/3,3"],
    "ideal_readme": ["ideal", "d1(0,-1) z w - 2 * d1(0,-1) w"] + IDEAL_SLICE + ["--psi", "1,2,3"],
    "ideal_rational": ["ideal", "d1(0,-1) z^2 w - 1/4 * d1(0,-1) w", "z^2 w + z w - 3/4 * w"]
    + IDEAL_SLICE + ["--psi", "1/2,-2/3,3"],
}
REDUCTION_RULES = {"3.7", "3.8.1", "3.8.2", "3.9", "3.10", "3.11.1", "3.11.2", "3.11.3"}


def _golden(name):
    with open(os.path.join(GOLDEN, name)) as fh:
        return fh.read()


@pytest.mark.parametrize("name,flags,code", VERIFY, ids=[v[0] for v in VERIFY])
def test_verify_golden(capsys, name, flags, code):
    assert main(["verify", "all", "--random", "3", "--seed", "7"] + flags) == code
    assert capsys.readouterr().out == _golden(name)


def test_reduce_golden(capsys):
    out = ""
    for text in REDUCE:
        assert main(["reduce", text, "--psi", "1,2,3", "--format", "json"]) == 0
        out += capsys.readouterr().out
    assert out == _golden("reduce.out")
    rules = {step["rule"] for line in out.splitlines()
             for step in json.loads(line)["transcript"]["steps"]}
    assert rules == REDUCTION_RULES


@pytest.mark.parametrize("fmt", ["txt", "json"])
@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_command_golden(capsys, name, fmt):
    assert main(COMMANDS[name] + ["--format", "text" if fmt == "txt" else "json"]) == 0
    assert capsys.readouterr().out == _golden("%s.%s" % (name, fmt))
