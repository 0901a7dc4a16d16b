"""Mutated JSON arguments never crash the command line.

Valid vector and operator JSON is mutated (a value swapped for a float,
a bool, a string, null, a number or digit string over Python's bound of
4300 digits, or a list of the wrong arity; a key dropped; a value
nested) and handed to nf, act, bracket, reduce, quotient-act and probe.
Each run ends with a documented exit code, 0 to 3, at most one line on
stderr and no traceback.  Drawn ints stay small, so no case runs long.
Drawn vectors and operators, with rational and symbolic coefficients,
read back equal from their text and from their JSON, and the command
line prints the same for either form.
Property-based testing after MacIver et al., "Hypothesis: A new
approach to property-based testing", JOSS 4(43), 2019.
"""

import contextlib
import io
import json

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from whitmod.cli import main
from whitmod.coeff import Scalar
from whitmod.liecore import LieElt, d
from whitmod.textio import parse_lie, parse_vector
from whitmod.wmod import ModuleVector, basis_vector

VECTOR = parse_vector("d1(0,-1) d2(1,-2) h2 z w + (s1 - 2*s3^2) * d2(0,-1) w - 1/2 * z w")
OPERATOR = parse_lie("d1(0,1) - 2 * d2(1,-1) + 3/4 * h2")

# a placeholder that becomes a bare number of 5000 digits in the JSON text
BIG = "<big number>"
BIG_TEXT = "9" * 5000

REPLACEMENTS = st.one_of(
    st.integers(-2, 3),
    st.sampled_from([1.5, -0.5, 2.0, True, False, "1", "x", None, BIG, BIG_TEXT,
                     [], [0], [0, 1, 2], [[0, 1, 2]], {}]),
)

PSI = ["--psi", "1,2,3"]
COMMANDS = {
    "nf": lambda v, x: ["nf", v],
    "act": lambda v, x: ["act", x, v],
    "bracket": lambda v, x: ["bracket", x, "d2(0,-1)"],
    "reduce": lambda v, x: ["reduce", v] + PSI,
    "quotient-act": lambda v, x: ["quotient-act", x, v, "--a", "2"] + PSI,
    "probe": lambda v, x: ["probe", v, "--a", "2"] + PSI,
}


def _paths(value, path=()):
    """Every position in a JSON value, as a tuple of keys and indices."""
    yield path
    if isinstance(value, dict):
        for key, item in value.items():
            yield from _paths(item, path + (key,))
    elif isinstance(value, list):
        for index, item in enumerate(value):
            yield from _paths(item, path + (index,))


def _mutated(data, draw):
    """data with one value swapped, one key dropped or one value nested."""
    paths = [p for p in _paths(data) if p]
    if not paths:  # every key is gone already
        return data
    path = draw(st.sampled_from(paths))
    parent = data
    for step in path[:-1]:
        parent = parent[step]
    last = path[-1]
    kind = draw(st.sampled_from(["swap", "drop", "nest"]))
    if kind == "drop" and isinstance(parent, dict):
        del parent[last]
    elif kind == "nest":
        parent[last] = draw(st.sampled_from([[parent[last]], {"v": parent[last]}]))
    else:
        parent[last] = draw(REPLACEMENTS)
    return data


def _text(data):
    return json.dumps(data).replace(json.dumps(BIG), BIG_TEXT)


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(st.data())
def test_mutated_json_gets_a_documented_exit(data):
    command = data.draw(st.sampled_from(sorted(COMMANDS)))
    vector, operator = VECTOR.to_json(), OPERATOR.to_json()
    target = data.draw(st.sampled_from([vector, operator]))
    for _ in range(data.draw(st.integers(1, 3))):
        _mutated(target, data.draw)
    argv = COMMANDS[command](_text(vector), _text(operator))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2, 3), (argv, code, err.getvalue())
    assert err.getvalue().count("\n") <= 1, (argv, err.getvalue())
    assert "Traceback" not in err.getvalue()


ENTRIES = [(0, 1), (0, 2), (1, -1), (1, 0), (1, 2)]
RATIONALS = st.fractions(min_value=-5, max_value=5, max_denominator=6)
# (0, 0, 0) exponents give rational coefficients, the others symbolic ones
SCALARS = st.lists(st.tuples(st.tuples(*[st.integers(0, 2)] * 3), RATIONALS),
                   min_size=1, max_size=3).map(Scalar)
PARTITIONS = st.lists(st.sampled_from(ENTRIES), max_size=2)
VECTORS = st.lists(st.tuples(PARTITIONS, PARTITIONS, st.integers(0, 2), st.integers(0, 2),
                             SCALARS), min_size=1, max_size=3).map(
    lambda terms: sum((basis_vector(*term) for term in terms), ModuleVector()))
OPERATORS = st.lists(st.tuples(st.sampled_from([1, 2]),
                               st.tuples(st.integers(-2, 2), st.integers(-2, 2)), SCALARS),
                     min_size=1, max_size=3).map(
    lambda terms: sum((d(*term) for term in terms), LieElt()))


def _stdout(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code == 0, (argv, err.getvalue())
    return out.getvalue()


def _through_json(value):
    return json.loads(json.dumps(value.to_json()))


@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(VECTORS, OPERATORS)
def test_drawn_values_read_back_from_text_and_json(v, x):
    assume(v and x)
    assert parse_vector(str(v)) == v
    assert ModuleVector.from_json(_through_json(v)) == v
    assert _stdout(["nf", str(v)]) == _stdout(["nf", json.dumps(v.to_json())])
    assert parse_lie(str(x)) == x
    assert LieElt.from_json(_through_json(x)) == x
    assert (_stdout(["bracket", str(x), "d2(0,-1)"])
            == _stdout(["bracket", json.dumps(x.to_json()), "d2(0,-1)"]))
