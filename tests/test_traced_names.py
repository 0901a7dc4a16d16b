"""Every name the benchmark's tracer wraps is defined where the tracer looks.

The tracer (perfbench/tracer.py) rebinds each object named in its SPANS
and SCALAR_OPS tables.  A refactor that moves one of them, say a Scalar
operator onto a base class, would make the tracer wrap the wrong object
or count other classes' work, and the perfbench tests are not part of the
tier-1 run, so this test checks the tables against the library.
"""

import importlib.util
import os

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_spec = importlib.util.spec_from_file_location(
    "perfbench_tracer", os.path.join(ROOT, "perfbench", "tracer.py"))
tracer = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tracer)

TRACED = dict(tracer.SPANS, **tracer.SCALAR_OPS)


@pytest.mark.parametrize("module,path", TRACED.values(), ids=TRACED.keys())
def test_traced_name_is_defined_in_its_owner(module, path):
    owner = importlib.import_module(module)
    *parents, name = path.split(".")
    for part in parents:
        owner = vars(owner)[part]
    assert name in vars(owner), "%s.%s is not defined in %s itself" % (module, path, owner)
