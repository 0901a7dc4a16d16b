"""The quick demos print exactly what their golden files record.

Demo 02 prints straighten_word output, so this pins the engine's text.
Demos 03 and 05 are left out: they take many seconds and print wall times.
"""

import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
GOLDEN = os.path.join(ROOT, "tests", "golden")
DEMOS = {
    "01": "01_bracket_and_decomposition.py",
    "02": "02_module_action.py",
    "04": "04_reduction_transcript.py",
}


@pytest.mark.parametrize("name", sorted(DEMOS))
def test_demo_output(name):
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.run([sys.executable, os.path.join(ROOT, "demos", DEMOS[name])],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    with open(os.path.join(GOLDEN, "demo_%s.out" % name)) as fh:
        assert proc.stdout == fh.read()
