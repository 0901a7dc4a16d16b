"""The demos print exactly what their golden files record.

Demo 02 prints straighten_word output, so this pins the engine's text.
Demo 03 prints its wall times as "(N.NNs)"; those are masked on both
sides before comparing.
"""

import os
import re
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
GOLDEN = os.path.join(ROOT, "tests", "golden")
DEMOS = {
    "01": "01_bracket_and_decomposition.py",
    "02": "02_module_action.py",
    "03": "03_whittaker_vectors.py",
    "04": "04_reduction_transcript.py",
    "05": "05_quotient_and_ideal.py",
}
WALL_TIME = re.compile(r"\(\d+\.\d\ds\)")


def _masked(text):
    return WALL_TIME.sub("(N.NNs)", text)


@pytest.mark.parametrize("name", sorted(DEMOS))
def test_demo_output(name):
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.run([sys.executable, os.path.join(ROOT, "demos", DEMOS[name])],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    with open(os.path.join(GOLDEN, "demo_%s.out" % name)) as fh:
        assert _masked(proc.stdout) == _masked(fh.read())
