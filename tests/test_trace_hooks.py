"""The benchmark's tracer must find every layer entry point it wraps.

``perfbench/tracer.py`` wraps module attributes of the package; a moved
or renamed entry point would otherwise drop its per-layer metrics
without any error.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

PROBE = """
import knotslopes
import tracer

t = tracer.Tracer()
t.install(knotslopes)
assert t.absent == {}, t.absent
"""


def test_tracer_finds_every_layer_entry_point():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        os.path.join(ROOT, d) for d in ("src", "perfbench"))
    proc = subprocess.run([sys.executable, "-c", PROBE], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
