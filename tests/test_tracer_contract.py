"""The contract between the library and the benchmark's outside-in tracer.

``perfbench/tracer.py`` wraps library functions by name and counts the
callable each sup search and interval integral is handed. A rename, or a
counted argument that moves, would leave a layer unmeasured or break
``--trace 1``; this test installs the tracer on a fresh import and runs the
two counted functions through their traced bindings.
"""

import os
import subprocess
import sys

import hammerline as hl

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

CHECK = """
import inspect
import numpy as np
import hammerline
import hammerline.quadrature as quadrature
import tracer as tracing

counted = {"sup_on_grid": "fn_x", "integrate_interval": "fn"}
originals = {name: getattr(quadrature, name) for name in counted}
tracer = tracing.Tracer()
tracing.install(tracer)   # raises AttributeError for a traced name that is gone
for name, param in counted.items():
    assert getattr(quadrature, name) is not originals[name], name
    assert getattr(hammerline, name) is getattr(quadrature, name), name
    first = next(iter(inspect.signature(originals[name]).parameters))
    assert first == param, (name, first)

half = hammerline.CompactMap.half_line()
grid = hammerline.build_grid(half, hammerline.GridSpec(m=17))
sup = hammerline.sup_on_grid(lambda x: 1.0 - x * x, grid)
one = hammerline.integrate_interval(lambda t: np.exp(-t), half)
two = hammerline.integrate_interval(fn=lambda t: np.exp(-t), cmap=half)
assert abs(sup - 1.0) < 1e-12 and abs(one - 1.0) < 1e-10 and one == two
metrics = tracer.metrics()
assert metrics["quadrature.sup_calls"][0] == 1
assert metrics["quadrature.sup_evals"][0] > 0
assert metrics["quadrature.integrate_calls"][0] == 2
assert metrics["quadrature.integrand_evals"][0] > 0
print("ok")
"""


def test_perfbench_tracer_wraps_the_live_api():
    src = os.path.dirname(os.path.dirname(hl.__file__))
    path = os.pathsep.join([src, os.path.join(ROOT, "perfbench")])
    out = subprocess.run([sys.executable, "-c", CHECK], capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=path), cwd=ROOT)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "ok"
