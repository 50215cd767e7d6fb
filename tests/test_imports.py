"""``import ratejump`` loads neither scipy nor a process pool.

scipy is needed only by the Dijkstra search in ``ratejump.si`` (graphs that
are not trees, and trees too deep to fold), which imports it on first use,
so a cascade on a tree loads it neither.  Only a multi-worker heatmap starts
a process pool.  The check runs in a fresh interpreter, since this test
session has long since imported both.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

CHILD = """
import json, sys

def heavy():
    return sorted(m for m in sys.modules
                  if m.startswith("scipy") or m.split(".")[:2] == ["concurrent", "futures"])

import ratejump
after_package = heavy()
import ratejump.cli
after_cli = heavy()
from ratejump.si import Graph, build_tree_with_hub, simulate_si
trace = simulate_si(build_tree_with_hub(3, 2), 0, 7)
after_tree = heavy()
triangle = simulate_si(Graph(3, [0, 0, 1], [1, 2, 2]), 0, 7)
print(json.dumps({"package": after_package, "cli": after_cli, "tree": after_tree,
                  "vertices": [trace.n, triangle.n],
                  "scipy_after_dijkstra": "scipy.sparse.csgraph" in sys.modules}))
"""


def test_import_leaves_scipy_and_process_pools_unloaded():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", CHILD], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    seen = json.loads(proc.stdout)
    assert seen["package"] == [], "import ratejump loaded these"
    assert seen["cli"] == [], "import ratejump.cli loaded these"
    assert seen["tree"] == [], "a cascade on a tree loaded these"
    # the Dijkstra search still finds scipy when a cascade needs it
    assert seen["vertices"] == [17, 3]
    assert seen["scipy_after_dijkstra"]


def test_import_loads_numpy_random_only_if_numpy_does():
    # numpy 2 loads numpy.random on first attribute access, which added about
    # 6 MB to the resident set of `import ratejump`: the package reaches it only
    # inside calls that draw
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    child = ("import sys, numpy; eager = 'numpy.random' in sys.modules; "
             "import ratejump, ratejump.cli; print(eager or 'numpy.random' not in sys.modules)")
    proc = subprocess.run(
        [sys.executable, "-c", child], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "True"
