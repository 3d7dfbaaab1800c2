"""numpy is gkern's only third-party runtime dependency."""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = str(Path(__file__).resolve().parent.parent / "src")

# Compute one implicit and one explicit Gram in a fresh interpreter and list
# the top-level packages that importing and running gkern brought in.
SCRIPT = """
import json, sys
before = set(sys.modules)
from gkern import generate_synthetic_labeled
from gkern.bench import kernel_plan
ds = generate_synthetic_labeled(4, seed=1)
kernel_plan("walk", ds, length=3).grams(("implicit", "explicit"))
kernel_plan("graphhopper", ds).grams(("implicit", "explicit"))
loaded = {name.partition(".")[0] for name in set(sys.modules) - before}
print(json.dumps(sorted(loaded - set(sys.stdlib_module_names))))
"""


def test_only_numpy_is_imported():
    path = os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
    done = subprocess.run(
        [sys.executable, "-c", SCRIPT],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout.splitlines()[-1]) == ["gkern", "numpy"]
