"""What ``import freechoice`` loads: numpy's random stack waits for the first draw.

numpy 2 loads ``numpy.random`` lazily, and it costs about 6 MB resident.
Only the simulator, ``power`` and ``verify`` draw, so the exact engine and
the ``table`` command run without it. Each check runs in a fresh
interpreter, because this one has loaded ``numpy.random`` long ago; where
``import numpy`` loads it by itself (numpy 1.x) there is nothing to save,
and the checks skip.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import freechoice

# the child's exit status when import numpy loaded numpy.random by itself
_NUMPY_LOADS_RANDOM = 77

_EXACT_THEN_DRAW = f"""
import hashlib
import sys
from fractions import Fraction
from pathlib import Path

import numpy

if "numpy.random" in sys.modules:
    sys.exit({_NUMPY_LOADS_RANDOM})

import freechoice
from freechoice.cli import main

work = Path(sys.argv[1])
freechoice.expected_spread_table(6, 0.8)
freechoice.expected_spread_table(6, Fraction(4, 5), exact=True)
freechoice.expected_spread_two_param(6, 0.3, 0.8, "e0-experimental", pair=(2, 4))
freechoice.expected_spread_two_param(6, 0.3, 0.8, "e2")
freechoice.expected_spread_two_param(6, 0.3, 0.8, "e3")
freechoice.expected_spread_conditional(6, 0.8, (2, 5), "consistent")
assert main(["table", "--n", "6", "--p", "0.8", "--output", str(work / "table.csv")]) == 0
assert "numpy.random" not in sys.modules, "the exact engine loaded numpy.random"

out = work / "trials.csv"
assert main(["simulate", "--design", "classic", "--model", "null", "--n", "6", "--pair", "2,5",
             "--subjects", "40", "--p", "0.6", "--seed", "3", "--output", str(out)]) == 0
print(hashlib.sha256(out.read_bytes()).hexdigest())
"""

_PEAK_RESIDENT_KB = """
for line in open("/proc/self/status"):
    if line.startswith("VmHWM:"):
        print(line.split()[1])
"""


def _child_env(**extra) -> dict:
    # the child finds the package where this process found it, on one BLAS
    # thread as bench/run.py starts its children
    package_root = str(Path(freechoice.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
    one = {name: "1" for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    return {**os.environ, **one, "PYTHONPATH": path, **extra}


def _run(code: str, *args: str, env: dict) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "-c", code, *args], env=env,
                          capture_output=True, text=True, check=False)


def test_exact_engine_leaves_numpy_random_unloaded(tmp_path):
    # the float and rational tables, the two-weight designs, the
    # conditionals and the table command draw nothing; the first simulation
    # after such a lean import then writes the bytes test_cli's classic-null
    # case pins
    result = _run(_EXACT_THEN_DRAW, str(tmp_path), env=_child_env())
    if result.returncode == _NUMPY_LOADS_RANDOM:
        pytest.skip("import numpy loads numpy.random by itself")
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[-1] == (
        "9bb03ac4f806ec7c91d2aae7fc32606d345b7459a32728ebab28d70db74d32fe"
    )


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="reads /proc/self/status")
@pytest.mark.own_process
def test_import_costs_little_beyond_numpy(tmp_path):
    # numpy alone against numpy and freechoice, both from bytecode written
    # once beforehand into a private cache, so neither peak holds a
    # compilation: about 1.3 MB apart on numpy 2.4, 7.4 MB when numpy.random
    # was loaded too
    env = _child_env(PYTHONPYCACHEPREFIX=str(tmp_path))
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    check = "import sys, numpy; sys.exit('numpy.random' in sys.modules)"
    if _run(check, env=env).returncode:
        pytest.skip("import numpy loads numpy.random by itself")
    assert _run("import freechoice.cli", env=env).returncode == 0

    def peak_kb(imports: str) -> int:
        result = _run(imports + _PEAK_RESIDENT_KB, env=env)
        assert result.returncode == 0, result.stderr
        return int(result.stdout)

    gap = peak_kb("import numpy, freechoice") - peak_kb("import numpy")
    assert gap < 2.5 * 1024
