"""Every ``repro`` subpackage imports cleanly as a fresh interpreter's first import.

An import cycle only shows when the cycle's module is the first one loaded:
inside one test session, earlier imports have already initialized the
packages it reaches for.  So each import here runs in its own ``python -c``
subprocess.
"""

import os
import pathlib
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor

import repro

SRC = pathlib.Path(repro.__file__).resolve().parent
#: Modules of the timing package, whose cycle through ``repro.par`` showed
#: only when one of them was the first import.
TIMING_MODULES = ("repro.timing.graph", "repro.timing.delays", "repro.timing.sta")


def _subpackages():
    names = ["repro"]
    names += sorted(
        f"repro.{p.name}" for p in SRC.iterdir() if (p / "__init__.py").is_file()
    )
    return names + list(TIMING_MODULES)


def _import_fresh(module):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC.parent)] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    proc = subprocess.run(
        [sys.executable, "-c", f"import {module}"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    return module, proc.returncode, proc.stderr.strip().splitlines()[-1:]


def test_every_subpackage_imports_first_in_a_fresh_interpreter():
    modules = _subpackages()
    assert "repro.timing" in modules and "repro.par" in modules
    with ThreadPoolExecutor(max_workers=4) as pool:
        results = list(pool.map(_import_fresh, modules))
    failed = {m: err for m, code, err in results if code != 0}
    assert not failed, f"fresh-interpreter imports failed: {failed}"
