"""What importing the package loads and sets. Each check runs in a fresh
interpreter whose environment has no PYTHON* or OPENBLAS_* variable, so
neither the suite's own imports nor the calling shell decide the outcome."""

import json
import os
import subprocess
import sys
from pathlib import Path

import cpsq

# the source tree this process imported the package from, so a child runs
# the same code as the in-process tests
SRC = Path(cpsq.__file__).resolve().parents[1]


def fresh(code: str, **env: str) -> dict:
    """Run ``code`` in a new interpreter with the package importable from
    its working directory; ``code`` prints one JSON value, returned here."""
    clean = {
        k: v
        for k, v in os.environ.items()
        if not k.startswith(("PYTHON", "OPENBLAS_"))
    }
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, cwd=SRC, env=dict(clean, **env), timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_importing_the_package_loads_and_sets_nothing():
    result = fresh(
        "import json, os, sys\n"
        "before = dict(os.environ)\n"
        "import cpsq\n"
        "names = set(dir(cpsq))\n"
        "print(json.dumps({\n"
        "    'loaded': sorted(m for m in sys.modules if m == 'numpy' or m.startswith('cpsq.')),\n"
        "    'environ_kept': dict(os.environ) == before,\n"
        "    'dir_lists_all': names >= set(cpsq.__all__),\n"
        "}))\n"
    )
    assert result == {"loaded": [], "environ_kept": True, "dir_lists_all": True}


def test_the_cli_limits_openblas_only_before_numpy_loads():
    probe = "import json, os{first}; import cpsq.cli; print(json.dumps(os.environ.get('OPENBLAS_NUM_THREADS')))"
    assert fresh(probe.format(first="")) == "1"
    assert fresh(probe.format(first=""), OPENBLAS_NUM_THREADS="3") == "3"
    assert fresh(probe.format(first=", numpy")) is None


def test_the_library_set_up_loads_only_what_sieving_needs():
    # a library user who sieves pays for no bound, window, rendering or CLI module
    loaded = fresh(
        "import json, sys\n"
        "import cpsq\n"
        "import cpsq.primes\n"
        "cpsq.primes.sieve_primes(1000)\n"
        "print(json.dumps(sorted(m for m in sys.modules if m.startswith('cpsq.'))))\n"
    )
    for module in ("bounds", "windows", "serialize", "reference", "cli"):
        assert f"cpsq.{module}" not in loaded


def test_the_renderer_loads_no_record_module_but_reports():
    # a record is any named tuple, so rendering names no module that defines one
    loaded = fresh(
        "import json, sys\n"
        "import cpsq.serialize\n"
        "print(json.dumps(sorted(m for m in sys.modules if m.startswith('cpsq.'))))\n"
    )
    assert loaded == ["cpsq.reports", "cpsq.serialize"]


def test_neither_the_cli_nor_the_sieve_loads_dataclasses():
    # the records are named tuples, so no import of either pays for dataclasses
    for module in ("cpsq.cli", "cpsq.primes"):
        probe = f"import json, sys, {module}; print(json.dumps('dataclasses' in sys.modules))"
        assert fresh(probe) is False, module
