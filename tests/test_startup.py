"""Process start-up: numpy loads only when a command needs an array, and the
CLI runs OpenBLAS on one thread unless the caller chose otherwise.

Each probe runs in a fresh interpreter, since this test process has long
since imported numpy.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import thermocode

SRC = str(Path(thermocode.__file__).resolve().parent.parent)


def probe(code: str, **env) -> dict:
    """Run code in a fresh interpreter; it prints one JSON object last."""
    base = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    path = os.pathsep.join(filter(None, [SRC, base.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env={**base, "PYTHONPATH": path, **env},
        capture_output=True,
        text=True,
        check=True,
    )
    return json.loads(proc.stdout.splitlines()[-1])


def _run_cli(argvs, tail: str = "") -> str:
    return (
        "import json, os, sys\n"
        "from thermocode import cli\n"
        f"rcs = [cli.main(argv) for argv in {argvs!r}]\n"
        "loaded = sorted(m for m in sys.modules if m.partition('.')[0] == 'numpy')\n"
        f"print(json.dumps({{'rcs': rcs, 'loaded': loaded, {tail}}}))\n"
    )


def test_check_gen_and_early_refusals_never_load_numpy(tmp_path):
    doc = str(tmp_path / "g16.json")
    argvs = [
        ["gen", "--leaves", "16", "--seed", "1", "--out", doc],
        ["check", "--code", doc],
        ["omega", "--code", str(tmp_path / "missing.json"), "-N", "3"],
        ["solve-temp", "--code", doc, "-L", "40"],
    ]
    got = probe(_run_cli(argvs))
    assert got["rcs"] == [0, 0, 1, 1]
    assert got["loaded"] == []


def test_canonical_commands_never_load_numpy(tmp_path):
    # gibbs, solve-temp, continuous equilibrium and dimension run on the
    # standard library alone
    doc = str(tmp_path / "g16.json")
    c = ["--code", doc]
    argvs = [
        ["gen", "--leaves", "16", "--seed", "1", "--out", doc],
        ["gibbs", *c, "--beta", "1"],
        ["gibbs", *c, "--temp", "2"],
        ["solve-temp", *c, "--lambda", "4.5"],
        ["solve-temp", *c, "-L", "40", "-N", "10"],
        ["equilibrium", *c, "--code2", doc, "-N", "10", "--N2", "10", "-L", "90"],
        ["dimension", *c],
        ["dimension", *c, "--grid=-2:2:5"],
    ]
    got = probe(_run_cli(argvs))
    assert got["rcs"] == [0] * len(argvs)
    assert got["loaded"] == []


def test_count_table_commands_never_load_numpy(tmp_path):
    # exact and log count tables, their entropies and temperatures, the
    # windowed sums and the brute split run on the standard library alone
    doc = str(tmp_path / "g16.json")
    c = ["--code", doc]
    argvs = [
        ["gen", "--leaves", "16", "--seed", "1", "--out", doc],
        ["omega", *c, "-N", "6"],
        ["omega", *c, "-N", "6", "--mode", "log"],
        ["omega", *c, "-N", "6", "--window", "3"],
        ["omega", *c, "-N", "6", "--mode", "log", "--window", "3"],
        ["temperature", *c, "-N", "20"],
        ["temperature", *c, "-N", "20", "-L", "90"],
        ["temperature", *c, "-N", "20", "--mode", "log", "-L", "90"],
        ["equilibrium", *c, "--code2", doc, "-N", "10", "--N2", "10", "-L", "90", "--brute"],
    ]
    got = probe(_run_cli(argvs))
    assert got["rcs"] == [0] * len(argvs)
    assert got["loaded"] == []


def test_import_leaves_sys_modules_without_numpy():
    # importing thermocode registers no numpy stand-in, so a library that
    # checks sys.modules for numpy (pytest.approx does) does not load it
    got = probe(
        "import json, sys\n"
        "import thermocode.cli\n"
        "before = 'numpy' in sys.modules\n"
        "import pytest\n"
        "assert 1.0 == pytest.approx(1.0)\n"
        "loaded = sorted(m for m in sys.modules if m.partition('.')[0] == 'numpy')\n"
        "print(json.dumps({'before': before, 'loaded': loaded}))\n"
    )
    assert got == {"before": False, "loaded": []}


def _numpy_probe(tmp_path) -> str:
    doc = str(tmp_path / "g16.json")
    argvs = [
        ["gen", "--leaves", "16", "--seed", "1", "--out", doc],
        ["sample", "--code", doc, "-N", "3", "--draws", "100", "--seed", "1"],
    ]
    return _run_cli(
        argvs,
        "'blas': os.environ.get('OPENBLAS_NUM_THREADS'), "
        "'threads': len(os.listdir('/proc/self/task')) if sys.platform == 'linux' else None",
    )


def test_numeric_command_runs_one_blas_thread(tmp_path):
    got = probe(_numpy_probe(tmp_path))
    assert got["rcs"] == [0, 0]
    assert got["loaded"]  # sample did load numpy
    assert got["blas"] == "1"
    if sys.platform.startswith("linux"):
        assert got["threads"] == 1


def test_caller_blas_thread_count_is_kept(tmp_path):
    got = probe(_numpy_probe(tmp_path), OPENBLAS_NUM_THREADS="2")
    assert got["rcs"] == [0, 0]
    assert got["loaded"]
    assert got["blas"] == "2"


def test_numpy_imported_first_is_the_module_thermocode_uses(tmp_path):
    doc = str(tmp_path / "g16.json")
    argvs = [
        ["gen", "--leaves", "16", "--seed", "1", "--out", doc],
        ["sample", "--code", doc, "-N", "3", "--draws", "100", "--seed", "1"],
    ]
    got = probe(
        "import json, numpy\n"
        "import thermocode\n"
        "from thermocode import cli\n"
        f"assert [cli.main(argv) for argv in {argvs!r}] == [0, 0]\n"
        "names = {}\n"
        "exec('from thermocode import *', names)\n"
        "print(json.dumps({'real': hasattr(numpy, 'ndarray'),\n"
        "                  'names': sorted(set(names) - {'__builtins__'})}))\n"
    )
    assert got["real"]
    assert len(got["names"]) == 55
    assert set(got["names"]) == set(thermocode.__all__)


@pytest.mark.parametrize("first", ["thermocode", "numpy"])
def test_numpy_works_whichever_is_imported_first(first):
    # thermocode's functions import numpy where they use it, so the order
    # of the two imports does not matter
    second = "numpy" if first == "thermocode" else "thermocode"
    got = probe(
        f"import json, {first}, {second}, numpy\n"
        "from thermocode import LengthSpectrum, count_messages_log\n"
        "s = count_messages_log(LengthSpectrum({1: 1, 2: 2}), 2).log2_count(3)\n"
        "print(json.dumps({'s': s, 'sum': int(numpy.arange(5).sum())}))\n"
    )
    assert got == {"s": 2.0, "sum": 10}
