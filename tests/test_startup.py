"""Process start-up: a CLI run imports only the thermocode modules its
command uses, numpy loads only when a command needs an array, and the CLI
runs OpenBLAS on one thread unless the caller chose otherwise.

Each probe runs in a fresh interpreter, since this test process has long
since imported numpy and every thermocode module.  An in-process test
cannot see which modules a command loads: earlier commands have already
imported them.
"""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import thermocode
from thermocode import cli

SRC = str(Path(thermocode.__file__).resolve().parent.parent)
BENCH = str(Path(__file__).resolve().parent.parent / "bench")


def _env(**env) -> dict:
    """This process's environment with src first on PYTHONPATH and no
    OPENBLAS_NUM_THREADS, plus env."""
    base = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    path = os.pathsep.join(filter(None, [SRC, base.get("PYTHONPATH")]))
    return {**base, "PYTHONPATH": path, **env}


def probe(code: str, *flags: str, **env) -> dict:
    """Run code in a fresh interpreter started with flags; it prints one
    JSON object last."""
    proc = subprocess.run(
        [sys.executable, *flags, "-c", code], env=_env(**env), capture_output=True, text=True, check=True
    )
    return json.loads(proc.stdout.splitlines()[-1])


def run_main_module(argv) -> tuple[int, bytes, list[str]]:
    """Run `python -m thermocode.cli argv` in a fresh interpreter: its exit
    code, its stdout, and the thermocode modules it imported, read from the
    import lines -v writes to stderr."""
    proc = subprocess.run(
        [sys.executable, "-v", "-m", "thermocode.cli", *argv], env=_env(), capture_output=True
    )
    loaded = re.findall(r"^import '(thermocode[\w.]*)' #", proc.stderr.decode(), re.MULTILINE)
    return proc.returncode, proc.stdout, sorted(set(loaded))


def _run_cli(argvs, tail: str = "") -> str:
    return (
        "import json, os, sys\n"
        "from thermocode import cli\n"
        f"rcs = [cli.main(argv) for argv in {argvs!r}]\n"
        "loaded = sorted(m for m in sys.modules if m.partition('.')[0] == 'numpy')\n"
        f"print(json.dumps({{'rcs': rcs, 'loaded': loaded, {tail}}}))\n"
    )


@pytest.fixture(scope="module")
def g16(tmp_path_factory) -> str:
    doc = str(tmp_path_factory.mktemp("codes") / "g16.json")
    assert cli.main(["gen", "--leaves", "16", "--seed", "1", "--out", doc]) == 0
    return doc


BASE = ["thermocode", "thermocode.cli", "thermocode.codes", "thermocode.errors"]
CANONICAL = [*BASE, "thermocode.gibbs", "thermocode.rootfind"]
COUNTING = [*BASE, "thermocode.microcanonical"]
PREFIX = [*CANONICAL, "thermocode.dimension"]


@pytest.mark.parametrize(
    "command, options, modules",
    [
        ("check", [], BASE),
        ("gen", ["--leaves", "8", "--seed", "2"], BASE),
        ("gibbs", ["--beta", "1"], CANONICAL),
        ("solve-temp", ["--lambda", "4.5"], CANONICAL),
        ("omega", ["-N", "6"], COUNTING),
        ("temperature", ["-N", "20"], COUNTING),
        ("sample", ["-N", "3", "--draws", "100", "--seed", "1"], COUNTING),
        ("equilibrium", ["-N", "10", "--N2", "10", "-L", "90"],
         [*CANONICAL, "thermocode.equilibrium", "thermocode.microcanonical"]),
        ("dimension", ["--grid=-2:2:5"], PREFIX),
        ("prefixes", ["-N", "4", "-L", "16"], PREFIX),
    ],
)
def test_each_command_loads_only_the_modules_it_runs(g16, tmp_path, command, options, modules):
    if command == "equilibrium":
        options = ["--code2", g16, *options]
    if command != "gen":
        options = ["--code", g16, *options]
    argv = [command, *options, "--out", str(tmp_path / "out.txt")]
    got = probe(
        "import json, sys\n"
        "from thermocode import cli\n"
        f"rc = cli.main({argv!r})\n"
        "loaded = sorted(m for m in sys.modules if m.partition('.')[0] == 'thermocode')\n"
        "print(json.dumps({'rc': rc, 'loaded': loaded,\n"
        "                  'dataclasses': 'dataclasses' in sys.modules, 'inspect': 'inspect' in sys.modules}))\n"
    )
    assert got["rc"] == 0
    assert got["loaded"] == sorted(modules)
    # the records are NamedTuples: no command pays for dataclasses and the
    # inspect, dis, ast and tokenize it imports (numpy, which sample loads,
    # imports inspect itself)
    assert not got["dataclasses"]
    assert not got["inspect"] or command == "sample"


@pytest.mark.parametrize(
    "command, options",
    [
        ("check", []),
        ("gibbs", ["--beta", "1"]),
        ("omega", ["-N", "20"]),
        ("equilibrium", ["-N", "10", "--N2", "10", "-L", "90", "--brute"]),
    ],
)
def test_main_module_writes_what_main_writes(g16, command, options):
    # the benchmark runs every job as `python -m thermocode.cli`, where cli
    # is __main__: it must read its names off itself, not a second copy
    argv = [command, "--code", g16, *options]
    if command == "equilibrium":
        argv[3:3] = ["--code2", g16]
    rc, out, loaded = run_main_module(argv)
    got = probe(
        "import contextlib, io, json, sys\n"
        "from thermocode import cli\n"
        "out = io.StringIO()\n"
        "with contextlib.redirect_stdout(out):\n"
        f"    rc = cli.main({argv!r})\n"
        "loaded = sorted(m for m in sys.modules if m.partition('.')[0] == 'thermocode')\n"
        "print(json.dumps({'rc': rc, 'out': out.getvalue(), 'loaded': loaded}))\n"
    )
    assert rc == got["rc"] == 0
    assert out and out == got["out"].encode()
    assert "thermocode.cli" not in loaded
    assert loaded == [m for m in got["loaded"] if m != "thermocode.cli"]


def test_main_module_refuses_a_missing_file_before_loading_the_counting_module(tmp_path):
    rc, out, loaded = run_main_module(["omega", "--code", str(tmp_path / "missing.json"), "-N", "3"])
    assert rc == 1
    assert out == b""
    assert "thermocode.microcanonical" not in loaded


def test_check_loads_no_pathlib(g16):
    # under -S, since a .pth hook in site-packages may import pathlib itself
    got = probe(
        "import json, sys\n"
        "from thermocode import cli\n"
        f"rc = cli.main(['check', '--code', {g16!r}])\n"
        "print(json.dumps({'rc': rc, 'pathlib': 'pathlib' in sys.modules}))\n",
        "-S",
    )
    assert got == {"rc": 0, "pathlib": False}


def test_import_loads_no_submodule():
    got = probe(
        "import json, sys\n"
        "import thermocode\n"
        "print(json.dumps(sorted(m for m in sys.modules if m.startswith('thermocode'))))\n"
    )
    assert got == ["thermocode"]


def test_importing_cli_loads_only_the_error_classes():
    got = probe(
        "import json, sys\n"
        "import thermocode.cli\n"
        "print(json.dumps(sorted(m for m in sys.modules if m.startswith('thermocode'))))\n"
    )
    assert got == ["thermocode", "thermocode.cli", "thermocode.errors"]


def test_package_names_resolve_on_first_access():
    got = probe(
        "import json, sys\n"
        "import thermocode\n"
        "listed = dir(thermocode)\n"
        "try:\n"
        "    thermocode.no_such_name\n"
        "    missing = None\n"
        "except AttributeError as exc:\n"
        "    missing = str(exc)\n"
        "codes = thermocode.codes\n"
        "print(json.dumps({\n"
        "    'listed': listed,\n"
        "    'missing': missing,\n"
        "    'codes': codes is sys.modules['thermocode.codes'],\n"
        "    'same': thermocode.Code is codes.Code,\n"
        "    'loaded': sorted(m for m in sys.modules if m.startswith('thermocode')),\n"
        "}))\n"
    )
    assert set(thermocode.__all__) <= set(got["listed"])
    assert {"cli", "codes", "microcanonical", "rootfind"} <= set(got["listed"])
    assert got["listed"] == sorted(got["listed"])
    assert got["missing"] == "module 'thermocode' has no attribute 'no_such_name'"
    assert got["codes"] and got["same"]
    assert got["loaded"] == ["thermocode", "thermocode.codes", "thermocode.errors"]


def test_cli_attributes_are_the_functions_a_tracer_wraps():
    # bench/layers.py reads each wrapped name from its calling modules before
    # any command has run, then sets a wrapper there and puts the original back
    got = probe(
        "import json, sys\n"
        f"sys.path.insert(0, {BENCH!r})\n"
        "import layers\n"
        "pairs = [(module, name, caller) for module, name, _, callers in layers._layers()\n"
        "         for caller in callers]\n"
        "wrong = [f'{caller.__name__}.{name}' for module, name, caller in pairs\n"
        "         if getattr(caller, name) is not getattr(module, name)]\n"
        "print(json.dumps({'pairs': len(pairs), 'wrong': wrong}))\n"
    )
    assert got["wrong"] == []
    assert got["pairs"] >= 14


def test_a_wrapper_set_on_cli_is_the_function_the_command_calls(g16):
    argv = ["temperature", "--code", g16, "-N", "4"]
    got = probe(
        "import contextlib, io, json\n"
        "from thermocode import cli\n"
        "original = cli.count_messages_log\n"
        "calls = []\n"
        "def wrapper(*args):\n"
        "    calls.append(args[1])\n"
        "    return original(*args)\n"
        "def run():\n"
        "    out = io.StringIO()\n"
        "    with contextlib.redirect_stdout(out):\n"
        f"        assert cli.main({argv!r}) == 0\n"
        "    return out.getvalue()\n"
        "cli.count_messages_log = wrapper\n"
        "wrapped = run()\n"
        "after_wrap = list(calls)\n"
        "cli.count_messages_log = original\n"
        "plain = run()\n"
        "print(json.dumps({'calls': after_wrap, 'later': calls, 'same': wrapped == plain,\n"
        "                  'restored': cli.count_messages_log is original}))\n"
    )
    assert got == {"calls": [4], "later": [4], "same": True, "restored": True}


def test_every_name_a_cli_function_loads_is_defined_or_public():
    # a bare global must be defined in cli or be a builtin, and a name read
    # off _self must be a public name of the package, or a command on a
    # path no test runs would fail with NameError or AttributeError.  Run
    # before any command, so no name has been bound into cli yet.
    got = probe(
        "import builtins, dis, json, types\n"
        "import thermocode\n"
        "from thermocode import cli\n"
        "own = set(vars(cli)) | set(dir(builtins))\n"
        "def codes(co):\n"
        "    yield co\n"
        "    for c in co.co_consts:\n"
        "        if isinstance(c, types.CodeType):\n"
        "            yield from codes(c)\n"
        "undefined, read, not_read = set(), set(), []\n"
        "for value in list(vars(cli).values()):\n"
        "    if isinstance(value, types.FunctionType) and value.__module__ == cli.__name__:\n"
        "        for co in codes(value.__code__):\n"
        "            ins = list(dis.get_instructions(co))\n"
        "            for load, after in zip(ins, ins[1:]):\n"
        "                if load.opname != 'LOAD_GLOBAL':\n"
        "                    continue\n"
        "                if load.argval not in own:\n"
        "                    undefined.add(load.argval)\n"
        "                if load.argval == '_self':\n"
        "                    if after.opname in ('LOAD_ATTR', 'LOAD_METHOD'):\n"
        "                        read.add(after.argval)\n"
        "                    else:\n"
        "                        not_read.append(after.opname)\n"
        "print(json.dumps({'undefined': sorted(undefined), 'not_read': not_read,\n"
        "                  'read': sorted(read), 'public': thermocode.__all__}))\n"
    )
    assert got["undefined"] == []
    assert got["not_read"] == []
    assert sorted(set(got["read"]) - set(got["public"])) == []
    # every command's library calls go through _self
    assert {"parse_code", "count_messages_log", "gibbs_state", "prefix_counts"} <= set(got["read"])


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
    # gibbs, solve-temp, continuous equilibrium, dimension and the prefix
    # counts with their fitted slope run on the standard library alone
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
        ["prefixes", *c, "-N", "4", "-L", "16"],
        ["prefixes", *c, "-N", "10", "-L", "45", "--n-max", "20"],
    ]
    got = probe(_run_cli(argvs))
    assert got["rcs"] == [0] * len(argvs)
    assert got["loaded"] == []


def test_count_table_commands_never_load_numpy(tmp_path):
    # exact and log count tables, their entropies and temperatures, the
    # most probable length of either, the windowed sums and the brute split
    # run on the standard library alone
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
        ["temperature", *c, "-N", "20", "--mode", "log"],
        ["equilibrium", *c, "--code2", doc, "-N", "10", "--N2", "10", "-L", "90", "--brute"],
    ]
    got = probe(_run_cli(argvs))
    assert got["rcs"] == [0] * len(argvs)
    assert got["loaded"] == []


def test_oversized_sample_is_refused_before_numpy_loads(tmp_path):
    # a message longer than the sampler's cap exits 3 with nothing on
    # stdout, before the sampler imports numpy
    doc = str(tmp_path / "g16.json")
    argvs = [
        ["gen", "--leaves", "16", "--seed", "1", "--out", doc],
        ["sample", "--code", doc, "-N", "1000001", "--draws", "1", "--seed", "1"],
    ]
    proc = subprocess.run(
        [sys.executable, "-c", _run_cli(argvs)], env=_env(), capture_output=True, text=True, check=True
    )
    *printed, last = proc.stdout.splitlines()
    assert printed == []
    assert json.loads(last) == {"rcs": [0, 3], "loaded": []}
    assert "1000001 symbols" in proc.stderr


CANON_DOC = json.dumps({"code": [{"symbol": "a", "codeword": "0"}, {"symbol": "b", "codeword": "10"}, {"symbol": "c", "codeword": "11"}]})

linux_only = pytest.mark.skipif(not sys.platform.startswith("linux"), reason="ru_maxrss is in KiB on Linux only")


def peak_mb(jobs) -> list[list]:
    """[exit code, peak RSS in MB] of `python *args` for each args in jobs,
    stdout to devnull.  Linux folds an exec-ing process's high-water RSS
    into the new program's ru_maxrss, so the jobs are spawned from a small
    -S interpreter, not from this large test process."""
    return probe(
        "import json, os, sys\n"
        "def peak_mb(args):\n"
        "    out = [(os.POSIX_SPAWN_OPEN, 1, os.devnull, os.O_WRONLY, 0)]\n"
        "    pid = os.posix_spawn(sys.executable, [sys.executable, *args], os.environ, file_actions=out)\n"
        "    _, status, usage = os.wait4(pid, 0)\n"
        "    return os.waitstatus_to_exitcode(status), usage.ru_maxrss / 1024\n"
        f"print(json.dumps([peak_mb(args) for args in {jobs!r}]))\n",
        "-S",
    )


@linux_only
def test_sample_memory_is_a_small_constant_over_numpy(tmp_path):
    # a million draws, or a message at the 10**6-symbol cap drawn in pieces
    # and focused on, cost a few MB over loading numpy's generator
    doc = tmp_path / "canon.json"
    doc.write_text(CANON_DOC)
    sample = ["-m", "thermocode.cli", "sample", "--code", str(doc), "--seed", "7"]
    jobs = [
        ["-c", "import numpy.random; numpy.random.default_rng(7)"],
        [*sample, "-N", "4", "--draws", "1000000", "--focus-L", "6"],
        [*sample, "-N", "1000000", "--draws", "3", "--focus-L", "1500000"],
    ]
    (numpy_rc, numpy_mb), *samples = peak_mb(jobs)
    assert numpy_rc == 0
    for sample_rc, sample_mb in samples:
        assert sample_rc == 0
        assert sample_mb - numpy_mb < 4, (numpy_mb, samples)


@linux_only
def test_a_long_codeword_costs_linear_memory(tmp_path):
    # one 20,000-bit codeword: check keeps no set of its prefixes (208 MB
    # as strings), and prefixes refuses its 1.6e13 DP steps before building
    # anything per code-tree node
    canon, long = tmp_path / "canon.json", tmp_path / "long.json"
    canon.write_text(CANON_DOC)
    long.write_text(json.dumps({"code": [{"symbol": "a", "codeword": "0" * 20_000}]}))
    main = ["-m", "thermocode.cli"]
    jobs = [
        [*main, "check", "--code", str(canon)],
        [*main, "check", "--code", str(long)],
        [*main, "prefixes", "--code", str(long), "-N", "1", "-L", "20000"],
    ]
    (base_rc, base_mb), (check_rc, check_mb), (refused_rc, refused_mb) = peak_mb(jobs)
    assert (base_rc, check_rc, refused_rc) == (0, 0, 3)
    assert check_mb - base_mb < 10, (base_mb, check_mb)
    assert refused_mb - base_mb < 10, (base_mb, refused_mb)


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
