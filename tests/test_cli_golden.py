"""Byte-identity of CLI output against recorded golden files.

cli_golden.json holds, for each case, the exact stdout, stderr and exit code
of one `thermocode` invocation.  The cases cover the table-derived columns
(omega, S, T, windowed aggregates), the temperature summaries and the notes
of dimension, prefixes and equilibrium --brute on four codes:

  canon  {0, 10, 11}
  g16    `gen --leaves 16 --seed 7`
  deg    {00, 01, 10}: one achievable length per N, so T is nan
  step2  {0, 111}: lattice step 2 and palindromic counts, so the
         central difference hits the signed-infinity zero-slope branch

Each case also runs with --out FILE: the file must hold the recorded stdout
and stdout the recorded stderr (the notes).

To re-record after an intended output change (never to paper over an
unintended one), run from the repository root:

    PYTHONPATH=src python tests/test_cli_golden.py --record
"""

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

from thermocode.cli import main

GOLDEN = Path(__file__).with_name("cli_golden.json")


def _doc(words: list[str]) -> str:
    return json.dumps({"code": [{"symbol": f"s{i}", "codeword": w} for i, w in enumerate(words)]})


def _cases() -> dict[str, list[str]]:
    """Case id -> argv, with @name standing for a code document path."""
    cases = {}
    for code, n, total, window in (
        ("canon", 12, 17, 2),
        ("g16", 6, 22, 3),
        ("deg", 4, 8, 1),
        ("step2", 8, 16, 4),
        ("step2", 1, 3, 2),
    ):
        c = ["--code", f"@{code}", "-N", str(n)]
        for mode in ("exact", "log"):
            m = ["--mode", mode]
            cases[f"omega-{code}-{n}-{mode}"] = ["omega", *c, *m]
            cases[f"omega-{code}-{n}-{mode}-window"] = ["omega", *c, *m, "--window", str(window)]
            cases[f"temperature-{code}-{n}-{mode}"] = ["temperature", *c, *m]
            cases[f"temperature-{code}-{n}-{mode}-L"] = ["temperature", *c, *m, "-L", str(total)]
        cases[f"prefixes-{code}-{n}"] = ["prefixes", *c, "-L", str(total)]
    for code in ("canon", "g16", "deg", "step2"):
        cases[f"dimension-{code}"] = ["dimension", "--code", f"@{code}", "--grid=-5:5:21"]
    for first, n1, second, n2, total in (
        ("canon", 12, "g16", 6, 39),
        ("step2", 8, "canon", 12, 33),
        ("deg", 4, "step2", 3, 13),
        ("canon", 5, "deg", 2, 12),
    ):
        cases[f"brute-{first}-{second}"] = [
            "equilibrium", "--code", f"@{first}", "--code2", f"@{second}",
            "-N", str(n1), "--N2", str(n2), "-L", str(total), "--brute",
        ]
    cases["gen-g16"] = ["gen", "--leaves", "16", "--seed", "7"]
    for code in ("canon", "g16"):
        c = ["--code", f"@{code}"]
        for beta in ("1", "0", "-1", "700"):
            cases[f"gibbs-{code}-beta-{beta}"] = ["gibbs", *c, f"--beta={beta}"]
        cases[f"gibbs-{code}-temp-2"] = ["gibbs", *c, "--temp", "2"]
    cases["solve-temp-g16-lambda"] = ["solve-temp", "--code", "@g16", "--lambda", "4.5"]
    cases["solve-temp-canon-L-N"] = ["solve-temp", "--code", "@canon", "-L", "17", "-N", "12"]
    cases["solve-temp-canon-infeasible"] = ["solve-temp", "--code", "@canon", "--lambda", "2.5"]
    cases["solve-temp-deg"] = ["solve-temp", "--code", "@deg", "--lambda", "2"]
    for first, n1, second, n2, total in (
        ("canon", 12, "g16", 6, 39),
        ("step2", 8, "canon", 12, 33),
        ("deg", 4, "deg", 3, 14),
    ):
        cases[f"equilibrium-{first}-{second}"] = [
            "equilibrium", "--code", f"@{first}", "--code2", f"@{second}",
            "-N", str(n1), "--N2", str(n2), "-L", str(total),
        ]
    for code in ("canon", "g16", "deg", "step2"):
        cases[f"check-{code}"] = ["check", "--code", f"@{code}"]
    return cases


def _run(argv: list[str], paths: dict[str, str]) -> dict:
    argv = [paths[a[1:]] if a.startswith("@") else a for a in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv)
    return {"rc": rc, "stdout": out.getvalue(), "stderr": err.getvalue()}


def _write_codes(directory: Path, documents: dict[str, str]) -> dict[str, str]:
    paths = {}
    for name, text in documents.items():
        path = directory / f"{name}.json"
        path.write_text(text)
        paths[name] = str(path)
    return paths


def _record(directory: Path) -> None:
    g16 = _run(["gen", "--leaves", "16", "--seed", "7"], {})["stdout"]
    documents = {
        "canon": _doc(["0", "10", "11"]),
        "g16": g16,
        "deg": _doc(["00", "01", "10"]),
        "step2": _doc(["0", "111"]),
    }
    paths = _write_codes(directory, documents)
    golden = {
        "codes": documents,
        "cases": {name: {"argv": argv, **_run(argv, paths)} for name, argv in _cases().items()},
    }
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")


def _golden() -> dict:
    return json.loads(GOLDEN.read_text())


@pytest.fixture(scope="module")
def code_paths(tmp_path_factory):
    return _write_codes(tmp_path_factory.mktemp("codes"), _golden()["codes"])


@pytest.mark.parametrize("case", sorted(_cases()))
def test_cli_output_matches_golden(case, code_paths):
    want = _golden()["cases"][case]
    assert want["argv"] == _cases()[case]
    got = _run(want["argv"], code_paths)
    assert got == {key: want[key] for key in ("rc", "stdout", "stderr")}


@pytest.mark.parametrize("case", sorted(_cases()))
def test_cli_out_file_matches_golden(case, code_paths, tmp_path):
    """With --out FILE the file holds the recorded stdout and the notes move to
    stdout; a failed run creates no file and reports on stderr as before."""
    want = _golden()["cases"][case]
    path = tmp_path / "out.txt"
    got = _run([*want["argv"], "--out", str(path)], code_paths)
    got["file"] = path.read_text() if path.exists() else None
    ok = want["rc"] == 0
    assert got == {
        "rc": want["rc"],
        "file": want["stdout"] if ok else None,
        "stdout": want["stderr"] if ok else "",
        "stderr": "" if ok else want["stderr"],
    }


def _blank_omega(csv_text: str) -> str:
    """csv_text with the omega cell (second column) of every data row emptied."""
    header, *rows = csv_text.splitlines(keepends=True)
    out = [header]
    for row in rows:
        L, _, rest = row.split(",", 2)
        out.append(f"{L},,{rest}")
    return "".join(out)


@pytest.mark.parametrize("case", sorted(c for c in _cases() if c.startswith("omega-") and c.endswith("-exact")))
def test_log_omega_is_exact_omega_without_counts(case):
    """A log table holds math.log2 of the exact counts, so --mode log prints
    the exact table's bytes with the omega column blank."""
    cases = _golden()["cases"]
    exact, log = cases[case], cases[case.removesuffix("-exact") + "-log"]
    assert exact["rc"] == log["rc"] == 0
    assert log["stdout"] == _blank_omega(exact["stdout"])


@pytest.mark.parametrize("case", sorted(c for c in _cases() if c.startswith("omega-") and c.endswith("-exact-window")))
def test_omega_window_modes_print_the_same_bytes(case):
    """Both --mode values take math.log2 of the same exact window sums, so
    --mode log prints the exact bytes with the omega column blank."""
    cases = _golden()["cases"]
    exact, log = cases[case], cases[case.replace("-exact", "-log")]
    assert exact["rc"] == log["rc"] == 0
    assert exact["stderr"] == log["stderr"]
    assert log["stdout"] == _blank_omega(exact["stdout"])


@pytest.mark.parametrize("case", sorted(c for c in _cases() if c.startswith("temperature-") and "-exact" in c))
def test_temperature_modes_print_the_same_bytes(case):
    """Both --mode values read the log table and its exact most probable
    length, so they print the same bytes, with -L and without."""
    cases = _golden()["cases"]
    exact, log = cases[case], cases[case.replace("-exact", "-log")]
    assert {k: exact[k] for k in ("rc", "stdout", "stderr")} == {k: log[k] for k in ("rc", "stdout", "stderr")}


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit(__doc__)
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        _record(Path(tmp))
