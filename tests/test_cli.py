"""End-to-end tests of the thermocode command line."""

import argparse
import contextlib
import io
import json
import math
import re
import sys
import time
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from thermocode import Code, cli, count_messages, dump_code, parse_code, random_complete_code
from thermocode.cli import _cmd_omega, _fmt, _kv, _parse_grid, build_parser, main
from thermocode.errors import (
    CapacityError,
    CodeError,
    DegenerateSpectrumError,
    InfeasibleError,
    ParseError,
    UnachievableLengthError,
)

from strategies import whole_codes

CANON_DOC = json.dumps(
    {
        "code": [
            {"symbol": "a", "codeword": "0", "prob": "0.5"},
            {"symbol": "b", "codeword": "10", "prob": "0.25"},
            {"symbol": "c", "codeword": "11", "prob": "0.25"},
        ]
    }
)

BAD_DOC = json.dumps(
    {"code": [{"symbol": "a", "codeword": "0"}, {"symbol": "b", "codeword": "01"}]}
)


@pytest.fixture()
def canon_path(tmp_path):
    p = tmp_path / "canon.json"
    p.write_text(CANON_DOC)
    return str(p)


def run(capsys, *argv) -> tuple[int, str, str]:
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def kv(out: str) -> dict[str, str]:
    pairs = {}
    for line in out.strip().splitlines():
        if "=" in line:
            k, v = line.split("=", 1)
            pairs[k.strip()] = v.strip()
    return pairs


def _doc(*entries) -> str:
    return json.dumps({"code": [dict(zip(("symbol", "codeword", "prob"), e)) for e in entries]})


# ---------------------------------------------------------------------------
# check
# ---------------------------------------------------------------------------

def test_check_reports_code_facts(capsys, canon_path):
    rc, out, _ = run(capsys, "check", "--code", canon_path)
    assert rc == 0
    got = kv(out)
    assert got["n"] == "3"
    assert got["kraft"] == "1"
    assert got["complete"] == "true"
    assert got["l_min"] == "1" and got["l_max"] == "2"
    assert got["H"] == "1.5" and got["L_X"] == "1.5"
    assert got["optimal"] == "true"


def test_check_reports_a_non_optimal_pmf(capsys, tmp_path):
    # a complete code whose pmf is not 2**-length: H < L_X
    p = tmp_path / "skewed.json"
    p.write_text(_doc(("a", "0", "0.4"), ("b", "10", "0.3"), ("c", "11", "0.3")))
    rc, out, _ = run(capsys, "check", "--code", str(p))
    assert rc == 0
    assert out.splitlines()[4:] == ["complete=true", "H=1.5709505944546684", "L_X=1.6000000000000001", "optimal=false"]


@pytest.mark.parametrize("first", ["0.5000000000001", 0.5000000000001], ids=["string", "float"])
def test_check_compares_a_float_pmf_within_its_tolerance(capsys, tmp_path, first):
    # one float probability makes the pmf float: a string entry beside it
    # compares within 1e-12 as well
    p = tmp_path / "mixed.json"
    p.write_text(_doc(("a", "0", first), ("b", "10", 0.25), ("c", "11", 0.2499999999999)))
    rc, out, _ = run(capsys, "check", "--code", str(p))
    assert rc == 0
    assert out.splitlines()[5:] == ["H=1.4999999999999001", "L_X=1.4999999999999001", "optimal=true"]


def test_kv_formats_each_value_as_a_cell():
    pairs = [
        ("i", 7), ("f", 0.1), ("pos", math.inf), ("neg", -math.inf), ("nan", math.nan),
        ("s", "3/4"), ("yes", True), ("no", False),
    ]
    assert list(_kv(pairs)) == [
        "i=7", "f=0.10000000000000001", "pos=+inf", "neg=-inf", "nan=nan",
        "s=3/4", "yes=true", "no=false",
    ]


def test_check_rejects_prefix_violation(capsys, tmp_path):
    p = tmp_path / "bad.json"
    p.write_text(BAD_DOC)
    rc, _, err = run(capsys, "check", "--code", str(p))
    assert rc == 1
    assert "error:" in err and "prefix" in err


def test_check_refuses_nan_probability(capsys, tmp_path):
    # Python's json reads a bare NaN; the pmf must not take it
    p = tmp_path / "nan.json"
    p.write_text(CANON_DOC.replace('"0.5"', "NaN"))
    rc, out, err = run(capsys, "check", "--code", str(p))
    assert rc == 1
    assert out == ""
    assert err == "error: probability of 'a' must be finite, got nan\n"


HOSTILE_DOCS = {
    # a 4 KB document whose extra key nests 2,000 lists: RecursionError in the decoder
    "nested": ('{"code": [{"symbol": "a", "codeword": "0"}], "x": ' + "[" * 2000 + "]" * 2000 + "}", 1),
    # a 10**300000 or 10**10000000 denominator: seconds to build and to print
    "exponent-6-digits": ('{"code": [{"symbol": "a", "codeword": "0", "prob": "1e-300000"}]}', 3),
    "exponent-8-digits": ('{"code": [{"symbol": "a", "codeword": "0", "prob": "1e-10000000"}]}', 3),
    # a plain 30,001-digit decimal: the exact sum printed in full ran to 60,000 digits
    "long-decimal": ('{"code": [{"symbol": "a", "codeword": "0", "prob": "0.' + "5" * 30000 + '1"}]}', 1),
}


@pytest.mark.parametrize("name", HOSTILE_DOCS)
def test_check_refuses_a_hostile_document_at_once_in_one_line(capsys, tmp_path, name):
    text, code = HOSTILE_DOCS[name]
    p = tmp_path / "hostile.json"
    p.write_text(text)
    started = time.process_time()
    rc, out, err = run(capsys, "check", "--code", str(p))
    assert time.process_time() - started < 1.0
    assert (rc, out) == (code, "")
    assert err.startswith("error: ") and err.count("\n") == 1 and len(err) < 200


LONG = 100_000
# each refusal quotes its bad value, the prefix violation both codewords
LONG_VALUE_DOCS = {
    "unreadable-probability": _doc(("a", "0", "0." + "5" * LONG + "x"), ("b", "1", "0.5")),
    "non-binary-codeword": _doc(("a", "2" * LONG)),
    "symbol-with-whitespace": _doc(("a " + "a" * LONG, "0")),
    "duplicate-codeword": _doc(("a", "0" * LONG), ("b", "0" * LONG)),
    "prefix-violation": _doc(("a", "0" * LONG), ("b", "0" * LONG + "1")),
    "duplicate-symbol": _doc(("a" * LONG, "0"), ("a" * LONG, "1")),
    "wide-symbol-with-whitespace": _doc(("\u00e9 " + "\u4e2d" * LONG, "0")),
}


@pytest.mark.parametrize("name", LONG_VALUE_DOCS)
def test_a_long_bad_value_makes_a_short_error_line(capsys, tmp_path, name):
    p = tmp_path / "long.json"
    p.write_text(LONG_VALUE_DOCS[name])
    rc, out, err = run(capsys, "check", "--code", str(p))
    assert (rc, out) == (1, "")
    assert err.startswith("error: ") and err.count("\n") == 1 and len(err.encode()) < 500
    assert "characters left out]" in err and err.isascii()
    # a library caller still gets the whole message
    with pytest.raises(ValueError) as info:
        parse_code(LONG_VALUE_DOCS[name])
    assert len(str(info.value)) > LONG


@pytest.mark.parametrize("length", [400, 401])
def test_an_error_message_over_400_characters_prints_its_ends(capsys, monkeypatch, length):
    message = "".join(map(str, range(1000)))[:length]

    def fail(args):
        raise CodeError(message)

    monkeypatch.setattr(cli, "_cmd_check", fail)
    shown = f"{message[:200]} ...[1 characters left out]... {message[-200:]}" if length > 400 else message
    assert run(capsys, "check", "--code", "code.json") == (1, "", f"error: {shown}\n")


def test_a_clipped_line_shows_whole_escapes_and_counts_the_messages_characters(capsys, tmp_path):
    text = LONG_VALUE_DOCS["wide-symbol-with-whitespace"]
    p = tmp_path / "wide.json"
    p.write_text(text)
    _, _, err = run(capsys, "check", "--code", str(p))
    with pytest.raises(ValueError) as info:
        parse_code(text)
    message = str(info.value)
    head, left_out, tail = re.fullmatch(r"error: (.*) \.\.\.\[(\d+) characters left out\]\.\.\. (.*)\n", err).groups()
    # each end is at most 200 ASCII characters, as full as an escape (at
    # most 10 characters) allows, and decodes to an end of the message: an
    # escape cut in two would not decode, or would not be an end
    assert 190 < len(head) <= 200 and 190 < len(tail) <= 200
    head, tail = (end.encode().decode("unicode_escape") for end in (head, tail))
    assert message.startswith(head) and message.endswith(tail)
    assert int(left_out) == len(message) - len(head) - len(tail)


def test_missing_file_is_exit_one(capsys):
    rc, _, err = run(capsys, "check", "--code", "/nonexistent/code.json")
    assert rc == 1
    assert "error:" in err


@pytest.mark.parametrize("error, code", [
    (CapacityError, 3),
    (InfeasibleError, 2), (UnachievableLengthError, 2), (DegenerateSpectrumError, 2),
    (ParseError, 1), (CodeError, 1), (ValueError, 1), (FileNotFoundError, 1),
])
def test_each_error_class_has_its_exit_code(capsys, monkeypatch, tmp_path, error, code):
    def fail(args):
        raise error("no table")

    monkeypatch.setattr(cli, "_cmd_check", fail)
    out = tmp_path / "out.txt"
    assert run(capsys, "check", "--code", "code.json", "--out", str(out)) == (code, "", "error: no table\n")
    assert not out.exists()


def test_an_unexpected_error_propagates(monkeypatch):
    def fail(args):
        raise RuntimeError("a bug")

    monkeypatch.setattr(cli, "_cmd_check", fail)
    with pytest.raises(RuntimeError, match="a bug"):
        main(["check", "--code", "code.json"])


# ---------------------------------------------------------------------------
# omega
# ---------------------------------------------------------------------------

def test_omega_exact_table(capsys, canon_path):
    rc, out, _ = run(capsys, "omega", "--code", canon_path, "-N", "3")
    assert rc == 0
    lines = out.strip().splitlines()
    assert lines[0] == "L,omega,log2_omega,S,T"
    rows = [line.split(",") for line in lines[1:]]
    assert [r[0] for r in rows] == ["3", "4", "5", "6"]
    assert [r[1] for r in rows] == ["1", "6", "12", "8"]
    # S column repeats log2_omega
    for r in rows:
        assert r[2] == r[3]
    assert rows[0][4] != "" and rows[-1][4].startswith("-")


def test_omega_log_mode_leaves_counts_blank(capsys, canon_path):
    rc, out, _ = run(capsys, "omega", "--code", canon_path, "-N", "200", "--mode", "log")
    assert rc == 0
    lines = out.strip().splitlines()
    assert lines[0] == "L,omega,log2_omega,S,T"
    assert all(line.split(",")[1] == "" for line in lines[1:])
    assert len(lines) == 1 + 201  # support of 200 symbols spans [200, 400]


def test_omega_window_aggregates_counts(capsys, canon_path):
    rc, out, _ = run(capsys, "omega", "--code", canon_path, "-N", "3", "--window", "2")
    assert rc == 0
    rows = [line.split(",") for line in out.strip().splitlines()[1:]]
    got = {int(r[0]): int(r[1]) for r in rows}
    # sliding sums over [L, L+2] of the counts 1, 6, 12, 8
    assert got == {3: 19, 4: 26, 5: 20, 6: 8}


def test_omega_infinite_window_sums_tails(capsys, canon_path):
    rc, out, _ = run(capsys, "omega", "--code", canon_path, "-N", "3", "--window", "inf")
    assert rc == 0
    rows = [line.split(",") for line in out.strip().splitlines()[1:]]
    assert {int(r[0]): int(r[1]) for r in rows} == {3: 27, 4: 26, 5: 20, 6: 8}


@pytest.mark.parametrize("words, n", [
    (["0", "10", "11"], 12),  # canon
    (None, 6),  # g16: gen --leaves 16 --seed 7
    (["0", "111"], 8),  # step2: lattice step 2
    (["0", "10", "11"], 100),  # canon, where --window 60 and 99 (the widest below N*span) rerun the recurrence
])
@pytest.mark.parametrize("window", ["0.5", "3", "60", "99", "inf"])
def test_omega_window_equals_direct_slice_sums(capsys, tmp_path, words, n, window):
    code = random_complete_code(16, 7) if words is None else Code({f"s{i}": w for i, w in enumerate(words)})
    path = tmp_path / "code.json"
    path.write_text(dump_code(code))
    counts = count_messages(code.spectrum(), n).to_dict()
    for mode in ("exact", "log"):
        rc, out, _ = run(capsys, "omega", "--code", str(path), "-N", str(n), "--window", window, "--mode", mode)
        assert rc == 0
        rows = [line.split(",") for line in out.strip().splitlines()[1:]]
        assert [int(r[0]) for r in rows] == list(counts)
        for L, omega, log2_omega, entropy, _ in rows:
            want = sum(c for M, c in counts.items() if int(L) <= M <= int(L) + float(window))
            assert omega == (str(want) if mode == "exact" else "")
            assert log2_omega == entropy == _fmt(math.log2(want))


@pytest.mark.parametrize("mode", ["exact", "log"])
def test_omega_window_runs_the_recurrence_once_unless_it_reruns(capsys, canon_path, monkeypatch, mode):
    # canon at N = 100 spans 100 cells: no window and --window 3 (tee) run
    # Miller's recurrence once, --window 60 and 99 run it for each pass, and
    # a window that reaches the last cell takes the total in closed form
    from thermocode import microcanonical

    calls = []
    miller = microcanonical._miller

    def counted(*args):
        calls.append(args)
        return miller(*args)

    monkeypatch.setattr(microcanonical, "_miller", counted)
    for window, runs in (("0", 1), ("3", 1), ("60", 2), ("99", 2), ("100", 1), ("inf", 1)):
        calls.clear()
        assert run(capsys, "omega", "--code", canon_path, "-N", "100", "--mode", mode, "--window", window)[0] == 0
        assert len(calls) == runs, window


@pytest.mark.parametrize("window", [[], ["--window", "3"]], ids=["plain", "window"])
def test_log_omega_holds_three_array_cells_a_row(canon_path, window):
    # a log row keeps L, S and T as 8-byte array cells and no per-row object
    argv = ["omega", "--code", canon_path, "--mode", "log", *window, "-N"]
    _cmd_omega(build_parser().parse_args([*argv, "3"]))  # imports outside the trace
    args = build_parser().parse_args([*argv, "20000"])
    tracemalloc.start()
    try:
        rows, _ = _cmd_omega(args)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert held / 20001 <= 32
    assert sum(1 for _ in rows) == 1 + 20001


def _omega_columns(path: str, n: int, window: str, mode: str) -> list[str]:
    """omega's stdout lines without the omega column: L,log2_omega,S,T."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["omega", "--code", path, "-N", str(n), "--window", window, "--mode", mode]) == 0
    return [",".join(line.split(",")[:1] + line.split(",")[2:]) for line in out.getvalue().splitlines()]


_WINDOWS = ["0.5", "1", "3", "7.9", "inf"]
_STEP2 = Code({"a": "0", "b": "111"})


@settings(derandomize=True, max_examples=100, deadline=None)
@given(code=whole_codes(), n=st.integers(1, 8), window=st.sampled_from(_WINDOWS))
@example(code=_STEP2, n=8, window="0.5")
@example(code=_STEP2, n=8, window="1")
@example(code=_STEP2, n=8, window="3")
@example(code=_STEP2, n=8, window="7.9")
@example(code=_STEP2, n=8, window="inf")
def test_omega_window_modes_print_the_same_columns(tmp_path_factory, code, n, window):
    # both modes take log2 of the same exact window sums
    path = tmp_path_factory.mktemp("code") / "code.json"
    path.write_text(dump_code(code))
    exact = _omega_columns(str(path), n, window, "exact")
    assert exact == _omega_columns(str(path), n, window, "log")


@pytest.mark.parametrize("window", ["0", "3", "1999"])
def test_omega_modes_print_the_same_columns_on_3000_bit_counts(canon_path, window):
    # canon at N = 2000 counts up to 3**2000, about 3,170 bits: no window
    # makes one pass, --window 3 tees one recurrence between its two passes
    # and --window 1999 reruns it for each
    assert _omega_columns(canon_path, 2000, window, "exact") == _omega_columns(canon_path, 2000, window, "log")


@pytest.mark.parametrize(
    "window", [[], ["--window", "2"], ["--window", "inf"]], ids=["plain", "window", "inf"]
)
@pytest.mark.parametrize("mode", ["exact", "log"])
def test_omega_without_symbols_exit_one(capsys, canon_path, mode, window):
    # the size charge's product turns positive for a very negative N, so
    # exact mode refuses N < 1 before its guard; a window covers every cell
    # of an N < 1 table, so log mode takes the closed-form lead and the
    # refusal comes from the recurrence's first cell
    for n in ("0", "-1000000000"):
        rc, out, err = run(capsys, "omega", "--code", canon_path, "-N", n, "--mode", mode, *window)
        assert (rc, out, err) == (1, "", "error: n_symbols must be at least 1\n")


def test_omega_capacity_exit_three(capsys, canon_path):
    rc, out, err = run(capsys, "omega", "--code", canon_path, "-N", "3000000")
    assert rc == 3
    assert out == ""
    assert "log-domain" in err


def test_omega_huge_degenerate_count_still_prints(capsys, tmp_path):
    # a one-length code has a single cell, and at 180,000 bits it passes
    # the size guard, so the exact count runs to tens of thousands of
    # digits; it must print, not raise
    rows = [{"symbol": f"s{i}", "codeword": format(i, "06b")} for i in range(64)]
    p = tmp_path / "wide.json"
    p.write_text(json.dumps({"code": rows}))
    rc, out, _ = run(capsys, "omega", "--code", str(p), "-N", "30000")
    assert rc == 0
    lines = out.strip().splitlines()
    assert len(lines) == 2
    omega = lines[1].split(",")[1]
    assert len(omega) > 50000  # 64**30000 has ~54000 digits
    # main gives the caller its int-to-str limit back, so lift it here to
    # print the expected count
    saved = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if saved is not None:
        sys.set_int_max_str_digits(0)
    try:
        assert omega == str(64**30000)
    finally:
        if saved is not None:
            sys.set_int_max_str_digits(saved)


# ---------------------------------------------------------------------------
# temperature
# ---------------------------------------------------------------------------

def test_temperature_at_length(capsys, canon_path):
    rc, out, _ = run(capsys, "temperature", "--code", canon_path, "-N", "2", "-L", "3")
    assert rc == 0
    got = kv(out)
    assert got["L"] == "3"
    assert float(got["T"]) == 1.0
    assert got["one_sided"] == "false"


def test_temperature_summary_mode(capsys, canon_path):
    rc, out, _ = run(capsys, "temperature", "--code", canon_path, "-N", "3")
    assert rc == 0
    got = kv(out)
    assert got["L_star"] == "4"
    assert float(got["L_star_over_N"]) == pytest.approx(4 / 3)
    assert float(got["T_at_L_star"]) == pytest.approx(2.0 / math.log2(12), abs=1e-12)


def test_exact_temperature_passes_no_capacity_guard(capsys, canon_path, monkeypatch):
    # temperature reads the log table and its exact L*, so a guard that
    # refuses every exact table refuses omega but not temperature
    from thermocode import microcanonical

    monkeypatch.setattr(microcanonical, "MAX_EXACT_BITS", 0)
    assert run(capsys, "omega", "--code", canon_path, "-N", "3")[0] == 3
    for L in ([], ["-L", "5"]):
        exact = run(capsys, "temperature", "--code", canon_path, "-N", "3", *L)
        log = run(capsys, "temperature", "--code", canon_path, "-N", "3", "--mode", "log", *L)
        assert exact == log and exact[0] == 0


def test_temperature_runs_where_the_real_guard_refuses_exact_omega(capsys, canon_path):
    # canon at N = 60,000 needs up to 5.7e9 bits of exact counts, over
    # MAX_EXACT_BITS; temperature reads the log table and its exact L*,
    # which is 3N/2 on canon
    assert run(capsys, "omega", "--code", canon_path, "-N", "60000")[0] == 3
    rc, out, _ = run(capsys, "temperature", "--code", canon_path, "-N", "60000")
    assert rc == 0 and kv(out)["L_star"] == "90000"


def test_temperature_modes_print_the_same_bytes_on_a_16_word_code(capsys, tmp_path):
    path = tmp_path / "g16.json"
    path.write_text(dump_code(random_complete_code(16, 1)))
    for L in ([], ["-L", "700"]):
        exact = run(capsys, "temperature", "--code", str(path), "-N", "200", "--mode", "exact", *L)
        assert exact == run(capsys, "temperature", "--code", str(path), "-N", "200", "--mode", "log", *L)
        assert exact[0] == 0


def test_log_omega_window_passes_no_capacity_guard(capsys, canon_path, monkeypatch):
    # log mode sums Miller's counts as they pass, keeping no exact table,
    # with a window and without one
    from thermocode import microcanonical

    monkeypatch.setattr(microcanonical, "MAX_EXACT_BITS", 0)
    argv = ("omega", "--code", canon_path, "-N", "3", "--window", "2")
    assert run(capsys, *argv)[0] == 3
    rc, out, _ = run(capsys, *argv, "--mode", "log")
    assert rc == 0
    # sliding sums over [L, L+2] of the counts 1, 6, 12, 8 are 19, 26, 20, 8
    s = _fmt(math.log2(19))
    assert out.splitlines()[1] == f"3,,{s},{s},{_fmt(1 / (math.log2(26) - math.log2(19)))}"
    assert run(capsys, *argv[:5])[0] == 3
    rc, out, _ = run(capsys, *argv[:5], "--mode", "log")
    assert rc == 0
    s = _fmt(math.log2(6))
    assert out.splitlines()[1:3] == [f"3,,0,0,{_fmt(1 / math.log2(6))}", f"4,,{s},{s},{_fmt(2 / math.log2(12))}"]


def test_omega_calls_no_table_builder(monkeypatch, tmp_path):
    # both modes read Miller's counts as they pass: with every count-table
    # builder refusing, each omega case still prints its golden bytes, and
    # so does --window 0; --window 3 and inf print what they print with the
    # builders in place
    from test_cli_golden import _golden, _run, _write_codes
    from thermocode import cli, microcanonical

    golden = _golden()
    paths = _write_codes(tmp_path, golden["codes"])
    cases = {name: case for name, case in golden["cases"].items() if name.startswith("omega-")}
    want = {(name, w): _run([*cases[name]["argv"], "--window", w], paths)
            for name in cases if name.endswith(("-exact", "-log")) for w in ("3", "inf")}

    def refuse(*args):
        raise AssertionError("omega built a count table")

    # cli first: reading a name off cli binds the package's own function
    # there (and in the package) before microcanonical's is replaced, so
    # neither keeps the refusing one once the patches are undone
    for module in (cli, microcanonical):
        monkeypatch.setattr(module, "count_messages", refuse)
        monkeypatch.setattr(module, "count_messages_log", refuse)
    for name, case in cases.items():
        recorded = {key: case[key] for key in ("rc", "stdout", "stderr")}
        assert _run(case["argv"], paths) == recorded
        if not name.endswith("-window"):
            assert _run([*case["argv"], "--window", "0"], paths) == recorded
    for (name, w), got in want.items():
        assert got["rc"] == 0
        assert _run([*cases[name]["argv"], "--window", w], paths) == got


def test_temperature_unachievable_exit_two(capsys, canon_path):
    rc, _, err = run(capsys, "temperature", "--code", canon_path, "-N", "2", "-L", "9")
    assert rc == 2
    assert "error:" in err


def test_temperature_fractional_length_exit_two(capsys, canon_path):
    rc, _, err = run(capsys, "temperature", "--code", canon_path, "-N", "2", "-L", "3.5")
    assert rc == 2


@pytest.mark.parametrize(
    "words, n, total",
    [
        (("0", "10", "11"), 40, "39"),  # below the range
        (("0", "10", "11"), 40, "81"),  # above it
        (("0", "10", "11"), 40, "60.5"),  # between two lengths
        (("0", "10", "11"), 0, "60.5"),  # the count of symbols is refused first
        (("00", "01", *(format(i, "04b") for i in range(8, 16))), 40, "113"),  # in a lattice gap
        (("000",), 7, "21"),  # one achievable length: no temperature
    ],
)
def test_temperature_refuses_a_length_with_the_whole_tables_message(capsys, tmp_path, words, n, total):
    # the command streams only part of the table, yet names the achievable
    # range of the whole one, as temperature_at does on count_messages_log
    from thermocode import count_messages_log, temperature_at

    code = Code({f"s{i:02}": w for i, w in enumerate(words)})
    path = tmp_path / "code.json"
    path.write_text(dump_code(code))
    rc, out, err = run(capsys, "temperature", "--code", str(path), "-N", str(n), "-L", total)
    with pytest.raises((UnachievableLengthError, ValueError)) as refused:
        temperature_at(count_messages_log(code.spectrum(), n), cli._int_total(float(total)))
    assert (rc, out, err) == (2 if n else 1, "", f"error: {refused.value}\n")


@pytest.mark.parametrize("value", ["inf", "nan"])
@pytest.mark.parametrize(
    "argv",
    [
        ("temperature", "--code", "@canon", "-N", "2", "-L", "@value"),
        ("prefixes", "--code", "@canon", "-N", "2", "-L", "@value"),
        ("equilibrium", "--code", "@canon", "--code2", "@canon", "-N", "2", "--N2", "1",
         "-L", "@value", "--brute"),
        ("sample", "--code", "@canon", "-N", "2", "--draws", "10", "--seed", "1",
         "--focus-L", "@value"),
    ],
    ids=["temperature", "prefixes", "equilibrium-brute", "sample"],
)
def test_non_finite_length_exit_two(capsys, canon_path, argv, value):
    flag = argv[argv.index("@value") - 1]
    rc, out, err = run(capsys, *[{"@canon": canon_path, "@value": value}.get(a, a) for a in argv])
    assert rc == 2
    assert out == ""
    assert err == f"error: {flag} must be an integer number of bits, got {value}\n"


@pytest.mark.parametrize(
    "argv",
    [
        ("omega", "--code", "@canon", "-N", "3", "--window", "nan"),
        ("omega", "--code", "@canon", "-N", "3", "--window", "-1"),
        ("omega", "--code", "@canon", "-N", "3", "--window", "-1", "--mode", "log"),
        ("dimension", "--code", "@canon", "--grid=0:inf:3"),
        ("dimension", "--code", "@canon", "--grid=-inf:0:3"),
        ("dimension", "--code", "@canon", "--grid=0:1"),
        ("dimension", "--code", "@canon", "--grid=a:1:3"),
    ],
    ids=["window-nan", "window-negative", "window-negative-log", "grid-inf-hi", "grid-inf-lo",
         "grid-two-fields", "grid-not-a-number"],
)
def test_bad_float_option_exit_one(capsys, canon_path, argv):
    rc, out, err = run(capsys, *[canon_path if a == "@canon" else a for a in argv])
    assert rc == 1
    assert out == ""
    assert err.startswith("error: ")


# ---------------------------------------------------------------------------
# gibbs / solve-temp
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "argv",
    [
        ("gibbs", "--beta=6e307"),
        ("gibbs", "--beta=-6e307"),
        ("gibbs", "--beta=1e308"),
        ("gibbs", "--beta=-1e308"),
        ("dimension", "--grid=-1e308:-1e308:1"),
        ("gibbs", "--beta=inf"),
        ("gibbs", "--beta=nan"),
        ("gibbs", "--temp=0"),
    ],
    ids=["gibbs-6e307", "gibbs-minus-6e307", "gibbs-1e308", "gibbs-minus-1e308", "dimension",
         "gibbs-inf", "gibbs-nan", "gibbs-temp-0"],
)
def test_beta_past_the_float_range_exit_one(capsys, tmp_path, argv):
    # lengths {2, 3}: beta * l_max overflows once |beta| passes about 5.99e307
    p = tmp_path / "two.json"
    p.write_text(json.dumps({"code": [{"symbol": "a", "codeword": "00"},
                                      {"symbol": "b", "codeword": "010"}]}))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc, out, err = run(capsys, argv[0], "--code", str(p), *argv[1:])
    assert rc == 1
    assert out == ""
    assert err.startswith("error: beta ") and "must stay below about 5.99231e+307" in err
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    assert "RuntimeWarning" not in err


def test_gibbs_at_unit_beta(capsys, canon_path):
    rc, out, _ = run(capsys, "gibbs", "--code", canon_path, "--beta", "1")
    assert rc == 0
    lines = out.strip().splitlines()
    assert lines[0] == "beta,T,Z,lambda,H_G"
    beta, temp, z, lam, h = lines[1].split(",")
    assert float(beta) == 1.0 and float(temp) == 1.0
    assert float(z) == 1.0
    assert float(lam) == 1.5 and float(h) == 1.5


def test_gibbs_infinite_temperature_unsigned(capsys, canon_path):
    rc, out, _ = run(capsys, "gibbs", "--code", canon_path, "--beta", "0")
    assert rc == 0
    row = out.strip().splitlines()[1].split(",")
    assert row[1] == "inf"


def test_gibbs_prints_an_overflowing_partition_function_as_inf(capsys, canon_path):
    # log2 Z is about 4001 at beta -2000: Z prints inf, the other columns are finite
    rc, out, _ = run(capsys, "gibbs", "--code", canon_path, "--beta", "-2000")
    assert (rc, out.splitlines()[1]) == (0, "-2000,-0.00050000000000000001,inf,2,1")


def test_gibbs_by_temperature(capsys, canon_path):
    rc, out, _ = run(capsys, "gibbs", "--code", canon_path, "--temp", "2")
    assert rc == 0
    row = out.strip().splitlines()[1].split(",")
    assert float(row[0]) == 0.5


def test_gibbs_requires_exactly_one_of_beta_temp(canon_path):
    with pytest.raises(SystemExit) as info:
        main(["gibbs", "--code", canon_path, "--beta", "1", "--temp", "1"])
    assert info.value.code == 1
    with pytest.raises(SystemExit) as info:
        main(["gibbs", "--code", canon_path])
    assert info.value.code == 1


def test_solve_temp_by_lambda(capsys, canon_path):
    rc, out, _ = run(capsys, "solve-temp", "--code", canon_path, "--lambda", "1.5")
    assert rc == 0
    lines = out.strip().splitlines()
    assert lines[0] == "beta,T,Z,lambda,H_G"
    row = lines[1].split(",")
    assert float(row[0]) == pytest.approx(1.0, abs=1e-12)
    assert float(row[3]) == pytest.approx(1.5, abs=1e-12)


def test_solve_temp_by_total_bits(capsys, canon_path):
    rc, out, _ = run(capsys, "solve-temp", "--code", canon_path, "-L", "3", "-N", "2")
    assert rc == 0
    row = out.strip().splitlines()[1].split(",")
    assert float(row[0]) == pytest.approx(1.0, abs=1e-12)


def test_solve_temp_infeasible_exit_two(capsys, canon_path):
    rc, _, err = run(capsys, "solve-temp", "--code", canon_path, "--lambda", "2.5")
    assert rc == 2
    assert "error:" in err


def test_solve_temp_needs_one_input_form(capsys, canon_path):
    rc, _, err = run(capsys, "solve-temp", "--code", canon_path)
    assert rc == 1
    for extra in (["-L", "3", "-N", "2"], ["-N", "10"], ["-L", "3"]):
        rc, out, err = run(capsys, "solve-temp", "--code", canon_path, "--lambda", "1.5", *extra)
        assert (rc, out, err) == (1, "", "error: give either --lambda or -L with -N, not both\n")


def test_solve_temp_zero_symbols_exit_one(capsys, canon_path):
    rc, out, err = run(capsys, "solve-temp", "--code", canon_path, "-L", "4", "-N", "0")
    assert rc == 1
    assert out == ""
    assert err == "error: n_symbols must be at least 1\n"


# ---------------------------------------------------------------------------
# equilibrium
# ---------------------------------------------------------------------------

@pytest.fixture()
def five_path(tmp_path):
    rows = [{"symbol": "a", "codeword": "0"}] + [
        {"symbol": f"b{i}", "codeword": "1" + format(i, "02b")} for i in range(4)
    ]
    p = tmp_path / "five.json"
    p.write_text(json.dumps({"code": rows}))
    return str(p)


def test_equilibrium_continuous(capsys, canon_path, five_path):
    rc, out, _ = run(
        capsys,
        "equilibrium",
        "--code", canon_path, "-N", "2",
        "--code2", five_path, "--N2", "2",
        "-L", "7",
    )
    assert rc == 0
    lines = out.strip().splitlines()
    assert lines[0] == "beta_star,T_star,L_I_star,L_II_star,residual"
    beta, temp, l1, l2, res = lines[1].split(",")
    assert float(beta) == pytest.approx(1.0, abs=1e-9)
    assert float(l1) == pytest.approx(3.0, abs=1e-9)
    assert float(l2) == pytest.approx(4.0, abs=1e-9)
    assert abs(float(res)) <= 1e-9


def test_equilibrium_brute_table(capsys, canon_path, five_path):
    rc, out, err = run(
        capsys,
        "equilibrium",
        "--code", canon_path, "-N", "2",
        "--code2", five_path, "--N2", "1",
        "-L", "5", "--brute",
    )
    assert rc == 0
    lines = out.strip().splitlines()
    assert lines[0] == "L_I,L_II,omega_I,omega_II,product"
    assert lines[1] == "2,3,1,4,4"
    assert lines[2] == "4,1,4,1,4"
    assert "L_I_star=2" in err


def test_equilibrium_brute_without_a_split_exit_two(capsys, canon_path, five_path):
    # the library's refusal and message: one word of length 1 or 2 and one
    # of length 1 or 3 cannot make 6 bits
    rc, out, err = run(
        capsys,
        "equilibrium",
        "--code", canon_path, "-N", "1",
        "--code2", five_path, "--N2", "1",
        "-L", "6", "--brute",
    )
    assert rc == 2
    assert out == ""
    assert err == "error: no achievable split of 6 bits for this system\n"


def test_equilibrium_out_of_range_exit_two(capsys, canon_path, five_path):
    rc, _, err = run(
        capsys,
        "equilibrium",
        "--code", canon_path, "-N", "1",
        "--code2", five_path, "--N2", "1",
        "-L", "50",
    )
    assert rc == 2


# ---------------------------------------------------------------------------
# dimension / prefixes
# ---------------------------------------------------------------------------

def test_dimension_curve_and_notes(capsys, canon_path):
    rc, out, err = run(capsys, "dimension", "--code", canon_path, "--grid=-2:2:5")
    assert rc == 0
    lines = out.strip().splitlines()
    assert lines[0] == "beta,T,lambda,dim"
    betas = [float(line.split(",")[0]) for line in lines[1:]]
    assert betas == [-2.0, -1.0, 0.0, 1.0, 2.0]
    notes = kv(err)
    assert float(notes["dim_T_equal_1"]) == pytest.approx(1.0, abs=1e-12)
    assert float(notes["dim_T_to_inf"]) == pytest.approx(0.9509775004326937, abs=1e-12)
    assert float(notes["dim_T_to_0_plus"]) == 0.0
    assert float(notes["dim_T_to_0_minus"]) == 0.5
    assert abs(float(notes["ddim_dT_at_1"])) <= 1e-6
    assert float(notes["d2dim_dT2_at_1"]) < 0


def test_dimension_grid_always_contains_unit_beta(capsys, canon_path):
    rc, out, _ = run(capsys, "dimension", "--code", canon_path, "--grid=-2:2:4")
    assert rc == 0
    betas = [float(line.split(",")[0]) for line in out.strip().splitlines()[1:]]
    assert 1.0 in betas
    assert len(betas) == 5  # four grid points plus the inserted beta=1


@pytest.mark.parametrize(
    "lo, hi, count",
    [
        (-5.0, 5.0, 201),  # the default grid
        (-5.0, 5.0, 20001),
        (-2.0, 2.0, 5),
        (0.1, 0.7, 3),
        (0.3, 0.3, 1),
        (-2.0, 7.0, 1),
        (-0.0, 3.0, 1),
        (1.5, 1.5, 7),
        (-0.0, -0.0, 4),
        (-9.0, -1e-3, 17),
        (-7.25, -3.5, 1000),
        (-1.0, -0.0, 9),
        (-1e300, 1e300, 11),
        (1e-300, 1e-299, 33),
        (5e-324, 2e-323, 7),  # the step underflows to 0
        (-1e-323, 1e-323, 1000),
    ],
)
def test_grid_is_numpys_linspace_bit_for_bit(lo, hi, count):
    want = set(np.linspace(lo, hi, count).tolist())
    if lo <= 1.0 <= hi:
        want.add(1.0)
    got = _parse_grid(f"{lo!r}:{hi!r}:{count}")
    assert [x.hex() for x in got] == [x.hex() for x in sorted(want)]


@pytest.mark.parametrize("grid", ["-1e308:1e308:3", "-1.7e308:1.7e308:1"])
def test_dimension_grid_whose_width_overflows_exit_one(capsys, canon_path, grid):
    # HI - LO is inf, so np.linspace's points would be nan
    rc, out, err = run(capsys, "dimension", "--code", canon_path, f"--grid={grid}")
    assert (rc, out, err) == (1, "", f"error: bad --grid {grid!r}: HI - LO overflows a float\n")


def test_dimension_grid_over_cap_exit_three(capsys, canon_path):
    # refused before the hundred-million-point grid is built
    rc, out, err = run(capsys, "dimension", "--code", canon_path, "--grid=0:1:100000000")
    assert rc == 3
    assert out == ""
    assert err.startswith("error: ") and "100000000" in err


def test_prefixes_table_and_fit(capsys, canon_path):
    rc, out, err = run(capsys, "prefixes", "--code", canon_path, "-N", "12", "-L", "18")
    assert rc == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n,count,log2_count"
    first = lines[1].split(",")
    assert first[0] == "0" and first[1] == "1"
    notes = kv(err)
    assert "fitted_slope" in notes
    assert float(notes["dim_at_matched_beta"]) <= 1.0 + 1e-12
    assert abs(float(notes["fitted_slope"]) - float(notes["dim_at_matched_beta"])) < 0.2


def test_prefixes_unachievable_exit_two(capsys, canon_path):
    rc, _, err = run(capsys, "prefixes", "--code", canon_path, "-N", "2", "-L", "9")
    assert rc == 2


def test_prefixes_capacity_exit_three(capsys, canon_path):
    # the reachability table alone would be about 15 GB
    rc, out, err = run(capsys, "prefixes", "--code", canon_path, "-N", "100000", "-L", "150000")
    assert rc == 3
    assert out == ""
    assert err.startswith("error: prefix table needs")


def test_prefixes_step_capacity_exit_three(capsys, tmp_path, monkeypatch):
    # fits the byte cap but needs 1.7e10 DP steps: refused before the
    # reachability table is built
    from thermocode import dimension, dump_code, random_complete_code

    def built(*args):
        raise AssertionError("the reachability table was built")

    monkeypatch.setattr(dimension, "_achievable_rows", built)
    path = tmp_path / "g4096.json"
    path.write_text(dump_code(random_complete_code(4096, 1)))
    rc, out, err = run(capsys, "prefixes", "--code", str(path), "-N", "100", "-L", "1501")
    assert rc == 3
    assert out == ""
    assert err.startswith("error: prefix table needs 1.74e+10 DP steps")


def test_a_100000_bit_codeword_is_checked_at_once_and_its_prefix_table_refused(capsys, tmp_path):
    # parsing and checking cost linear time; prefixes refuses its 2e15 DP
    # steps before building anything per code-tree node
    p = tmp_path / "long.json"
    p.write_text(_doc(("a", "0" * LONG)))
    started = time.process_time()
    rc, out, _ = run(capsys, "check", "--code", str(p))
    assert time.process_time() - started < 1.0
    assert rc == 0 and kv(out)["l_max"] == str(LONG)
    started = time.process_time()
    rc, out, err = run(capsys, "prefixes", "--code", str(p), "-N", "1", "-L", str(LONG))
    assert time.process_time() - started < 1.0
    assert (rc, out) == (3, "") and err.startswith("error: prefix table needs")


@pytest.mark.parametrize(
    "argv, rows, matched",
    [
        (("-N", "600", "-L", "900", "--n-max", "100"), 101, True),
        (("-N", "1", "-L", "1"), 2, False),  # L/N = l_min: no matched beta
        (("-N", "4", "-L", "6", "--n-max", "1"), 2, True),
    ],
)
def test_prefixes_short_of_the_fit_window(capsys, canon_path, argv, rows, matched):
    # the default slope fit starts at ceil(0.2 * L); with fewer than two
    # points in it the slope is nan, and the table and other notes still print
    rc, out, err = run(capsys, "prefixes", "--code", canon_path, *argv)
    assert rc == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n,count,log2_count"
    assert len(lines) == 1 + rows
    assert lines[1] == "0,1,0"
    notes = kv(err)
    assert notes["fitted_slope"] == "nan"
    assert ("matched_beta" in notes) == matched


def test_prefixes_negative_length_exit_two(capsys, canon_path):
    rc, out, err = run(capsys, "prefixes", "--code", canon_path, "-N", "2", "-L", "-5")
    assert rc == 2
    assert out == ""
    assert err == "error: no message of 2 codewords totals -5 bits\n"


# ---------------------------------------------------------------------------
# sample / gen
# ---------------------------------------------------------------------------

def test_sample_reports_histogram(capsys, canon_path):
    rc, out, err = run(
        capsys, "sample", "--code", canon_path, "-N", "4", "--draws", "3000",
        "--seed", "7", "--focus-L", "6",
    )
    assert rc == 0
    lines = out.strip().splitlines()
    assert lines[0] == "L,count"
    total = sum(int(line.split(",")[1]) for line in lines[1:])
    assert total == 3000
    notes = kv(err)
    assert notes["draws"] == "3000"
    assert float(notes["mean_per_symbol"]) == pytest.approx(1.5, abs=0.05)
    assert int(notes["distinct_messages"]) <= 24


def test_sample_longer_than_the_cap_exit_three(capsys, canon_path):
    rc, out, err = run(capsys, "sample", "--code", canon_path, "-N", "1000001", "--draws", "1", "--seed", "1")
    assert rc == 3
    assert out == ""
    assert "1000001 symbols" in err


def test_sample_draws_a_message_longer_than_a_chunk_in_pieces(capsys, tmp_path, monkeypatch):
    # 70,000 symbols is over _SAMPLE_CHUNK_CELLS: one message a block, drawn
    # in pieces, each total a histogram of its own.  Each piece takes its
    # uniforms next in the generator's stream, so the pieces draw the
    # messages that one piece a message draws
    from thermocode import gibbs_state, microcanonical

    code = random_complete_code(16, 1)
    path = tmp_path / "g16.json"
    path.write_text(dump_code(code))  # without probabilities: the dyadic law
    argv = ("sample", "--code", str(path), "-N", "70000", "--draws", "3", "--seed", "1")
    assert 70000 > microcanonical._SAMPLE_CHUNK_CELLS
    rc, out, err = run(capsys, *argv)
    assert rc == 0
    histogram = {int(L): int(c) for L, c in (line.split(",") for line in out.splitlines()[1:])}
    assert sum(histogram.values()) == 3
    assert float(kv(err)["mean_total"]) == pytest.approx(sum(L * c for L, c in histogram.items()) / 3)
    # each total sums 70,000 i.i.d. lengths of the dyadic law
    state = gibbs_state(code.spectrum(), 1.0)
    for L in histogram:
        assert abs(L - 70000 * state.mean_length) < 6 * math.sqrt(70000 * state.variance)
    monkeypatch.setattr(microcanonical, "_SAMPLE_CHUNK_CELLS", 1 << 17)
    assert run(capsys, *argv) == (rc, out, err)


def test_sample_at_the_symbol_cap_is_quick(capsys, canon_path):
    started = time.process_time()
    rc, _, err = run(
        capsys, "sample", "--code", canon_path, "-N", "1000000", "--draws", "3",
        "--seed", "7", "--focus-L", "1500000",
    )
    assert time.process_time() - started < 2.0
    assert rc == 0 and kv(err)["draws"] == "3"


def test_sample_negative_seed_exit_one(capsys, canon_path):
    rc, out, err = run(capsys, "sample", "--code", canon_path, "-N", "4", "--draws", "10", "--seed", "-1")
    assert (rc, out, err) == (1, "", "error: seed must be a non-negative integer, got -1\n")


def test_sample_without_probabilities_draws_the_dyadic_law(capsys, tmp_path, canon_path):
    # a complete code without probabilities samples 2**-length: the same
    # bytes as the explicit dyadic pmf; an incomplete one has no such law
    bare = tmp_path / "bare.json"
    bare.write_text(json.dumps({"code": [{k: e[k] for k in ("symbol", "codeword")} for e in json.loads(CANON_DOC)["code"]]}))
    short = tmp_path / "short.json"
    short.write_text(json.dumps({"code": [{"symbol": "a", "codeword": "0"}, {"symbol": "b", "codeword": "10"}]}))
    argv = ("-N", "4", "--draws", "500", "--seed", "3", "--focus-L", "6")
    assert run(capsys, "sample", "--code", str(bare), *argv) == run(capsys, "sample", "--code", canon_path, *argv)
    rc, out, err = run(capsys, "sample", "--code", str(short), *argv)
    assert (rc, out) == (1, "") and "not complete" in err


def test_sample_deterministic(capsys, canon_path):
    _, out1, _ = run(capsys, "sample", "--code", canon_path, "-N", "3", "--draws", "500", "--seed", "3")
    _, out2, _ = run(capsys, "sample", "--code", canon_path, "-N", "3", "--draws", "500", "--seed", "3")
    assert out1 == out2


def test_gen_check_round_trip(capsys, tmp_path):
    out_path = tmp_path / "gen.json"
    rc, _, _ = run(capsys, "gen", "--leaves", "10", "--seed", "42", "--out", str(out_path))
    assert rc == 0
    doc = json.loads(out_path.read_text())
    assert len(doc["code"]) == 10
    rc, out, _ = run(capsys, "check", "--code", str(out_path))
    assert rc == 0
    got = kv(out)
    assert got["kraft"] == "1" and got["optimal"] == "true"


def test_gen_refuses_more_leaves_than_its_cap(capsys):
    rc, out, err = run(capsys, "gen", "--leaves", "65537", "--seed", "1")
    assert (rc, out) == (3, "")
    assert err == "error: 65537 leaves exceed the generator's cap 65536\n"


def test_gen_negative_seed_exit_one(capsys):
    rc, out, err = run(capsys, "gen", "--leaves", "5", "--seed", "-1")
    assert (rc, out, err) == (1, "", "error: seed must be a non-negative integer, got -1\n")


def test_gen_deterministic(capsys):
    _, out1, _ = run(capsys, "gen", "--leaves", "6", "--seed", "9")
    _, out2, _ = run(capsys, "gen", "--leaves", "6", "--seed", "9")
    assert out1 == out2


# ---------------------------------------------------------------------------
# plumbing
# ---------------------------------------------------------------------------

def test_no_subcommand_prints_help(capsys):
    rc = main([])
    captured = capsys.readouterr()
    assert rc == 1
    assert "usage" in captured.err.lower()


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"), reason="no int-to-str digit limit")
def test_main_restores_the_callers_int_digit_limit(capsys, canon_path):
    saved = sys.get_int_max_str_digits()
    try:
        sys.set_int_max_str_digits(5000)
        assert main(["check", "--code", canon_path]) == 0
        assert sys.get_int_max_str_digits() == 5000
        assert main(["check", "--code", "/nonexistent/code.json"]) == 1
        assert sys.get_int_max_str_digits() == 5000
        with pytest.raises(SystemExit):
            main(["check"])  # usage error: argparse exits
        assert sys.get_int_max_str_digits() == 5000
    finally:
        sys.set_int_max_str_digits(saved)
    capsys.readouterr()


def test_output_file_writing_and_determinism(tmp_path, canon_path, capsys):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    assert main(["omega", "--code", canon_path, "-N", "5", "--out", str(a)]) == 0
    assert main(["omega", "--code", canon_path, "-N", "5", "--out", str(b)]) == 0
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()
    assert a.read_text().splitlines()[0] == "L,omega,log2_omega,S,T"


@pytest.mark.parametrize(
    "argv",
    [
        ("temperature", "--code", "@canon", "-N", "3", "-L", "7"),
        ("equilibrium", "--code", "@canon", "--code2", "@five", "-N", "1", "--N2", "1", "-L", "50"),
        ("equilibrium", "--code", "@canon", "--code2", "@five", "-N", "1", "--N2", "1", "-L", "6",
         "--brute"),
        ("prefixes", "--code", "@canon", "-N", "2", "-L", "9"),
    ],
    ids=["temperature", "equilibrium", "equilibrium-brute", "prefixes"],
)
def test_failed_command_keeps_existing_out_file(tmp_path, canon_path, five_path, capsys, argv):
    keep = tmp_path / "keep.csv"
    keep.write_bytes(b"L,omega\n1,2\n")
    argv = [{"@canon": canon_path, "@five": five_path}.get(a, a) for a in argv]
    assert main([*argv, "--out", str(keep)]) == 2
    assert capsys.readouterr().out == ""
    assert keep.read_bytes() == b"L,omega\n1,2\n"


def test_every_subcommand_help_mentions_bits():
    parser = build_parser()
    subparsers = next(
        a for a in parser._actions if isinstance(a, type(parser._subparsers._group_actions[0]))
    )
    for name, sub in subparsers.choices.items():
        text = sub.format_help().lower()
        assert "bits" in text, f"help for {name} should state the unit"


def _declared(parser) -> list[tuple]:
    """Each action of parser, in order, as (option_strings, dest, required,
    default, type name, choices, metavar, help)."""
    return [
        (
            tuple(a.option_strings), a.dest, a.required, a.default,
            getattr(a.type, "__name__", a.type),
            None if a.choices is None else tuple(a.choices), a.metavar, a.help,
        )
        for a in parser._actions
    ]


_HELP = (("-h", "--help"), "help", False, argparse.SUPPRESS, None, None, None, "show this help message and exit")
_CODE = (("--code",), "code", True, None, None, None, "FILE", "JSON code document")
_N = (("-N",), "n_symbols", True, None, "int", None, None, "codewords per message")
_OUT = (("--out",), "out", False, None, None, None, "FILE", "write primary output here instead of stdout")

# each subcommand: its help line, its handler, and its actions in order
_SUBCOMMANDS = {
    "check": ("validate a code document and report its basic quantities", "_cmd_check", [_HELP, _CODE, _OUT]),
    "omega": ("message counts by total coded length, as CSV", "_cmd_omega", [
        _HELP, _CODE, _N,
        (("--mode",), "mode", False, "exact", None, ("exact", "log"), None,
         "exact integer table or log2-domain table (default exact)"),
        (("--window",), "window", False, 0.0, "float", None, None, "aggregate counts over [L, L+WINDOW] bits"),
        _OUT,
    ]),
    "temperature": ("entropy and discrete temperature in bits, at -L or at the most probable length",
                    "_cmd_temperature", [
        _HELP, _CODE, _N,
        (("-L",), "total_bits", False, None, "float", None, None, "total coded length in bits"),
        (("--mode",), "mode", False, "exact", None, ("exact", "log"), None,
         "exact or log: both give the same answer, from the log2 table and its exact L*"),
        _OUT,
    ]),
    "gibbs": ("canonical state at one beta or temperature, as CSV", "_cmd_gibbs", [
        _HELP, _CODE,
        (("--beta",), "beta", False, None, "float", None, None, "inverse temperature 1/T"),
        (("--temp",), "temp", False, None, "float", None, None, "temperature T"),
        _OUT,
    ]),
    "solve-temp": ("invert the mean length curve: beta for a target mean (bits per codeword)",
                   "_cmd_solve_temp", [
        _HELP, _CODE,
        (("--lambda",), "lam", False, None, "float", None, None, "target mean codeword length in bits"),
        (("-L",), "total_bits", False, None, "float", None, None, "total coded length in bits (with -N)"),
        (("-N",), "n_symbols", False, None, "int", None, None, "codewords per message (with -L)"),
        _OUT,
    ]),
    "equilibrium": ("equal-temperature split of a bit budget between two codes", "_cmd_equilibrium", [
        _HELP, _CODE,
        (("--code2",), "code2", True, None, None, None, "FILE", "second code document"),
        (("-N",), "n_symbols", True, None, "int", None, None, "codewords per message, first code"),
        (("--N2",), "n_second", True, None, "int", None, None, "codewords per message, second code"),
        (("-L",), "total_bits", True, None, "float", None, None, "total bit budget"),
        (("--brute",), "brute", False, False, None, None, None, "emit the exact product table over integer splits"),
        _OUT,
    ]),
    "dimension": ("box-counting dimension along the temperature axis, as CSV", "_cmd_dimension", [
        _HELP, _CODE,
        (("--grid",), "grid", False, "-5:5:201", None, None, "LO:HI:COUNT",
         "beta sample grid (default -5:5:201; beta=1 is always added)"),
        _OUT,
    ]),
    "prefixes": ("exact distinct n-bit prefix counts of the fixed-length message set, as CSV", "_cmd_prefixes", [
        _HELP, _CODE, _N,
        (("-L",), "total_bits", True, None, "float", None, None, "total coded length in bits"),
        (("--n-max",), "n_max", False, None, "int", None, None, "largest prefix length to count (default: L)"),
        _OUT,
    ]),
    "sample": ("Monte Carlo draws of coded messages; length histogram as CSV", "_cmd_sample", [
        _HELP, _CODE, _N,
        (("--draws",), "draws", True, None, "int", None, None, "number of messages to draw"),
        (("--seed",), "seed", True, None, "int", None, None, "PRNG seed (PCG64)"),
        (("--focus-L",), "focus_L", False, None, "float", None, None,
         "record every drawn message of this total length in bits"),
        _OUT,
    ]),
    "gen": ("generate a random complete code document (uniform leaf splitting)", "_cmd_gen", [
        _HELP,
        (("--leaves",), "leaves", True, None, "int", None, None, "number of codewords, at least 2"),
        (("--seed",), "seed", True, None, "int", None, None, "PRNG seed (Mersenne Twister)"),
        _OUT,
    ]),
}


def test_parser_declarations_are_pinned():
    # argparse's objects, not its formatted help, which wraps differently
    # from one Python version to the next
    parser = build_parser()
    conventions = (
        "Lengths, entropies, and totals are in bits. "
        "beta is the inverse temperature 1/T: beta=0 means T=+-inf, "
        "beta=1 is the dyadic point T=1, negative beta means negative T."
    )
    assert (parser.prog, parser.description, parser.epilog) == ("thermocode", "Command line interface.", conventions)
    assert _declared(parser) == [
        _HELP, ((), "command", False, None, None, tuple(_SUBCOMMANDS), "COMMAND", None),
    ]
    assert parser.get_default("func") is None
    subparsers = parser._subparsers._group_actions[0]
    assert [(c.dest, c.help) for c in subparsers._choices_actions] == [
        (name, help) for name, (help, _, _) in _SUBCOMMANDS.items()
    ]
    for name, (_, func, actions) in _SUBCOMMANDS.items():
        sub = subparsers.choices[name]
        assert (sub.prog, sub.epilog) == (f"thermocode {name}", conventions), name
        assert sub.get_default("func").__name__ == func, name
        assert _declared(sub) == actions, name
        groups = [(g.required, [a.dest for a in g._group_actions]) for g in sub._mutually_exclusive_groups]
        assert groups == ([(True, ["beta", "temp"])] if name == "gibbs" else []), name


def _fmt_reference(x, signed_inf: bool = True) -> str:
    """cli._fmt's body before its finite-float fast path, kept as the oracle."""
    if isinstance(x, str):
        return x
    if isinstance(x, int):
        return str(x)
    x = float(x)
    if math.isnan(x):
        return "nan"
    if math.isinf(x):
        if x > 0:
            return "+inf" if signed_inf else "inf"
        return "-inf"
    return f"{x:.17g}"


_CELLS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
    st.floats(allow_nan=True, allow_infinity=True).map(np.float64),
    st.booleans(),
    st.integers(),
    st.text(),
)


@settings(derandomize=True, max_examples=500, deadline=None)
@given(x=_CELLS, signed_inf=st.booleans())
@example(x=0.0, signed_inf=True)
@example(x=-0.0, signed_inf=True)
@example(x=5e-324, signed_inf=True)
@example(x=-5e-324, signed_inf=True)
@example(x=sys.float_info.max, signed_inf=True)
@example(x=-sys.float_info.max, signed_inf=True)
@example(x=math.inf, signed_inf=True)
@example(x=math.inf, signed_inf=False)
@example(x=-math.inf, signed_inf=False)
@example(x=math.nan, signed_inf=True)
@example(x=np.float64(math.inf), signed_inf=False)
@example(x=np.float64(-0.0), signed_inf=True)
@example(x=True, signed_inf=True)
@example(x=2**80, signed_inf=True)
@example(x="+inf", signed_inf=False)
def test_fmt_matches_its_reference_body(x, signed_inf):
    assert _fmt(x, signed_inf) == _fmt_reference(x, signed_inf)
