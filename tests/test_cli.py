"""End-to-end tests of the thermocode command line."""

import contextlib
import io
import json
import math
import sys
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from thermocode import Code, count_messages, dump_code, random_complete_code
from thermocode.cli import _fmt, _parse_grid, build_parser, main

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


def test_missing_file_is_exit_one(capsys):
    rc, _, err = run(capsys, "check", "--code", "/nonexistent/code.json")
    assert rc == 1
    assert "error:" in err


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
])
@pytest.mark.parametrize("window", ["0.5", "3", "inf"])
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


@pytest.mark.parametrize("window", [[], ["--window", "2"]], ids=["plain", "window"])
@pytest.mark.parametrize("mode", ["exact", "log"])
def test_omega_without_symbols_exit_one(capsys, canon_path, mode, window):
    # the size charge's product turns positive for a very negative N, so
    # exact mode refuses N < 1 before its guard
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

    for module in (microcanonical, cli):
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
    rc, _, err = run(capsys, "solve-temp", "--code", canon_path, "--lambda", "1.5", "-L", "3", "-N", "2")
    assert rc == 1


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


def test_sample_longer_than_a_chunk_exit_three(capsys, canon_path):
    rc, out, err = run(capsys, "sample", "--code", canon_path, "-N", "1000001", "--draws", "1", "--seed", "1")
    assert rc == 3
    assert out == ""
    assert "1000001 symbols" in err


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
