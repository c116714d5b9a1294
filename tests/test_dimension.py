"""Tests for box dimensions, their limits, and empirical prefix counting."""

import math
import tracemalloc
from collections import Counter
from decimal import Decimal, localcontext
from fractions import Fraction
from itertools import product
from os.path import commonprefix

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from thermocode import (
    CapacityError,
    Code,
    LengthSpectrum,
    PrefixCountTable,
    UnachievableLengthError,
    box_dimension,
    count_messages,
    count_messages_log,
    dimension_curve,
    entropy_at,
    fit_dimension,
    limit_dimensions,
    mean_length,
    prefix_counts,
    random_complete_code,
    temperature_from_beta,
    unit_temperature_derivatives,
)
from thermocode import dimension
from thermocode.gibbs import _partition, _stats
from strategies import exact_stats, kraft_spectra, prefix_codes, whole_codes

CANON = Code({"a": "0", "b": "10", "c": "11"})
CANON_SP = CANON.spectrum()


def brute_prefix_counts(code: Code, n_symbols: int, total: int) -> list[int]:
    """Oracle: materialize every coded message and count distinct prefixes."""
    members = {
        code.encode(msg)
        for msg in product(code.symbols, repeat=n_symbols)
        if sum(code.length(s) for s in msg) == total
    }
    assert members, "oracle called with an unachievable total"
    return [len({m[:n] for m in members}) for n in range(total + 1)]


# ---------------------------------------------------------------------------
# closed-form dimension and limits
# ---------------------------------------------------------------------------

def test_dimension_canonical_values():
    assert box_dimension(CANON_SP, 1.0) == pytest.approx(1.0, abs=1e-12)
    assert box_dimension(CANON_SP, 0.0) == pytest.approx(3 * math.log2(3) / 5, abs=1e-12)


def test_limits_canonical():
    lims = limit_dimensions(CANON_SP)
    assert lims.t_to_zero_plus == 0.0  # single shortest word
    assert lims.t_equal_one == pytest.approx(1.0, abs=1e-12)
    assert lims.t_to_inf == pytest.approx(0.9509775004326937, abs=1e-12)
    assert lims.t_to_zero_minus == pytest.approx(0.5, abs=1e-12)  # two words at length 2


def test_limits_match_formula_at_extremes():
    for seed in range(30):
        sp = random_complete_code(2 + seed % 14, seed).spectrum()
        lims = limit_dimensions(sp)
        assert box_dimension(sp, 50.0) == pytest.approx(lims.t_to_zero_plus, abs=1e-6)
        assert box_dimension(sp, -50.0) == pytest.approx(lims.t_to_zero_minus, abs=1e-6)
        assert box_dimension(sp, 0.0) == pytest.approx(lims.t_to_inf, abs=1e-12)
        assert box_dimension(sp, 1.0) == pytest.approx(lims.t_equal_one, abs=1e-12)


def test_complete_codes_peak_at_unit_temperature():
    # dimension never exceeds 1 for a complete code and attains it at beta=1
    for seed in range(20):
        sp = random_complete_code(2 + seed % 11, seed).spectrum()
        assert box_dimension(sp, 1.0) == pytest.approx(1.0, abs=1e-12)
        for beta in np.linspace(-6.0, 6.0, 25):
            assert box_dimension(sp, float(beta)) <= 1.0 + 1e-12


def test_incomplete_code_dimension_below_one_at_unit_beta():
    sp = LengthSpectrum({2: 2})  # Kraft sum 1/2
    assert box_dimension(sp, 1.0) == pytest.approx(0.5, abs=1e-12)


def test_unit_temperature_derivatives():
    first, second = unit_temperature_derivatives(CANON_SP)
    assert abs(first) <= 1e-6
    assert second < 0
    # a one-length spectrum has constant dimension 1: both derivatives vanish
    first, second = unit_temperature_derivatives(LengthSpectrum({3: 8}))
    assert abs(first) <= 1e-9 and abs(second) <= 1e-6


def _stencil(spectrum, h: float) -> tuple[float, float]:
    """Central differences of dim(T) at T = 1 with step h."""
    up, mid, down = (box_dimension(spectrum, 1.0 / t) for t in (1.0 + h, 1.0, 1.0 - h))
    return (up - down) / (2.0 * h), (up - 2.0 * mid + down) / (h * h)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(spectrum=kraft_spectra())
@example(spectrum=CANON_SP)
@example(spectrum=LengthSpectrum({3: 8}))
@example(spectrum=LengthSpectrum({3: 2, 9: 3}))  # incomplete, dim'' nearly cancels
def test_unit_temperature_derivatives_match_exact_cumulants(spectrum):
    first, second = unit_temperature_derivatives(spectrum)
    z, lam, var, k3 = exact_stats(spectrum, 1)
    with localcontext() as ctx:
        ctx.prec = 60
        ln2 = Decimal(2).ln()
        lam, var, k3 = (Decimal(q.numerator) / Decimal(q.denominator) for q in (lam, var, k3))
        g = ln2 * var * z / lam**2
        dg = ln2 * (-ln2 * k3 * z / lam**2 - var / lam + 2 * ln2 * var**2 * z / lam**3)
        want_first, want_second = -g, 2 * g + dg
        # the bound scales with the size of each term.  log2 Z is good only
        # to an absolute 4 ulp(M), so it counts as at least 1.  k3 is taken
        # about a rounded mean, so its error scales with
        # E|l - mean|**3 + mean * var, at most (span + mean) * var.
        big_z = max(abs(z), 1)
        big_k3 = (spectrum.l_max - spectrum.l_min + lam) * var
        scale_first = ln2 * var / lam**2 * big_z
        scale_second = ln2 * (
            (2 * var / lam**2 + ln2 * big_k3 / lam**2 + 2 * ln2 * var**2 / lam**3) * big_z + var / lam
        )
    # ulp(M), M the largest magnitude that a log weight is built from
    ulp = Decimal(math.ulp(max(1.0, *(max(math.log2(d), l) for l, d in spectrum.degeneracy.items()))))
    assert abs(Decimal(first) - want_first) <= 16 * ulp * scale_first
    assert abs(Decimal(second) - want_second) <= 16 * ulp * scale_second
    # the oracle shares the formula; a difference stencil checks the
    # derivation.  Richardson extrapolation over h and 2h cancels the
    # h**2 truncation error, which a wide spectrum makes large.
    (d1, d2), (e1, e2) = _stencil(spectrum, 1e-4), _stencil(spectrum, 2e-4)
    assert abs((4 * d1 - e1) / 3 - first) <= 1e-6
    assert abs((4 * d2 - e2) / 3 - second) <= 1e-6


def test_dimension_curve_rows():
    rows = dimension_curve(CANON_SP, [0.0, 1.0, 2.0])
    assert len(rows) == 3
    beta, temp, mean, dim = rows[0]
    assert beta == 0.0 and temp == math.inf
    assert mean == pytest.approx(5.0 / 3.0, abs=1e-12)
    assert dim == pytest.approx(3 * math.log2(3) / 5, abs=1e-12)
    assert rows[1][1] == 1.0 and rows[1][3] == pytest.approx(1.0, abs=1e-12)


def _bits(values) -> tuple[str, ...]:
    return tuple(map(float.hex, values))  # tells -0.0 from 0.0


@settings(derandomize=True, max_examples=200, deadline=None)
@given(spectrum=kraft_spectra())
@example(spectrum=CANON_SP)
@example(spectrum=LengthSpectrum({3: 8}))
def test_one_formula_for_log2_z_and_the_mean(spectrum):
    # the curve, mean_length, box_dimension and _stats all read _partition,
    # bit for bit, out to betas near the float range
    betas = [0.0, 0.5, -0.5, 5.0, -5.0, 1e300 / spectrum.l_max, -1e300 / spectrum.l_max]
    want = [(b, temperature_from_beta(b), mean_length(spectrum, b), box_dimension(spectrum, b)) for b in betas]
    assert list(map(_bits, dimension_curve(spectrum, betas))) == list(map(_bits, want))
    for beta in betas:
        assert _bits(_stats(spectrum, beta)[:2]) == _bits(_partition(spectrum, beta)[:2])


# ---------------------------------------------------------------------------
# prefix counting
# ---------------------------------------------------------------------------

def test_prefix_counts_canonical_small():
    table = prefix_counts(CANON, 2, 3)
    assert table.counts == (1, 2, 3, 4)
    assert table.n_max == 3
    table = prefix_counts(CANON, 4, 6)
    assert table.counts == (1, 2, 4, 7, 14, 18, 24)
    assert table.counts[-1] == count_messages(CANON_SP, 4).count(6)


def test_prefix_counts_match_enumeration():
    codes = [
        CANON,
        Code({"a": "0", "b": "10"}),  # incomplete
        Code({"a": "00", "b": "01", "c": "10", "d": "11"}),
        Code({"a": "1", "b": "00", "c": "010", "d": "011"}),
    ]
    for code in codes:
        sp = code.spectrum()
        for n in (1, 2, 3, 4):
            table = count_messages(sp, n)
            for total in table.support.tolist():
                got = prefix_counts(code, n, int(total))
                assert list(got.counts) == brute_prefix_counts(code, n, int(total))


def test_prefix_counts_match_enumeration_random():
    # trees of up to 12 leaves, every third code made incomplete by dropping a
    # codeword, and every other table cut short by n_max
    depths = set()
    for seed in range(40):
        words = dict(random_complete_code(2 + seed % 11, seed).words)
        if seed % 3 == 0:
            words.popitem()
        code = Code(words)
        depths.add(code.spectrum().l_max)
        n = 2 + seed % 3
        support = count_messages(code.spectrum(), n).support.tolist()
        total = int(support[len(support) // 2])
        n_max = total if seed % 2 else total // 2
        got = prefix_counts(code, n, total, n_max=n_max)
        assert list(got.counts) == brute_prefix_counts(code, n, total)[: n_max + 1]
    assert max(depths) > 3


# enumerating the oracle's messages stays cheap up to this many
BRUTE_MESSAGES = 2000


@st.composite
def prefix_cases(draw):
    """(code, N, L, n_max): a whole code, N with at most BRUTE_MESSAGES
    messages, an achievable L and, half the time, a cut n_max."""
    code = draw(whole_codes())
    n = draw(st.integers(1, 6))
    while len(code) ** n > BRUTE_MESSAGES:
        n -= 1
    total = draw(st.sampled_from([L for L, _ in count_messages(code.spectrum(), n).items()]))
    return code, n, total, draw(st.none() | st.integers(0, total))


@settings(derandomize=True, max_examples=200, deadline=None)
@given(case=prefix_cases())
@example(case=(Code({"a": "0", "b": "10"}), 5, 7, None))  # incomplete
@example(case=(Code({"a": "00", "b": "01", "c": "10", "d": "110", "e": "111"}), 3, 7, None))  # d_min = 3
@example(case=(Code({"a": "0", "b": "111"}), 6, 12, None))  # lattice step 2
@example(case=(CANON, 5, 8, 4))  # cut by n_max
@example(case=(Code({"a": "01"}), 4, 8, None))  # one word
@example(case=(Code({"a": "0", "b": "11"}), 1, 1, None))  # L below l_max
@example(case=(Code({"a": "0", "b": "10", "c": "110", "d": "11100", "e": "11101"}), 2, 3, None))
def test_prefix_counts_match_enumeration_on_whole_codes(case):
    code, n, total, n_max = case
    got = prefix_counts(code, n, total, n_max=n_max)
    want = brute_prefix_counts(code, n, total)
    assert list(got.counts) == want[: got.n_max + 1]
    assert got.n_max == (total if n_max is None else n_max)


def test_prefix_counts_growth_invariants():
    # each extra bit at most doubles the cell count and never shrinks it
    table = prefix_counts(CANON, 12, 18)
    counts = table.counts
    assert counts[0] == 1
    for a, b in zip(counts, counts[1:]):
        assert a <= b <= 2 * a
    assert counts[-1] == count_messages(CANON_SP, 12).count(18)


def test_prefix_counts_validation():
    with pytest.raises(UnachievableLengthError):
        prefix_counts(CANON, 2, 7)  # two symbols cannot reach 7 bits
    with pytest.raises(ValueError):
        prefix_counts(CANON, 2, 3, n_max=9)
    for n in (0, -10**9):
        with pytest.raises(ValueError, match="n_symbols must be at least 1"):
            prefix_counts(CANON, n, 3)


def test_prefix_counts_capacity_guard(monkeypatch):
    # (N + 1) * (L + 1) reachability bytes plus (N + 1) * 17 bytes of rows per
    # code-tree node: refused before any allocation
    with pytest.raises(CapacityError):
        prefix_counts(CANON, 100_000, 150_000)
    with pytest.raises(CapacityError):
        prefix_counts(CANON, 10_000, 10_000)  # 100,360,035 bytes, just over
    # 255 nodes at N = 4, L = 32: the reachability table alone fits a cap of
    # 5 * 33 bytes, the rows do not
    code = random_complete_code(256, 5)
    monkeypatch.setattr(dimension, "MAX_REACH_CELLS", 5 * 33)
    with pytest.raises(CapacityError, match="^prefix table needs"):
        prefix_counts(code, 4, 32)
    monkeypatch.setattr(dimension, "MAX_REACH_CELLS", 5 * (33 + 17 * 255))
    assert prefix_counts(code, 4, 32).counts[-1] == count_messages(code.spectrum(), 4).count(32)


def test_prefix_counts_step_guard(monkeypatch):
    # canon at N=4, L=6 charges 6 * 2 nodes * 5 * 3 = 180 DP steps
    monkeypatch.setattr(dimension, "MAX_PREFIX_STEPS", 179)
    with pytest.raises(CapacityError, match="^prefix table needs 180 DP steps"):
        prefix_counts(CANON, 4, 6)
    monkeypatch.setattr(dimension, "MAX_PREFIX_STEPS", 180)
    assert prefix_counts(CANON, 4, 6).counts[-1] == count_messages(CANON_SP, 4).count(6)
    monkeypatch.undo()

    # 4,095 nodes at N=100, L=1501 fit the byte cap (7.2 MB) but charge
    # 1501 * 4095 * 101 * 28 = 1.7e10 steps, minutes of work: refused
    # before the reachability table is built
    def built(*args):
        raise AssertionError("the reachability table was built")

    monkeypatch.setattr(dimension, "_achievable_rows", built)
    with pytest.raises(CapacityError, match=r"^prefix table needs 1\.74e\+10 DP steps"):
        prefix_counts(random_complete_code(4096, 1), 100, 1501)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(sp=kraft_spectra(), n=st.integers(1, 8), budget=st.integers(0, 40))
@example(sp=LengthSpectrum({1: 1, 9: 255, 11: 4}), n=4, budget=3)
@example(sp=LengthSpectrum({3: 8}), n=3, budget=2)
def test_achievable_rows_match_the_sums_of_lengths(sp, n, budget):
    # bit m of cols[j] iff some m lengths sum to j, and l_max zero cells
    # after cols[budget] for the reads before cell 0
    sums = [{0}]
    for _ in range(n):
        sums.append({t + l for t in sums[-1] for l in sp.lengths if t + l <= budget})
    cols = dimension._achievable_rows(sp, n, budget)
    assert len(cols) == budget + 1 + sp.l_max
    for j in range(budget + 1):
        assert cols[j] == sum(1 << m for m in range(n + 1) if j in sums[m])
    assert cols[budget + 1 :] == [0] * sp.l_max


def prefix_string_classes(code: Code) -> tuple[int, Counter]:
    """The code tree's node count and node classes, read off every proper
    prefix of every codeword as its own string."""
    words = code.words.values()
    below: dict[str, set[int]] = {}
    for w in words:
        for i in range(1, len(w)):
            below.setdefault(w[:i], set()).add(len(w) - i)
    classes = Counter((len(node), tuple(sorted(ends))) for node, ends in below.items())
    return 1 + len(below), classes


@settings(derandomize=True, max_examples=300, deadline=None)
@given(code=prefix_codes(12))
@example(code=CANON)
@example(code=Code({"a": "0" * 9}))  # one word: a chain of nodes
@example(code=Code({"a": "0000", "b": "0001", "c": "1"}))  # a shared stem
@example(code=random_complete_code(64, 3))
def test_node_classes_match_the_prefix_strings(code):
    words = sorted(code.words.values())
    shared = [len(commonprefix(pair)) for pair in zip(["", *words], words)]
    nodes, classes = prefix_string_classes(code)
    assert 1 + sum(len(w) - 1 - c for w, c in zip(words, shared)) == nodes
    assert dimension._node_classes(words, shared) == classes


def test_prefix_counts_refuses_a_long_codeword_at_once():
    # one 20,000-bit word: 20,000 nodes and 1.6e13 DP steps at N = 1, refused
    # with nothing built per node (its prefixes as strings would take 200 MB);
    # with n_max = 0 both guards admit it
    code = Code({"a": "0" * 20_000})
    tracemalloc.start()
    try:
        with pytest.raises(CapacityError, match=r"^prefix table needs 1\.6e\+13 DP steps"):
            prefix_counts(code, 1, 20_000)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    assert prefix_counts(code, 1, 20_000, n_max=0).counts == (1,)


def test_prefix_counts_truncated_depth():
    full = prefix_counts(CANON, 4, 6)
    part = prefix_counts(CANON, 4, 6, n_max=3)
    assert part.counts == full.counts[:4]


# ---------------------------------------------------------------------------
# slope fitting
# ---------------------------------------------------------------------------

def test_fit_dimension_exact_powers():
    table = PrefixCountTable(3, 10, tuple(2**n for n in range(11)))
    assert fit_dimension(table) == pytest.approx(1.0, abs=1e-12)
    # fractional growth 2**(0.7 n)
    table = PrefixCountTable(3, 10, tuple(int(round(2 ** (0.7 * n))) for n in range(11)))
    assert fit_dimension(table) == pytest.approx(0.7, abs=0.02)


def test_fit_dimension_range_handling():
    table = PrefixCountTable(3, 10, tuple(2**n for n in range(11)))
    assert fit_dimension(table, n_lo=5, n_hi=10) == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ValueError):
        fit_dimension(table, n_lo=8, n_hi=8)  # fewer than two points
    with pytest.raises(ValueError):
        fit_dimension(table, n_lo=0, n_hi=99)


def test_fit_dimension_default_window_too_short_is_nan():
    # the default window starts at ceil(0.2 * total_bits) = 2
    table = PrefixCountTable(3, 10, tuple(2**n for n in range(3)))
    assert math.isnan(fit_dimension(table))
    assert math.isnan(fit_dimension(PrefixCountTable(1, 1, (1, 1))))
    assert fit_dimension(table, n_lo=0) == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ValueError):
        fit_dimension(table, n_lo=2)


def fraction_slope(table: PrefixCountTable, n_lo: int, n_hi: int) -> float:
    """Oracle: the least-squares slope over the exact rationals of the
    float64 log2 counts, rounded once."""
    xs = range(n_lo, n_hi + 1)
    ys = [Fraction(math.log2(c)) for c in table.counts[n_lo : n_hi + 1]]
    mx, my = Fraction(sum(xs), len(xs)), sum(ys) / len(ys)
    return float(sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sum((x - mx) ** 2 for x in xs))


@settings(derandomize=True, max_examples=200, deadline=None)
@given(
    counts=st.lists(st.integers(1, 2**300), min_size=2, max_size=60),
    bounds=st.tuples(st.integers(0, 59), st.integers(0, 59)),
)
@example(counts=[1, 2], bounds=(0, 1))
@example(counts=[5] * 40, bounds=(0, 39))  # slope 0
@example(counts=[2**300, 3, 2**299, 1], bounds=(0, 3))
def test_fit_dimension_is_the_correctly_rounded_slope(counts, bounds):
    table = PrefixCountTable(1, len(counts) - 1, tuple(counts))
    n_lo, n_hi = sorted(min(b, table.n_max) for b in bounds)
    if n_lo == n_hi:
        n_lo, n_hi = 0, table.n_max
    assert fit_dimension(table, n_lo, n_hi) == fraction_slope(table, n_lo, n_hi)


def test_fit_dimension_is_polyfit_within_eight_ulps():
    # np.polyfit rounds along the way: the default windows of these tables
    # put it at most a few ulps from the correctly rounded slope
    worst = 0.0
    for seed in range(60):
        code = random_complete_code(2 + seed % 20, seed)
        n = 4 + seed % 25
        support = [L for L, _ in count_messages(code.spectrum(), n).items()]
        table = prefix_counts(code, n, support[(seed * 7) % len(support)])
        slope = fit_dimension(table)
        if math.isnan(slope):
            continue
        n_lo = math.ceil(0.2 * table.total_bits)
        assert slope == fraction_slope(table, n_lo, table.n_max)
        xs = np.arange(n_lo, table.n_max + 1, dtype=np.float64)
        want = np.polyfit(xs, table.log2_counts()[n_lo:], 1)[0]
        worst = max(worst, abs(slope - want) / math.ulp(slope))
    assert worst <= 8


def test_log2_counts_is_an_ndarray_of_math_log2():
    table = prefix_counts(CANON, 12, 17)
    got = table.log2_counts()
    assert isinstance(got, np.ndarray) and got.dtype == np.float64
    assert got.tolist() == [math.log2(c) for c in table.counts]


def test_fitted_slope_tracks_dimension_moderate_size():
    for beta, tol in ((1.0, 0.03), (0.0, 0.05)):
        lam = mean_length(CANON_SP, beta)
        n = 60
        total = round(n * lam)
        table = prefix_counts(CANON, n, total)
        slope = fit_dimension(table)
        assert abs(slope - box_dimension(CANON_SP, beta)) <= tol


# ---------------------------------------------------------------------------
# entropy rate converges to the dimension
# ---------------------------------------------------------------------------

def test_entropy_per_bit_converges_to_dimension():
    # S(L_N) / L_N at the matched total L_N = round(N * mean) approaches the
    # closed-form dimension as N grows, monotonically in these sizes
    for beta in (0.0, 1.0, -1.0):
        dim = box_dimension(CANON_SP, beta)
        lam = mean_length(CANON_SP, beta)
        gaps = []
        for n in (100, 1000, 5000):
            total = round(n * lam)
            table = count_messages_log(CANON_SP, n)
            gaps.append(abs(entropy_at(table, total) / total - dim))
        assert gaps[0] > gaps[1] > gaps[2]
        assert gaps[2] < 1e-3
