"""Tests for exact, brute-force, and log-domain message counting."""

import math
import random
import time
import tracemalloc
from collections import Counter
from fractions import Fraction
from itertools import product

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from thermocode import (
    CapacityError,
    Code,
    EnsembleTable,
    LengthSpectrum,
    LogEnsembleTable,
    Pmf,
    UnachievableLengthError,
    count_messages,
    count_messages_brute,
    count_messages_log,
    dyadic_pmf,
    entropy_at,
    iter_log_tables,
    kraft_sum,
    most_probable_length,
    random_complete_code,
    sample_messages,
    temperature_at,
)
from thermocode import microcanonical
from thermocode.microcanonical import SampleReport, _temperatures
from strategies import canonical_code, kraft_spectra, whole_codes

CANON = Code({"a": "0", "b": "10", "c": "11"})
CANON_SP = CANON.spectrum()

# a complete code whose achievable totals live on a gappy lattice:
# one word of length 1, one of length 2, eight of length 5
GAPPY = Code(
    {"a": "0", "b": "10"}
    | {f"g{i}": "11" + format(i, "03b") for i in range(8)}
)


def enumerate_totals(code: Code, n_symbols: int) -> dict[int, int]:
    """Oracle: count coded lengths by walking every message through encode."""
    out: Counter[int] = Counter()
    for msg in product(code.symbols, repeat=n_symbols):
        out[len(code.encode(msg))] += 1
    return dict(out)


def convolution_counts(spectrum: LengthSpectrum, n_symbols: int) -> dict[int, int]:
    """Oracle: raise the length polynomial to the n_symbols power by
    n_symbols - 1 plain big-integer convolutions."""
    base = [(l - spectrum.l_min, d) for l, d in spectrum.degeneracy.items()]
    span = spectrum.l_max - spectrum.l_min
    coeffs = [0] * (span + 1)
    for off, d in base:
        coeffs[off] = d
    for _ in range(n_symbols - 1):
        new = [0] * (len(coeffs) + span)
        for off, d in base:
            for j, c in enumerate(coeffs):
                new[j + off] += d * c
        coeffs = new
    lo = n_symbols * spectrum.l_min
    return {lo + i: c for i, c in enumerate(coeffs) if c}


# ---------------------------------------------------------------------------
# exact counting
# ---------------------------------------------------------------------------

def test_counts_canonical_small_n():
    # direct enumeration: (a,a) at 2 bits; a with b or c in either order at 3;
    # two-letter words over {b,c} at 4
    assert count_messages(CANON_SP, 2).to_dict() == {2: 1, 3: 4, 4: 4}
    assert count_messages(CANON_SP, 3).to_dict() == {3: 1, 4: 6, 5: 12, 6: 8}


def test_counts_match_encode_enumeration():
    for code in (CANON, GAPPY, Code({"a": "0", "b": "10"})):
        sp = code.spectrum()
        for n in (1, 2, 3, 4):
            assert count_messages(sp, n).to_dict() == enumerate_totals(code, n)


def test_counts_match_brute_module():
    for seed in (3, 11, 19):
        code = random_complete_code(2 + seed % 5, seed)
        sp = code.spectrum()
        for n in (1, 2, 5):
            exact = count_messages(sp, n).to_dict()
            brute = count_messages_brute(code, n).to_dict()
            assert exact == brute


# the most messages a property test enumerates
BRUTE_MESSAGES = 10**4


@settings(derandomize=True, max_examples=200, deadline=None)
@given(code=whole_codes(), n=st.integers(1, 12))
@example(code=CANON, n=8)
@example(code=GAPPY, n=4)
@example(code=Code({"a": "0", "b": "10"}), n=12)
@example(code=Code({"a": "0"}), n=12)  # one word
@example(code=random_complete_code(5, 3), n=5)
@example(code=random_complete_code(3, 11), n=5)
@example(code=random_complete_code(6, 19), n=5)
def test_counts_match_enumeration_on_whole_codes(code, n):
    while len(code) ** n > BRUTE_MESSAGES:
        n -= 1
    assert count_messages(code.spectrum(), n).to_dict() == count_messages_brute(code, n).to_dict()


def test_brute_guard_refuses_a_long_message_at_once():
    # 3**(10**9) alone would take minutes to build; the guard never builds it
    start = time.process_time()
    with pytest.raises(CapacityError, match=r"3\*\*1000000000 messages exceed"):
        count_messages_brute(CANON, 10**9)
    assert time.process_time() - start < 1.0
    with pytest.raises(CapacityError):
        count_messages_brute(CANON, 15)  # 3**15 is just past the default cap
    with pytest.raises(CapacityError):
        count_messages_brute(CANON, 4, max_messages=80)
    assert count_messages_brute(CANON, 4, max_messages=81).to_dict() == {4: 1, 5: 8, 6: 24, 7: 32, 8: 16}
    assert count_messages_brute(Code({"a": "01"}), 1000).to_dict() == {2000: 1}


def test_brute_counts_a_one_word_code_without_enumerating():
    # a one-word code has one message; enumerating it would hold an N-tuple,
    # about 24 GB at N = 10**9
    start = time.process_time()
    assert count_messages_brute(Code({"a": "101"}), 10**9).to_dict() == {3 * 10**9: 1}
    assert time.process_time() - start < 1.0
    for n in range(1, 8):
        want = count_messages(LengthSpectrum({3: 1}), n)
        got = count_messages_brute(Code({"a": "101"}), n)
        assert (got.offset, got.to_dict()) == (want.offset, want.to_dict())
    with pytest.raises(CapacityError):
        count_messages_brute(Code({"a": "0"}), 5, max_messages=0)


@pytest.mark.parametrize("build", [count_messages, count_messages_log])
def test_table_readers_take_a_whole_number_float(build):
    # at N = 3 the canonical code has 12 messages of 5 bits and none of 5.5
    table = build(CANON_SP, 3)
    assert table.count(5) == table.count(5.0) == 12
    assert table.log2_count(5) == table.log2_count(5.0) == math.log2(12)
    assert table.count(5.5) == 0
    assert table.log2_count(5.5) == -math.inf
    assert entropy_at(table, 5.0) == math.log2(12)
    assert type(count_messages(CANON_SP, 3).count(5.0)) is int


def test_table_support_and_lookup():
    table = count_messages(CANON_SP, 3)
    assert table.support.tolist() == [3, 4, 5, 6]
    assert table.count(5) == 12
    assert table.count(7) == 0
    assert table.count(2) == 0
    assert table.log2_count(6) == 3.0
    assert table.log2_count(99) == -math.inf
    assert list(table.items()) == [(3, 1), (4, 6), (5, 12), (6, 8)]


def test_gappy_support_has_holes():
    table = count_messages(GAPPY.spectrum(), 2)
    support = set(table.support.tolist())
    assert support == {2, 3, 4, 6, 7, 10}
    # no pair of word lengths from {1, 2, 5} sums to 5, 8, or 9
    assert table.count(5) == 0 and table.count(8) == 0 and table.count(9) == 0
    assert table.count(6) == 16  # length-1 word with any of the eight 5-bit words, both orders


@pytest.mark.parametrize("read_first", [False, True])
@pytest.mark.parametrize("build", ["exact", "log", "sweep"])
def test_a_write_through_log2_array_reaches_every_reader(build, read_first):
    # log2_array() is a writable view of the counts: support, log2_count and
    # the refusal's range read it as it stands, whether or not support was
    # read before; an exact table's items() read its integers
    sp = LengthSpectrum({1: 1, 2: 2})
    table = {
        "exact": lambda: count_messages(sp, 3),
        "log": lambda: count_messages_log(sp, 3),
        "sweep": lambda: list(iter_log_tables(sp, 3))[-1],
    }[build]()
    if read_first:
        assert table.support.tolist() == [3, 4, 5, 6]
    for writes, support in [({0: -math.inf, 3: -math.inf}, [4, 5]), ({3: 0.0}, [4, 5, 6])]:
        for i, value in writes.items():
            table.log2_array()[i] = value
        assert table.support.tolist() == support
        assert [L for L in range(2, 8) if table.log2_count(L) > -math.inf] == support
        with pytest.raises(UnachievableLengthError, match=f"range {support[0]}..{support[-1]}\\)$"):
            entropy_at(table, 3)
        assert entropy_at(table, support[-1]) == table.log2_count(support[-1])
    if build == "exact":
        assert list(table.items()) == [(L, table.count(L)) for L in range(3, 7)]
        assert list(table.items()) == [(3, 1), (4, 6), (5, 12), (6, 8)]


def test_probability_conservation_exact():
    # sum of count(L) * 2**-L over the table equals (Kraft sum)**N exactly
    for code, n in ((CANON, 12), (GAPPY, 6), (Code({"a": "0", "b": "10"}), 9)):
        sp = code.spectrum()
        k = kraft_sum(code)
        table = count_messages(sp, n)
        assert table.total_probability(k) == k**n


def test_recurrence_matches_convolution():
    # random complete codes, plus spectra with d_min > 1, a lattice step > 1,
    # a single length, and a long gap between the two lengths
    rng = random.Random(4)
    spectra = [random_complete_code(rng.randint(2, 24), rng.randrange(10**6)).spectrum() for _ in range(30)]
    spectra += [
        LengthSpectrum({2: 3}),
        LengthSpectrum({3: 2, 4: 3, 6: 2}),
        LengthSpectrum({2: 2, 4: 3, 8: 16}),
        LengthSpectrum({1: 1, 3: 4}),
        LengthSpectrum({1: 1, 7: 2}),
        LengthSpectrum({5: 32}),
        GAPPY.spectrum(),
    ]
    for sp in spectra:
        for n in (1, 2, 3, rng.randint(4, 20), rng.randint(40, 60)):
            assert count_messages(sp, n).to_dict() == convolution_counts(sp, n), (sp.degeneracy, n)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(spectrum=kraft_spectra(), n=st.integers(1, 12))
# a span of 10 at N = 1 and 2: most terms reach below a_0
@example(spectrum=LengthSpectrum({1: 1, 9: 255, 11: 4}), n=1)
@example(spectrum=LengthSpectrum({1: 1, 9: 255, 11: 4}), n=2)
def test_recurrence_matches_convolution_on_kraft_spectra(spectrum, n):
    assert count_messages(spectrum, n).to_dict() == convolution_counts(spectrum, n)


def test_canon_counts_closed_form_at_ten_thousand():
    # N + k bits: choose the k long codewords, each one of two: C(N, k) * 2**k
    # N = 10**4 is where the old cell cap stood; the binomials are stepped,
    # not recomputed, so the check stays linear
    n = 10_000
    table = count_messages(CANON_SP, n)
    assert table.support.tolist() == list(range(n, 2 * n + 1))
    expected = 1
    for k, (L, c) in enumerate(table.items()):
        if k:
            expected = expected * 2 * (n - k + 1) // k
        assert c == expected, L
    assert expected == 2**n


def test_capacity_guard():
    sp = LengthSpectrum({1: 1, 32: 2**31})
    with pytest.raises(CapacityError, match="log-domain"):
        count_messages(sp, 40_000)
    with pytest.raises(CapacityError):
        count_messages_brute(random_complete_code(50, 1), 6)


def test_capacity_guard_refuses_before_computing():
    # about 1.6e12 bits of counts: refused from the size estimate alone
    with pytest.raises(CapacityError, match="log-domain"):
        count_messages(CANON_SP, 10**6)


def test_capacity_guard_bounds_bits_not_cells():
    # a single length has one cell whatever N is, but its count still grows:
    # 2**(2**33) would take a GiB
    with pytest.raises(CapacityError):
        count_messages(LengthSpectrum({1: 2}), 2**33)
    assert count_messages(LengthSpectrum({30: 2**30}), 20).to_dict() == {600: 2**600}


def test_capacity_guard_charges_every_cell(monkeypatch):
    # small counts over a long span: the bits of the counts alone come to
    # about 3.3e9 and 2**31, under the cap, but the tables would hold 4.7e8
    # and 2**31 cells (7.5 GB and 34 GB of list slots and log2 floats)
    with pytest.raises(CapacityError):
        count_messages(LengthSpectrum({1: 1, 2**26: 1}), 7)
    with pytest.raises(CapacityError):
        count_messages(LengthSpectrum({1: 1, 2**31: 1}), 1)
    # canon at N=100 is (100 + 1) * (100*log2(3) + 128) bits, about 28,900
    monkeypatch.setattr(microcanonical, "MAX_EXACT_BITS", 28_500)
    with pytest.raises(CapacityError):
        count_messages(CANON_SP, 100)
    monkeypatch.setattr(microcanonical, "MAX_EXACT_BITS", 29_500)
    assert sum(c for _, c in count_messages(CANON_SP, 100).items()) == 3**100


def test_count_messages_rejects_bad_n():
    for n in (0, -10**9):
        with pytest.raises(ValueError, match="n_symbols must be at least 1"):
            count_messages(CANON_SP, n)
        with pytest.raises(ValueError, match="n_symbols must be at least 1"):
            count_messages_log(CANON_SP, n)
        with pytest.raises(ValueError, match="n_symbols must be at least 1"):
            count_messages_brute(CANON, n)
    with pytest.raises(ValueError, match="n_max must be at least 1"):
        list(iter_log_tables(CANON_SP, 0))


# ---------------------------------------------------------------------------
# log-domain counting
# ---------------------------------------------------------------------------

def test_log_table_matches_exact():
    for code in (CANON, GAPPY):
        sp = code.spectrum()
        for n in (1, 4, 17, 60):
            exact = count_messages(sp, n)
            logt = count_messages_log(sp, n)
            assert logt.support.tolist() == exact.support.tolist()
            for L in exact.support.tolist():
                a = exact.log2_count(L)
                b = logt.log2_count(L)
                assert abs(a - b) <= 1e-9 * max(1.0, abs(a))


def test_log_table_is_log2_of_exact_counts():
    # random complete codes, plus d_min > 1, a lattice step > 1 and a single
    # length: the log table is math.log2 of the exact count, bit for bit
    rng = random.Random(8)
    spectra = [random_complete_code(rng.randint(2, 24), rng.randrange(10**6)).spectrum() for _ in range(20)]
    spectra += [
        LengthSpectrum({3: 2, 4: 3, 6: 2}),
        LengthSpectrum({2: 2, 4: 3, 8: 16}),
        LengthSpectrum({1: 1, 7: 2}),
        LengthSpectrum({5: 32}),
        GAPPY.spectrum(),
    ]
    for sp in spectra:
        for n in (1, 2, rng.randint(3, 30), rng.randint(100, 300)):
            exact = count_messages(sp, n)
            logt = count_messages_log(sp, n)
            assert logt.support.tolist() == exact.support.tolist()
            want = [math.log2(c) for _, c in exact.items()]
            assert [entropy_at(logt, L) for L in logt.support.tolist()] == want, (sp.degeneracy, n)


def test_exact_table_is_the_log_table_plus_its_integers():
    # d_min > 1, lattice steps 2 and 6, and a single length: the exact
    # table's log2 array is the log table's, bit for bit
    spectra = [
        LengthSpectrum({3: 2, 4: 3, 6: 2}),
        LengthSpectrum({2: 2, 4: 3, 8: 16}),
        LengthSpectrum({1: 1, 7: 2}),
        LengthSpectrum({5: 32}),
        GAPPY.spectrum(),
    ]
    for sp in spectra:
        for n in (1, 2, 9, 40):
            exact = count_messages(sp, n)
            logt = count_messages_log(sp, n)
            assert isinstance(exact, LogEnsembleTable)
            assert exact.log2_array().tobytes() == logt.log2_array().tobytes(), (sp.degeneracy, n)
            assert exact.offset == logt.offset and exact.n_symbols == logt.n_symbols == n
            assert exact.support.tolist() == logt.support.tolist() == list(exact.to_dict())
        # the sweep's first table, one convolution of the empty message, is
        # log2 of the degeneracies exactly
        first = next(iter_log_tables(sp, 1))
        assert first.log2_array().tobytes() == count_messages_log(sp, 1).log2_array().tobytes()


def test_log_table_past_the_exact_guard():
    # canon at N + k bits holds C(N, k) * 2**k messages
    n = 53_000
    with pytest.raises(CapacityError):
        count_messages(CANON_SP, n)
    table = count_messages_log(CANON_SP, n)
    assert table.support.tolist() == list(range(n, 2 * n + 1))
    for k in (0, 1, 17, n // 3, 2 * n // 3 + 1, n - 1, n):
        want = math.log2(math.comb(n, k)) + k
        assert abs(table.log2_count(n + k) - want) <= 1e-9, k


def test_log_table_memory_is_flat():
    # the exact table here holds about 65 MB of integers; the log table keeps
    # span + 1 of them alive next to its 160 kB float array
    tracemalloc.start()
    try:
        count_messages_log(CANON_SP, 20_000)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


def test_log_table_count_is_inf_past_the_float_range():
    table = count_messages_log(CANON_SP, 800)
    assert table.log2_count(1200) > 1024
    assert table.count(1200) == math.inf
    assert table.count(800) == 1.0  # the all-short message
    assert table.count(799) == 0.0  # below the support


def test_log_table_count_at_the_float_edge():
    # inf from log2 1024 on; just below it, the largest double
    table = LogEnsembleTable(1, 0, [math.nextafter(1024, 0), 1024.0, -math.inf, math.nan])
    assert table.count(0) == 1.7976931348621742e308 == 2.0 ** math.nextafter(1024, 0)
    assert table.count(1) == math.inf
    assert table.count(2) == 0.0
    assert math.isnan(table.count(3))


def test_iter_log_tables_ends_like_direct_build():
    sp = CANON_SP
    tables = list(iter_log_tables(sp, 8))
    assert len(tables) == 8
    for n, table in enumerate(tables, start=1):
        assert table.n_symbols == n
        direct = count_messages_log(sp, n)
        assert np.allclose(table.log2_array(), direct.log2_array(), atol=1e-12)


@settings(derandomize=True, max_examples=100, deadline=None)
@given(spectrum=kraft_spectra(), n_max=st.integers(1, 40))
@example(spectrum=CANON_SP, n_max=40)
@example(spectrum=LengthSpectrum({3: 2, 4: 3, 6: 2}), n_max=40)  # d_min > 1
@example(spectrum=LengthSpectrum({2: 2, 4: 3, 8: 16}), n_max=40)  # lattice step 2
@example(spectrum=LengthSpectrum({5: 32}), n_max=40)  # one length
def test_iter_log_tables_within_the_documented_bound(spectrum, n_max):
    # every cell of table n within 4*n*m*ulp(max(M, 1)) of math.log2 of its
    # exact count, M the table's largest log2 count; the same support
    m = len(spectrum.lengths)
    for n, table in enumerate(iter_log_tables(spectrum, n_max), start=1):
        want = count_messages(spectrum, n).log2_array().tolist()
        got = table.log2_array().tolist()
        bound = 4 * n * m * math.ulp(max(max(want), 1.0))
        assert [math.isfinite(v) for v in got] == [math.isfinite(v) for v in want], n
        err = max(abs(g - w) for g, w in zip(got, want) if math.isfinite(w))
        assert err <= bound, (spectrum.degeneracy, n, err / bound)


def test_iter_log_tables_yields_independent_arrays():
    tables = list(iter_log_tables(CANON_SP, 3))
    tables[0].log2_array()[0] = 123.0
    assert tables[0].log2_count(1) == 123.0  # the array is a view of the table's own
    assert tables[1].log2_count(2) != 123.0


# ---------------------------------------------------------------------------
# entropy and temperature
# ---------------------------------------------------------------------------

def test_entropy_values():
    table = count_messages(CANON_SP, 3)
    assert entropy_at(table, 3) == 0.0
    assert entropy_at(table, 6) == 3.0
    assert abs(entropy_at(table, 5) - math.log2(12)) < 1e-12
    with pytest.raises(UnachievableLengthError):
        entropy_at(table, 7)
    with pytest.raises(UnachievableLengthError):
        entropy_at(count_messages(GAPPY.spectrum(), 2), 5)


def test_entropy_at_whole_number_float_length():
    # a float length that names an achievable length reads that cell, as
    # temperature_at does; a fractional one is refused on both table kinds
    for build in (count_messages, count_messages_log):
        table = build(CANON_SP, 3)
        assert entropy_at(table, 5.0) == entropy_at(table, 5) == math.log2(12)
        assert temperature_at(table, 5.0) == temperature_at(table, 5)
        with pytest.raises(UnachievableLengthError):
            entropy_at(table, 5.5)


def test_temperature_central_differences():
    # N=2 table (1, 4, 4): at L=3 the slope is (2-0)/2 = 1, so T = 1
    t = temperature_at(count_messages(CANON_SP, 2), 3)
    assert t.value == 1.0 and not t.one_sided

    table = count_messages(CANON_SP, 3)
    t4 = temperature_at(table, 4)
    assert abs(t4.value - 2.0 / math.log2(12)) < 1e-12  # 0.55788...
    assert abs(t4.value - 0.5579) < 1e-4
    t5 = temperature_at(table, 5)
    assert abs(t5.value - 2.0 / (3.0 - math.log2(6))) < 1e-12  # 4.8188...
    assert abs(t5.value - 4.8188) < 1e-4
    assert not t4.one_sided and not t5.one_sided


def test_temperature_one_sided_ends():
    table = count_messages(CANON_SP, 3)
    lo = temperature_at(table, 3)
    assert lo.one_sided and abs(lo.value - 1.0 / math.log2(6)) < 1e-12
    hi = temperature_at(table, 6)
    assert hi.one_sided and abs(hi.value - 1.0 / (3.0 - math.log2(12))) < 1e-12
    assert hi.value < 0  # past the entropy peak
    assert abs(hi.value - -1.7095) < 1e-4


def test_temperature_unachievable_and_degenerate():
    table = count_messages(CANON_SP, 3)
    with pytest.raises(UnachievableLengthError):
        temperature_at(table, 7)
    flat = count_messages(LengthSpectrum({2: 4}), 5)  # single-point support
    with pytest.raises(UnachievableLengthError):
        temperature_at(flat, 10)


def test_temperature_zero_slope_sign_convention():
    # symmetric synthetic tables pin the convention: zero entropy slope is
    # +inf at or below the count peak, -inf above it
    sym = EnsembleTable(2, 10, [1, 2, 1])
    t = temperature_at(sym, 11)
    assert t.value == math.inf and not t.one_sided

    falling = EnsembleTable(2, 10, [2, 1, 2])  # peak at the left edge
    t = temperature_at(falling, 11)
    assert t.value == -math.inf

    # same convention on the log-domain table
    logt = LogEnsembleTable(2, 10, np.array([0.0, 1.0, 0.0]))
    assert temperature_at(logt, 11).value == math.inf


def _pointwise_temperature(lengths, entropies, i):
    """Reference: one point of an (L, S) series at a time, in plain floats."""
    if len(lengths) < 2:
        return math.nan
    left, right = max(i - 1, 0), min(i + 1, len(lengths) - 1)
    ds = entropies[right] - entropies[left]
    if ds == 0.0:
        peak = max(range(len(entropies)), key=lambda j: (entropies[j], -j))
        return math.inf if i <= peak else -math.inf
    return (lengths[right] - lengths[left]) / ds


def test_temperature_series_matches_pointwise_reference():
    # small integer entropies force ties, plateaus and zero slopes; -inf
    # entries give infinite and nan differences; repr() tells -0.0 from 0.0
    rng = np.random.default_rng(5)
    for _ in range(500):
        n = int(rng.integers(1, 10))
        lengths = np.cumsum(rng.integers(1, 4, size=n)).astype(np.int64)
        entropies = rng.integers(0, 4, size=n) * rng.choice([1.0, 0.3])
        entropies[rng.random(n) < 0.1] = -math.inf
        got = _temperatures(lengths.tolist(), entropies.tolist())
        want = [_pointwise_temperature(lengths.tolist(), entropies.tolist(), i) for i in range(n)]
        assert [repr(float(t)) for t in got] == [repr(t) for t in want]


@st.composite
def count_tables(draw):
    """Exact or log tables of a kraft_spectra spectrum, or synthetic tables
    whose small integer counts make gaps (0 or -inf cells, at the ends too),
    plateaus, zero slopes and a peak at either edge; every table has at
    least one achievable length."""
    kind = draw(st.sampled_from(["exact", "log", "synthetic-exact", "synthetic-log"]))
    if kind == "exact":
        return count_messages(draw(kraft_spectra()), draw(st.integers(1, 12)))
    if kind == "log":
        return count_messages_log(draw(kraft_spectra()), draw(st.integers(1, 12)))
    offset = draw(st.integers(0, 20))
    if kind == "synthetic-exact":
        counts = draw(st.lists(st.integers(0, 4), min_size=1, max_size=12).filter(any))
        return EnsembleTable(2, offset, counts)
    cells = st.lists(st.sampled_from([-math.inf, 0.0, 0.5, 1.0, 2.0, 3.0]), min_size=1, max_size=12)
    return LogEnsembleTable(2, offset, np.array(draw(cells.filter(lambda c: max(c) > -math.inf))))


@settings(derandomize=True, max_examples=300, deadline=None)
@given(table=count_tables())
@example(table=EnsembleTable(2, 10, [1, 2, 1]))  # symmetric: +inf at the peak
@example(table=EnsembleTable(2, 10, [2, 1, 2]))  # peak at the left edge
@example(table=EnsembleTable(2, 10, [1, 2]))  # peak at the right edge
@example(table=LogEnsembleTable(2, 10, np.array([0.0, 1.0, 0.0])))
@example(table=LogEnsembleTable(2, 10, np.array([1.0, -math.inf, 1.0, 0.0])))  # plateau over a gap
@example(table=count_messages(CANON_SP, 2))
@example(table=count_messages(CANON_SP, 3))
@example(table=count_messages_log(CANON_SP, 3))
@example(table=count_messages(GAPPY.spectrum(), 2))
@example(table=count_messages(LengthSpectrum({1: 1, 2: 1}), 2))
@example(table=count_messages(LengthSpectrum({2: 4}), 5))  # single-point support
@example(table=count_messages_log(LengthSpectrum({2: 4}), 5))
def test_temperature_at_is_the_series_temperature_at_its_point(table):
    # temperature_at reads only a cell and its achievable neighbours; it
    # must give the whole-series _temperatures over the support, and
    # entropy_at the cell's log2, bit for bit, for int and float lengths
    arr = table.log2_array()
    cells = np.flatnonzero(np.isfinite(arr)).tolist()
    support = [table.offset + i for i in cells]
    entropies = [float(arr[i]) for i in cells]
    series = _temperatures(support, entropies)
    for pos, L in enumerate(support):
        for length in (L, float(L)):
            assert repr(entropy_at(table, length)) == repr(entropies[pos])
            if len(support) < 2:
                with pytest.raises(UnachievableLengthError, match="single"):
                    temperature_at(table, length)
                continue
            est = temperature_at(table, length)
            assert repr(est.value) == repr(series[pos]), (support, entropies, L)
            assert est.one_sided == (pos in (0, len(support) - 1))
    for i in sorted(set(range(-1, len(arr) + 1)) - set(cells)):
        with pytest.raises(UnachievableLengthError):
            entropy_at(table, table.offset + i)
        with pytest.raises(UnachievableLengthError):
            temperature_at(table, table.offset + i)
    with pytest.raises(UnachievableLengthError):
        entropy_at(table, support[0] + 0.5)


def test_table_without_an_achievable_length_is_refused():
    # the constructors accept a table of zero counts, though no spectrum
    # yields one; every reader refuses it by naming the empty support
    exact = EnsembleTable(2, 0, [0, 0])
    empty = "support is empty"
    with pytest.raises(UnachievableLengthError, match=empty):
        entropy_at(exact, 1)
    with pytest.raises(UnachievableLengthError, match=empty):
        temperature_at(exact, 1)
    with pytest.raises(UnachievableLengthError, match=empty):
        most_probable_length(exact)
    with pytest.raises(UnachievableLengthError, match=empty):
        most_probable_length(LogEnsembleTable(2, 0, [-math.inf, -math.inf]))


@pytest.mark.parametrize("kind", [EnsembleTable, LogEnsembleTable])
def test_most_probable_length_of_a_table_of_no_cells_is_refused(kind):
    # zero cells, not only zero counts: the float rule must not take the
    # max of an empty range
    with pytest.raises(UnachievableLengthError, match="support is empty"):
        most_probable_length(kind(2, 0, []))


def test_temperature_from_real_symmetric_table():
    # lengths {1, 2} with one word each: counts are binomial, symmetric
    sp = LengthSpectrum({1: 1, 2: 1})
    table = count_messages(sp, 2)  # 1, 2, 1 over L = 2, 3, 4
    assert table.to_dict() == {2: 1, 3: 2, 4: 1}
    assert temperature_at(table, 3).value == math.inf


# ---------------------------------------------------------------------------
# most probable length
# ---------------------------------------------------------------------------

def brute_most_probable(table: EnsembleTable) -> int:
    best_len, best_weight = None, Fraction(-1)
    for L, c in table.items():
        w = Fraction(c, 2**L)
        if w > best_weight:
            best_len, best_weight = L, w
    return best_len


def test_most_probable_length_tie_goes_low():
    # N=3 weights: 1/8, 6/16, 12/32, 8/64 -> 4 and 5 tie at 3/8
    table = count_messages(CANON_SP, 3)
    assert most_probable_length(table) == 4
    assert brute_most_probable(table) == 4  # Fraction argmax hits 4 first too


def test_most_probable_length_matches_fraction_oracle():
    for seed in range(60):
        code = random_complete_code(2 + seed % 14, seed)
        table = count_messages(code.spectrum(), 1 + seed % 9)
        assert most_probable_length(table) == brute_most_probable(table)
    # lengths {1, 3}: lattice step 2, binomial (palindromic) counts, and at
    # N = 5k + 4 an exact tie between N + 2k and N + 2k + 2 at the top
    sparse = Code({"a": "0", "b": "111"}).spectrum()
    for n in range(1, 41):
        table = count_messages(sparse, n)
        assert most_probable_length(table) == brute_most_probable(table)
        if n % 5 == 4:
            assert most_probable_length(table) == n + 2 * (n - 4) // 5
    # d_min > 1, a single length, and longer messages
    spectra = (
        LengthSpectrum({2: 3, 3: 2}),
        LengthSpectrum({2: 2, 3: 2, 4: 4}),
        LengthSpectrum({3: 8}),
        random_complete_code(16, 5).spectrum(),
    )
    for sp in spectra:
        for n in (1, 2, 7, 25, 40):
            table = count_messages(sp, n)
            assert most_probable_length(table) == brute_most_probable(table)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(spectrum=kraft_spectra(), n=st.integers(1, 30))
@example(spectrum=CANON_SP, n=3)  # a tie: 4 and 5 bits weigh 3/8 each
# canon at odd N: C(N, k) * 2**-N ties at k = (N - 1)/2 and (N + 1)/2
@example(spectrum=CANON_SP, n=9)
@example(spectrum=CANON_SP, n=29)
@example(spectrum=LengthSpectrum({1: 1, 3: 1}), n=9)  # a tie at the top, lattice step 2
@example(spectrum=LengthSpectrum({2: 3, 3: 2}), n=25)  # d_min > 1
@example(spectrum=LengthSpectrum({3: 8}), n=7)  # one length
@example(spectrum=random_complete_code(16, 5).spectrum(), n=25)
def test_most_probable_length_matches_fraction_oracle_on_kraft_spectra(spectrum, n):
    # every table built from exact counts keeps the exact most probable
    # length: the integer table, the log table and, where it can be
    # enumerated, the brute-force table
    table = count_messages(spectrum, n)
    want = brute_most_probable(table)
    assert most_probable_length(table) == want
    assert most_probable_length(count_messages_log(spectrum, n)) == want
    if spectrum.n_codewords**n <= 20_000:
        assert most_probable_length(count_messages_brute(canonical_code(spectrum), n)) == want


@st.composite
def near_tie_counts(draw):
    """Counts base << i plus a small offset, some of them 0: the weights
    count * 2**-i tie or nearly tie, past what a float log2 tells apart."""
    base = draw(st.integers(1, 2**70))
    deltas = draw(st.lists(st.none() | st.integers(-3, 3), min_size=1, max_size=12))
    return [0 if d is None else max(0, (base << i) + d) for i, d in enumerate(deltas)]


@settings(derandomize=True, max_examples=300, deadline=None)
@given(
    offset=st.integers(0, 20),
    counts=near_tie_counts() | st.lists(st.integers(0, 2**80), min_size=1, max_size=12),
)
@example(offset=0, counts=[2**60, 2**61 + 1])  # log2 ties; the second weighs 2**-1 more
@example(offset=3, counts=[0, 6, 12, 0])  # an exact tie past a 0 cell: the first wins
@example(offset=0, counts=[0, 0])  # no achievable length
def test_most_probable_length_of_given_counts_is_exact(offset, counts):
    table = EnsembleTable(2, offset, counts)
    if not any(counts):
        with pytest.raises(UnachievableLengthError, match="support is empty"):
            most_probable_length(table)
        return
    assert most_probable_length(table) == brute_most_probable(table)


def test_float_table_keeps_the_float_rule():
    # 2**61 + 1 rounds to log2 61.0 exactly, so the floats see a tie the
    # integers break: the integer table picks the second length, and a
    # table of its log2 values the first
    exact = EnsembleTable(2, 10, [2**60, 2**61 + 1])
    assert most_probable_length(exact) == 11
    floats = LogEnsembleTable(2, 10, exact.log2_array())
    assert most_probable_length(floats) == loop_most_probable(floats) == 10


def loop_most_probable(table: LogEnsembleTable) -> int:
    # the standard-library loop: Python's max keeps the first maximum, as
    # np.argmax does
    log2 = table.log2_array().tolist()
    return table.offset + max(range(len(log2)), key=lambda j: log2[j] - (table.offset + j))


@settings(derandomize=True, max_examples=150, deadline=None)
@given(spectrum=kraft_spectra(), n=st.integers(1, 30))
@example(spectrum=CANON_SP, n=3)  # 4 and 5 bits tie exactly
@example(spectrum=LengthSpectrum({1: 1, 3: 1}), n=9)  # lattice step 2
@example(spectrum=LengthSpectrum({2: 3, 3: 2}), n=25)  # d_min > 1
@example(spectrum=LengthSpectrum({3: 8}), n=7)  # one length
def test_float_most_probable_length_is_numpys_argmax(spectrum, n):
    # the same IEEE subtraction and the same first-maximum rule, on the
    # sweep's rounded log2 counts: a table built from floats
    table = list(iter_log_tables(spectrum, n))[-1]
    assert most_probable_length(table) == loop_most_probable(table)


def test_float_most_probable_length_ties_go_low():
    # log2 count - L is -2 at every cell, so the first one wins
    table = LogEnsembleTable(2, 3, [1.0, 2.0, 3.0])
    assert most_probable_length(table) == loop_most_probable(table) == 3
    table = LogEnsembleTable(2, 3, [-math.inf, 2.0, 3.0, -math.inf])
    assert most_probable_length(table) == loop_most_probable(table) == 4


def test_most_probable_length_log_agrees_with_exact():
    # the log table keeps the L* its exact counts gave as they went by
    for seed in (2, 9, 27):
        sp = random_complete_code(3 + seed % 9, seed).spectrum()
        exact = most_probable_length(count_messages(sp, 40))
        assert most_probable_length(count_messages_log(sp, 40)) == exact


def test_count_concentration_canonical():
    # the most probable length tracks 1.5 per symbol as N grows
    for n in (10, 100, 1000):
        table = count_messages_log(CANON_SP, n)
        assert abs(most_probable_length(table) / n - 1.5) <= 1.0 / n


# ---------------------------------------------------------------------------
# the temperature command's streamed table
# ---------------------------------------------------------------------------

def _temperature_reading(table, total):
    """(L, S, T, one_sided) as the temperature command reads them from a
    table, at total or, for None, at its most probable length; a refusal
    as its type and message."""
    try:
        if total is None:
            total = most_probable_length(table)
        est = temperature_at(table, total)
        return total, entropy_at(table, total), est.value, est.one_sided
    except UnachievableLengthError as exc:
        return type(exc), str(exc)


def streamed_cells(monkeypatch, spectrum, n, total=None):
    """The table the temperature command streams, or the message it is
    refused with, and how many of Miller's counts it took."""
    taken = []
    miller = microcanonical._miller

    def counting(*args):
        for c in miller(*args):
            taken.append(c)
            yield c

    with monkeypatch.context() as patch:
        patch.setattr(microcanonical, "_miller", counting)
        try:
            table = microcanonical._log_table(spectrum, n, total)
        except UnachievableLengthError as exc:
            table = str(exc)
    return table, len(taken)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(spectrum=kraft_spectra(), n=st.integers(1, 40), where=st.floats(-0.05, 1.05))
@example(spectrum=LengthSpectrum({1: 1, 9: 255, 11: 4}), n=40, where=0.5)  # near a sub-lattice
@example(spectrum=LengthSpectrum({2: 1, 3: 2, 5: 3}), n=40, where=0.3)  # incomplete
@example(spectrum=LengthSpectrum({2: 2, 4: 8}), n=40, where=0.42)  # lattice step 2: -L in a gap
@example(spectrum=LengthSpectrum({3: 8}), n=7, where=0.0)  # one length: no temperature
@example(spectrum=LengthSpectrum({1: 1, 3: 1}), n=40, where=0.5)  # -L at the centre: zero ΔS
@example(spectrum=CANON_SP, n=40, where=1.0)  # -L at the top cell: one-sided
@example(spectrum=CANON_SP, n=40, where=0.0)  # -L at the bottom cell: one-sided
@example(spectrum=CANON_SP, n=40, where=-0.05)  # -L below the range
@example(spectrum=CANON_SP, n=40, where=1.05)  # -L above the range
def test_the_streamed_table_reads_what_the_whole_table_reads(spectrum, n, where):
    # at L* and at -L: L*, S, T and one_sided, or the refusal, bit for bit
    whole = count_messages_log(spectrum, n)
    span = spectrum.l_max - spectrum.l_min
    total = n * spectrum.l_min + math.floor(where * n * span)
    for at in (None, total):
        try:
            table = microcanonical._log_table(spectrum, n, at)
        except UnachievableLengthError as exc:  # -L outside the range or in a gap: refused by _log_table
            assert (type(exc), str(exc)) == _temperature_reading(whole, at)
            continue
        assert table.offset == whole.offset
        assert table._log2 == whole._log2[: len(table._log2)]
        assert _temperature_reading(table, at) == _temperature_reading(whole, at)


def test_a_zero_entropy_difference_streams_the_whole_table(monkeypatch):
    # {1: 1, 3: 1} at N = 40: counts C(40, k) at 40 + 2k, so -L = 80 has
    # equal entropies on both sides and T = +inf reads the table's first
    # maximum; a length past it streams only to its upper neighbour
    spectrum, n = LengthSpectrum({1: 1, 3: 1}), 40
    table, taken = streamed_cells(monkeypatch, spectrum, n, 80)
    assert taken == len(table._log2) == 81
    assert temperature_at(table, 80) == (math.inf, False)
    table, taken = streamed_cells(monkeypatch, spectrum, n, 84)
    assert taken == len(table._log2) == 84 - 40 + 3


@pytest.mark.parametrize(
    "spectrum, n", [(CANON_SP, 40), (random_complete_code(64, 3).spectrum(), 3000)], ids=["canon", "g64"]
)
def test_a_length_outside_the_range_folds_no_count(monkeypatch, spectrum, n):
    # the range's ends hold d_min**N and d_max**N, never 0, so a -L below
    # N*l_min or above N*l_max is refused before the first of Miller's
    # counts (g64 has 33,001 at N = 3000), with the whole table's message
    whole = count_messages_log(spectrum, n)
    for total in (n * spectrum.l_min - 1, n * spectrum.l_max + 1):
        with pytest.raises(UnachievableLengthError) as refused:
            temperature_at(whole, total)
        assert streamed_cells(monkeypatch, spectrum, n, total) == (str(refused.value), 0)


@pytest.mark.parametrize("n, total, cells", [(3000, 9001, 3004), (10_000, 30_001, 10_004)])
def test_a_length_in_a_gap_folds_span_counts_past_it(monkeypatch, n, total, cells):
    # {2: 2, 4: 8} reaches only the even totals 2N..4N, so -L = 3N + 1 lies
    # in a gap; it is refused once its cell and the span = 2 after it are
    # folded (the whole table has 2N + 1), with the whole table's message
    spectrum = LengthSpectrum({2: 2, 4: 8})
    with pytest.raises(UnachievableLengthError) as refused:
        temperature_at(count_messages_log(spectrum, n), total)
    assert streamed_cells(monkeypatch, spectrum, n, total) == (str(refused.value), cells)


@settings(derandomize=True, max_examples=100, deadline=None)
@given(spectrum=kraft_spectra(), n=st.integers(1, 40))
@example(spectrum=LengthSpectrum({1: 1, 9: 255, 11: 4}), n=40)  # near a sub-lattice
@example(spectrum=LengthSpectrum({2: 2, 4: 8}), n=40)  # lattice step 2
@example(spectrum=LengthSpectrum({3: 8}), n=7)  # one length
@example(spectrum=LengthSpectrum({3: 8}), n=1)
def test_achievable_lengths_lie_within_span_of_each_other(spectrum, n):
    # what _log_table's stop rests on: the support runs from N*l_min to
    # N*l_max, and raising one codeword shorter than l_max to l_max (or
    # lowering one longer than l_min to l_min) moves a total by at most span
    span = spectrum.l_max - spectrum.l_min
    support = [total for total, _ in count_messages(spectrum, n).items()]
    assert (support[0], support[-1]) == (n * spectrum.l_min, n * spectrum.l_max)
    achievable, steps = set(support), range(1, span + 1)
    for total in support:
        assert total == support[-1] or any(total + k in achievable for k in steps)
        assert total == support[0] or any(total - k in achievable for k in steps)


def test_the_kraft_certificate_waits_for_a_heavier_later_cell():
    # cells 0..63 weigh one unit each, cell 100 ten: past cell 63 most of the
    # weight has passed, yet the rest could still (and does) outweigh the
    # peak so far, so the fold goes on to the true peak
    top, reach = 100, 1
    counts = [1 << i for i in range(64)] + [0] * 36 + [10 << top]
    log2, peak = microcanonical._log2_counts(counts, kraft=(74 << top, top, reach))
    assert (peak, len(log2)) == (100, 101)
    # a cell lighter than the first one ends the stream at the next check,
    # already more than reach cells past the peak
    counts[-1] = 1 << top
    log2, peak = microcanonical._log2_counts(counts, kraft=(65 << top, top, reach))
    assert (peak, len(log2)) == (0, 64)


@pytest.mark.parametrize("reach, cells", [(10, 71), (3, 64)])
def test_the_fold_ends_reach_cells_past_the_certified_peak(reach, cells):
    # all the weight sits in cell 60, so the first check, at cell 63,
    # certifies it; the fold runs on to reach cells past it, where the
    # peak's upper neighbour lies at the latest, or ends at once if that is
    # behind it
    top = 80
    counts = [0] * 60 + [1] + [0] * (top - 60)
    log2, peak = microcanonical._log2_counts(counts, kraft=(1 << (top - 60), top, reach))
    assert (peak, len(log2)) == (60, cells)


@pytest.mark.parametrize(
    "spectrum, n, share", [(random_complete_code(64, 3).spectrum(), 200, 0.25), (CANON_SP, 2000, 0.55)]
)
def test_the_temperature_stream_stops_soon_after_l_star(monkeypatch, spectrum, n, share):
    # the Kraft-total certificate fires: L* sits 14 % (g64) and 50 % (canon)
    # into the N*span + 1 cells, and the stream ends a few standard
    # deviations of the total length past it, the cell after L* among them
    span = spectrum.l_max - spectrum.l_min
    cells = n * span + 1
    table, taken = streamed_cells(monkeypatch, spectrum, n)
    lstar = most_probable_length(table) - table.offset
    assert lstar < taken - 1
    assert taken == len(table._log2) < share * cells
    assert most_probable_length(table) == most_probable_length(count_messages_log(spectrum, n))
    # -L 30 % into the support: span cells past it, where its upper
    # neighbour lies at the latest
    total = table.offset + (cells - 1) * 3 // 10
    table, taken = streamed_cells(monkeypatch, spectrum, n, total)
    assert taken == len(table._log2) == total - table.offset + span + 1


# ---------------------------------------------------------------------------
# unimodality of the counts
# ---------------------------------------------------------------------------

def test_counts_unimodal_canonical_all_n():
    # for the canonical code the count at N+k bits is C(N,k) * 2**k, whose
    # ratio 2(N-k)/(k+1) is decreasing in k: single-peaked at every N, with
    # at most one flat pair where the ratio passes through 1 exactly
    for n in (5, 17, 50):
        counts = [c for _, c in count_messages(CANON_SP, n).items()]
        diffs = [b - a for a, b in zip(counts, counts[1:])]
        falls = [i for i, d in enumerate(diffs) if d < 0]
        assert falls, "counts must come back down"
        assert all(d <= 0 for d in diffs[falls[0]:])
        assert sum(1 for d in diffs if d == 0) <= 1


def test_counts_single_peaked_in_central_window():
    # single-peakedness is an asymptotic (large N, central window) property:
    # near the support edges lattice effects can make the raw counts zigzag,
    # e.g. lengths {1, 3, 3, 3, 4, 4} at N=12 give ... 36, 24, 594 ... right
    # at the bottom.  Within 4 bits of the entropy peak at N=200, though,
    # once the counts start falling they never rise again.
    for seed in range(40):
        sp = random_complete_code(2 + seed % 20, seed).spectrum()
        arr = count_messages_log(sp, 200).log2_array()
        vals = arr[np.isfinite(arr)]
        core = vals[vals >= vals.max() - 4.0]
        diffs = np.diff(core)
        falling = np.flatnonzero(diffs < 0)
        if len(falling):
            assert np.all(diffs[falling[0]:] <= 0)


def test_counts_not_unimodal_for_gappy_spectrum_small_n():
    # counterexample kept on purpose: a wide length gap lets the count dip
    # and recover at small N, so unimodality is only an asymptotic property
    table = count_messages(GAPPY.spectrum(), 2)
    counts = [c for _, c in table.items()]
    assert counts == [1, 2, 1, 16, 16, 64]
    rises = [i for i in range(len(counts) - 1) if counts[i + 1] > counts[i]]
    falls = [i for i in range(len(counts) - 1) if counts[i + 1] < counts[i]]
    assert falls and rises and min(falls) < max(rises)


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------

def test_sampling_deterministic_and_consistent():
    pmf = dyadic_pmf(CANON)
    a = sample_messages(CANON, pmf, 4, 2000, seed=99)
    b = sample_messages(CANON, pmf, 4, 2000, seed=99)
    assert a == b
    assert sum(a.histogram.values()) == 2000
    assert set(a.histogram) <= set(count_messages(CANON_SP, 4).support.tolist())


def test_sampling_refuses_a_negative_seed_by_its_value():
    # numpy's own refusal would not name the seed
    with pytest.raises(ValueError, match=r"^seed must be a non-negative integer, got -1$"):
        sample_messages(CANON, dyadic_pmf(CANON), 4, 10, seed=-1)


def test_sampling_mean_tracks_expected_length():
    # N=1000 draws of 10000 messages: mean total / N within 3 sigma of 1.5
    # (sigma = sqrt(Var/N / draws) with per-symbol variance 1/4)
    pmf = dyadic_pmf(CANON)
    n = 1000
    report = sample_messages(CANON, pmf, n, 10_000, seed=20260819)
    sigma = math.sqrt(0.25 / n / 10_000)
    assert abs(report.mean_total / n - 1.5) <= 3 * sigma


def test_sampling_conditional_focus():
    pmf = dyadic_pmf(CANON)
    report = sample_messages(CANON, pmf, 3, 5000, seed=5, focus_total=4)
    assert report.focus_total == 4
    cond = report.conditional_counts
    assert cond is not None
    assert sum(cond.values()) == report.histogram.get(4, 0)
    for bits in cond:
        assert len(bits) == 4
        msg = CANON.decode(bits)
        assert len(msg) == 3
    # all six messages of three symbols at 4 bits should show up in 5000 draws
    assert len(cond) == count_messages(CANON_SP, 3).count(4) == 6


def replayed_messages(code, pmf, n, draws, seed) -> list[str]:
    """The draws as one (draws, n) rng.choice through the same generator,
    each row joined into its bits: the sampler's oracle."""
    words = [code.codeword(s) for s in code.symbols]
    probs = np.array([float(p) for _, p in pmf.items()])
    rows = np.random.default_rng(seed).choice(len(words), size=(draws, n), p=probs / probs.sum())
    return ["".join(words[i] for i in row) for row in rows.tolist()]


def replayed_report(replay: list[str], n, focus_total=None) -> SampleReport:
    """The report the sampler owes for the replayed draws."""
    hits = Counter(bits for bits in replay if len(bits) == focus_total)
    return SampleReport(
        draws=len(replay),
        n_symbols=n,
        histogram=dict(sorted(Counter(map(len, replay)).items())),
        focus_total=focus_total,
        conditional_counts=dict(sorted(hits.items())) if focus_total is not None else None,
    )


def test_sampling_focus_tally_matches_per_row_counter():
    # one chunk of draws, replayed row by row through the same generator
    code = random_complete_code(6, 3)
    pmf = dyadic_pmf(code)
    n, draws = 5, 20_000
    first = sample_messages(code, pmf, n, draws, seed=11)
    focus = max(first.histogram, key=first.histogram.get)
    report = sample_messages(code, pmf, n, draws, seed=11, focus_total=focus)
    assert report.histogram == first.histogram

    want = Counter(bits for bits in replayed_messages(code, pmf, n, draws, seed=11) if len(bits) == focus)
    assert report.conditional_counts == dict(want)
    assert len(want) > 1 and max(want.values()) > 1


def test_sampling_report_does_not_depend_on_chunk_size(monkeypatch):
    # the same seed drawn in pieces of one message (cells 3, 7 and 9 below
    # n), one message per block, many uneven blocks and one block, each
    # against the row-by-row replay; 300 words make each symbol's key two
    # bytes wide
    n, draws = 10, 3_000
    for leaves in (6, 300):
        code = random_complete_code(leaves, 3)
        pmf = dyadic_pmf(code)
        replay = replayed_messages(code, pmf, n, draws, seed=5)
        hist = Counter(map(len, replay))
        focus = max(hist, key=hist.get)
        want = Counter(bits for bits in replay if len(bits) == focus)
        for cells in (3, 7, n - 1, n, 999, n * draws):
            monkeypatch.setattr(microcanonical, "_SAMPLE_CHUNK_CELLS", cells)
            report = sample_messages(code, pmf, n, draws, seed=5, focus_total=focus)
            assert report.histogram == dict(sorted(hist.items()))
            assert report.conditional_counts == dict(want)
            assert list(report.conditional_counts) == sorted(want)
        assert len(code.symbols) == leaves and len(want) > 1


@pytest.mark.parametrize("cells", [4, 999, 1 << 16])
def test_sampling_histogram_matches_replayed_row_sums(monkeypatch, cells):
    # l_min = 2, so every total sits well above 0 and a block's histogram
    # is offset by its smallest total; cells = 4 < n draws one message per
    # block in pieces of 4 and 1, 999 many uneven blocks, 2**16 one block
    code = Code({"a": "00", "b": "01", "c": "100", "d": "101", "e": "1100", "f": "1101", "g": "111"})
    pmf = dyadic_pmf(code)
    n, draws = 5, 3_000
    monkeypatch.setattr(microcanonical, "_SAMPLE_CHUNK_CELLS", cells)
    report = sample_messages(code, pmf, n, draws, seed=13)
    want = Counter(map(len, replayed_messages(code, pmf, n, draws, seed=13)))
    assert report.histogram == dict(sorted(want.items()))
    assert min(want) >= 2 * n and len(want) > 5


# lengths 1, 3, 2, 3 in document order: four runs of one length
ALTERNATING = Code({"a": "0", "b": "100", "c": "11", "d": "101"})


@pytest.mark.parametrize(
    "code, pmf, n, draws",
    [
        (CANON, dyadic_pmf(CANON), 4, 50_000),  # two runs: one comparison a symbol
        (random_complete_code(16, 1), None, 10, 20_000),
        (random_complete_code(64, 3), None, 8, 20_000),
        (ALTERNATING, None, 5, 20_000),
        (CANON, Pmf({"a": 0.6, "b": 0.3, "c": 0.1}), 6, 20_000),  # not dyadic
        (ALTERNATING, Pmf({"a": 0.1, "b": 0.2, "c": 0.3, "d": 0.4}), 5, 20_000),
        (Code({"a": "00", "b": "01", "c": "10"}), Pmf({"a": 0.5, "b": 0.25, "c": 0.25}), 3, 2_000),  # one run
        (CANON, dyadic_pmf(CANON), 9000, 4),  # over a chunk: one message in pieces
    ],
    ids=["canon", "g16", "g64", "alternating", "canon-float", "alternating-float", "one-length", "pieces"],
)
@pytest.mark.parametrize("seed", [1, 7, 20260819])
def test_sampler_matches_the_choice_oracle(code, pmf, n, draws, seed):
    # the uniforms map to lengths through the run ends and to symbols only
    # at the hits, so the histogram and the focused messages are those of
    # one rng.choice over all the draws; the focus is the most frequent
    # total, so it hits
    pmf = pmf or dyadic_pmf(code)
    replay = replayed_messages(code, pmf, n, draws, seed)
    report = sample_messages(code, pmf, n, draws, seed)
    assert report == replayed_report(replay, n)
    focus = max(report.histogram, key=report.histogram.get)
    focused = sample_messages(code, pmf, n, draws, seed, focus_total=focus)
    assert focused == replayed_report(replay, n, focus)
    assert focused.histogram == report.histogram and focused.conditional_counts


def test_sampling_validates_inputs():
    pmf = dyadic_pmf(CANON)
    for n in (0, -10**9):
        with pytest.raises(ValueError, match="n_symbols must be at least 1"):
            sample_messages(CANON, pmf, n, 10, seed=1)
    with pytest.raises(ValueError):
        sample_messages(CANON, pmf, 2, 0, seed=1)
    other = Code({"x": "0", "y": "1"})
    with pytest.raises(ValueError):
        sample_messages(other, pmf, 2, 10, seed=1)


def test_sampling_refuses_a_message_longer_than_the_cap(monkeypatch):
    monkeypatch.setattr(microcanonical, "MAX_SAMPLE_SYMBOLS", 10)
    pmf = dyadic_pmf(CANON)
    with pytest.raises(CapacityError, match="11 symbols"):
        sample_messages(CANON, pmf, 11, 5, seed=1)
    report = sample_messages(CANON, pmf, 10, 5, seed=1, focus_total=15)
    assert sum(report.histogram.values()) == 5
    # a message longer than a chunk but within the cap is drawn alone, in
    # pieces of a chunk, and reports what one chunk of all the draws reports
    monkeypatch.setattr(microcanonical, "_SAMPLE_CHUNK_CELLS", 3)
    assert sample_messages(CANON, pmf, 10, 5, seed=1, focus_total=15) == report
