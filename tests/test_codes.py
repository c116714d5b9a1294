"""Tests for code parsing, validation, entropy, and the random generator."""

import json
import math
import random
from fractions import Fraction

import pytest

from thermocode import (
    Code,
    DecodeError,
    DuplicateCodewordError,
    DuplicateSymbolError,
    LengthSpectrum,
    ParseError,
    Pmf,
    PrefixViolationError,
    UnknownSymbolError,
    average_codeword_length,
    dump_code,
    dyadic_pmf,
    is_absolutely_optimal,
    kraft_sum,
    parse_code,
    random_complete_code,
    shannon_entropy,
)
from thermocode.codes import _kraft_ceiling

CANON = {"a": "0", "b": "10", "c": "11"}
CANON_PMF = {"a": Fraction(1, 2), "b": Fraction(1, 4), "c": Fraction(1, 4)}


# ---------------------------------------------------------------------------
# Pmf
# ---------------------------------------------------------------------------

def test_pmf_exact_from_strings():
    pmf = Pmf({"a": "0.5", "b": "1/4", "c": "0.25"})
    assert pmf.exact
    assert pmf["a"] == Fraction(1, 2)
    assert pmf["b"] == Fraction(1, 4)
    assert pmf.symbols == ("a", "b", "c")


def test_pmf_float_mode_not_exact():
    pmf = Pmf({"a": 0.5, "b": 0.5})
    assert not pmf.exact
    assert pmf["a"] == 0.5


def test_pmf_exact_sum_must_be_one():
    with pytest.raises(ParseError):
        Pmf({"a": Fraction(1, 2), "b": Fraction(1, 4)})


def test_pmf_float_sum_tolerance():
    # a hair inside the tolerance is fine, far outside is not
    Pmf({"a": 0.5, "b": 0.5 + 1e-13})
    with pytest.raises(ParseError):
        Pmf({"a": 0.5, "b": 0.6})


def test_pmf_rejects_nonpositive():
    with pytest.raises(ParseError):
        Pmf({"a": Fraction(0), "b": Fraction(1)})
    with pytest.raises(ParseError):
        Pmf({"a": -0.25, "b": 1.25})


@pytest.mark.parametrize(
    "probs, message",
    [
        ({}, "at least one symbol"),
        ({"a": True}, "'a' must be a number"),
        ({"a": "half"}, "bad probability for 'a'"),
        ({"a": "1/0"}, "bad probability for 'a'"),
        ({"a": [1]}, "'a' must be a number"),
        ({"a": None}, "'a' must be a number"),
        ({"a": math.nan, "b": 0.5}, "'a' must be finite, got nan"),
        ({"a": math.inf}, "'a' must be finite, got inf"),
        ({"a": 0.5, "b": -math.inf}, "'b' must be finite, got -inf"),
    ],
    ids=["empty", "bool", "unparsable", "zero-denominator", "list", "none", "nan", "inf", "minus-inf"],
)
def test_pmf_refuses_bad_values(probs, message):
    with pytest.raises(ParseError, match=message):
        Pmf(probs)


# ---------------------------------------------------------------------------
# LengthSpectrum
# ---------------------------------------------------------------------------

def test_spectrum_basic_properties():
    sp = LengthSpectrum({1: 1, 2: 2})
    assert sp.lengths == (1, 2)
    assert sp.l_min == 1 and sp.l_max == 2
    assert sp.d_min == 1 and sp.d_max == 2
    assert sp.n_codewords == 3
    assert sp.total_length == 5
    assert sp.count(2) == 2 and sp.count(7) == 0
    assert sp.kraft_sum() == Fraction(1)
    assert sp.is_complete
    assert not sp.is_degenerate


def test_spectrum_from_lengths():
    sp = LengthSpectrum.from_lengths([2, 1, 2])
    assert sp == LengthSpectrum({1: 1, 2: 2})
    assert hash(sp) == hash(LengthSpectrum({1: 1, 2: 2}))


def test_spectrum_lattice_step():
    assert LengthSpectrum({1: 1, 2: 2}).lattice_step == 1
    assert LengthSpectrum({1: 1, 3: 2, 5: 8}).lattice_step == 2
    assert LengthSpectrum({2: 4}).lattice_step == 0
    assert LengthSpectrum({2: 1, 5: 2, 11: 4}).lattice_step == 3


def test_spectrum_rejects_kraft_violation():
    with pytest.raises(ValueError):
        LengthSpectrum({1: 3})
    with pytest.raises(ValueError):
        LengthSpectrum({1: 2, 2: 1})


def _random_spectra(rng, count):
    """Complete spectra, each one codeword over-full and one short, and
    random ones, which are mostly incomplete or over-full."""
    for _ in range(count):
        complete = random_complete_code(rng.randint(2, 40), rng.randrange(10**6)).spectrum().degeneracy
        yield complete
        longest = max(complete)
        yield {**complete, longest: complete[longest] + 1}
        if complete[longest] > 1:
            yield {**complete, longest: complete[longest] - 1}
        lengths = rng.sample(range(1, rng.choice([6, 12, 70])), rng.randint(1, 5))
        yield {l: rng.randint(1, 2 ** min(l, 10)) for l in lengths}


def test_kraft_check_matches_fraction_sum():
    rng = random.Random(6)
    kinds = set()
    for counts in _random_spectra(rng, 600):
        total = sum(Fraction(d, 2**l) for l, d in counts.items())
        kinds.add((total > 1) - (total < 1))
        assert _kraft_ceiling(dict(sorted(counts.items()))) == (math.ceil(total), total.denominator == 1)
        if total > 1:
            with pytest.raises(ValueError, match="exceeds 1"):
                LengthSpectrum(counts)
        else:
            sp = LengthSpectrum(counts)
            assert sp.kraft_sum() == total
            assert sp.is_complete == (total == 1)
    assert kinds == {-1, 0, 1}
    # lengths far past anything 2**l could hold: the answer is still exact
    assert _kraft_ceiling({1: 1, 2**40: 1}) == (1, False)
    assert _kraft_ceiling({1: 2, 2**40: 1}) == (2, False)
    assert _kraft_ceiling({1: 1, 2**40: 2**(2**10)}) == (1, False)
    assert not LengthSpectrum({1: 1, 2**40: 1}).is_complete
    # an over-full spectrum with one long length is refused by the Kraft
    # message, not by formatting an exact sum with 2**20 bits in its denominator
    with pytest.raises(ValueError, match="^Kraft sum exceeds 1"):
        LengthSpectrum({1: 2, 2**20: 1})


def test_spectrum_rejects_bad_entries():
    with pytest.raises(ValueError):
        LengthSpectrum({0: 1})
    with pytest.raises(ValueError):
        LengthSpectrum({2: 0})
    with pytest.raises(ValueError):
        LengthSpectrum({})


# ---------------------------------------------------------------------------
# Code validation
# ---------------------------------------------------------------------------

def test_code_accepts_prefix_free():
    code = Code(CANON)
    assert code.symbols == ("a", "b", "c")
    assert code.codeword("b") == "10"
    assert code.length("c") == 2
    assert code.spectrum() == LengthSpectrum({1: 1, 2: 2})


def test_code_rejects_prefix_violation_with_pair():
    with pytest.raises(PrefixViolationError) as info:
        Code({"a": "0", "b": "01", "c": "11"})
    assert info.value.pair == ("a", "b")
    assert "'0'" in str(info.value) and "'01'" in str(info.value)


def test_code_prefix_violation_found_for_nonadjacent_insertion():
    # the clash is between the first and last entries as inserted
    with pytest.raises(PrefixViolationError) as info:
        Code({"p": "110", "q": "0", "r": "1101"})
    assert set(info.value.pair) == {"p", "r"}


def test_code_rejects_duplicates_and_junk():
    with pytest.raises(DuplicateCodewordError):
        Code({"a": "10", "b": "10"})
    with pytest.raises(ParseError):
        Code({"a": "10", "b": "1x"})
    with pytest.raises(ParseError):
        Code({"a": ""})
    with pytest.raises(ParseError):
        Code({})


def test_codeword_lookup_unknown_symbol():
    code = Code(CANON)
    with pytest.raises(UnknownSymbolError):
        code.codeword("z")


# ---------------------------------------------------------------------------
# encode / decode
# ---------------------------------------------------------------------------

def test_encode_decode_round_trip():
    code = Code(CANON)
    bits = code.encode(["a", "b", "c", "a"])
    assert bits == "0101101"[: len(bits)] or bits == "010110" + "0"
    assert bits == "010" + "11" + "0"
    assert code.decode(bits) == ["a", "b", "c", "a"]


def test_decode_known_strings():
    code = Code(CANON)
    assert code.decode("011") == ["a", "c"]
    assert code.decode("0110") == ["a", "c", "a"]
    assert code.decode("") == []


def test_decode_dangling_suffix_fails():
    code = Code(CANON)
    with pytest.raises(DecodeError):
        code.decode("0111")
    with pytest.raises(DecodeError):
        code.decode("01101")


def test_decode_dead_branch_fails():
    code = Code({"a": "00", "b": "01"})
    with pytest.raises(DecodeError):
        code.decode("10")


def test_decode_rejects_non_binary():
    with pytest.raises(DecodeError):
        Code(CANON).decode("01a")


def test_encode_unknown_symbol():
    with pytest.raises(UnknownSymbolError):
        Code(CANON).encode(["a", "z"])


def test_round_trip_random_codes():
    import random

    for seed in range(40):
        code = random_complete_code(2 + seed % 17, seed)
        rng = random.Random(seed + 1000)
        message = [rng.choice(code.symbols) for _ in range(50)]
        assert code.decode(code.encode(message)) == message


# ---------------------------------------------------------------------------
# parse / dump
# ---------------------------------------------------------------------------

def test_parse_code_with_exact_probs():
    text = json.dumps(
        {
            "code": [
                {"symbol": "a", "codeword": "0", "prob": "0.5"},
                {"symbol": "b", "codeword": "10", "prob": "0.25"},
                {"symbol": "c", "codeword": "11", "prob": "0.25"},
            ]
        }
    )
    code, pmf = parse_code(text)
    assert code == Code(CANON)
    assert pmf is not None and pmf.exact
    assert pmf["b"] == Fraction(1, 4)


def test_parse_code_without_probs():
    code, pmf = parse_code(json.dumps({"code": [{"symbol": "a", "codeword": "0"}]}))
    assert pmf is None
    assert code.codeword("a") == "0"


def test_parse_code_prob_all_or_none():
    text = json.dumps(
        {
            "code": [
                {"symbol": "a", "codeword": "0", "prob": "0.5"},
                {"symbol": "b", "codeword": "1"},
            ]
        }
    )
    with pytest.raises(ParseError):
        parse_code(text)


def test_parse_code_errors():
    with pytest.raises(ParseError):
        parse_code("{not json")
    with pytest.raises(ParseError):
        parse_code(json.dumps({"code": []}))
    with pytest.raises(ParseError):
        parse_code(json.dumps(["a"]))
    with pytest.raises(ParseError):
        parse_code(json.dumps({"code": [{"symbol": "a"}]}))
    with pytest.raises(DuplicateSymbolError):
        parse_code(
            json.dumps(
                {
                    "code": [
                        {"symbol": "a", "codeword": "0"},
                        {"symbol": "a", "codeword": "1"},
                    ]
                }
            )
        )


def test_dump_parse_round_trip():
    code = Code(CANON)
    pmf = Pmf(CANON_PMF)
    text = dump_code(code, pmf)
    code2, pmf2 = parse_code(text)
    assert code2 == code
    assert pmf2 == pmf
    # dyadic probabilities serialize as exact decimal strings
    doc = json.loads(text)
    probs = {row["symbol"]: row["prob"] for row in doc["code"]}
    assert probs == {"a": "0.5", "b": "0.25", "c": "0.25"}


@pytest.mark.parametrize(
    "words, probs, written",
    [
        # float probabilities are written as JSON numbers
        (CANON, {"a": 0.5, "b": 0.25, "c": 0.25}, {"a": 0.5, "b": 0.25, "c": 0.25}),
        # a non-dyadic Fraction has no finite decimal and falls back to a float
        (CANON, {"a": Fraction(1, 3), "b": Fraction(1, 3), "c": Fraction(1, 3)},
         {"a": 1 / 3, "b": 1 / 3, "c": 1 / 3}),
        # probability 1 is the one dyadic value without a "0." prefix
        ({"a": "0"}, {"a": Fraction(1)}, {"a": "1"}),
    ],
    ids=["float", "non-dyadic-fraction", "one"],
)
def test_dump_code_probability_forms(words, probs, written):
    code = Code(words)
    text = dump_code(code, Pmf(probs))
    doc = json.loads(text)
    assert {row["symbol"]: row["prob"] for row in doc["code"]} == written
    code2, pmf2 = parse_code(text)
    assert code2 == code
    assert pmf2 == Pmf(written)


# ---------------------------------------------------------------------------
# Kraft sum, entropy, average length, optimality
# ---------------------------------------------------------------------------

def test_kraft_sum_exact():
    assert kraft_sum(Code(CANON)) == Fraction(1)
    assert kraft_sum(Code({"a": "0", "b": "10"})) == Fraction(3, 4)


def test_entropy_exact_for_dyadic():
    h = shannon_entropy(Pmf(CANON_PMF))
    assert isinstance(h, Fraction)
    assert h == Fraction(3, 2)


def test_entropy_float_for_non_dyadic():
    h = shannon_entropy(Pmf({"a": Fraction(1, 3), "b": Fraction(1, 3), "c": Fraction(1, 3)}))
    assert isinstance(h, float)
    assert abs(h - math.log2(3)) < 1e-12


def test_average_length_exact_identity():
    code = Code(CANON)
    pmf = Pmf(CANON_PMF)
    avg = average_codeword_length(code, pmf)
    assert isinstance(avg, Fraction)
    # absolutely optimal: average length meets the entropy exactly
    assert avg == shannon_entropy(pmf) == Fraction(3, 2)


def test_entropy_and_average_length_of_float_pmf():
    # a float pmf stays float even when every value is a power of two
    dyadic = Pmf({"a": 0.5, "b": 0.25, "c": 0.25})
    h = shannon_entropy(dyadic)
    assert isinstance(h, float) and h == 1.5
    avg = average_codeword_length(Code(CANON), dyadic)
    assert isinstance(avg, float) and avg == 1.5
    skewed = Pmf({"a": 0.6, "b": 0.2, "c": 0.2})
    assert abs(shannon_entropy(skewed) - (0.6 * math.log2(1 / 0.6) + 0.4 * math.log2(5))) < 1e-12
    assert average_codeword_length(Code(CANON), skewed) == pytest.approx(1.4, abs=1e-15)


def test_average_length_alphabet_mismatch():
    with pytest.raises(UnknownSymbolError):
        average_codeword_length(Code(CANON), Pmf({"a": "0.5", "b": "0.5"}))


def test_absolute_optimality():
    code = Code(CANON)
    assert is_absolutely_optimal(code, Pmf(CANON_PMF))
    assert is_absolutely_optimal(code, Pmf({"a": 0.5, "b": 0.25, "c": 0.25}))
    assert not is_absolutely_optimal(code, Pmf({"a": "0.5", "b": "0.3", "c": "0.2"}))
    # incomplete code: no pmf over its alphabet can be dyadic everywhere
    partial = Code({"a": "0", "b": "10"})
    assert not is_absolutely_optimal(partial, Pmf({"a": "0.5", "b": "0.5"}))


def test_absolute_optimality_float_pmf_and_alphabet():
    code = Code(CANON)
    # float mode compares within PROB_TOL, both ways
    assert is_absolutely_optimal(code, Pmf({"a": 0.5 + 1e-13, "b": 0.25, "c": 0.25 - 1e-13}))
    assert not is_absolutely_optimal(code, Pmf({"a": 0.5, "b": 0.3, "c": 0.2}))
    with pytest.raises(UnknownSymbolError):
        is_absolutely_optimal(code, Pmf({"a": "0.5", "b": "0.5"}))


def test_dyadic_pmf_requires_complete():
    pmf = dyadic_pmf(Code(CANON))
    assert pmf == Pmf(CANON_PMF)
    with pytest.raises(ValueError):
        dyadic_pmf(Code({"a": "0", "b": "10"}))


def test_dyadic_pmf_always_optimal_and_exact():
    for seed in range(30):
        code = random_complete_code(2 + (seed * 7) % 31, seed)
        pmf = dyadic_pmf(code)
        assert pmf.exact
        assert is_absolutely_optimal(code, pmf)
        assert average_codeword_length(code, pmf) == shannon_entropy(pmf)


# ---------------------------------------------------------------------------
# random_complete_code
# ---------------------------------------------------------------------------

def test_generator_deterministic():
    a = random_complete_code(12, 424242)
    b = random_complete_code(12, 424242)
    assert a == b
    assert a.words == b.words
    c = random_complete_code(12, 424243)
    assert a != c  # overwhelmingly likely for a different seed


def test_generator_smallest_cases():
    code = random_complete_code(2, 7)
    assert sorted(code.words.values()) == ["0", "1"]
    with pytest.raises(ValueError):
        random_complete_code(1, 0)
    with pytest.raises(ValueError):
        random_complete_code(0, 0)


def test_generator_symbol_names_follow_codeword_order():
    code = random_complete_code(9, 5)
    words = [code.codeword(sym) for sym in code.symbols]
    assert words == sorted(words)
    assert code.symbols[0] == "x000"


def test_generator_structural_properties():
    # completeness is exact, the deepest level always holds an even number of
    # leaves, and codes with at least two distinct lengths beat the balanced
    # tree bound n*log2(n) < total length
    for seed in range(200):
        leaf_count = 2 + (seed * 13) % 63
        code = random_complete_code(leaf_count, seed)
        assert len(code) == leaf_count
        assert kraft_sum(code) == Fraction(1)
        sp = code.spectrum()
        assert sp.d_max % 2 == 0
        if not sp.is_degenerate:
            n = sp.n_codewords
            assert n * math.log2(n) < sp.total_length
