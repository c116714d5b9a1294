"""Binary prefix codes, their length spectra, and dyadic probability laws.

A code maps symbol tokens to binary codewords such that no codeword is a
prefix of another, so every concatenation of codewords can be decoded
instantaneously, left to right, without lookahead.  Everything downstream
(counting tables, temperature curves, box dimensions) depends only on the
multiset of codeword lengths, which lives in LengthSpectrum.

Exact arithmetic policy: Kraft sums and dyadic probabilities are Fraction
valued, never floats, so completeness checks are exact.  Entropy and average
length stay exact whenever the pmf allows it and fall back to floats
otherwise.
"""

from __future__ import annotations

import json
import math
import random
from bisect import bisect_left
from collections import Counter
from fractions import Fraction
from math import gcd
from typing import Iterable, Iterator, Mapping

from . import _EXPORTS
from .errors import (
    CapacityError,
    DecodeError,
    DuplicateCodewordError,
    DuplicateSymbolError,
    ParseError,
    PrefixViolationError,
    UnknownSymbolError,
)

__all__ = [*_EXPORTS["codes"]]

# Tolerance for float-valued pmfs: normalization and dyadic comparison.
PROB_TOL = 1e-12

# Pmf refuses a string probability whose decimal exponent has more digits than
# this before Fraction builds 10**exponent, which takes seconds past 10**7.
MAX_EXPONENT_DIGITS = 4

# random_complete_code refuses more leaves than this: each split pops from a
# list, so the work grows as leaves**2, about a second at the cap.
MAX_LEAVES = 2**16


def _check_symbol(token) -> str:
    if not isinstance(token, str) or not token:
        raise ParseError(f"symbol must be a non-empty string, got {token!r}")
    if any(c.isspace() for c in token):
        raise ParseError(f"symbol {token!r} contains whitespace")
    return token


def _check_n_symbols(n_symbols: int) -> None:
    if n_symbols < 1:
        raise ValueError("n_symbols must be at least 1")


def _check_seed(seed: int) -> None:
    if seed < 0:  # random.Random would seed from |seed|, and numpy's refusal does not name it
        raise ValueError(f"seed must be a non-negative integer, got {seed}")


class Pmf:
    """Probability mass function over symbol tokens.

    Values lie in (0, 1] and may be Fraction or float; int and str values
    are promoted to Fraction, so a document can carry "0.125" and stay exact.
    Entropy, average length and optimality read its one mode: exact when
    every value is a Fraction, float when any value is a float.  An exact
    pmf must sum to exactly 1 and compares exactly; a float pmf, Fraction
    entries included, is held to PROB_TOL.
    """

    def __init__(self, probs: Mapping[str, Fraction | float | int | str]):
        if not probs:
            raise ParseError("pmf must contain at least one symbol")
        converted: dict[str, Fraction | float] = {}
        for token, p in probs.items():
            _check_symbol(token)
            if isinstance(p, str):
                exponent = p.lower().partition("e")[2].lstrip("+-0_").rstrip().replace("_", "")
                if len(exponent) > MAX_EXPONENT_DIGITS and exponent.isdecimal():
                    raise CapacityError(f"probability of {token!r}: exponent of {len(exponent)} digits (cap {MAX_EXPONENT_DIGITS})")
            if isinstance(p, (int, str)) and not isinstance(p, bool):  # a bool is refused below
                try:
                    p = Fraction(p)
                except (ValueError, ZeroDivisionError) as exc:
                    raise ParseError(f"bad probability for {token!r}: {exc}") from exc
            elif isinstance(p, float) and not math.isfinite(p):
                raise ParseError(f"probability of {token!r} must be finite, got {p}")
            elif not isinstance(p, (Fraction, float)):
                raise ParseError(f"probability of {token!r} must be a number")
            if not 0 < p <= 1:  # so no sum below overflows a float
                raise ParseError(f"probability of {token!r} must be in (0, 1]")
            converted[token] = p
        self._probs = dict(sorted(converted.items()))
        self.exact = all(isinstance(p, Fraction) for p in self._probs.values())
        if self.exact:
            total = sum(self._probs.values())
            if total != 1:
                raise ParseError(f"exact probabilities sum to {float(total)!r}, not 1 (off by {float(total - 1):+.3g})")
        else:
            total = math.fsum(float(p) for p in self._probs.values())
            if abs(total - 1.0) > PROB_TOL:
                raise ParseError(f"probabilities sum to {total!r}, not 1")

    @property
    def symbols(self) -> tuple[str, ...]:
        return tuple(self._probs)

    def __getitem__(self, token: str) -> Fraction | float:
        return self._probs[token]

    def __contains__(self, token: str) -> bool:
        return token in self._probs

    def __len__(self) -> int:
        return len(self._probs)

    def items(self):
        return self._probs.items()

    def __eq__(self, other) -> bool:
        return isinstance(other, Pmf) and self._probs == other._probs

    def __repr__(self) -> str:
        body = ", ".join(f"{s}: {p}" for s, p in self._probs.items())
        return f"Pmf({{{body}}})"


def _kraft_ceiling(counts: Mapping[int, int]) -> tuple[int, bool]:
    """(ceil(K), whether K is an integer) for the Kraft sum K of a sorted
    length -> count mapping, by shifts alone, so no 2**length or 2**gap is built.

    Walks from the longest length to the root, carrying the number of tree
    nodes the longer codewords occupy: gap levels up, need nodes fit in
    ceil(need / 2**gap) = -(-need >> gap), which is 1 once 2**gap exceeds need.
    So need stays the ceiling of the Kraft mass below each level, and the
    shift is exact at every step iff K is an integer.
    """
    items = reversed(counts.items())
    level, need = next(items)
    exact = True
    for length, count in [*items, (0, 0)]:
        gap = level - length
        exact = exact and need >> gap << gap == need
        need = -(-need >> gap) + count
        level = length
    return need, exact


class LengthSpectrum:
    """Multiset of codeword lengths: length -> number of codewords.

    Only realizable spectra are allowed: lengths are positive integers and
    the Kraft sum does not exceed 1, which by Kraft's theorem is exactly the
    condition for a binary prefix code with these lengths to exist.
    """

    __slots__ = ("_counts",)

    def __init__(self, counts: Mapping[int, int]):
        if not counts:
            raise ValueError("spectrum must contain at least one length")
        for length, count in counts.items():
            if not isinstance(length, int) or isinstance(length, bool) or length < 1:
                raise ValueError(f"codeword length must be a positive int, got {length!r}")
            if not isinstance(count, int) or isinstance(count, bool) or count < 1:
                raise ValueError(f"count for length {length} must be a positive int")
        self._counts = dict(sorted(counts.items()))
        if _kraft_ceiling(self._counts)[0] > 1:
            raise ValueError("Kraft sum exceeds 1: no prefix code has these lengths")

    @classmethod
    def from_lengths(cls, lengths: Iterable[int]) -> "LengthSpectrum":
        return cls(Counter(lengths))

    @property
    def degeneracy(self) -> dict[int, int]:
        return dict(self._counts)

    @property
    def lengths(self) -> tuple[int, ...]:
        """Distinct lengths, ascending."""
        return tuple(self._counts)

    def count(self, length: int) -> int:
        return self._counts.get(length, 0)

    @property
    def l_min(self) -> int:
        return next(iter(self._counts))

    @property
    def l_max(self) -> int:
        return next(reversed(self._counts))

    @property
    def d_min(self) -> int:
        """Number of codewords at the shortest length."""
        return self._counts[self.l_min]

    @property
    def d_max(self) -> int:
        """Number of codewords at the longest length."""
        return self._counts[self.l_max]

    @property
    def n_codewords(self) -> int:
        return sum(self._counts.values())

    @property
    def total_length(self) -> int:
        """Sum of all codeword lengths, counted with multiplicity."""
        return sum(l * d for l, d in self._counts.items())

    @property
    def is_degenerate(self) -> bool:
        """True when every codeword has the same length."""
        return len(self._counts) == 1

    @property
    def lattice_step(self) -> int:
        """gcd of length differences; 0 for a degenerate spectrum."""
        base = self.l_min
        return gcd(*(length - base for length in self._counts))

    def kraft_sum(self) -> Fraction:
        return sum(
            (Fraction(d, 2**l) for l, d in self._counts.items()), start=Fraction(0)
        )

    @property
    def is_complete(self) -> bool:
        """True when the Kraft sum is exactly 1 (no capacity left unused)."""
        return _kraft_ceiling(self._counts) == (1, True)

    def __eq__(self, other) -> bool:
        return isinstance(other, LengthSpectrum) and self._counts == other._counts

    def __hash__(self) -> int:
        return hash(tuple(self._counts.items()))

    def __repr__(self) -> str:
        body = ", ".join(f"{l}: {d}" for l, d in self._counts.items())
        return f"LengthSpectrum({{{body}}})"


class Code:
    """Binary prefix code: an injective symbol -> codeword map.

    Construction validates everything once: symbols are non-empty tokens
    without whitespace, codewords are non-empty strings over {'0','1'}, no
    codeword repeats, and no codeword is a proper prefix of another.  The
    prefix check sorts the codewords and compares lexicographic neighbours,
    which catches every violation because a string and its extensions are
    adjacent in sorted order, an order the code keeps for decode.
    """

    def __init__(self, mapping: Mapping[str, str]):
        if not mapping:
            raise ParseError("code must contain at least one codeword")
        for token, word in mapping.items():
            _check_symbol(token)
            if not isinstance(word, str) or not word:
                raise ParseError(f"codeword of {token!r} must be a non-empty string")
            if word.strip("01"):
                raise ParseError(f"codeword {word!r} of {token!r} has non-binary characters")
        self._words = dict(sorted(mapping.items()))

        self._decode_map: dict[str, str] = {}  # codeword -> symbol
        for token, word in self._words.items():
            if word in self._decode_map:
                raise DuplicateCodewordError(
                    f"symbols {self._decode_map[word]!r} and {token!r} share codeword {word!r}"
                )
            self._decode_map[word] = token
        self._sorted_words = ordered = sorted(self._decode_map)
        for word_a, word_b in zip(ordered, ordered[1:]):
            if word_b.startswith(word_a):
                raise PrefixViolationError(
                    self._decode_map[word_a], self._decode_map[word_b], word_a, word_b
                )

    @property
    def symbols(self) -> tuple[str, ...]:
        return tuple(self._words)

    @property
    def words(self) -> dict[str, str]:
        return dict(self._words)

    def codeword(self, token: str) -> str:
        try:
            return self._words[token]
        except KeyError:
            raise UnknownSymbolError(f"symbol {token!r} is not in the code") from None

    def length(self, token: str) -> int:
        return len(self.codeword(token))

    def __len__(self) -> int:
        return len(self._words)

    def __eq__(self, other) -> bool:
        return isinstance(other, Code) and self._words == other._words

    def spectrum(self) -> LengthSpectrum:
        return LengthSpectrum.from_lengths(len(w) for w in self._words.values())

    def encode(self, message: Iterable[str]) -> str:
        """Concatenate the codewords of a symbol sequence."""
        return "".join(self.codeword(token) for token in message)

    def decode(self, bits: str) -> list[str]:
        """Instantaneous left-to-right decoding of a bit string.

        Raises DecodeError if the bits wander off every codeword path or if
        a non-empty suffix is left dangling at the end.
        """
        if bits.strip("01"):
            raise DecodeError("input is not a binary string")
        words = self._sorted_words
        out: list[str] = []
        buffer = ""
        for pos, bit in enumerate(bits):
            buffer += bit
            token = self._decode_map.get(buffer)
            if token is not None:
                out.append(token)
                buffer = ""
            # live iff the first codeword at or after the buffer extends it; past
            # the end the last codeword, which sorts before the buffer, stands in
            elif not words[bisect_left(words, buffer, 0, len(words) - 1)].startswith(buffer):
                raise DecodeError(
                    f"bits {buffer!r} ending at position {pos + 1} match no codeword path "
                    f"(decoded {len(out)} symbols so far)"
                )
        if buffer:
            raise DecodeError(
                f"dangling suffix {buffer!r} after decoding {len(out)} symbols"
            )
        return out

    def __repr__(self) -> str:
        body = ", ".join(f"{s}: {w}" for s, w in self._words.items())
        return f"Code({{{body}}})"


def parse_code(text: str) -> tuple[Code, Pmf | None]:
    """Parse a JSON code document.

    Expected shape::

        {"code": [{"symbol": "a", "codeword": "0", "prob": 0.5}, ...]}

    "prob" is optional but all-or-none across entries; string probabilities
    such as "0.125" are kept exact.  Returns the code and the pmf (None when
    probabilities are absent).
    """
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:  # JSONDecodeError is a ValueError
        raise ParseError(f"not valid JSON: {exc}") from exc
    if not isinstance(doc, dict) or "code" not in doc:
        raise ParseError('document must be an object with a "code" array')
    entries = doc["code"]
    if not isinstance(entries, list) or not entries:
        raise ParseError('"code" must be a non-empty array')

    mapping: dict[str, str] = {}
    probs: dict[str, float | str | int] = {}
    for i, entry in enumerate(entries):
        if not isinstance(entry, dict):
            raise ParseError(f"entry {i} is not an object")
        try:
            token = entry["symbol"]
            word = entry["codeword"]
        except KeyError as exc:
            raise ParseError(f"entry {i} is missing {exc}") from exc
        _check_symbol(token)
        if token in mapping:
            raise DuplicateSymbolError(f"symbol {token!r} appears twice")
        mapping[token] = word
        if "prob" in entry:
            probs[token] = entry["prob"]
    if len(probs) not in (0, len(entries)):
        raise ParseError("either every entry carries a prob or none does")

    code = Code(mapping)
    pmf = Pmf(probs) if probs else None
    return code, pmf


def _dyadic_decimal(frac: Fraction) -> str:
    """Exact decimal string for a dyadic rational in (0, 1]."""
    if frac == 1:
        return "1"
    k = frac.denominator.bit_length() - 1  # denominator is 2**k
    digits = str(frac.numerator * 5**k).rjust(k, "0")
    return "0." + digits


def dump_code(code: Code, pmf: Pmf | None = None) -> str:
    """Serialize a code (and optional pmf over its alphabet) to the JSON document format.

    Exact probabilities are written as decimal strings when the denominator
    is a power of two, so a round trip through parse_code stays exact.
    """
    if pmf is not None:
        _check_alphabet(code, pmf)
    entries = []
    for token in code.symbols:
        entry: dict[str, object] = {"symbol": token, "codeword": code.codeword(token)}
        if pmf is not None:
            p = pmf[token]
            if isinstance(p, Fraction):
                den = p.denominator
                p = _dyadic_decimal(p) if den & (den - 1) == 0 else float(p)
            entry["prob"] = p
        entries.append(entry)
    return json.dumps({"code": entries}, indent=2) + "\n"


def kraft_sum(code: Code) -> Fraction:
    """Exact Kraft sum sum(2**-len(w)) over the codewords."""
    return code.spectrum().kraft_sum()


def shannon_entropy(pmf: Pmf) -> Fraction | float:
    """Entropy in bits, -sum(p * log2 p).

    An exact pmf whose every probability is 2**-k gives an exact Fraction
    (log2 p is then the integer -k); any other pmf gives a float.
    """
    if pmf.exact and all(
        p.numerator == 1 and not p.denominator & (p.denominator - 1) for _, p in pmf.items()
    ):
        return sum(p * (p.denominator.bit_length() - 1) for _, p in pmf.items())
    return -math.fsum(float(p) * math.log2(float(p)) for _, p in pmf.items())


def _check_alphabet(code: Code, pmf: Pmf) -> None:
    """Refuse a pmf whose symbols are not exactly the code's."""
    if pmf.symbols != code.symbols:
        raise UnknownSymbolError(
            "pmf alphabet does not match the code "
            f"(code {list(code.symbols)}, pmf {list(pmf.symbols)})"
        )


def average_codeword_length(code: Code, pmf: Pmf) -> Fraction | float:
    """Expected codeword length sum(p(x) * len(w(x))) in bits.

    Exact (Fraction) for an exact pmf, float otherwise.  The pmf must cover
    exactly the code's alphabet.
    """
    _check_alphabet(code, pmf)
    if pmf.exact:
        return sum(
            (p * code.length(token) for token, p in pmf.items()), start=Fraction(0)
        )
    return math.fsum(float(p) * code.length(token) for token, p in pmf.items())


def is_absolutely_optimal(code: Code, pmf: Pmf) -> bool:
    """True iff p(x) == 2**-len(w(x)) for every symbol.

    Exact comparison for exact pmfs, PROB_TOL comparison for float pmfs.
    Equivalent to the average codeword length meeting the entropy exactly.
    """
    _check_alphabet(code, pmf)
    tol = 0 if pmf.exact else PROB_TOL
    return all(abs(p - Fraction(1, 2 ** code.length(token))) <= tol for token, p in pmf.items())


def dyadic_pmf(code: Code) -> Pmf:
    """The unique pmf that makes the code absolutely optimal: p = 2**-len.

    Only exists when the code is complete (Kraft sum exactly 1), because
    the probabilities must sum to 1.
    """
    total = kraft_sum(code)
    if total != 1:
        raise ValueError(f"code is not complete (Kraft sum {total}), no dyadic pmf exists")
    return Pmf({token: Fraction(1, 2 ** code.length(token)) for token in code.symbols})


def random_complete_code(leaf_count: int, seed: int) -> Code:
    """Uniform-split random complete code with the given number of codewords.

    Grows a binary code tree from the two one-bit leaves by repeatedly
    splitting a uniformly chosen leaf into its two children, which keeps the
    Kraft sum pinned at exactly 1 at every step.  leaf_count == 1 would need
    the empty codeword and is rejected.

    Deterministic in the seed: the PRNG is the Mersenne Twister as exposed by
    random.Random, consuming one leaf index per split.  Symbols are named
    x000, x001, ... in lexicographic codeword order.

    Args:
        leaf_count: number of codewords, 2 to MAX_LEAVES (CapacityError above).
        seed: non-negative PRNG seed (ValueError below 0).

    Returns:
        A complete Code with leaf_count codewords.
    """
    if leaf_count < 2:
        raise ValueError("leaf_count must be at least 2 (a one-word prefix code is empty-word)")
    if leaf_count > MAX_LEAVES:
        raise CapacityError(f"{leaf_count} leaves exceed the generator's cap {MAX_LEAVES}")
    _check_seed(seed)
    rng = random.Random(seed)
    leaves = ["0", "1"]
    while len(leaves) < leaf_count:
        i = rng.randrange(len(leaves))
        word = leaves.pop(i)
        leaves.append(word + "0")
        leaves.append(word + "1")
    leaves.sort()
    width = max(3, len(str(leaf_count - 1)))
    return Code({f"x{i:0{width}d}": word for i, word in enumerate(leaves)})
