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
from fractions import Fraction
from math import gcd
from typing import Iterable, Iterator, Mapping

from .errors import (
    DecodeError,
    DuplicateCodewordError,
    DuplicateSymbolError,
    ParseError,
    PrefixViolationError,
    UnknownSymbolError,
)

__all__ = [
    "Pmf",
    "Code",
    "LengthSpectrum",
    "parse_code",
    "dump_code",
    "kraft_sum",
    "shannon_entropy",
    "average_codeword_length",
    "is_absolutely_optimal",
    "dyadic_pmf",
    "random_complete_code",
]

# Tolerance for float-valued pmfs: normalization and dyadic comparison.
PROB_TOL = 1e-12


def _check_symbol(token) -> str:
    if not isinstance(token, str) or not token:
        raise ParseError(f"symbol must be a non-empty string, got {token!r}")
    if any(c.isspace() for c in token):
        raise ParseError(f"symbol {token!r} contains whitespace")
    return token


class Pmf:
    """Probability mass function over symbol tokens.

    Values may be Fraction (exact mode) or float.  Exact mode requires the
    probabilities to sum to exactly 1; float mode tolerates PROB_TOL slack.
    int and str values are promoted to Fraction, so a document can carry
    "0.125" and stay exact.
    """

    def __init__(self, probs: Mapping[str, Fraction | float | int | str]):
        if not probs:
            raise ParseError("pmf must contain at least one symbol")
        converted: dict[str, Fraction | float] = {}
        for token, p in probs.items():
            _check_symbol(token)
            if isinstance(p, bool):
                raise ParseError(f"probability of {token!r} must be a number")
            if isinstance(p, (int, str)):
                try:
                    p = Fraction(p)
                except (ValueError, ZeroDivisionError) as exc:
                    raise ParseError(f"bad probability for {token!r}: {exc}") from exc
            elif isinstance(p, float) and not math.isfinite(p):
                raise ParseError(f"probability of {token!r} must be finite, got {p}")
            elif not isinstance(p, (Fraction, float)):
                raise ParseError(f"probability of {token!r} must be a number")
            if p <= 0:
                raise ParseError(f"probability of {token!r} must be positive")
            converted[token] = p
        self._probs = dict(sorted(converted.items()))
        self.exact = all(isinstance(p, Fraction) for p in self._probs.values())
        if self.exact:
            total = sum(self._probs.values())
            if total != 1:
                raise ParseError(f"exact probabilities sum to {total}, not 1")
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
    length -> count mapping, without building 2**length.

    Walks from the longest length to the root, carrying the number of tree
    nodes the longer codewords occupy: gap levels up, need nodes fit in
    ceil(need / 2**gap), which is 1 once 2**gap exceeds need.  So need stays
    the ceiling of the Kraft mass below each level, and the division is exact
    at every step iff K is an integer.
    """
    items = reversed(counts.items())
    level, need = next(items)
    exact = True
    for length, count in [*items, (0, 0)]:
        gap = level - length
        if gap >= need.bit_length():
            need, exact = 1, False
        else:
            exact = exact and need & ((1 << gap) - 1) == 0
            need = -(-need >> gap)
        need += count
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
        clean: dict[int, int] = {}
        for length, count in counts.items():
            if not isinstance(length, int) or isinstance(length, bool) or length < 1:
                raise ValueError(f"codeword length must be a positive int, got {length!r}")
            if not isinstance(count, int) or isinstance(count, bool) or count < 1:
                raise ValueError(f"count for length {length} must be a positive int")
            clean[length] = count
        self._counts = dict(sorted(clean.items()))
        if _kraft_ceiling(self._counts)[0] > 1:
            raise ValueError("Kraft sum exceeds 1: no prefix code has these lengths")

    @classmethod
    def from_lengths(cls, lengths: Iterable[int]) -> "LengthSpectrum":
        counts: dict[int, int] = {}
        for length in lengths:
            counts[length] = counts.get(length, 0) + 1
        return cls(counts)

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
        step = 0
        base = self.l_min
        for length in self._counts:
            step = gcd(step, length - base)
        return step

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
    adjacent in sorted order.
    """

    def __init__(self, mapping: Mapping[str, str]):
        if not mapping:
            raise ParseError("code must contain at least one codeword")
        words: dict[str, str] = {}
        for token, word in mapping.items():
            _check_symbol(token)
            if not isinstance(word, str) or not word:
                raise ParseError(f"codeword of {token!r} must be a non-empty string")
            if any(c not in "01" for c in word):
                raise ParseError(f"codeword {word!r} of {token!r} has non-binary characters")
            words[token] = word
        self._words = dict(sorted(words.items()))

        seen: dict[str, str] = {}
        for token, word in self._words.items():
            if word in seen:
                raise DuplicateCodewordError(
                    f"symbols {seen[word]!r} and {token!r} share codeword {word!r}"
                )
            seen[word] = token
        by_word = sorted(self._words.items(), key=lambda kv: kv[1])
        for (tok_a, word_a), (tok_b, word_b) in zip(by_word, by_word[1:]):
            if word_b.startswith(word_a):
                raise PrefixViolationError(tok_a, tok_b, word_a, word_b)

        self._decode_map = {w: s for s, w in self._words.items()}
        # All proper prefixes of codewords; a growing buffer outside this set
        # can never complete, so decoding fails fast.
        self._live_prefixes = {w[:i] for w in self._decode_map for i in range(len(w))}

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
        if any(c not in "01" for c in bits):
            raise DecodeError("input is not a binary string")
        out: list[str] = []
        buffer = ""
        for pos, bit in enumerate(bits):
            buffer += bit
            token = self._decode_map.get(buffer)
            if token is not None:
                out.append(token)
                buffer = ""
            elif buffer not in self._live_prefixes:
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
    except json.JSONDecodeError as exc:
        raise ParseError(f"not valid JSON: {exc}") from exc
    if not isinstance(doc, dict) or "code" not in doc:
        raise ParseError('document must be an object with a "code" array')
    entries = doc["code"]
    if not isinstance(entries, list) or not entries:
        raise ParseError('"code" must be a non-empty array')

    mapping: dict[str, str] = {}
    probs: dict[str, float | str | int] = {}
    with_prob = 0
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
            with_prob += 1
    if with_prob not in (0, len(entries)):
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
    """Serialize a code (and optional pmf) to the JSON document format.

    Exact probabilities are written as decimal strings when the denominator
    is a power of two, so a round trip through parse_code stays exact.
    """
    entries = []
    for token in code.symbols:
        entry: dict[str, object] = {"symbol": token, "codeword": code.codeword(token)}
        if pmf is not None:
            p = pmf[token]
            if isinstance(p, Fraction):
                den = p.denominator
                if den & (den - 1) == 0:
                    entry["prob"] = _dyadic_decimal(p)
                else:
                    entry["prob"] = float(p)
            else:
                entry["prob"] = p
        entries.append(entry)
    return json.dumps({"code": entries}, indent=2) + "\n"


def kraft_sum(code: Code) -> Fraction:
    """Exact Kraft sum sum(2**-len(w)) over the codewords."""
    return code.spectrum().kraft_sum()


def _dyadic_exponent(p: Fraction | float) -> int | None:
    """If p == 2**-k exactly, return k, else None."""
    if isinstance(p, Fraction):
        if p.numerator == 1 and p.denominator & (p.denominator - 1) == 0:
            return p.denominator.bit_length() - 1
        return None
    mantissa, exp = math.frexp(p)
    if mantissa == 0.5:
        return 1 - exp
    return None


def shannon_entropy(pmf: Pmf) -> Fraction | float:
    """Entropy in bits, -sum(p * log2 p).

    When every probability is exactly a power of two the result is returned
    as an exact Fraction (log2 p is then an integer); otherwise a float.
    """
    exponents = [_dyadic_exponent(p) for _, p in pmf.items()]
    if pmf.exact and all(k is not None for k in exponents):
        return sum(
            (p * k for (_, p), k in zip(pmf.items(), exponents)), start=Fraction(0)
        )
    return -math.fsum(float(p) * math.log2(float(p)) for _, p in pmf.items())


def average_codeword_length(code: Code, pmf: Pmf) -> Fraction | float:
    """Expected codeword length sum(p(x) * len(w(x))) in bits.

    Exact (Fraction) for an exact pmf, float otherwise.  The pmf must cover
    exactly the code's alphabet.
    """
    if pmf.symbols != code.symbols:
        raise UnknownSymbolError(
            "pmf alphabet does not match the code "
            f"(code {list(code.symbols)}, pmf {list(pmf.symbols)})"
        )
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
    if pmf.symbols != code.symbols:
        raise UnknownSymbolError(
            "pmf alphabet does not match the code "
            f"(code {list(code.symbols)}, pmf {list(pmf.symbols)})"
        )
    for token, p in pmf.items():
        target = Fraction(1, 2 ** code.length(token))
        if isinstance(p, Fraction):
            if p != target:
                return False
        elif abs(p - float(target)) > PROB_TOL:
            return False
    return True


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
        leaf_count: number of codewords, at least 2.
        seed: 64-bit PRNG seed.

    Returns:
        A complete Code with leaf_count codewords.
    """
    if leaf_count < 2:
        raise ValueError("leaf_count must be at least 2 (a one-word prefix code is empty-word)")
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
