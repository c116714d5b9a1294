"""Counting coded messages at fixed total length.

A message of n_symbols symbols encodes to a bit string whose length is the
sum of the individual codeword lengths.  The number of messages that encode
to exactly L bits is the coefficient of z**L in (sum_l d_l z**l)**n_symbols,
where d_l counts codewords of length l.  This module computes that table
exactly (arbitrary-precision integers), in the log2 domain (numpy floats,
with only a few big integers alive at a time), and by literal enumeration (the
oracle the other two are checked against), and derives entropy and discrete
temperature from it.

Units: lengths in bits, entropy in bits, temperature in bits per bit of
entropy (dimensionless).
"""

from __future__ import annotations

import math
from collections import Counter, deque
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Iterable, Iterator

from ._lazy import np
from .codes import Code, LengthSpectrum, Pmf
from .errors import CapacityError, UnachievableLengthError

__all__ = [
    "EnsembleTable",
    "LogEnsembleTable",
    "TemperatureEstimate",
    "SampleReport",
    "count_messages",
    "count_messages_brute",
    "count_messages_log",
    "iter_log_tables",
    "entropy_at",
    "temperature_at",
    "most_probable_length",
    "sample_messages",
]

# Exact tables refuse when their cells could need more than this many bits in
# all (512 MiB), each cell charged 128 bits (a 64-bit list slot and the
# float64 log2 of its count) plus its count's bound: canon {0, 10, 11}
# passes up to N of about 52,000.  The log-domain table runs the same
# recurrence but keeps only span + 1 counts alive, so it has no size cap; its
# time still grows as N**2 * span * #lengths.
MAX_EXACT_BITS = 2**32

# Literal enumeration refuses more than this many messages.
MAX_BRUTE_MESSAGES = 10_000_000

# The sampler draws at most this many symbols per chunk; a chunk's int64
# matrices take 8 MB each.  rng.choice's stream does not depend on the chunk
# size, so neither does the report.
_SAMPLE_CHUNK_CELLS = 1_000_000


def _log2_counts(counts: Iterable[int], n_cells: int) -> np.ndarray:
    """math.log2 of each of n_cells exact counts as float64, -inf for 0."""
    return np.fromiter(
        (math.log2(c) if c else -math.inf for c in counts), dtype=np.float64, count=n_cells
    )


class LogEnsembleTable:
    """log2 of the message counts, as a dense float array over the lattice.

    Unachievable lengths hold -inf.  count_messages_log fills it with
    math.log2 of each exact count, so its values equal EnsembleTable's bit
    for bit; iter_log_tables' tables agree to float rounding.  An
    EnsembleTable is this table plus its integers.
    """

    __slots__ = ("n_symbols", "_offset", "_log2", "_support")

    def __init__(self, n_symbols: int, offset: int, log2_counts: np.ndarray):
        self.n_symbols = n_symbols
        self._offset = offset
        self._log2 = log2_counts
        self._support = offset + np.flatnonzero(np.isfinite(log2_counts)).astype(np.int64)

    @property
    def support(self) -> np.ndarray:
        """Achievable total lengths, ascending."""
        return self._support

    def count(self, total_bits: int) -> float:
        """2**log2_count(total_bits); inf once that passes the float range."""
        try:
            return 2.0 ** self.log2_count(total_bits)
        except OverflowError:
            return math.inf

    def log2_count(self, total_bits: int) -> float:
        i = total_bits - self._offset
        if 0 <= i < len(self._log2):
            return float(self._log2[i])
        return -math.inf

    def _entropies(self) -> np.ndarray:
        """log2 of the count at each support point."""
        return self._log2[self._support - self._offset]

    def log2_array(self) -> np.ndarray:
        """The raw log2-count array; index i is total length offset + i."""
        return self._log2

    @property
    def offset(self) -> int:
        return self._offset


class EnsembleTable(LogEnsembleTable):
    """Exact counts of coded messages by total bit length.

    A LogEnsembleTable plus its integers: the coefficient list of the
    length-counting polynomial raised to the n_symbols power, as Python ints
    that never overflow.  Everything but the integer readers below reads
    the log2 array built from them.
    """

    __slots__ = ("_coeffs",)

    def __init__(self, n_symbols: int, offset: int, coeffs: list[int]):
        super().__init__(n_symbols, offset, _log2_counts(coeffs, len(coeffs)))
        self._coeffs = coeffs

    def count(self, total_bits: int) -> int:
        """Number of messages encoding to exactly total_bits; 0 if none."""
        i = total_bits - self._offset
        if 0 <= i < len(self._coeffs):
            return self._coeffs[i]
        return 0

    def items(self) -> Iterator[tuple[int, int]]:
        """(total_bits, count) pairs over the support, ascending."""
        return ((L, self._coeffs[L - self._offset]) for L in self._support.tolist())

    def to_dict(self) -> dict[int, int]:
        return dict(self.items())

    def total_probability(self, kraft: object) -> object:
        """sum count(L) * 2**-L, exactly, given the code's Kraft sum is kraft.

        Included for checking: the result always equals kraft**n_symbols.
        The sum itself is computed directly from the table.
        """
        return sum((Fraction(c, 2**L) for L, c in self.items()), start=Fraction(0))


@dataclass(frozen=True)
class TemperatureEstimate:
    """Discrete temperature at one total length.

    value is dL/dS from a central difference over the nearest achievable
    neighbours; one_sided marks boundary lengths where only one neighbour
    exists.  Infinite values carry the sign convention: zero entropy slope
    reads +inf below the entropy peak and -inf above it (and +inf at the
    peak itself).
    """

    value: float
    one_sided: bool = False


def _miller(spectrum: LengthSpectrum, n_symbols: int) -> Iterator[int]:
    """Yield the exact counts a_0 .. a_(N*span), a_m at total length N*l_min + m.

    J.C.P. Miller's power recurrence (Knuth, TAOCP vol. 2, 4.7): with
    N = n_symbols, a_0 = d_min**N and
    m*d_min*a_m = sum_k ((N+1)*k - m) * d_k * a_(m-k), k over the length
    offsets above l_min; every division is exact.  a_m needs only the span
    counts before it, so only those are kept.
    """
    l_min = spectrum.l_min
    span = spectrum.l_max - l_min
    d0 = spectrum.d_min
    terms = [(l - l_min, d) for l, d in spectrum.degeneracy.items() if l > l_min]
    a = d0**n_symbols
    recent = deque([a], maxlen=span)  # recent[-k] is a_(m-k)
    yield a
    for m in range(1, n_symbols * span + 1):
        acc = 0
        for k, d in terms:
            if k > m:
                break
            acc += ((n_symbols + 1) * k - m) * d * recent[-k]
        a = acc // (m * d0)
        recent.append(a)
        yield a


def count_messages(spectrum: LengthSpectrum, n_symbols: int) -> EnsembleTable:
    """Exact message-count table by J.C.P. Miller's power recurrence.

    N*span*#lengths big-integer steps (see _miller).  No count exceeds
    n_codewords**N, so each of the N*span + 1 cells holds a list slot (64
    bits), the float64 log2 of its count (64 bits) and at most
    N*log2(n_codewords) bits of count.  Past MAX_EXACT_BITS in all it raises
    CapacityError before computing anything; use count_messages_log for
    those.
    """
    if n_symbols < 1:
        raise ValueError("n_symbols must be at least 1")
    span = spectrum.l_max - spectrum.l_min
    bits = (n_symbols * span + 1) * (n_symbols * math.log2(spectrum.n_codewords) + 128)
    if bits > MAX_EXACT_BITS:
        raise CapacityError(
            f"exact table needs up to {bits:.3g} bits (cap {MAX_EXACT_BITS}); "
            "use the log-domain table instead"
        )
    return EnsembleTable(n_symbols, n_symbols * spectrum.l_min, list(_miller(spectrum, n_symbols)))


def count_messages_brute(
    code: Code, n_symbols: int, max_messages: int = MAX_BRUTE_MESSAGES
) -> EnsembleTable:
    """Message counts by enumerating every one of the |alphabet|**n messages.

    Exponentially slow by construction; this is the independent oracle the
    exact and log tables are validated against.
    """
    if n_symbols < 1:
        raise ValueError("n_symbols must be at least 1")
    k = len(code)
    if k**n_symbols > max_messages:
        raise CapacityError(
            f"{k}**{n_symbols} messages exceed the enumeration cap {max_messages}"
        )
    lengths = [len(code.codeword(s)) for s in code.symbols]
    tally = Counter(map(sum, product(lengths, repeat=n_symbols)))
    lo = min(tally)
    return EnsembleTable(n_symbols, lo, [tally[total] for total in range(lo, max(tally) + 1)])


def count_messages_log(spectrum: LengthSpectrum, n_symbols: int) -> LogEnsembleTable:
    """Log-domain message-count table: math.log2 of each exact count.

    Runs the recurrence of count_messages but holds only span + 1 big
    integers at a time, so memory stays flat and there is no size cap; the
    time still grows as N**2 * span * #lengths.
    """
    if n_symbols < 1:
        raise ValueError("n_symbols must be at least 1")
    n_cells = n_symbols * (spectrum.l_max - spectrum.l_min) + 1
    log2_counts = _log2_counts(_miller(spectrum, n_symbols), n_cells)
    return LogEnsembleTable(n_symbols, n_symbols * spectrum.l_min, log2_counts)


def iter_log_tables(
    spectrum: LengthSpectrum, n_max: int
) -> Iterator[LogEnsembleTable]:
    """Yield the log-domain table for every n_symbols from 1 to n_max.

    Each table is one log-sum-exp convolution of the last, so the sweep costs
    about n_max**2 * span float operations in all, where building each table
    by count_messages_log would cost O(n_max**3).  Values agree with
    count_messages_log to float rounding, not bit for bit.  Every yielded
    array is new and is never written to again, so each table owns its array.
    """
    if n_max < 1:
        raise ValueError("n_max must be at least 1")
    l_min = spectrum.l_min
    span = spectrum.l_max - l_min
    base = [(l - l_min, math.log2(d)) for l, d in spectrum.degeneracy.items()]
    lw = np.zeros(1)  # n = 0: only the empty message, at length 0
    for n in range(1, n_max + 1):
        new = np.full(len(lw) + span, -np.inf)
        for off, ld in base:
            seg = new[off : off + len(lw)]
            np.logaddexp2(seg, lw + ld, out=seg)
        lw = new
        yield LogEnsembleTable(n, n * l_min, lw)


def _support_position(table: LogEnsembleTable, total_bits: int) -> int:
    """Index of total_bits in table.support; refuses an unachievable length."""
    support = table.support
    pos = int(np.searchsorted(support, total_bits))
    if pos >= len(support) or support[pos] != total_bits:
        raise UnachievableLengthError(
            f"no message encodes to {total_bits} bits "
            f"(achievable range {int(support[0])}..{int(support[-1])})"
        )
    return pos


def entropy_at(table: LogEnsembleTable, total_bits: int) -> float:
    """Microcanonical entropy log2(count) in bits at one total length."""
    _support_position(table, total_bits)
    return table.log2_count(total_bits)


def _temperatures(lengths: np.ndarray, entropies: np.ndarray) -> np.ndarray:
    """Discrete temperature dL/dS at every point of an ascending (L, S) series.

    Central differences over the neighbouring points, one-sided at the two
    ends.  A zero entropy difference yields a signed infinity: positive at
    or below the entropy peak (its first maximum), negative above it.  A
    single point has no temperature and yields nan.
    """
    if len(lengths) < 2:
        return np.full(len(lengths), np.nan)
    # Padding each end with a copy of itself makes the end differences one-sided.
    x = np.concatenate((lengths[:1], lengths, lengths[-1:]))
    s = np.concatenate((entropies[:1], entropies, entropies[-1:]))
    with np.errstate(divide="ignore", invalid="ignore"):  # -inf entropies, zero slopes
        ds = s[2:] - s[:-2]
        t = (x[2:] - x[:-2]) / ds
    flat = np.flatnonzero(ds == 0.0)
    t[flat] = np.where(flat <= np.argmax(entropies), np.inf, -np.inf)
    return t


def temperature_at(table: LogEnsembleTable, total_bits: int) -> TemperatureEstimate:
    """Discrete temperature dL/dS at an achievable total length.

    Uses the central difference over the nearest achievable neighbours;
    at the ends of the support it falls back to a one-sided difference and
    flags the result.  A zero entropy difference yields a signed infinity:
    positive at or below the entropy peak, negative above it.
    """
    support = table.support
    if len(support) < 2:
        raise UnachievableLengthError(
            "support has a single achievable length; no temperature is defined"
        )
    pos = _support_position(table, total_bits)
    value = float(_temperatures(support, table._entropies())[pos])
    return TemperatureEstimate(value, pos in (0, len(support) - 1))


def most_probable_length(table: LogEnsembleTable) -> int:
    """Total length maximizing count(L) * 2**-L, the weight of length L
    under an absolutely optimal code.  Ties go to the smallest length.

    On an EnsembleTable the weights are compared exactly as integers over
    the common denominator 2**last, last the largest achievable length:
    count(L) << (last - L).  On a LogEnsembleTable they are compared as
    floats (argmax of log2 count - L).
    """
    if isinstance(table, EnsembleTable):
        last = int(table.support[-1])
        return max(table.items(), key=lambda item: item[1] << (last - item[0]))[0]
    arr = table.log2_array()
    scores = arr - (table.offset + np.arange(len(arr)))
    return int(table.offset + int(np.argmax(scores)))


@dataclass(frozen=True)
class SampleReport:
    """Outcome of Monte Carlo message sampling.

    histogram maps total length to frequency (frequencies sum to draws).
    When focus_total is set, conditional_counts maps each distinct coded
    bit string of that total length to its count.
    """

    draws: int
    n_symbols: int
    histogram: dict[int, int]
    focus_total: int | None = None
    conditional_counts: dict[str, int] | None = None

    @property
    def mean_total(self) -> float:
        return sum(L * c for L, c in self.histogram.items()) / self.draws


def sample_messages(
    code: Code,
    pmf: Pmf,
    n_symbols: int,
    draws: int,
    seed: int,
    focus_total: int | None = None,
) -> SampleReport:
    """Draw i.i.d. messages of n_symbols symbols and histogram their coded
    lengths.

    Deterministic in the seed (numpy PCG64 via default_rng).  With
    focus_total set, every sampled message whose coded length hits that
    value is recorded verbatim, giving the conditional distribution over
    coded messages at fixed total length.
    """
    if n_symbols < 1:
        raise ValueError("n_symbols must be at least 1")
    if draws < 1:
        raise ValueError("draws must be at least 1")
    if pmf.symbols != code.symbols:
        raise ValueError("pmf alphabet does not match the code")
    rng = np.random.default_rng(seed)
    words = [code.codeword(s) for s in code.symbols]
    lengths = np.array([len(w) for w in words], dtype=np.int64)
    probs = np.array([float(p) for _, p in pmf.items()], dtype=np.float64)
    probs = probs / probs.sum()  # exact-to-float residue

    hist: Counter[int] = Counter()
    conditional: Counter[str] | None = Counter() if focus_total is not None else None
    chunk = max(1, min(draws, _SAMPLE_CHUNK_CELLS // n_symbols))
    done = 0
    while done < draws:
        m = min(chunk, draws - done)
        idx = rng.choice(len(words), size=(m, n_symbols), p=probs)
        totals = lengths[idx].sum(axis=1)
        binc = np.bincount(totals)
        for L in np.flatnonzero(binc):
            hist[int(L)] += int(binc[L])
        if conditional is not None:
            # sort the hits so equal messages sit together, then join each
            # distinct message once and add its run length
            hits = idx[totals == focus_total]
            hits = hits[np.lexsort(hits.T[::-1])]
            new_run = np.r_[len(hits) > 0, np.any(hits[1:] != hits[:-1], axis=1)]
            starts = np.flatnonzero(new_run)
            runs = np.diff(np.r_[starts, len(hits)])
            for row, run in zip(hits[starts].tolist(), runs.tolist()):
                conditional["".join([words[i] for i in row])] += run
        done += m
    return SampleReport(
        draws=draws,
        n_symbols=n_symbols,
        histogram=dict(sorted(hist.items())),
        focus_total=focus_total,
        conditional_counts=dict(sorted(conditional.items())) if conditional is not None else None,
    )
