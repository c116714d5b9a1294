"""Counting coded messages at fixed total length.

A message of n_symbols symbols encodes to a bit string whose length is the
sum of the individual codeword lengths.  The number of messages that encode
to exactly L bits is the coefficient of z**L in (sum_l d_l z**l)**n_symbols,
where d_l counts codewords of length l.  This module computes that table
exactly (arbitrary-precision integers), in the log2 domain (float64 in an
array('d'), with only a few big integers alive at a time), and by literal
enumeration (the oracle the other two are checked against), and derives
entropy and discrete temperature from it.  Counting, entropy and temperature
run on the standard library, and so does the most probable length of a
table built from exact counts, which keeps the one found exactly as the
counts went by.  numpy is imported inside the functions that use arrays:
the iter_log_tables sweep, the sampler, the ndarray readers of a table and
the most probable length of a table built from floats.

Units: lengths in bits, entropy in bits, temperature in bits per bit of
entropy (dimensionless).
"""

from __future__ import annotations

import math
from array import array
from collections import Counter, deque
from fractions import Fraction
from itertools import product
from typing import Iterable, Iterator, NamedTuple, Sequence

from . import _EXPORTS
from .codes import Code, LengthSpectrum, Pmf, _check_alphabet, _check_n_symbols, _check_seed
from .errors import CapacityError, UnachievableLengthError

__all__ = [*_EXPORTS["microcanonical"]]

# count_messages and exact omega refuse counts whose cells could need
# more than this many bits in all (512 MiB), each cell charged
# 128 bits (a 64-bit list slot and the float64 log2 of its count) plus its
# count's bound: canon {0, 10, 11} passes up to N of about 52,000.  The
# log-domain table runs the same recurrence but keeps only span + 1 counts
# alive, so it has no size cap; its time still grows as N**2 * span * #lengths.
MAX_EXACT_BITS = 2**32

# Literal enumeration refuses more than this many messages.
MAX_BRUTE_MESSAGES = 10_000_000

# The sampler refuses a message of more symbols than this.
MAX_SAMPLE_SYMBOLS = 1_000_000

# The sampler draws about this many symbols at a time: whole messages, or
# one longer message in pieces of this many.  Each float64 array is 64 KiB,
# below glibc's dynamic mmap threshold, so the heap keeps few of them
# resident.  The uniforms are drawn in C order, so no report depends on
# this size.
_SAMPLE_CHUNK_CELLS = 1 << 13


def _index(table: LogEnsembleTable, total_bits: int) -> int:
    """Index of total_bits in the table's array; -1 past either end or at
    a length between two integers.  A whole-number float names its integer."""
    i = total_bits - table.offset
    return int(i) if 0 <= i < len(table._log2) and i == int(i) else -1


def _log2_counts(
    counts: Iterable[int], centre: int | None = None, kraft: tuple[int, int] | None = None
) -> tuple[array, int | None]:
    """math.log2 of each exact count as float64, -inf for 0, and the index
    of the first count maximizing count * 2**-index (None if every count is
    0).  A count's bit length minus its index orders the weights but for
    near-ties, which compare exactly: c > best << (i - peak).

    Given a centre index, the fold stops at the first achievable cell past
    it, as the temperature at the centre then reads only cells already
    folded; it folds on to the end when the centre is unachievable (so
    _cell's refusal sees the whole range) or the entropy is the same on
    both sides of it (so _slope finds the peak of the whole table).

    Given kraft = (total, top), total = sum_i count_i * 2**(top - i) over
    all the cells and top the last index (for Miller's counts, the code's
    Kraft sum times 2**l_max, to the power N), the peak becomes the centre
    once it is certified final, checked every 64 cells: once its weight is
    at least the weight still to come, no later count outweighs it, and a
    tie goes to the first.
    """
    log2 = array("d")
    peak, best, key = None, 0, -math.inf
    total, top = kraft or (0, 0)
    mass = 0  # sum of the counts so far, count_i * 2**(i_now - i)
    for i, c in enumerate(counts):
        if c:
            log2.append(math.log2(c))
            k = c.bit_length() - i
            if k > key or (k == key and c > best << (i - peak)):
                peak, best, key = i, c, k
        else:
            log2.append(-math.inf)
        if kraft:
            mass = 2 * mass + c
            if i & 63 == 63 and (best << (top - peak)) + (mass << (top - i)) >= total:
                kraft, centre = None, peak
        if centre is not None and 0 <= centre < i and (hi := _nearest(log2, centre, 1)) > centre:
            lo = _nearest(log2, centre, -1)
            if log2[centre] > -math.inf and log2[hi] != log2[lo]:
                break
            centre = None
    return log2, peak


class LogEnsembleTable:
    """log2 of the message counts, as a dense float64 array over the lattice.

    Unachievable lengths hold -inf.  count_messages_log fills it with
    math.log2 of each exact count, so its values equal EnsembleTable's bit
    for bit; iter_log_tables' tables agree within its stated bound.  An
    EnsembleTable is this table plus its integers.

    A table built from exact counts (count_messages_log, or any
    EnsembleTable) also keeps the index of its most probable length, found
    exactly while the counts went by; a table built from floats (by
    iter_log_tables, or from log2 values given here) keeps None, and
    most_probable_length ranks its floats instead.

    The counts live in an array('d'): log2_array() is an ndarray view of
    it, sharing its memory, and every reader, support included, reads it as
    it stands, so a write through the view reaches them all.
    """

    __slots__ = ("n_symbols", "offset", "_log2", "_peak")

    def __init__(self, n_symbols: int, offset: int, log2_counts: Iterable[float]):
        self.n_symbols = n_symbols
        self.offset = offset
        if getattr(log2_counts, "typecode", None) != "d":
            log2_counts = array("d", log2_counts)
        self._log2 = log2_counts
        self._peak: int | None = None

    @property
    def support(self) -> np.ndarray:
        """Achievable total lengths, ascending, as int64."""
        import numpy as np

        return np.flatnonzero(np.isfinite(self.log2_array())).astype(np.int64) + self.offset

    def count(self, total_bits: int) -> float:
        """2**log2_count(total_bits), or inf once that reaches 1024, past the float range."""
        log2 = self.log2_count(total_bits)
        return math.inf if log2 >= 1024 else 2.0**log2

    def log2_count(self, total_bits: int) -> float:
        i = _index(self, total_bits)
        return self._log2[i] if i >= 0 else -math.inf

    def log2_array(self) -> np.ndarray:
        """The raw log2-count array; index i is total length offset + i."""
        import numpy as np

        return np.frombuffer(self._log2, dtype=np.float64)


class EnsembleTable(LogEnsembleTable):
    """Exact counts of coded messages by total bit length.

    A LogEnsembleTable plus its integers: the coefficient list of the
    length-counting polynomial raised to the n_symbols power, as Python ints
    that never overflow.  Everything but the integer readers below reads
    the log2 array built from them.
    """

    __slots__ = ("_coeffs",)

    def __init__(self, n_symbols: int, offset: int, coeffs: list[int]):
        log2, peak = _log2_counts(coeffs)
        super().__init__(n_symbols, offset, log2)
        self._peak = peak
        self._coeffs = coeffs

    def count(self, total_bits: int) -> int:
        """Number of messages encoding to exactly total_bits; 0 if none."""
        i = _index(self, total_bits)
        return self._coeffs[i] if i >= 0 else 0

    def items(self) -> Iterator[tuple[int, int]]:
        """(total_bits, count) pairs over the nonzero counts, ascending."""
        return ((self.offset + i, c) for i, c in enumerate(self._coeffs) if c)

    def to_dict(self) -> dict[int, int]:
        return dict(self.items())

    def total_probability(self, kraft: object) -> object:
        """sum count(L) * 2**-L, exactly, given the code's Kraft sum is kraft.

        Included for checking: the result always equals kraft**n_symbols.
        The sum itself is computed directly from the table.
        """
        return sum((Fraction(c, 2**L) for L, c in self.items()), start=Fraction(0))


class TemperatureEstimate(NamedTuple):
    """Discrete temperature at one total length.

    value is dL/dS from a central difference over the nearest achievable
    neighbours; one_sided marks boundary lengths where only one neighbour
    exists.  A zero entropy slope reads as an infinity whose sign tells
    the side of the entropy peak (the rule is stated once, in _slope).
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
    _check_n_symbols(n_symbols)
    l_min = spectrum.l_min
    span = spectrum.l_max - l_min
    d0 = spectrum.d_min
    terms = [(l - l_min, d) for l, d in spectrum.degeneracy.items() if l > l_min]
    a = d0**n_symbols
    recent = deque([*[0] * (span - 1), a], maxlen=span)  # recent[-k] is a_(m-k), 0 for m < k
    yield a
    for m in range(1, n_symbols * span + 1):
        acc = 0
        for k, d in terms:
            acc += ((n_symbols + 1) * k - m) * d * recent[-k]
        a = acc // (m * d0)
        recent.append(a)
        yield a


def _check_exact_size(spectrum: LengthSpectrum, n_symbols: int) -> None:
    """count_messages' refusals: n_symbols < 1 first, as the charge's
    product turns positive for a very negative n_symbols, then the size."""
    _check_n_symbols(n_symbols)
    span = spectrum.l_max - spectrum.l_min
    bits = (n_symbols * span + 1) * (n_symbols * math.log2(spectrum.n_codewords) + 128)
    if bits > MAX_EXACT_BITS:
        raise CapacityError(
            f"exact table needs up to {bits:.3g} bits (cap {MAX_EXACT_BITS}); "
            "use the log-domain table instead"
        )


def count_messages(spectrum: LengthSpectrum, n_symbols: int) -> EnsembleTable:
    """Exact message-count table by J.C.P. Miller's power recurrence.

    N*span*#lengths big-integer steps (see _miller).  No count exceeds
    n_codewords**N, so each of the N*span + 1 cells holds a list slot (64
    bits), the float64 log2 of its count (64 bits) and at most
    N*log2(n_codewords) bits of count.  Past MAX_EXACT_BITS in all it raises
    CapacityError before computing anything; use count_messages_log for
    those.
    """
    _check_exact_size(spectrum, n_symbols)
    return EnsembleTable(n_symbols, n_symbols * spectrum.l_min, list(_miller(spectrum, n_symbols)))


def count_messages_brute(
    code: Code, n_symbols: int, max_messages: int = MAX_BRUTE_MESSAGES
) -> EnsembleTable:
    """Message counts by enumerating every one of the |alphabet|**n messages.

    Exponentially slow by construction; this is the independent oracle the
    exact and log tables are validated against.  A one-word code has one
    message at every N, answered without building it.
    """
    _check_n_symbols(n_symbols)
    k = len(code)
    # k**n_symbols >= 2**n_symbols once k > 1, so a long message is refused
    # without building the power, which takes seconds for a large n_symbols
    if (k > 1 and n_symbols >= max_messages.bit_length()) or k**n_symbols > max_messages:
        raise CapacityError(
            f"{k}**{n_symbols} messages exceed the enumeration cap {max_messages}"
        )
    lengths = [len(code.codeword(s)) for s in code.symbols]
    if k == 1:  # one message, of N copies of the one word
        return EnsembleTable(n_symbols, n_symbols * lengths[0], [1])
    tally = Counter(map(sum, product(lengths, repeat=n_symbols)))
    lo = min(tally)
    return EnsembleTable(n_symbols, lo, [tally[total] for total in range(lo, max(tally) + 1)])


def count_messages_log(spectrum: LengthSpectrum, n_symbols: int) -> LogEnsembleTable:
    """Log-domain message-count table: math.log2 of each exact count.

    Runs the recurrence of count_messages but holds only span + 1 big
    integers at a time, so memory stays flat and there is no size cap; the
    time still grows as N**2 * span * #lengths.  The table keeps the most
    probable length found exactly from the counts as they passed, so
    most_probable_length gives count_messages' answer.
    """
    return _log_table(spectrum, n_symbols)


def _log_table(
    spectrum: LengthSpectrum, n_symbols: int, total_bits: int | None = None, at_peak: bool = False
) -> LogEnsembleTable:
    """count_messages_log's table, or its first cells: as many as the
    temperature at total_bits, or with at_peak at the most probable length,
    reads (see _log2_counts).  Such a table answers only for that length;
    its peak is final with at_peak, and partial otherwise."""
    _check_n_symbols(n_symbols)
    l_min, l_max = spectrum.l_min, spectrum.l_max
    centre = None if total_bits is None else total_bits - n_symbols * l_min
    kraft = None
    if at_peak:
        scaled = sum(d << (l_max - l) for l, d in spectrum.degeneracy.items())
        kraft = scaled**n_symbols, n_symbols * (l_max - l_min)
    log2_counts, peak = _log2_counts(_miller(spectrum, n_symbols), centre, kraft)
    table = LogEnsembleTable(n_symbols, n_symbols * l_min, log2_counts)
    table._peak = peak
    return table


def iter_log_tables(
    spectrum: LengthSpectrum, n_max: int
) -> Iterator[LogEnsembleTable]:
    """Yield the log-domain table for every n_symbols from 1 to n_max.

    Each table is one log-sum-exp convolution of the last, so the sweep costs
    about n_max**2 * span float operations in all, where building each table
    by count_messages_log would cost O(n_max**3).  Every yielded array is
    new and is never written to again, so each table owns its array.

    Values agree with count_messages_log (math.log2 of the exact counts)
    within 4*n*m*ulp(max(M, 1)), not bit for bit: n the table's n_symbols,
    m the number of distinct lengths, M the table's largest log2 count.
    Every log2 count is at least 0, and each table's M bounds every value
    the sweep has computed so far.  Step n forms m terms, the previous
    table plus log2(d) rounded (1 ulp) and their sum rounded (1/2 ulp),
    and merges them by m - 1 logaddexp2 calls.  logaddexp2's two partial
    derivatives are weights summing to 1, so a merge passes on at most the
    larger of its inputs' errors and adds its own: 1/2 ulp for its final
    add, 1/4 ulp for the rounded difference of its inputs (taken through a
    slope of at most 1/2), and 2.5 ulp(1) for exp2, log1p and the scaling
    of a correction in [0, 1], with the libm functions within one ulp.
    That is at most 3.25*m - 1.75 ulps per step, and the reference's own
    log2 adds one ulp.  Property tests see at most 0.6*n*ulp(max(M, 1)).
    """
    if n_max < 1:
        raise ValueError("n_max must be at least 1")
    import numpy as np

    l_min = spectrum.l_min
    span = spectrum.l_max - l_min
    base = [(l - l_min, math.log2(d)) for l, d in spectrum.degeneracy.items()]
    lw = np.zeros(1)  # n = 0: only the empty message, at length 0
    for n in range(1, n_max + 1):
        cells = array("d", [-math.inf]) * (len(lw) + span)
        new = np.frombuffer(cells, dtype=np.float64)  # a view: the table's own array
        for off, ld in base:
            seg = new[off : off + len(lw)]
            np.logaddexp2(seg, lw + ld, out=seg)
        lw = new
        yield LogEnsembleTable(n, n * l_min, cells)


_EMPTY = "the support is empty: no length is achievable"


def _cell(table: LogEnsembleTable, total_bits: int) -> int:
    """_index of total_bits, refusing an unachievable length."""
    i = _index(table, total_bits)
    if i >= 0 and math.isfinite(table._log2[i]):
        return i
    log2, offset = table._log2, table.offset
    lo, hi = _nearest(log2, -1, 1), _nearest(log2, len(log2), -1)
    where = f"achievable range {offset + lo}..{offset + hi}" if lo >= 0 else _EMPTY
    raise UnachievableLengthError(f"no message encodes to {total_bits} bits ({where})")


def _nearest(log2: array, i: int, step: int) -> int:
    """Index of the nearest achievable cell past i in the direction of step
    (-1 or 1); i itself when there is none."""
    j = i + step
    while 0 <= j < len(log2):
        if math.isfinite(log2[j]):
            return j
        j += step
    return i


def entropy_at(table: LogEnsembleTable, total_bits: int) -> float:
    """Microcanonical entropy log2(count) in bits at one total length."""
    return table._log2[_cell(table, total_bits)]


def _slope(lengths: Sequence[int], entropies: Sequence[float], lo: int, i: int, hi: int, peak=None) -> float:
    """The temperature dL/dS at point i of an ascending (L, S) series, from
    its neighbours lo <= i <= hi: the module's one rule.  A zero difference
    ds = entropies[hi] - entropies[lo] gives +inf at or below the entropy
    peak, the first maximum of entropies (searched for only then, unless
    given), and -inf above it.  Otherwise the result is
    (lengths[hi] - lengths[lo]) / ds in plain IEEE floats: an infinite or
    nan difference divides as it does in C.
    """
    ds = entropies[hi] - entropies[lo]
    if ds == 0.0:
        if peak is None:
            peak = entropies.index(max(entropies))
        return math.inf if i <= peak else -math.inf
    return (lengths[hi] - lengths[lo]) / ds


def _temperatures(lengths: Sequence[int], entropies: Sequence[float]) -> array:
    """Discrete temperature at every point of an ascending (L, S) series,
    by _slope: central differences over the neighbouring points, one-sided
    at the two ends.  A single point has no temperature and yields nan.
    """
    n = len(lengths)
    if n < 2:
        return array("d", [math.nan] * n)
    peak = entropies.index(max(entropies))  # found once, as _slope finds it
    return array("d", (_slope(lengths, entropies, max(i - 1, 0), i, min(i + 1, n - 1), peak) for i in range(n)))


def temperature_at(table: LogEnsembleTable, total_bits: int) -> TemperatureEstimate:
    """Discrete temperature dL/dS at an achievable total length, by _slope.

    A central difference over the nearest achievable neighbours; at the
    ends of the support a one-sided one, and the result says so.  This is
    _temperatures over the support at one point, reading only the cell and
    its two neighbours (and the peak, on a zero difference: unachievable
    cells hold -inf and never win).
    """
    log2 = table._log2
    i = _cell(table, total_bits)
    lo, hi = _nearest(log2, i, -1), _nearest(log2, i, 1)
    if lo == hi:  # no achievable neighbour on either side
        raise UnachievableLengthError(
            "support has a single achievable length; no temperature is defined"
        )
    return TemperatureEstimate(_slope(range(len(log2)), log2, lo, i, hi), lo == i or hi == i)


def most_probable_length(table: LogEnsembleTable) -> int:
    """Total length maximizing count(L) * 2**-L, the weight of length L
    under an absolutely optimal code.  Ties go to the smallest length.

    A table built from exact counts (count_messages, count_messages_log,
    count_messages_brute or an EnsembleTable of given counts) answers with
    the length its build found comparing the weights exactly as integers.
    A table built from floats (iter_log_tables, or a LogEnsembleTable of
    given log2 values) compares them as floats: the first maximum of
    log2 count - L, np.argmax's rule.
    """
    log2, offset, i = table._log2, table.offset, table._peak
    if i is None and log2:
        import numpy as np

        i = int(np.argmax(table.log2_array() - np.arange(offset, offset + len(log2))))
    if i is None or not math.isfinite(log2[i]):  # no cell, or every cell is -inf
        raise UnachievableLengthError(f"no most probable length ({_EMPTY})")
    return offset + i


class SampleReport(NamedTuple):
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
    coded messages at fixed total length.  A message of more than
    MAX_SAMPLE_SYMBOLS symbols raises CapacityError.  Blocks of max(1,
    _SAMPLE_CHUNK_CELLS // n_symbols) messages are drawn in pieces of at most
    _SAMPLE_CHUNK_CELLS symbols, so the working set is a few arrays of that
    many cells (the uniforms, one flag or run index a cell and the block's
    totals), a histogram over the spread of one block's totals and, when
    focusing, the symbols of the hits (of one message drawn in pieces, all
    its symbols) in their narrowest type, whatever the draws.
    """
    _check_n_symbols(n_symbols)
    if draws < 1:
        raise ValueError("draws must be at least 1")
    _check_seed(seed)
    if n_symbols > MAX_SAMPLE_SYMBOLS:
        raise CapacityError(
            f"a message of {n_symbols} symbols exceeds the sampler's cap {MAX_SAMPLE_SYMBOLS}"
        )
    _check_alphabet(code, pmf)
    import numpy as np

    rng = np.random.default_rng(seed)
    words = [code.codeword(s) for s in code.symbols]
    probs = np.array([float(p) for _, p in pmf.items()], dtype=np.float64)
    # rng.choice(len(words), p=...) maps a uniform u to the symbol
    # cdf.searchsorted(u, side="right"); the sampler draws the uniforms
    # itself and maps to symbols only the messages it keeps.  In document
    # order the symbols fall into runs of one length, and u's codeword
    # length is its run's: the count of run ends at or below u
    cdf = (probs / probs.sum()).cumsum()  # exact-to-float residue
    cdf /= cdf[-1]
    starts = [i for i in range(len(words)) if not i or len(words[i]) != len(words[i - 1])]
    ends = cdf[[i - 1 for i in starts[1:]]]
    run_lengths = np.array([len(words[i]) for i in starts], dtype=np.int64)
    narrow = np.min_scalar_type(len(words) - 1)
    row_key = np.dtype((np.void, narrow.itemsize * n_symbols))  # a message as one item
    whole = n_symbols <= _SAMPLE_CHUNK_CELLS  # one piece a message

    def symbols(u):
        return cdf.searchsorted(u, side="right").astype(narrow)

    def totals_of(u):
        """Each row's total length."""
        ones = np.ones(u.shape[1], dtype=np.int64)
        if len(ends) == 1:  # two runs: one comparison a symbol
            short, long = run_lengths.tolist()
            return short * len(ones) + (long - short) * ((u >= ends[0]) @ ones)
        return run_lengths[ends.searchsorted(u, side="right")] @ ones

    hist: Counter[int] = Counter()
    keys: Counter[bytes] = Counter()
    block = max(1, _SAMPLE_CHUNK_CELLS // n_symbols)
    for done in range(0, draws, block):
        m = min(block, draws - done)
        totals = np.zeros(m, dtype=np.int64)
        parts = []
        for col in range(0, n_symbols, _SAMPLE_CHUNK_CELLS):
            u = rng.random((m, min(_SAMPLE_CHUNK_CELLS, n_symbols - col)))
            totals += totals_of(u)
            if focus_total is not None:
                # a block of whole messages keeps its uniforms for the hits;
                # one message in pieces keeps each piece's symbols, narrow
                parts.append(u if whole else symbols(u))
        lo = int(totals.min())
        binc = np.bincount(totals - lo)  # the spread of this block's totals
        nz = np.flatnonzero(binc)
        hist.update(dict(zip((nz + lo).tolist(), binc[nz].tolist())))
        if focus_total is not None and (hit := totals == focus_total).any():
            # each hit message as one packed key, joined into bits at the end
            rows = symbols(parts[0][hit]) if whole else np.concatenate(parts, axis=1)
            keys.update(rows.view(row_key).ravel().tolist())
    bits = ("".join([words[i] for i in np.frombuffer(k, dtype=narrow).tolist()]) for k in keys)
    return SampleReport(
        draws=draws,
        n_symbols=n_symbols,
        histogram=dict(sorted(hist.items())),
        focus_total=focus_total,
        conditional_counts=dict(sorted(zip(bits, keys.values()))) if focus_total is not None else None,
    )
