"""Box-counting dimension of the message set of a prefix code.

Viewing coded messages as binary expansions of points in [0, 1), the set of
infinite messages has a box-counting dimension that depends on temperature:

    dim(beta) = beta + log2(Z(beta)) / mean_length(beta)

with the canonical quantities from the gibbs module.  beta = 1 gives
dimension exactly 1 for complete codes (the Kraft identity), beta = 0 gives
the dimension of the unconstrained message set, and the beta -> +-inf
limits are set by the shortest and longest codewords alone.  At T = 1 the
first two derivatives of dim(T) are closed forms in the length cumulants:
a complete code has slope 0 and negative curvature there.

The empirical side counts, exactly, the distinct n-bit prefixes of all
messages of fixed symbol count and fixed total coded length; the slope of
log2(count) against n estimates the same dimension.  Both run on the
standard library: the counts are Python ints over integer bitsets, and the
slope is summed exactly and rounded once.  Only PrefixCountTable.log2_counts,
which returns an ndarray, imports numpy.
"""

from __future__ import annotations

import math
from collections import Counter, deque
from itertools import compress, repeat
from operator import add, mul
from os.path import commonprefix
from typing import NamedTuple

from . import _EXPORTS
from .codes import Code, LengthSpectrum, _check_n_symbols
from .errors import CapacityError, UnachievableLengthError
from .gibbs import _LN2, _partition, _stats, temperature_from_beta

__all__ = [*_EXPORTS["dimension"]]

# prefix_counts refuses a table of more than MAX_REACH_CELLS bytes, charged
# as (N+1)(L+1) one-byte reachability cells plus 17 (N+1) bytes of rows per
# code-tree node.  It also refuses more than MAX_PREFIX_STEPS DP steps of
# time, charged as n_max * nodes * (N+1) * (l_max+1).  canon {0, 10, 11} at
# N=600, L=900 is charged 0.56 million bytes and 3.2 million steps, the
# largest canon table the byte cap admits (N = L = 10**4) about 6e8 steps.
# Both charges bound the work from above: the reachability is L+1+l_max
# bitsets of N+1 bits, the rows are one root row per step for the last l_max
# steps, and a step costs (N+1) cells per distinct length and per class of
# nodes.  The row counts' big-integer size (up to L bits each) is not charged.
MAX_REACH_CELLS = 10**8
MAX_PREFIX_STEPS = 2 * 10**9

_BITS = bytes.maketrans(b"01", b"\0\1")  # '0'/'1' digits to 0/1 bytes


def box_dimension(spectrum: LengthSpectrum, beta: float) -> float:
    """dim(beta) = beta + log2(Z(beta)) / mean_length(beta).

    Stable for large |beta|: the log-domain partition sum never overflows.
    beta = 0 needs no special casing, the formula already reduces to
    log2(alphabet size) / mean length there.
    """
    return _mean_and_dimension(spectrum, beta)[1]


def _mean_and_dimension(spectrum: LengthSpectrum, beta: float) -> tuple[float, float]:
    """(mean length, dim) at beta, from one evaluation of the canonical sums."""
    log2_z, mean = _partition(spectrum, beta)[:2]
    return mean, beta + log2_z / mean


class DimensionLimits(NamedTuple):
    """Limits of the dimension curve at the four ends of the T axis.

    t_to_zero_plus:  T -> +0 (beta -> +inf): log2(d_min)/l_min, only the
                     shortest codewords survive.
    t_equal_one:     T = 1, exactly 1 for complete codes.
    t_to_inf:        T -> +-inf (beta = 0): n*log2(n)/sum of all lengths.
    t_to_zero_minus: T -> -0 (beta -> -inf): log2(d_max)/l_max.
    """

    t_to_zero_plus: float
    t_equal_one: float
    t_to_inf: float
    t_to_zero_minus: float


def limit_dimensions(spectrum: LengthSpectrum) -> DimensionLimits:
    """Closed-form limits of dim along the temperature axis."""
    n = spectrum.n_codewords
    return DimensionLimits(
        t_to_zero_plus=math.log2(spectrum.d_min) / spectrum.l_min,
        t_equal_one=box_dimension(spectrum, 1.0),
        t_to_inf=n * math.log2(n) / spectrum.total_length,
        t_to_zero_minus=math.log2(spectrum.d_max) / spectrum.l_max,
    )


def unit_temperature_derivatives(spectrum: LengthSpectrum) -> tuple[float, float]:
    """dim'(T) and dim''(T) at T = 1, closed forms in the length cumulants.

    d log2 Z/dbeta = -lambda and d lambda/dbeta = -ln2 var make the slope in
    beta g = ln2 var log2 Z / lambda**2, so dim'(1) = -g and dim''(1) = 2g + g',
    where g' brings in k3, the third central moment.  For a complete code
    log2 Z = 0: dim'(1) = 0 and dim''(1) = -ln2 var / lambda < 0.
    """
    z, lam, var, k3 = _stats(spectrum, 1.0)
    g = _LN2 * var * z / lam**2
    dg = _LN2 * (-_LN2 * k3 * z / lam**2 - var / lam + 2 * _LN2 * var**2 * z / lam**3)
    return 0.0 - g, 2 * g + dg  # 0.0 - g is 0, never -0, when log2 Z is 0


class PrefixCountTable(NamedTuple):
    """Exact counts of distinct n-bit prefixes of the fixed-length message set.

    counts[n] is the number of distinct length-n binary strings extendable
    to a full message of n_symbols codewords totalling total_bits bits.
    counts[0] == 1, and counts[total_bits] equals the number of messages.
    """

    n_symbols: int
    total_bits: int
    counts: tuple[int, ...]

    @property
    def n_max(self) -> int:
        return len(self.counts) - 1

    def log2_counts(self) -> np.ndarray:
        import numpy as np

        return np.array([math.log2(c) for c in self.counts])


def _achievable_rows(spectrum: LengthSpectrum, n_symbols: int, budget: int) -> list[int]:
    """Reachability as bitsets: bit m of cols[j] is set iff m codewords can
    total j bits, for m up to n_symbols and j up to budget.  l_max zero
    cells follow cols[budget], so a read at j - l < 0 for l <= l_max is 0."""
    keep = (1 << n_symbols + 1) - 1
    lengths = spectrum.lengths
    cols = [1] + [0] * (budget + spectrum.l_max)
    for j in range(1, budget + 1):
        acc = 0
        for l in lengths:
            acc |= cols[j - l]
        cols[j] = acc << 1 & keep
    return cols


def _node_classes(words: list[str], shared: list[int]) -> Counter:
    """(depth, ends) -> number of non-root code-tree nodes of that depth
    whose codewords end that many bits below them, ends ascending.

    One walk over the sorted codewords, shared[i] the common prefix of
    words[i] and the word before it.  path[d - 1] holds the lengths of the
    codewords under the open node of depth d; a node is classed when the
    walk leaves it, and hands its lengths to its parent.
    """
    classes: Counter = Counter()
    path: list[set[int]] = []
    for w, c in [*zip(words, shared), ("", 0)]:  # the empty word closes every node
        while len(path) > c:
            depth, lengths = len(path), path.pop()
            classes[depth, tuple(sorted(l - depth for l in lengths))] += 1
            if path:
                path[-1] |= lengths
        path.extend(set() for _ in range(len(w) - 1 - c))
        if path:
            path[-1].add(len(w))
    return classes


def prefix_counts(
    code: Code, n_symbols: int, total_bits: int, n_max: int | None = None
) -> PrefixCountTable:
    """Count distinct prefixes of the message set by exact dynamic programming.

    Every message prefix parses uniquely as k whole codewords followed by a
    node of the code tree, a proper prefix of a codeword (the root "" when
    the prefix ends on a codeword boundary), and it can be completed iff its
    last part can: the root needs n_symbols - k codewords filling the bits
    left, any other node a codeword ending e bits below it and
    n_symbols - k - 1 codewords filling the rest.  Every prefix of a
    completable string is completable, so the prefixes at a node of depth d
    after n bits are the completable k-codeword strings of n - d bits that
    pass the node's own test.  Only the root row is kept: rows[t][k], the
    number of completable k-codeword strings of t bits, is
    sum_l d_l * rows[t - l][k - 1] masked by the root test, over the last
    l_max steps.  The count at length n is the root row's sum plus, for
    each class of nodes sharing a depth and a set of codeword ends below
    them, the class size times the masked sum of the row of n - depth.

    Args:
        code: the prefix code.
        n_symbols: codewords per message, at least 1.
        total_bits: total coded length; must be achievable.
        n_max: largest prefix length to count (default: total_bits).

    Returns:
        PrefixCountTable with exact counts for n = 0 .. n_max.

    Raises CapacityError when the (n_symbols + 1) x (total_bits + 1)
    reachability table plus 17 bytes per node and k would pass
    MAX_REACH_CELLS bytes, or when n_max * nodes * (n_symbols + 1) *
    (l_max + 1) DP steps would pass MAX_PREFIX_STEPS (upper bounds on the
    work, see MAX_REACH_CELLS); both are checked before any table is built.
    """
    _check_n_symbols(n_symbols)
    if total_bits < 0:
        raise UnachievableLengthError(
            f"no message of {n_symbols} codewords totals {total_bits} bits"
        )
    spectrum = code.spectrum()
    if n_max is None:
        n_max = total_bits
    if not 0 <= n_max <= total_bits:
        raise ValueError("n_max must lie in [0, total_bits]")
    # the code tree's nodes: the root, and each codeword's proper prefixes
    # past what it shares with the codeword sorting before it
    words = sorted(code.words.values())
    shared = [len(commonprefix(pair)) for pair in zip(["", *words], words)]
    nodes = 1 + sum(len(w) - 1 - c for w, c in zip(words, shared))
    needed = (n_symbols + 1) * (total_bits + 1 + 17 * nodes)
    if needed > MAX_REACH_CELLS:
        raise CapacityError(
            f"prefix table needs {needed} bytes of reachability cells and rows"
            f" (cap {MAX_REACH_CELLS})"
        )
    steps = n_max * nodes * (n_symbols + 1) * (spectrum.l_max + 1)
    if steps > MAX_PREFIX_STEPS:
        raise CapacityError(f"prefix table needs {steps:.3g} DP steps (cap {MAX_PREFIX_STEPS})")

    cols = _achievable_rows(spectrum, n_symbols, total_bits)
    if not cols[total_bits] >> n_symbols & 1:
        raise UnachievableLengthError(
            f"no message of {n_symbols} codewords totals {total_bits} bits"
        )

    classes = _node_classes(words, shared)
    width = f"0{n_symbols + 1}b"

    def fits(mask: int) -> bytes:
        """Byte k is 1 iff bit n_symbols - 1 - k of mask is set: after k
        codewords and one more, whether the n_symbols - k - 1 left fit."""
        return format(mask, width)[1:].encode().translate(_BITS)

    # rows[-d] is the root row of d steps back as (lo, row): row[i] counts
    # the completable strings of lo + i codewords.  Rows before step 0 are
    # empty.
    rows = deque([(0, [])] * spectrum.l_max, maxlen=spectrum.l_max)
    rows.append((0, [1]))
    terms = spectrum.degeneracy.items()
    counts = [1]
    for n in range(1, n_max + 1):
        left = total_bits - n
        count = 0
        for (depth, ends), size in classes.items():
            mask = 0
            for e in ends:
                mask |= cols[left - e]
            lo, row = rows[-depth]
            count += size * sum(compress(row, fits(mask)[lo:]))
        # the root row of the strings that gain a codeword, by k before it
        live = [(rows[-l], d) for l, d in terms if rows[-l][1]]
        lo = min((a for (a, _), _ in live), default=0)
        hi = max((a + len(r) for (a, r), _ in live), default=0)
        grown = [0] * (hi - lo)
        for (start, r), d in live:
            i = start - lo
            grown[i : i + len(r)] = map(
                add, grown[i : i + len(r)], r if d == 1 else map(mul, r, repeat(d))
            )
        ok = fits(cols[left])
        a, b = ok.find(1, lo, hi), ok.rfind(1, lo, hi) + 1  # the band that can complete
        row = list(map(mul, grown[a - lo : b - lo], ok[a:b])) if a >= 0 else []
        rows.append((a + 1, row))
        counts.append(count + sum(row))
    return PrefixCountTable(n_symbols=n_symbols, total_bits=total_bits, counts=tuple(counts))


def fit_dimension(
    table: PrefixCountTable, n_lo: int | None = None, n_hi: int | None = None
) -> float:
    """Least-squares slope of log2(count) against prefix length, correctly
    rounded from the float64 log2 of each count.

    Defaults: n_lo = ceil(0.2 * total_bits) to skip the transient where
    every bit string is still a viable prefix, n_hi = the table end.  When
    the defaults leave fewer than two points (a table cut short by n_max,
    or a tiny total_bits) the slope is undefined and nan is returned; an
    explicit range with fewer than two points raises ValueError.
    """
    default = n_lo is None and n_hi is None
    n_lo = math.ceil(0.2 * table.total_bits) if n_lo is None else n_lo
    n_hi = table.n_max if n_hi is None else n_hi
    if default and n_lo >= n_hi:
        return math.nan
    if not 0 <= n_lo < n_hi <= table.n_max:
        raise ValueError(f"bad fit range [{n_lo}, {n_hi}] for table up to {table.n_max}")
    # each log2 is p / q with q a power of two: over the largest q they are
    # integers, so the sums are exact and the slope is rounded once, by the
    # int division.  us holds 2 * (n - mean n), which sums to zero.
    ratios = [math.log2(c).as_integer_ratio() for c in table.counts[n_lo : n_hi + 1]]
    q = max(den for _, den in ratios)
    ys = [num * (q // den) for num, den in ratios]
    us = range(n_lo - n_hi, n_hi - n_lo + 1, 2)
    return 2 * sum(map(mul, us, ys)) / (sum(u * u for u in us) * q)


def dimension_curve(
    spectrum: LengthSpectrum, betas
) -> list[tuple[float, float, float, float]]:
    """Sample the dimension curve: rows (beta, T, mean length, dim)."""
    rows = []
    for beta in map(float, betas):
        mean, dim = _mean_and_dimension(spectrum, beta)
        rows.append((beta, temperature_from_beta(beta), mean, dim))
    return rows
