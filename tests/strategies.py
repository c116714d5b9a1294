"""Shared hypothesis strategies and exact oracles for the property tests.

kraft_spectra draws realizable length spectra and whole_codes the
canonical prefix codes of small ones; prefix_codes draws prefix codes of
arbitrary shape, complete or not; exact_stats gives the canonical
cumulants of a spectrum as exact rationals, with log2 Z to about 60 digits,
for the float paths to be checked against.
"""

from decimal import Decimal, localcontext
from fractions import Fraction

from hypothesis import strategies as st

from thermocode import Code, LengthSpectrum


@st.composite
def kraft_spectra(draw):
    """Realizable spectra of one to eight lengths on a lattice of step 1 to
    3, complete or not; each count is the most the Kraft budget leaves (one
    codeword kept for every longer length) or a random smaller one."""
    step = draw(st.integers(1, 3))
    lengths = [draw(st.integers(1, 6))]
    for gap in draw(st.lists(st.integers(1, 4), max_size=7)):
        lengths.append(lengths[-1] + step * gap)
    free = 1 << lengths[-1]  # the Kraft budget, in units of 2**-l_max
    counts = {}
    for i, l in enumerate(lengths):
        unit = 1 << (lengths[-1] - l)
        most = (free - sum(1 << (lengths[-1] - m) for m in lengths[i + 1 :])) // unit
        counts[l] = draw(st.just(most) | st.integers(1, min(most, 1 << 20)))
        free -= counts[l] * unit
    return LengthSpectrum(counts)


def canonical_code(spectrum: LengthSpectrum) -> Code:
    """The canonical prefix code of a realizable spectrum: shortest words
    first, each word the binary successor of the one before, extended with
    zeros on the right to its length."""
    words, value, previous = {}, 0, spectrum.l_min
    for l in spectrum.lengths:
        value <<= l - previous
        for _ in range(spectrum.count(l)):
            words[f"s{len(words)}"] = format(value, f"0{l}b")
            value += 1
        previous = l
    return Code(words)


def whole_codes():
    """Canonical codes of the kraft_spectra draws with at most 64 codewords,
    few enough to enumerate messages of."""
    return kraft_spectra().filter(lambda s: s.n_codewords <= 64).map(canonical_code)


def prefix_codes(max_length: int = 7):
    """Prefix codes of up to a dozen words of 1 to max_length bits, in any
    shape and rarely complete: each drawn word is kept unless it is a
    prefix of a kept word or has one."""

    def keep(drawn):
        words = []
        for w in drawn:
            if not any(w.startswith(v) or v.startswith(w) for v in words):
                words.append(w)
        return Code({f"s{i}": w for i, w in enumerate(words)})

    word = st.text("01", min_size=1, max_size=max_length)
    return st.lists(word, min_size=1, max_size=12).map(keep)


def exact_stats(spectrum, beta: int) -> tuple[Decimal, Fraction, Fraction, Fraction]:
    """log2 Z to about 60 digits, and the exact mean and second and third
    central moments of the length, at integer beta."""
    w = {l: spectrum.count(l) * Fraction(2) ** (-beta * l) for l in spectrum.lengths}
    z = sum(w.values())
    mean = sum(l * wl for l, wl in w.items()) / z
    var = sum((l - mean) ** 2 * wl for l, wl in w.items()) / z
    k3 = sum((l - mean) ** 3 * wl for l, wl in w.items()) / z
    with localcontext() as ctx:
        ctx.prec = 60
        log2_z = (Decimal(z.numerator).ln() - Decimal(z.denominator).ln()) / Decimal(2).ln()
    return log2_z, mean, var, k3
