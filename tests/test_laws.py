"""The paper's T = 1 claim and ensemble equivalence as 1/N laws, the
microcanonical postulate away from T = 1, and the Gibbs law as the marginal
of one codeword.

Daniels' saddle-point expansion (1954), taken to its Edgeworth term, gives
both claims with their finite-N coefficients from the length cumulants
kappa2 and kappa3 of the Gibbs law and the lattice step g:

- T = 1: the most probable total length L* is the lattice argmax of
  S(L) - L, near the continuous mode x0 = N*lambda - kappa3/(2*kappa2)
  (cumulants at beta = 1), and
  1/T(L*) - 1 = -log2(e)*(L* - x0)/(N*kappa2) + O(N**-2).
- Ensemble equivalence: at any total L,
  1/T(L) = beta*(L/N) + c(beta*)/N + O(N**-2), with
  c(beta) = -log2(e)*kappa3/(2*kappa2**2).
- Equilibrium: two codes of N codewords each sharing L bits peak, as a
  continuous function of the first code's share, at bits_first + delta +
  O(1/N), with delta = ln2*(c_I - c_II)/(1/kappa2_I + 1/kappa2_II) at the
  common beta*.

Each law is checked against the log2 of Miller's exact counts by its rate:
the residual at a larger N against the residual at N, not a fixed
tolerance.  The cumulants come from gibbs._stats, the code under test, or
from the exact rational sums of strategies.exact_stats.

- The microcanonical postulate: conditioned on the total L, messages
  drawn from the Gibbs law at any beta are uniform over the Omega(L)
  messages of that length, since each weighs 2**(-beta*L)/Z**N.
- The Gibbs law from the postulate: the first of N codewords, uniform over
  the Omega_N(L) messages, has length l with probability
  d_l*Omega_(N-1)(L - l)/Omega_N(L), which tends to the Gibbs law at
  beta*(L/N) with a total variation falling as 1/N.
"""

import math
from collections import Counter
from fractions import Fraction
from functools import cache
from itertools import product

import pytest

from thermocode import (
    Code,
    LengthSpectrum,
    TwoCodeSystem,
    beta_for_mean_length,
    count_messages,
    count_messages_log,
    gibbs_state,
    mean_length,
    most_probable_length,
    random_complete_code,
    sample_messages,
    solve_equilibrium,
    temperature_at,
)
from thermocode.gibbs import _stats
from strategies import exact_stats

LOG2E = 1 / math.log(2)

SPECTRA = {
    "canon": {1: 1, 2: 2},
    "g16": {3: 4, 4: 6, 5: 3, 6: 1, 7: 2},
    "g64": {3: 4, 4: 3, 5: 2, 6: 8, 7: 6, 8: 14, 9: 7, 10: 6, 11: 6, 12: 1, 13: 5, 14: 2},
    "step2": {1: 1, 3: 1},  # lattice step 2
    "incomplete": {2: 1, 3: 3, 5: 4},  # Kraft sum 3/4; L* - x0 is -1/2, a near tie
}


@cache
def _table(spectrum: LengthSpectrum, n: int):
    return count_messages_log(spectrum, n)


def _offset(spectrum: LengthSpectrum, beta: float) -> tuple[float, float]:
    """c(beta) = -log2(e)*kappa3/(2*kappa2**2), and kappa2, from _stats."""
    _, _, k2, k3 = _stats(spectrum, beta)
    return -LOG2E * k3 / (2 * k2**2), k2


def _unit_temperature_law(name: str, n: int) -> tuple[int, float, float, float]:
    """L*, T(L*), L* - x0 and the law's residual r(N) at N = n."""
    spectrum = LengthSpectrum(SPECTRA[name])
    _, lam, k2, k3 = map(float, exact_stats(spectrum, 1))
    table = _table(spectrum, n)
    star = most_probable_length(table)
    temperature = temperature_at(table, star).value
    shift = star - (n * lam - k3 / (2 * k2))
    return star, temperature, shift, 1 / temperature - 1 + LOG2E * shift / (n * k2)


@pytest.mark.parametrize("name", SPECTRA)
def test_most_probable_length_is_the_lattice_point_nearest_the_mode(name):
    step = LengthSpectrum(SPECTRA[name]).lattice_step
    for n in (250, 500, 1000):
        _, _, shift, _ = _unit_temperature_law(name, n)
        assert abs(shift) <= step / 2 + 1e-9, (n, shift)


def test_canon_is_at_unit_temperature_exactly():
    # kappa3 = 0 on canon, and L* sits on the mode
    for n in (250, 500, 1000):
        star, temperature, shift, _ = _unit_temperature_law("canon", n)
        assert (star, temperature, shift) == (3 * n // 2, 1.0, 0.0)


@pytest.mark.parametrize("name", ["g16", "g64", "step2", "incomplete"])
def test_unit_temperature_offset_is_exact_to_first_order(name):
    # the residual falls as N**-2: a quarter per doubling
    for n in (250, 500):
        _, _, _, r = _unit_temperature_law(name, n)
        _, _, _, r2 = _unit_temperature_law(name, 2 * n)
        assert r != 0.0 and abs(r2) <= 0.35 * abs(r), (n, r, r2)


@pytest.mark.parametrize("beta", [-1.0, 0.5, 2.0])
def test_ensemble_equivalence_with_its_first_order_offset(beta):
    spectrum = LengthSpectrum(SPECTRA["g16"])

    def residual(n: int) -> float:
        total = round(n * mean_length(spectrum, beta))
        star = beta_for_mean_length(spectrum, total / n)
        c, _ = _offset(spectrum, star)
        return n * (1 / temperature_at(_table(spectrum, n), total).value - star) - c

    d, d2 = residual(500), residual(1000)
    assert d != 0.0 and abs(d2) <= 0.6 * abs(d), (d, d2)


@pytest.mark.parametrize("beta", [0.5, 1.0, 2.0])
def test_equilibrium_peak_sits_at_the_split_plus_its_offset(beta):
    # canon and a 16-word code, N codewords each: the residual is O(1/N)
    first, second = LengthSpectrum(SPECTRA["canon"]), random_complete_code(16, 1).spectrum()

    def residual(n: int) -> float:
        total = round(n * mean_length(first, beta) + n * mean_length(second, beta))
        split = solve_equilibrium(TwoCodeSystem(first, n, second, n), total)
        (c1, k1), (c2, k2) = _offset(first, split.beta_star), _offset(second, split.beta_star)
        delta = math.log(2) * (c1 - c2) / (1 / k1 + 1 / k2)
        t1, t2 = _table(first, n), _table(second, n)

        def s(bits: int) -> float:
            return t1.log2_count(bits) + t2.log2_count(total - bits)

        # both codes have step 1: the parabola through the argmax and its
        # two neighbours locates the continuous peak
        best = max(range(n * first.l_min, n * first.l_max + 1), key=s)
        lo, mid, hi = s(best - 1), s(best), s(best + 1)
        peak = best + (lo - hi) / (2 * (lo - 2 * mid + hi))
        return peak - split.bits_first - delta

    d, d2 = residual(300), residual(3000)
    assert d != 0.0 and abs(d2) <= 0.15 * abs(d), (d, d2)


CANON = Code({"a": "0", "b": "10", "c": "11"})


@pytest.mark.parametrize(
    "code, n, total",
    [
        (CANON, 6, 8),  # beta* = 2
        (CANON, 6, 10),  # beta* = 0
        (CANON, 6, 11),  # beta* = -1.32
        (random_complete_code(16, 7), 3, 10),  # beta* = 2.67
        (random_complete_code(16, 7), 3, 15),  # beta* = -0.50
    ],
)
def test_messages_of_one_length_are_uniform_at_any_temperature(code, n, total):
    import scipy.stats

    spectrum = code.spectrum()
    pmf = gibbs_state(spectrum, beta_for_mean_length(spectrum, total / n)).pmf_for(code)
    report = sample_messages(code, pmf, n, 200_000, seed=20261020, focus_total=total)
    counts = report.conditional_counts
    assert len(counts) == count_messages(spectrum, n).count(total)
    # the false-alarm rate acceptance criterion 10 uses
    assert scipy.stats.chisquare(list(counts.values())).pvalue >= 0.001


@pytest.mark.parametrize("n, total", [(16, 20), (10, 17)], ids=["beta-2.58", "beta-minus-0.22"])
def test_repeated_messages_of_one_length_count_as_uniform_draws_do(n, total):
    # k messages drawn uniformly from Omega repeat in k(k-1)/(2*Omega)
    # pairs on average.  The pairs' indicators are pairwise uncorrelated
    # (two pairs sharing a draw both repeat with probability Omega**-2),
    # so the count's variance is exactly that mean times 1 - 1/Omega, and
    # by Chebyshev's inequality it strays sqrt(1000) standard deviations
    # from the mean with probability at most 1e-3, whatever k
    spectrum = CANON.spectrum()
    pmf = gibbs_state(spectrum, beta_for_mean_length(spectrum, total / n)).pmf_for(CANON)
    report = sample_messages(CANON, pmf, n, 400_000, seed=20261021, focus_total=total)
    counts = report.conditional_counts.values()
    omega, k = count_messages(spectrum, n).count(total), sum(counts)
    mean = k * (k - 1) / (2 * omega)
    repeats = sum(c * (c - 1) // 2 for c in counts)
    assert abs(repeats - mean) <= math.sqrt(1000 * mean * (1 - 1 / omega)), (repeats, mean)


@cache
def _counts(spectrum: LengthSpectrum, n: int):
    return count_messages(spectrum, n)


def _first_length_law(spectrum: LengthSpectrum, n: int, total: int) -> dict[int, Fraction]:
    """P(first length l | L) = d_l*Omega_(N-1)(L - l)/Omega_N(L), exactly."""
    rest, whole = _counts(spectrum, n - 1), _counts(spectrum, n).count(total)
    return {l: Fraction(d * rest.count(total - l), whole) for l, d in spectrum.degeneracy.items()}


@pytest.mark.parametrize("code", [CANON, random_complete_code(5, 2), random_complete_code(8, 3)])
def test_first_codeword_law_matches_enumeration(code):
    spectrum = code.spectrum()
    word_lengths = [code.length(s) for s in code.symbols]
    for n in (2, 3, 4):
        messages = {}  # total length -> the first codeword's length of each message
        for lengths in product(word_lengths, repeat=n):
            messages.setdefault(sum(lengths), []).append(lengths[0])
        for total, firsts in messages.items():
            want = {l: Fraction(firsts.count(l), len(firsts)) for l in spectrum.lengths}
            assert _first_length_law(spectrum, n, total) == want, (n, total)


@pytest.mark.parametrize("beta", [-1.0, 0.5, 1.0, 2.0])
def test_first_codeword_tends_to_the_gibbs_law_as_one_over_n(beta):
    spectrum = random_complete_code(16, 1).spectrum()

    def distance(n: int) -> float:
        total = round(n * mean_length(spectrum, beta))
        gibbs = gibbs_state(spectrum, beta_for_mean_length(spectrum, total / n)).length_prob
        law = _first_length_law(spectrum, n, total)
        return sum(abs(float(law[l]) - d * gibbs[l]) for l, d in spectrum.degeneracy.items()) / 2

    for n in (100, 400):
        ratio = distance(2 * n) / distance(n)
        assert 0.45 <= ratio <= 0.55, (n, ratio)


@pytest.mark.parametrize(
    "code, n, total",
    [
        (CANON, 16, 20),  # beta* = 2.58
        (CANON, 10, 17),  # beta* = -0.22
        (random_complete_code(16, 7), 6, 24),  # beta* = 0.46
        (random_complete_code(16, 7), 6, 33),  # beta* = -0.83
    ],
)
def test_sampled_first_codewords_follow_the_law(code, n, total):
    # decode the first codeword of every message sampled at length L from
    # the Gibbs law at beta*(L/N): its length follows
    # d_l*Omega_(N-1)(L - l)/Omega_N(L), chi-square p >= 0.001
    import scipy.stats

    spectrum = code.spectrum()
    pmf = gibbs_state(spectrum, beta_for_mean_length(spectrum, total / n)).pmf_for(code)
    report = sample_messages(code, pmf, n, 100_000, seed=20261021, focus_total=total)
    seen = Counter()
    for bits, c in report.conditional_counts.items():
        seen[code.length(code.decode(bits)[0])] += c
    law, k = _first_length_law(spectrum, n, total), sum(seen.values())
    observed, expected = zip(*((seen[l], float(p) * k) for l, p in law.items()))
    assert min(expected) >= 5
    assert scipy.stats.chisquare(observed, expected).pvalue >= 0.001
