"""Tests for the canonical-weight statistics and the inverse solver."""

import math
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from thermocode import (
    Code,
    DegenerateSpectrumError,
    InfeasibleError,
    LengthSpectrum,
    beta_for_mean_length,
    beta_from_temperature,
    boltzmann_planck_entropy,
    box_dimension,
    count_messages,
    dyadic_pmf,
    entropy_at,
    gibbs_state,
    mean_length,
    random_complete_code,
    temperature_from_beta,
)
from thermocode.gibbs import _partition, _stats
from strategies import exact_stats, kraft_spectra

CANON = Code({"a": "0", "b": "10", "c": "11"})
CANON_SP = CANON.spectrum()
FIVE_SP = LengthSpectrum({1: 1, 3: 4})  # lengths (1, 3, 3, 3, 3)


# ---------------------------------------------------------------------------
# beta <-> temperature
# ---------------------------------------------------------------------------

def test_conversions():
    assert beta_from_temperature(1.0) == 1.0
    assert beta_from_temperature(2.0) == 0.5
    assert beta_from_temperature(math.inf) == 0.0
    assert beta_from_temperature(-math.inf) == 0.0
    assert beta_from_temperature(0.0) == math.inf
    assert beta_from_temperature(-0.0) == -math.inf
    assert temperature_from_beta(0.0) == math.inf
    assert temperature_from_beta(-2.0) == -0.5
    assert temperature_from_beta(beta_from_temperature(-3.7)) == pytest.approx(-3.7, rel=1e-15)


# ---------------------------------------------------------------------------
# partition function and mean length
# ---------------------------------------------------------------------------

def test_partition_function_values():
    state = gibbs_state(CANON_SP, 1.0)
    # complete code at unit inverse temperature: Z = Kraft sum = 1
    assert state.log2_z == 0.0
    assert state.z == 1.0
    assert gibbs_state(CANON_SP, 0.0).z == pytest.approx(3.0, abs=1e-12)
    assert gibbs_state(FIVE_SP, 1.0).z == pytest.approx(1.0, abs=1e-12)


@settings(derandomize=True, max_examples=100, deadline=None)
@given(spectrum=kraft_spectra(), beta=st.floats(-50, 50))
@example(spectrum=LengthSpectrum({1: 1, 9: 255, 11: 4}), beta=1.0)
def test_partition_reads_the_log2_counts_the_spectrum_keeps(spectrum, beta):
    # the spectrum takes math.log2 of each count once; the canonical sums
    # read it and get the floats that taking it on every call gives
    assert spectrum.lengths == tuple(spectrum.degeneracy)
    log2w = [math.log2(spectrum.count(l)) - beta * l for l in spectrum.lengths]
    shift = max(log2w)
    w = [2.0 ** (x - shift) for x in log2w]
    total = math.fsum(w)
    mean = math.fsum(l * x for l, x in zip(spectrum.lengths, w)) / total
    assert _partition(spectrum, beta) == (shift + math.log2(total), mean, spectrum.lengths, w, total)


def test_partition_function_at_the_float_edge():
    # inf from log2 Z 1024 on; just below it, the largest double
    state = gibbs_state(CANON_SP, 1.0)
    assert state._replace(log2_z=math.nextafter(1024, 0)).z == 1.7976931348621742e308
    assert state._replace(log2_z=1024.0).z == math.inf
    assert state._replace(log2_z=-math.inf).z == 0.0
    assert math.isnan(state._replace(log2_z=math.nan).z)
    assert gibbs_state(CANON_SP, -2000.0).z == math.inf  # log2 Z is about 4001


def test_partition_function_all_complete_codes():
    for seed in range(50):
        sp = random_complete_code(2 + seed % 23, seed).spectrum()
        assert abs(gibbs_state(sp, 1.0).log2_z) <= 1e-12
        assert gibbs_state(sp, 0.0).z == pytest.approx(sp.n_codewords, rel=1e-12)


def test_mean_length_values():
    assert mean_length(CANON_SP, 1.0) == pytest.approx(1.5, abs=1e-15)
    assert mean_length(CANON_SP, 0.0) == pytest.approx(5.0 / 3.0, abs=1e-15)
    assert mean_length(FIVE_SP, 1.0) == pytest.approx(2.0, abs=1e-15)
    # deep quench: all weight on the extreme lengths
    assert mean_length(CANON_SP, 60.0) == pytest.approx(1.0, abs=1e-12)
    assert mean_length(CANON_SP, -60.0) == pytest.approx(2.0, abs=1e-12)


def test_mean_length_decreasing():
    # strictly decreasing until float saturation pins the tails at the
    # extreme lengths; never increasing anywhere
    for seed in (0, 5, 12, 33):
        sp = random_complete_code(3 + seed % 17, seed).spectrum()
        if sp.is_degenerate:
            continue
        grid = np.linspace(-30.0, 30.0, 121)
        vals = [mean_length(sp, b) for b in grid]
        assert all(a >= b for a, b in zip(vals, vals[1:]))
        core = [v for b, v in zip(grid, vals) if abs(b) <= 8.0]
        assert all(a > b for a, b in zip(core, core[1:]))
        assert sp.l_min <= vals[-1] and vals[0] <= sp.l_max


def test_state_probabilities():
    state = gibbs_state(CANON_SP, 1.0)
    # two lengths: P(len 1) = 1/2, P(len 2) = 1/4 each, d_2 = 2
    assert state.length_prob[1] == pytest.approx(0.5, abs=1e-15)
    assert state.length_prob[2] == pytest.approx(0.25, abs=1e-15)
    total = sum(d * state.length_prob[l] for l, d in CANON_SP.degeneracy.items())
    assert total == pytest.approx(1.0, abs=1e-12)

    pmf = state.pmf_for(CANON)
    assert pmf == dyadic_pmf(CANON)  # beta=1 recovers the dyadic pmf (floats)


def test_state_probability_normalization_random():
    for seed in range(20):
        sp = random_complete_code(2 + seed, seed).spectrum()
        for beta in (-7.5, -1.0, 0.0, 0.3, 2.0, 9.0):
            state = gibbs_state(sp, beta)
            total = sum(d * state.length_prob[l] for l, d in sp.degeneracy.items())
            assert total == pytest.approx(1.0, rel=1e-10)
            assert state.variance >= 0.0


def test_state_entropy_identity():
    # H = beta * mean + log2 Z, and at beta=1 on a complete code H = mean
    for beta in (-3.0, 0.0, 0.25, 1.0, 6.0):
        state = gibbs_state(CANON_SP, beta)
        direct = -sum(
            d * state.length_prob[l] * math.log2(state.length_prob[l])
            for l, d in CANON_SP.degeneracy.items()
        )
        assert state.entropy == pytest.approx(direct, rel=1e-12)
    unit = gibbs_state(CANON_SP, 1.0)
    assert unit.entropy == pytest.approx(unit.mean_length, abs=1e-12)
    assert gibbs_state(CANON_SP, 0.0).entropy == pytest.approx(math.log2(3), abs=1e-12)


def test_state_misc():
    state = gibbs_state(CANON_SP, 0.5)
    assert state.temperature == 2.0
    with pytest.raises(ValueError):
        gibbs_state(CANON_SP, math.inf)
    with pytest.raises(ValueError):
        state.pmf_for(Code({"a": "0", "b": "1"}))


def test_pmf_refuses_an_underflowed_probability():
    # at beta 1100 a 2-bit word has probability about 2**-1100, below the
    # smallest float, so no positive pmf exists to hand out
    state = gibbs_state(CANON_SP, 1100.0)
    assert state.length_prob[2] == 0.0
    with pytest.raises(ValueError, match=r"at beta 1100\.0 .* length-2 codeword underflows"):
        state.pmf_for(CANON)
    assert gibbs_state(CANON_SP, 1000.0).pmf_for(CANON)["a"] == 1.0


def test_extreme_beta_stable():
    # the log-domain shift keeps very steep weights finite
    for beta in (700.0, -700.0):
        state = gibbs_state(FIVE_SP, beta)
        assert math.isfinite(state.log2_z)
        assert math.isfinite(state.mean_length)
        assert state.variance == pytest.approx(0.0, abs=1e-12)
    assert gibbs_state(FIVE_SP, 700.0).mean_length == 1.0
    assert gibbs_state(FIVE_SP, -700.0).mean_length == 3.0


def test_partition_sum_overflows_to_inf():
    # the two 2-bit words dominate: log2 Z is about 1 + 2000, finite, though
    # 2**log2_z is past the float range
    state = gibbs_state(CANON_SP, -1000.0)
    assert state.log2_z == pytest.approx(2001.0)
    assert state.z == math.inf
    assert state.mean_length == 2.0


def test_beta_range_is_bounded_by_l_max():
    # lengths {2, 3}: beta * 3 overflows past about 5.99e307; +-inf and nan
    # fail the same one check
    sp = LengthSpectrum({2: 1, 3: 1})
    for beta in (6e307, -6e307, 1e308, -1e308, math.inf, -math.inf, math.nan):
        for call in (gibbs_state, mean_length):
            with pytest.raises(ValueError, match=r"\|beta\| must stay below about 5\.99231e\+307"):
                call(sp, beta)
    with pytest.raises(ValueError, match="beta"):
        box_dimension(sp, -1e308)
    # just inside the limit every quantity is still finite
    for beta in (5.99e307, -5.99e307):
        state = gibbs_state(sp, beta)
        assert state.mean_length == (2.0 if beta > 0 else 3.0)
        assert math.isfinite(state.log2_z) and math.isfinite(state.entropy)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(spectrum=kraft_spectra(), beta=st.integers(-4, 4))
@example(spectrum=CANON_SP, beta=1)
@example(spectrum=LengthSpectrum({3: 7, 5: 3, 6: 1, 9: 1, 13: 28, 15: 85, 21: 3616, 26: 398336}), beta=-1)
@example(spectrum=LengthSpectrum({2: 3, 5: 2, 8: 2, 11: 1}), beta=2)  # d_min > 1, step 3, incomplete
@example(spectrum=LengthSpectrum({1: 1, 3: 4}), beta=4)  # step 2, complete
@example(spectrum=LengthSpectrum({30: 3, 32: 4, 34: 1}), beta=-4)  # long words, small variance
@example(spectrum=LengthSpectrum({5: 32}), beta=3)  # one length
@example(spectrum=LengthSpectrum({7: 100}), beta=-4)
@example(spectrum=LengthSpectrum({32: 3, 33: 1}), beta=0)  # k3's worst seen: the mean's rounding
def test_stats_within_the_documented_bound_of_exact_sums(spectrum, beta):
    log2_z, mean, var, k3 = _stats(spectrum, beta)
    want_log2_z, want_mean, want_var, want_k3 = exact_stats(spectrum, beta)
    # ulp(M), M the largest magnitude that a log weight is built from
    ulp = math.ulp(max(1.0, *(max(math.log2(d), abs(beta * l)) for l, d in spectrum.degeneracy.items())))
    assert abs(Decimal(log2_z) - want_log2_z) <= 4 * Decimal(ulp)
    assert abs(Fraction(mean) - want_mean) <= 2 * Fraction(ulp) * want_mean
    assert abs(Fraction(var) - want_var) <= 4 * Fraction(ulp) * want_var
    # k3 may cancel to 0, so its bound is against E|l - mean|**3 + mean * var
    w = {l: d * Fraction(2) ** (-beta * l) for l, d in spectrum.degeneracy.items()}
    abs_k3 = sum(abs(l - want_mean) ** 3 * wl for l, wl in w.items()) / sum(w.values())
    assert abs(Fraction(k3) - want_k3) <= 3 * Fraction(ulp) * (abs_k3 + want_mean * want_var)


# ---------------------------------------------------------------------------
# solver
# ---------------------------------------------------------------------------

def test_solver_canonical_unit_beta():
    beta = beta_for_mean_length(CANON_SP, 1.5)
    assert abs(beta - 1.0) <= 8e-16
    assert abs(beta_for_mean_length(FIVE_SP, 2.0) - 1.0) <= 8e-16


def test_solver_mean_residual_everywhere():
    # the contract is on the mean-length residual, which beats 1e-12.  For
    # wide length gaps the mean saturates to an extreme length in float64
    # well before |beta| = 20; there the target sits on the boundary, every
    # more extreme beta produces the identical mean, and the round trip
    # closes exactly at the limit value.
    for seed in range(25):
        sp = random_complete_code(2 + seed % 29, seed).spectrum()
        if sp.is_degenerate:
            continue
        for beta in np.linspace(-20.0, 20.0, 11):
            lam = mean_length(sp, float(beta))
            if lam == sp.l_min or lam == sp.l_max:
                continue
            back = beta_for_mean_length(sp, lam)
            assert abs(mean_length(sp, back) - lam) <= 1e-12


def test_solver_beta_fidelity_moderate_range():
    # away from the saturating tails the inverse is also sharp in beta itself
    for seed in range(25):
        sp = random_complete_code(2 + seed % 29, seed).spectrum()
        if sp.is_degenerate:
            continue
        for beta in np.linspace(-8.0, 8.0, 9):
            back = beta_for_mean_length(sp, mean_length(sp, float(beta)))
            assert abs(back - float(beta)) <= 1e-10


def test_solver_rejects_bad_targets():
    with pytest.raises(DegenerateSpectrumError):
        beta_for_mean_length(LengthSpectrum({3: 8}), 3.0)
    with pytest.raises(InfeasibleError):
        beta_for_mean_length(CANON_SP, 1.0)  # boundary is unreachable
    with pytest.raises(InfeasibleError):
        beta_for_mean_length(CANON_SP, 2.0)
    with pytest.raises(InfeasibleError):
        beta_for_mean_length(CANON_SP, 2.5)


# ---------------------------------------------------------------------------
# entropy approximation
# ---------------------------------------------------------------------------

def test_entropy_approximation_canonical():
    # N=2 at 3 bits: matched state is beta=1, H=1.5, giving 3.0 against the
    # exact microcanonical log2(4) = 2
    approx = boltzmann_planck_entropy(CANON_SP, 3.0, 2)
    assert approx == pytest.approx(3.0, abs=1e-12)
    exact = entropy_at(count_messages(CANON_SP, 2), 3)
    assert exact == 2.0
    assert exact <= approx


def test_entropy_approximation_tightens_with_n():
    ratios = []
    for n in (20, 200, 2000):
        total = round(1.5 * n)
        exact = entropy_at(count_messages(CANON_SP, n), total)
        approx = boltzmann_planck_entropy(CANON_SP, float(total), n)
        assert exact <= approx + 1e-9
        ratios.append(exact / approx)
    assert ratios[0] < ratios[1] < ratios[2] < 1.0


def test_entropy_approximation_bounds_check():
    with pytest.raises(InfeasibleError):
        boltzmann_planck_entropy(CANON_SP, 2.0, 2)  # lower edge, closed
    with pytest.raises(InfeasibleError):
        boltzmann_planck_entropy(CANON_SP, 9.0, 2)
    for n in (0, -10**9):
        with pytest.raises(ValueError, match="n_symbols must be at least 1"):
            boltzmann_planck_entropy(CANON_SP, 3.0, n)


def test_entropy_approximation_exact_fraction_check():
    # independent cross-check of the N=2 number against the closed form
    # at beta=1: H = sum p log2(1/p) with p in {1/2, 1/4, 1/4}
    h = Fraction(1, 2) * 1 + Fraction(1, 4) * 2 + Fraction(1, 4) * 2
    assert float(2 * h) == boltzmann_planck_entropy(CANON_SP, 3.0, 2)
