"""Canonical (Gibbs) ensemble over the symbols of a prefix code.

At inverse temperature beta each symbol of codeword length l carries weight
2**(-beta*l); Z(beta) is the normalizing sum and the mean codeword length
under these weights decreases strictly in beta.  beta = 1 reproduces the
dyadic law 2**-l of an absolutely optimal code, beta = 0 is the uniform law
(temperature +-infinity), and beta < 0 weights long codewords up.

Everything is evaluated through log2-domain sums with the dominant term
factored out, so betas far beyond the overflow range of 2.0**x are fine:
any beta with beta * l_max finite, that is |beta| below about
1.8e308 / l_max.  Larger betas, +-inf and nan are refused with ValueError.
The sums over the distinct lengths are correctly rounded math.fsum sums,
and the variance is taken about the mean, so it is never negative.  The
mean and the variance are within a relative 2 and 4 ulp(M) of the exact
values, M the largest log2 count or |beta * l| (see _stats).  The module
needs only the standard library, so canonical commands never load numpy.
"""

from __future__ import annotations

import math
import sys
from operator import mul
from typing import NamedTuple

from . import _EXPORTS
from .codes import Code, LengthSpectrum, Pmf, _check_n_symbols
from .errors import DegenerateSpectrumError, InfeasibleError
from .rootfind import solve_decreasing

__all__ = [*_EXPORTS["gibbs"]]

_LN2 = math.log(2.0)


def beta_from_temperature(temperature: float) -> float:
    """Inverse temperature 1/T; T = +-inf maps to 0, T = +-0 to +-inf."""
    if math.isinf(temperature):
        return 0.0
    if temperature == 0.0:
        return math.copysign(math.inf, temperature)
    return 1.0 / temperature

def temperature_from_beta(beta: float) -> float:
    """Temperature 1/beta; beta = 0 maps to inf (the two-sided limit)."""
    if beta == 0.0:
        return math.inf
    return 1.0 / beta


def _partition(spectrum: LengthSpectrum, beta: float) -> tuple[float, float, tuple[int, ...], list[float], float]:
    """(log2 Z, mean length, lengths, weights, their total) at inverse
    temperature beta: the weights are 2**(log2 d_l - beta * l) shifted by
    their largest log, so they sum to total without overflow."""
    if not math.isfinite(beta * spectrum.l_max):
        limit = sys.float_info.max / spectrum.l_max
        raise ValueError(f"beta {beta!r} is out of range: |beta| must stay below about {limit:.6g}")
    lengths = spectrum.lengths
    log2w = [math.log2(spectrum.count(l)) - beta * l for l in lengths]
    shift = max(log2w)
    w = [2.0 ** (x - shift) for x in log2w]
    total = math.fsum(w)
    return shift + math.log2(total), math.fsum(map(mul, lengths, w)) / total, lengths, w, total


def _stats(spectrum: LengthSpectrum, beta: float) -> tuple[float, float, float, float]:
    """(log2 Z, mean, variance, third central moment) of the length at beta.

    Let M be the largest of 1, log2 d_l and |beta * l| over the lengths l
    with d_l codewords: each log weight is rounded at that scale.  Checked
    against exact rational sums at integer beta in [-4, 4], log2 Z is within
    4 ulp(M) of the truth, the mean within a relative 2 ulp(M) and the
    variance within a relative 4 ulp(M), where ulp(M) is 2**floor(log2 M)
    times ulp(1).  The third moment can cancel to near 0, so its bound is
    absolute: within 3 ulp(M) times E|l - mean|**3 + mean * var, the second
    term for the rounded mean it is taken about (2.93 seen at worst).
    """
    log2_z, mean, lengths, w, total = _partition(spectrum, beta)
    var = math.fsum((l - mean) ** 2 * wl for l, wl in zip(lengths, w)) / total
    k3 = math.fsum((l - mean) ** 3 * wl for l, wl in zip(lengths, w)) / total
    return log2_z, mean, var, k3


def _mean_total(parts: list[tuple[LengthSpectrum, int]]):
    """(f, df): the total mean length sum(n * mean(beta)) over (spectrum, n)
    parts, and its derivative -ln2 * sum(n * variance(beta)), for
    solve_decreasing."""

    def f(beta: float) -> float:
        return sum(n * _partition(spectrum, beta)[1] for spectrum, n in parts)

    def df(beta: float) -> float:
        return -_LN2 * sum(n * _stats(spectrum, beta)[2] for spectrum, n in parts)

    return f, df


class GibbsState(NamedTuple):
    """Canonical state of one code at a given inverse temperature.

    length_prob maps each distinct codeword length to the probability of a
    single codeword of that length, so the class probability is
    count(l) * length_prob[l] and the whole thing sums to 1.
    """

    beta: float
    log2_z: float
    mean_length: float
    variance: float
    length_prob: dict[int, float]
    spectrum: LengthSpectrum

    @property
    def z(self) -> float:
        """Partition sum 2**log2_z, or inf once log2_z reaches 1024, as at a very negative beta."""
        return math.inf if self.log2_z >= 1024 else 2.0**self.log2_z

    @property
    def temperature(self) -> float:
        return temperature_from_beta(self.beta)

    @property
    def entropy(self) -> float:
        """Shannon entropy of the state in bits: beta*mean + log2 Z."""
        return self.beta * self.mean_length + self.log2_z

    def pmf_for(self, code: Code) -> Pmf:
        """Materialize the per-symbol pmf for a concrete code with this
        spectrum.  Refused with ValueError when a codeword's probability
        underflows to 0.0, as it does at a steep beta."""
        if code.spectrum() != self.spectrum:
            raise ValueError("code spectrum does not match this state")
        for l, p in self.length_prob.items():
            if p == 0.0:
                raise ValueError(f"at beta {self.beta!r} the probability of a length-{l} codeword underflows to 0")
        return Pmf({s: self.length_prob[code.length(s)] for s in code.symbols})


def gibbs_state(spectrum: LengthSpectrum, beta: float) -> GibbsState:
    """Canonical state with symbol weights 2**(-beta * length)."""
    log2_z, mean, var, _ = _stats(spectrum, beta)
    # log2 p(l) = -beta*l - log2 Z is exact in the log domain; exponentiate last.
    length_prob = {l: 2.0 ** (-beta * l - log2_z) for l in spectrum.lengths}
    return GibbsState(
        beta=beta,
        log2_z=log2_z,
        mean_length=mean,
        variance=var,
        length_prob=length_prob,
        spectrum=spectrum,
    )


def mean_length(spectrum: LengthSpectrum, beta: float) -> float:
    """Mean codeword length under the canonical weights at beta.

    Strictly decreasing in beta, from l_max (beta -> -inf) to l_min
    (beta -> +inf); its derivative is -ln2 times the length variance.
    """
    return _partition(spectrum, beta)[1]


def beta_for_mean_length(spectrum: LengthSpectrum, target: float) -> float:
    """Invert the mean-length curve: find beta with mean_length == target.

    The target must lie strictly between l_min and l_max; a degenerate
    spectrum has a constant mean and admits no inversion.  The residual
    |mean_length(beta) - target| is at most 1e-12, and beta itself is
    refined until the enclosing bracket collapses to float precision.
    """
    if spectrum.is_degenerate:
        raise DegenerateSpectrumError(
            f"all codewords have length {spectrum.l_min}; the mean is constant"
        )
    if not spectrum.l_min < target < spectrum.l_max:
        raise InfeasibleError(
            f"target mean length {target} outside ({spectrum.l_min}, {spectrum.l_max})"
        )
    f, df = _mean_total([(spectrum, 1)])
    return solve_decreasing(f, target, df=df, f_tol=1e-12)


def boltzmann_planck_entropy(
    spectrum: LengthSpectrum, total_bits: float, n_symbols: int
) -> float:
    """Entropy approximation n_symbols * H(state at matched mean length).

    The matching state is the canonical one whose mean codeword length is
    total_bits / n_symbols.  Overestimates the exact microcanonical entropy
    log2(count) by an O(log n_symbols) margin that vanishes in relative
    terms as n_symbols grows.  A matched mean outside (l_min, l_max), or a
    degenerate spectrum, raises beta_for_mean_length's InfeasibleError.
    """
    _check_n_symbols(n_symbols)
    beta = beta_for_mean_length(spectrum, total_bits / n_symbols)
    state = gibbs_state(spectrum, beta)
    return n_symbols * state.entropy
