"""Canonical (Gibbs) ensemble over the symbols of a prefix code.

At inverse temperature beta each symbol of codeword length l carries weight
2**(-beta*l); Z(beta) is the normalizing sum and the mean codeword length
under these weights decreases strictly in beta.  beta = 1 reproduces the
dyadic law 2**-l of an absolutely optimal code, beta = 0 is the uniform law
(temperature +-infinity), and beta < 0 weights long codewords up.

Everything is evaluated through log2-domain sums with the dominant term
factored out, so betas far beyond the overflow range of 2.0**x are fine:
any beta with beta * l_max finite, that is |beta| below about
1.8e308 / l_max.  Larger betas are refused with ValueError.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

from ._lazy import np
from .codes import Code, LengthSpectrum, Pmf
from .errors import DegenerateSpectrumError, InfeasibleError
from .rootfind import solve_decreasing

__all__ = [
    "GibbsState",
    "gibbs_state",
    "mean_length",
    "beta_for_mean_length",
    "boltzmann_planck_entropy",
    "beta_from_temperature",
    "temperature_from_beta",
]

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


def _stats(spectrum: LengthSpectrum, beta: float) -> tuple[float, float, float]:
    """(log2 Z, mean length, length variance) at inverse temperature beta."""
    if not math.isfinite(beta * spectrum.l_max):
        limit = sys.float_info.max / spectrum.l_max
        raise ValueError(f"beta {beta!r} is out of range: |beta| must stay below about {limit:.6g}")
    lengths = np.array(spectrum.lengths, dtype=np.float64)
    counts = np.array([spectrum.count(l) for l in spectrum.lengths], dtype=np.float64)
    log2w = np.log2(counts) - beta * lengths
    shift = float(log2w.max())
    w = np.exp2(log2w - shift)
    total = float(w.sum())
    log2_z = shift + math.log2(total)
    p = w / total
    mean = float(np.dot(lengths, p))
    var = float(np.dot(lengths * lengths, p)) - mean * mean
    return log2_z, mean, max(var, 0.0)


@dataclass(frozen=True)
class GibbsState:
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
        """Partition sum; may overflow to inf for very negative beta."""
        try:
            return 2.0**self.log2_z
        except OverflowError:
            return math.inf

    @property
    def temperature(self) -> float:
        return temperature_from_beta(self.beta)

    @property
    def entropy(self) -> float:
        """Shannon entropy of the state in bits: beta*mean + log2 Z."""
        return self.beta * self.mean_length + self.log2_z

    def pmf_for(self, code: Code) -> Pmf:
        """Materialize the per-symbol pmf for a concrete code with this
        spectrum."""
        if code.spectrum() != self.spectrum:
            raise ValueError("code spectrum does not match this state")
        return Pmf({s: self.length_prob[code.length(s)] for s in code.symbols})


def gibbs_state(spectrum: LengthSpectrum, beta: float) -> GibbsState:
    """Canonical state with symbol weights 2**(-beta * length)."""
    if not math.isfinite(beta):
        raise ValueError("beta must be finite; use beta=0 for infinite temperature")
    log2_z, mean, var = _stats(spectrum, beta)
    # log2 p(l) = -beta*l - log2 Z is exact in the log domain; exponentiate last.
    length_prob = {
        l: float(2.0 ** (-beta * l - log2_z)) for l in spectrum.lengths
    }
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
    if not math.isfinite(beta):
        raise ValueError("beta must be finite")
    return _stats(spectrum, beta)[1]


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

    def f(beta: float) -> float:
        return _stats(spectrum, beta)[1]

    def df(beta: float) -> float:
        return -_LN2 * _stats(spectrum, beta)[2]

    return solve_decreasing(f, target, df=df, f_tol=1e-12)


def boltzmann_planck_entropy(
    spectrum: LengthSpectrum, total_bits: float, n_symbols: int
) -> float:
    """Entropy approximation n_symbols * H(state at matched mean length).

    The matching state is the canonical one whose mean codeword length is
    total_bits / n_symbols.  Overestimates the exact microcanonical entropy
    log2(count) by an O(log n_symbols) margin that vanishes in relative
    terms as n_symbols grows.
    """
    if n_symbols < 1:
        raise ValueError("n_symbols must be at least 1")
    lo = n_symbols * spectrum.l_min
    hi = n_symbols * spectrum.l_max
    if not lo < total_bits < hi:
        raise InfeasibleError(
            f"total_bits {total_bits} outside the open range ({lo}, {hi})"
        )
    beta = beta_for_mean_length(spectrum, total_bits / n_symbols)
    state = gibbs_state(spectrum, beta)
    return n_symbols * state.entropy
