"""Thermal equilibrium of two codes sharing one total bit budget.

Two message sources, with their own prefix codes and message lengths, are
coupled by fixing the combined coded length.  The most probable split
equalizes the two temperatures, so the continuous solution is the single
inverse temperature beta at which the canonical mean lengths add up to the
budget:

    n_first * mean_first(beta) + n_second * mean_second(beta) = total_bits

The brute-force check maximizes the exact product of the two count tables
over every achievable integer split.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from . import _EXPORTS
from .codes import LengthSpectrum
from .errors import InfeasibleError, UnachievableLengthError
from .gibbs import _mean_total, _partition, temperature_from_beta
from .microcanonical import count_messages
from .rootfind import solve_decreasing

__all__ = [*_EXPORTS["equilibrium"]]


class _TwoCodes(NamedTuple):
    spectrum_first: LengthSpectrum
    n_first: int
    spectrum_second: LengthSpectrum
    n_second: int


class TwoCodeSystem(_TwoCodes):
    """Two spectra with their message lengths (in symbols)."""

    __slots__ = ()

    def __new__(cls, spectrum_first, n_first, spectrum_second, n_second):
        if n_first < 1 or n_second < 1:
            raise ValueError("both message lengths must be at least 1")
        return super().__new__(cls, spectrum_first, n_first, spectrum_second, n_second)

    @classmethod
    def _make(cls, iterable) -> TwoCodeSystem:
        return cls(*iterable)  # so _replace checks the lengths too

    @property
    def feasible_range(self) -> tuple[int, int]:
        """Closed range of achievable total bit counts."""
        lo = self.n_first * self.spectrum_first.l_min + self.n_second * self.spectrum_second.l_min
        hi = self.n_first * self.spectrum_first.l_max + self.n_second * self.spectrum_second.l_max
        return lo, hi


class Allocation(NamedTuple):
    """Continuous equilibrium split of the bit budget.

    bits_first + bits_second reproduces the budget up to the solver
    residual.  When both spectra are degenerate the split is forced and no
    temperature is defined: degenerate is True and beta_star is nan.
    """

    beta_star: float
    bits_first: float
    bits_second: float
    residual: float
    feasible_range: tuple[int, int]
    degenerate: bool = False

    @property
    def temperature(self) -> float:
        return temperature_from_beta(self.beta_star)


def solve_equilibrium(system: TwoCodeSystem, total_bits: float) -> Allocation:
    """Equal-temperature split of total_bits between the two codes.

    total_bits must lie strictly inside the feasible range (exactly on it
    when both spectra are degenerate and the range is a single point).
    Residual tolerance is 1e-9 on the total-length equation.
    """
    sp1, n1 = system.spectrum_first, system.n_first
    sp2, n2 = system.spectrum_second, system.n_second
    lo, hi = system.feasible_range

    if sp1.is_degenerate and sp2.is_degenerate:
        if total_bits != lo:  # lo == hi here
            raise InfeasibleError(
                f"both spectra are degenerate: the only achievable total is {lo}"
            )
        return Allocation(
            beta_star=math.nan,
            bits_first=float(n1 * sp1.l_min),
            bits_second=float(n2 * sp2.l_min),
            residual=0.0,
            feasible_range=(lo, hi),
            degenerate=True,
        )

    if not lo < total_bits < hi:
        raise InfeasibleError(
            f"total_bits {total_bits} outside the open feasible range ({lo}, {hi})"
        )

    f, df = _mean_total([(sp1, n1), (sp2, n2)])
    tol = max(1e-9, 16.0 * math.ulp(float(total_bits)))
    beta = solve_decreasing(f, total_bits, df=df, f_tol=tol)
    bits_first = n1 * _partition(sp1, beta)[1]
    bits_second = n2 * _partition(sp2, beta)[1]
    return Allocation(
        beta_star=beta,
        bits_first=bits_first,
        bits_second=bits_second,
        residual=(bits_first + bits_second) - total_bits,
        feasible_range=(lo, hi),
    )


def allocation_table(
    system: TwoCodeSystem, total_bits: int
) -> list[tuple[int, int, int, int, int]]:
    """All achievable integer splits with their exact message-count product.

    Rows are (bits_first, bits_second, count_first, count_second, product),
    ascending in bits_first.
    """
    table1 = count_messages(system.spectrum_first, system.n_first)
    table2 = count_messages(system.spectrum_second, system.n_second)
    rows = []
    for bits1, c1 in table1.items():
        bits2 = total_bits - bits1
        c2 = table2.count(bits2)
        if c2:
            rows.append((bits1, bits2, c1, c2, c1 * c2))
    return rows


def _best_split(rows: list[tuple[int, int, int, int, int]], total_bits: int) -> int:
    """bits_first of the allocation_table row with the largest product;
    ties go to the earliest row, the smallest bits_first.  Raises
    UnachievableLengthError when there is no row."""
    if not rows:
        raise UnachievableLengthError(f"no achievable split of {total_bits} bits for this system")
    return max(rows, key=lambda row: row[4])[0]


def brute_force_allocation(system: TwoCodeSystem, total_bits: int) -> int:
    """bits_first maximizing count_first * count_second over integer splits.

    Exact integer comparison; ties go to the smallest bits_first.  Raises
    UnachievableLengthError when no split is achievable.
    """
    return _best_split(allocation_table(system, total_bits), total_bits)
