"""Tests for the safeguarded solver for decreasing functions."""

import math

import pytest

from thermocode.rootfind import solve_decreasing


def test_linear_with_derivative():
    # exact root of 3 - 2x = t is (3 - t) / 2; targets far outside the
    # starting bracket force expansion on both sides
    for target in (-1000.0, -2.5, 0.0, 3.0, 17.25, 1001.0):
        x = solve_decreasing(lambda x: 3.0 - 2.0 * x, target, df=lambda x: -2.0)
        assert x == pytest.approx((3.0 - target) / 2.0, abs=1e-12)


def test_exponential_with_derivative():
    f = lambda x: math.exp(-x)
    x = solve_decreasing(f, 1e-6, df=lambda x: -math.exp(-x))
    assert x == pytest.approx(math.log(10**6), rel=1e-12)
    assert abs(f(x) - 1e-6) <= 1e-12


def test_residuals_meet_tolerance_across_targets():
    f = lambda x: -math.tanh(x)
    for k in range(-9, 10):
        target = k / 10.0
        x = solve_decreasing(f, target, df=lambda x: -1.0 / math.cosh(x) ** 2)
        assert abs(f(x) - target) <= 1e-12


def test_unreachable_target_raises():
    # -tanh lies in (-1, 1): 1.5 is never reached on the left, -1.5 never on the right
    for target, side in ((1.5, "left"), (-1.5, "right")):
        with pytest.raises(ValueError, match=f"could not bracket target {target} from the {side}"):
            solve_decreasing(lambda x: -math.tanh(x), target, df=lambda x: -1.0 / math.cosh(x) ** 2)


def test_nan_inside_bracket_raises():
    def f(x: float) -> float:
        return 1.0 - x if abs(x) >= 0.9 else math.nan

    with pytest.raises(ValueError, match="nan"):
        solve_decreasing(f, 0.0, df=lambda x: -1.0)


def test_jump_past_target_reports_no_convergence():
    # a step function never gets its residual below tolerance; its zero
    # derivative leaves every step to bisection
    with pytest.raises(ValueError, match="no convergence"):
        solve_decreasing(lambda x: 1.0 if x < 0 else -1.0, 0.5, df=lambda x: 0.0)

