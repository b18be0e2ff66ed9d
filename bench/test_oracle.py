"""Hand-computed values for the benchmark's closed-form oracle."""

import math
import random

import pytest

from oracle import ball_width, mz_ratio_p2


@pytest.mark.parametrize(
    "m, n, p, q, expected",
    [
        (5, 2, 3.0, 3.0, 1.0),
        (5, 0, 2.0, 2.0, 1.0),
        (5, 1, 3.0, 1.5, 4.0 ** (1.0 / 3.0)),  # 1.5874...
        (5, 3, 3.0, 1.5, 2.0 ** (1.0 / 3.0)),
        (9, 1, 2.0, 1.0, 8.0 ** 0.5),
        (4, 3, 4.0, 2.0, 1.0),
        (5, 1, 1.0, 2.0, math.sqrt(0.8)),
        (5, 4, 1.0, 2.0, math.sqrt(0.2)),
        (4, 4, 1.0, 2.0, 0.0),
    ],
)
def test_ball_width_hand_values(m, n, p, q, expected):
    assert ball_width(m, n, p, q) == pytest.approx(expected, rel=1e-15)


def test_ball_width_hand_values_as_decimals():
    assert ball_width(5, 1, 3.0, 1.5) == pytest.approx(1.5874010519681994, rel=1e-15)
    assert ball_width(5, 1, 1.0, 2.0) == pytest.approx(0.8944271909999159, rel=1e-15)


@pytest.mark.parametrize("m, n, p, q", [(5, 1, 1.5, 3.0), (5, 2, 1.0, 1.5), (6, 3, 2.0, 4.0)])
def test_ball_width_uncovered_cells(m, n, p, q):
    assert ball_width(m, n, p, q) is None


def test_ball_width_rejects_bad_dimension():
    with pytest.raises(ValueError):
        ball_width(3, 4, 2.0, 2.0)


@pytest.mark.parametrize(
    "m, expected",
    [(1, math.sqrt(3.0 / (2.0 * math.pi))), (4, 0.5984134206021491), (128, 0.5652904423185450)],
)
def test_mz_ratio_p2_hand_values(m, expected):
    assert mz_ratio_p2(m) == pytest.approx(expected, rel=1e-14)


def test_mz_ratio_p2_matches_direct_sums():
    # A degree-m polynomial squared has degree 2m, so a 4m+4-point rule gives
    # its L_2 norm exactly; compare with the scaled 2m+1-point sum.
    rng = random.Random(7)
    for m in (1, 3, 8):
        coeffs = [rng.gauss(0.0, 1.0) for _ in range(2 * m + 1)]

        def t(x):
            return coeffs[0] + sum(
                coeffs[k] * math.cos(k * x) + coeffs[m + k] * math.sin(k * x)
                for k in range(1, m + 1)
            )

        fine = 4 * m + 4
        l2 = math.sqrt(2.0 * math.pi / fine * sum(t(2 * math.pi * j / fine) ** 2 for j in range(fine)))
        points = [2 * math.pi * j / (2 * m + 1) for j in range(1, 2 * m + 2)]
        discrete = m ** -0.5 * math.sqrt(sum(t(x) ** 2 for x in points))
        assert discrete / l2 == pytest.approx(mz_ratio_p2(m), rel=1e-12)


def test_mz_ratio_p2_rejects_degree_zero():
    with pytest.raises(ValueError):
        mz_ratio_p2(0)
