"""Closed-form values that the benchmark checks widthlab's outputs against.

Standard library only, and independent of widthlab, so a defect in the
program cannot leak into the reference it is judged by.
"""

import math


def ball_width(m, n, p, q):
    """Exact Kolmogorov width d_n(B_p^m, l_q^m), or None where no closed form is known.

    Covered cases, for 0 <= n < m:
      - p == q: the width is 1 (every n-subspace misses some unit vector);
      - q < p: (m - n)^(1/q - 1/p) (Pietsch, Stesin);
      - p == 1, q == 2: sqrt(1 - n/m).
    """
    if not 0 <= n <= m:
        raise ValueError(f"need 0 <= n <= m, got n={n}, m={m}")
    if n == m:
        return 0.0
    if p == q:
        return 1.0
    if q < p:
        return float((m - n) ** (1.0 / q - 1.0 / p))
    if p == 1 and q == 2:
        return math.sqrt(1.0 - n / m)
    return None


def mz_ratio_p2(m):
    """The Marcinkiewicz-Zygmund ratio at p = 2 for degree m.

    On 2m+1 equispaced points the discrete l_2 norm of any degree-m
    trigonometric polynomial is a fixed multiple of its L_2 norm over
    [0, 2pi), so the smallest and the largest ratio over polynomials both equal
    m^(-1/2) * sqrt((2m+1) / (2pi)).
    """
    if m < 1:
        raise ValueError(f"need m >= 1, got {m}")
    return math.sqrt((2 * m + 1) / (2.0 * math.pi * m))
