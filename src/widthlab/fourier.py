"""Trigonometric polynomials, their grid samples, and a multiplier kernel's
spectral action (the kernels and their coefficients live in `classes`).

Everything is real-valued and lives on the circle [0, 2pi) with the
unnormalized Lebesgue measure.  A degree-n polynomial is stored by its
cosine/sine coefficients; grids are always uniform with spacing 2pi/N, on
which the trapezoidal rule integrates trig polynomials of degree <= N-1
exactly.
"""

import numpy as np

from .errors import GridTooCoarseError, TruncationExceededError


def _freeze(arr):
    arr = np.asarray(arr, dtype=float)
    arr.flags.writeable = False
    return arr


class TrigPoly:
    """a0 + sum_{k=1}^{degree} a_k cos kx + b_k sin kx."""

    def __init__(self, a0, a, b):
        a = _freeze(a)
        b = _freeze(b)
        if a.shape != b.shape or a.ndim != 1:
            raise ValueError("cosine and sine coefficient arrays must match")
        self.a0, self.a, self.b = a0, a, b

    @property
    def degree(self):
        return len(self.a)

    @classmethod
    def harmonic(cls, k):
        """Single harmonic cos(kx); k = 0 gives the constant 1."""
        if k == 0:
            return cls(1.0, np.zeros(0), np.zeros(0))
        a = np.zeros(k)
        a[k - 1] = 1.0
        return cls(0.0, a, np.zeros(k))

    @classmethod
    def from_coeffs(cls, c):
        """Polynomial of a flat coefficient vector (a0, a_1..a_n, b_1..b_n)."""
        n = (len(c) - 1) // 2
        return cls(c[0], c[1 : n + 1], c[n + 1 :])

    def coeff_vector(self):
        """Flat coefficient vector (a0, a_1..a_n, b_1..b_n)."""
        return np.concatenate(([self.a0], self.a, self.b))


class GridFunction:
    """Samples on the uniform grid x_j = 2pi j / N, j = 0..N-1."""

    def __init__(self, samples):
        samples = _freeze(samples)
        if samples.ndim != 1 or len(samples) < 1:
            raise ValueError("samples must be a nonempty 1-d array")
        self.samples = samples

    @property
    def size(self):
        return len(self.samples)

    @property
    def grid(self):
        return 2.0 * np.pi * np.arange(self.size) / self.size


def eval_poly(t, x):
    """Evaluate t at scalar or array x."""
    x = np.asarray(x, dtype=float)
    k = np.arange(1, t.degree + 1)
    kx = np.multiply.outer(x, k)
    return t.a0 + np.cos(kx) @ t.a + np.sin(kx) @ t.b


def synthesize_rows(coeffs, n_grid, shift=0.0):
    """Sample coefficient rows (a0, a_1..a_m, b_1..b_m) on a uniform grid.

    The samples lie at 2pi (j + shift) / n_grid, j = 0..n_grid-1.  The rows
    lie along the last axis; any leading axes are batch axes and are kept in
    the output, which has n_grid samples per row.  Only the m + 1 nonzero bins
    are built, so the output is the one full-grid array.
    """
    coeffs = np.asarray(coeffs, dtype=float)
    m = (coeffs.shape[-1] - 1) // 2
    if n_grid < 2 * m + 1:
        raise GridTooCoarseError(f"grid of {n_grid} points cannot resolve degree {m}")
    # Inverse FFT of the bins n_grid * c_k, c_0 = a0 and c_k = (a_k - i b_k)/2
    # turned by e^{2pi i k shift/n_grid}, which irfft zero-pads.  c_0 is turned
    # too (2 a0 times 0.5*n_grid), so numpy's complex multiply loops along each
    # row; a loop across the rows (at m = 1) rounds by the row's position.
    twiddle = 0.5 * n_grid * np.exp(2j * np.pi * shift / n_grid * np.arange(m + 1))
    spec = np.zeros(coeffs.shape[:-1] + (m + 1,), dtype=complex)
    spec.real[..., 0] = 2.0 * coeffs[..., 0]
    spec.real[..., 1:] = coeffs[..., 1 : m + 1]
    spec.imag[..., 1:] = -coeffs[..., m + 1 :]
    spec *= twiddle
    return np.fft.irfft(spec, n=n_grid, axis=-1)


def synthesize(t, n_grid=None):
    """Sample t on a uniform grid (default fine enough for exact round trips)."""
    if n_grid is None:
        n_grid = default_grid_size(t.degree)
    return GridFunction(synthesize_rows(t.coeff_vector(), n_grid))


def default_grid_size(degree):
    """Oversampled default: exact for the degree plus headroom for |.|^p integrands."""
    return max(256, 8 * (degree + 1))


def _analyze_rows(samples, m):
    """Degree-m partial-sum coefficient rows (a0, a, b) of uniform-grid sample rows.

    The samples lie along the last axis; any leading axes are batch axes.
    """
    samples = np.asarray(samples, dtype=float)
    n = samples.shape[-1]
    if n < 2 * m + 1:
        raise GridTooCoarseError(f"need at least {2 * m + 1} samples for degree {m}, got {n}")
    spec = np.fft.rfft(samples, axis=-1) / n
    return np.concatenate(
        (spec[..., :1].real, 2.0 * spec[..., 1 : m + 1].real, -2.0 * spec[..., 1 : m + 1].imag), axis=-1
    )


def analyze(f, m):
    """Degree-m Fourier partial sum of f by discrete quadrature (projection S_m)."""
    return TrigPoly.from_coeffs(_analyze_rows(f.samples, m))


def _multiplier_rows(kernel, coeffs):
    """Multiplier action on coefficient rows (a0, a, b): each harmonic scaled
    by lambda_k, the constant term dropped."""
    coeffs = np.asarray(coeffs, dtype=float)
    degree = (coeffs.shape[-1] - 1) // 2
    if degree > kernel.truncation:
        raise TruncationExceededError(
            f"degree {degree} exceeds kernel truncation {kernel.truncation}"
        )
    lam = np.asarray(kernel.lambdas(degree))
    a, b = coeffs[..., 1 : degree + 1], coeffs[..., degree + 1 :]
    return np.concatenate((np.zeros_like(coeffs[..., :1]), lam * a, lam * b), axis=-1)


def apply_multiplier(kernel, phi):
    """Coefficientwise multiplier action; the constant term is dropped (the
    harmonic sums start at k=1)."""
    return TrigPoly.from_coeffs(_multiplier_rows(kernel, phi.coeff_vector()))
