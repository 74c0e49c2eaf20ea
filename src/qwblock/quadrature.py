"""The shared cut grid.

:func:`cosine_grid` is the fixed midpoint rule in the angular variable
y = mid + half*cos(psi), clustering nodes at the endpoints.  Every cut
integral in the pipeline runs on it: integrands vanishing like sqrt(.)
at both ends are integrated spectrally, and :func:`cut_hilbert` gives
their Cauchy principal value at every node.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BadGridSize

# Grid-sized tabulations run in blocks of this many float64 (128 KiB), which
# stay in cache and in the allocator's free lists; whole-matrix temporaries
# went back to the system and were page-faulted in again by every solve.
BLOCK_ELEMENTS = 16384
# Spectral convergence leaves nothing to gain past this size, and far past
# it cosine_grid's end nodes round onto the branch points.
MAX_GRID_SIZE = 16384


@dataclass(frozen=True)
class QuadConfig:
    """Grid size shared across the pipeline."""

    grid_size: int = 512

    def __post_init__(self):
        if not 16 <= self.grid_size <= MAX_GRID_SIZE or self.grid_size % 2:
            raise BadGridSize(f"grid size must be even and in 16.."
                              f"{MAX_GRID_SIZE}, got {self.grid_size}")

    def with_grid(self, grid_size: int) -> "QuadConfig":
        return QuadConfig(grid_size)


def cosine_grid(a: float, b: float, n: int):
    """Midpoint cosine-substitution rule on [a, b] with n nodes.

    Returns ascending nodes and positive weights for
    integral f = sum(w * f(nodes)).  Exact for smooth periodic images;
    clusters nodes like sqrt(.) at both endpoints.
    """
    if n % 2:
        raise ValueError("n must be even")
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    psi = (np.arange(n) + 0.5) * math.pi / n
    nodes = mid + half * np.cos(psi[::-1])
    weights = half * np.sin(psi[::-1]) * math.pi / n
    return nodes, weights


def cut_hilbert(g: np.ndarray) -> np.ndarray:
    """PV integral of g(xi)/(xi - y) over [a, b], at every grid node y.

    ``g`` holds samples on the :func:`cosine_grid` nodes of [a, b]
    and vanishes like a square root at both ends, so on the grid angles
    psi_j, g(cos psi) = sum_k c_k sin((k+1) psi) = sqrt(1 - t^2) U_k(t).
    A DST-II gives the c_k, and PV int_{-1}^{1} sqrt(1 - t^2) U_k(t)/(t - x)
    dt = -pi T_{k+1}(x) (Mason & Handscomb, Chebyshev Polynomials, ch. 9)
    the principal value; both sums are length-2n FFTs.
    """
    n = g.size
    twist = np.exp(-0.5j * math.pi * np.arange(1, n + 1) / n)
    coef = -np.imag(twist * np.fft.fft(g[::-1], 2 * n)[1:n + 1]) * (2.0 / n)
    coef[-1] *= 0.5
    spectrum = np.zeros(2 * n, dtype=complex)
    spectrum[1:n + 1] = coef * twist
    return -math.pi * np.real(np.fft.fft(spectrum)[:n])[::-1]


def blocks(n: int, width: int) -> list[slice]:
    """Slices covering range(n), each about BLOCK_ELEMENTS / width long."""
    step = max(1, BLOCK_ELEMENTS // width)
    return [slice(lo, lo + step) for lo in range(0, n, step)]
