"""Geometry of the root system A_n acting on R^d.

The positive roots are e_i - e_j for i < j within the n+1 active
coordinates; the Weyl group is the symmetric group permuting those
coordinates, and the closed positive chamber is x_1 >= ... >= x_{n+1}.
Pairings, reflections, the weight prod |<alpha,X>|^{2k} and the
Vandermonde prod (x_i - x_j) are the building blocks for every kernel
and envelope in this package.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError

#: tolerance on the chamber ordering inequalities (boundary points are legal)
CHAMBER_TOL = 1e-12


@dataclass(frozen=True)
class RootSystemA:
    """Root system A_n with one multiplicity k, acting on coordinates of R^d.

    ``active_coords`` are the 1-based indices of the n+1 coordinates the
    roots act on (default: the first n+1).  ``d`` is the effective ambient
    dimension; normally d >= n+1, except for the trace-zero realization
    (``trace_zero=True``) where vectors live in the trace-zero hyperplane of
    R^{n+1} and d == n.
    """

    n: int
    d: int
    k: float
    active_coords: tuple[int, ...] = field(default=())
    trace_zero: bool = False

    def __post_init__(self):
        if self.n < 1:
            raise DomainError(f"rank must be >= 1, got {self.n}")
        if not (self.k > 0):
            raise DomainError(f"multiplicity must be > 0, got {self.k}")
        if not self.active_coords:
            object.__setattr__(self, "active_coords", tuple(range(1, self.n + 2)))
        if len(self.active_coords) != self.n + 1 or len(set(self.active_coords)) != self.n + 1:
            raise DomainError("active_coords must be n+1 distinct indices")
        if self.trace_zero:
            if self.d != self.n:
                raise DomainError("trace-zero realization requires d == n")
            if self.active_coords != tuple(range(1, self.n + 2)):
                raise DomainError("trace-zero realization uses the first n+1 coordinates")
        else:
            if self.d < self.n + 1:
                raise DomainError(f"need d >= n+1, got d={self.d}, n={self.n}")
            if max(self.active_coords) > self.d:
                raise DomainError("active coordinate index exceeds ambient dimension")

    @property
    def num_positive_roots(self) -> int:
        return self.n * (self.n + 1) // 2

    @property
    def gamma(self) -> float:
        """Sum of multiplicities over positive roots, k * n(n+1)/2."""
        return self.k * self.num_positive_roots

    @property
    def weyl_order(self) -> int:
        return math.factorial(self.n + 1)

    @property
    def coord_len(self) -> int:
        """Length of the coordinate vectors this system acts on."""
        if self.trace_zero:
            return self.n + 1
        return self.d

    def active(self, X) -> np.ndarray:
        """Active-coordinate part of a vector, in root order."""
        X = np.asarray(X, dtype=float)
        idx = np.array(self.active_coords) - 1
        return X[..., idx]

    def check_vector(self, X) -> np.ndarray:
        X = np.atleast_1d(np.asarray(X, dtype=float))
        if X.shape[-1] != self.coord_len:
            raise DomainError(
                f"expected a vector of length {self.coord_len}, got {X.shape[-1]}")
        if self.trace_zero and abs(float(X.sum(axis=-1).max())) > 1e-9 * max(1.0, float(np.abs(X).max())):
            raise DomainError("trace-zero realization requires sum(x) == 0")
        return X


def rootsystem(n: int, k: float, d: int | None = None, *, trace_zero: bool = False,
               active_coords: tuple[int, ...] = ()) -> RootSystemA:
    """Convenience constructor; d defaults to n+1 (or n for trace-zero)."""
    if d is None:
        d = n if trace_zero else n + 1
    return RootSystemA(n=n, d=d, k=k, active_coords=active_coords, trace_zero=trace_zero)


@dataclass(frozen=True)
class ChamberPoint:
    """A vector constrained to the closed positive Weyl chamber of ``rs``."""

    rs: RootSystemA
    coords: np.ndarray

    def __post_init__(self):
        coords = self.rs.check_vector(self.coords)
        ensure_chamber(self.rs, coords)
        coords = np.array(coords, dtype=float)
        coords.setflags(write=False)
        object.__setattr__(self, "coords", coords)

    def is_interior(self) -> bool:
        a = self.rs.active(self.coords)
        return bool(np.all(a[:-1] - a[1:] > CHAMBER_TOL))


def ensure_chamber(rs: RootSystemA, X, *, strict: bool = False) -> np.ndarray:
    """Validate X against the closed (or open, if strict) chamber."""
    X = rs.check_vector(X)
    a = rs.active(X)
    gaps = a[..., :-1] - a[..., 1:]
    scale = max(1.0, float(np.abs(a).max()))
    if strict:
        if not np.all(gaps > CHAMBER_TOL * scale):
            raise DomainError("point is not in the open Weyl chamber")
    elif not np.all(gaps >= -CHAMBER_TOL * scale):
        raise DomainError("point is not in the closed Weyl chamber")
    return X


def positive_roots(rs: RootSystemA) -> list[tuple[int, int]]:
    """All n(n+1)/2 positive-root index pairs (i, j), i < j, 1-based, lex order."""
    m = rs.n + 1
    return [(i, j) for i in range(1, m + 1) for j in range(i + 1, m + 1)]


def _root_cols(rs: RootSystemA, root: tuple[int, int]) -> tuple[int, int]:
    i, j = root
    if not (1 <= i < j <= rs.n + 1):
        raise DomainError(f"{root} is not a positive root of A_{rs.n}")
    return rs.active_coords[i - 1] - 1, rs.active_coords[j - 1] - 1


def pairing(rs: RootSystemA, root: tuple[int, int], P) -> float:
    """<alpha_{ij}, P> = p_i - p_j on the active coordinates."""
    ci, cj = _root_cols(rs, root)
    P = np.asarray(P, dtype=float)
    return float(P[ci] - P[cj])


def reflect(root: tuple[int, int], Y, rs: RootSystemA | None = None) -> np.ndarray:
    """Reflection sigma_alpha for alpha = e_i - e_j: swaps coordinates i and j."""
    Y = np.array(Y, dtype=float)
    if rs is not None:
        ci, cj = _root_cols(rs, root)
    else:
        i, j = root
        ci, cj = i - 1, j - 1
    Y[ci], Y[cj] = Y[cj], Y[ci]
    return Y


def weight(rs: RootSystemA, X) -> float:
    """Dunkl weight omega_k(X) = prod_{i<j} |x_i - x_j|^{2k}; 0 on chamber walls."""
    a = rs.active(np.asarray(X, dtype=float))
    w = 1.0
    for i in range(rs.n + 1):
        for j in range(i + 1, rs.n + 1):
            w *= abs(a[i] - a[j]) ** (2.0 * rs.k)
    return w


def vandermonde(rs: RootSystemA, X) -> float:
    """pi(X) = prod_{i<j} (x_i - x_j); nonnegative on the chamber."""
    a = rs.active(np.asarray(X, dtype=float))
    p = 1.0
    for i in range(rs.n + 1):
        for j in range(i + 1, rs.n + 1):
            p *= a[i] - a[j]
    return float(p)


def reflected_distance_sq(rs: RootSystemA, root: tuple[int, int], X, Y) -> float:
    """|X - sigma_alpha Y|^2 via the identity |X-Y|^2 + 2 alpha(X) alpha(Y)."""
    X = np.asarray(X, dtype=float)
    Y = np.asarray(Y, dtype=float)
    diff = X - Y
    return float(diff @ diff) + 2.0 * pairing(rs, root, X) * pairing(rs, root, Y)


def sort_into_chamber(rs: RootSystemA, X) -> np.ndarray:
    """Permute the active coordinates into decreasing order (a Weyl image)."""
    X = np.array(np.asarray(X, dtype=float))
    idx = np.array(rs.active_coords) - 1
    X[idx] = np.sort(X[idx])[::-1]
    return X
