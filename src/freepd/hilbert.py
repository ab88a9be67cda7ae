"""Partial Hilbert spaces at an extension stage, and their residual data.

At a stage (g, j, k) the already-known inner products realize vectors
Theta(h)_m for the stage indices, and every pairwise product is pinned
except the single pair <Theta(g)_j, Theta(e)_k>.  Writing p for the
orthogonal projection onto the span of the pinned indices P, three numbers
summarize the whole configuration: the residual norms
n_g = ||(I-p) Theta(g)_j|| and n_e = ||(I-p) Theta(e)_k|| and the projected
cross term <p Theta(g)_j, p Theta(e)_k>.  The extension engine fills the
unknown entry as zeta * n_g * n_e + cross with a parameter zeta from the
closed unit disk; this module computes everything the engine consumes.

Every number here comes from a lower Cholesky factor M = L L* of a Gram
matrix M[i, j] = <y_i, y_j>: row i of L holds the coordinates of y_i in an
orthonormal basis whose first i + 1 vectors span y_0, ..., y_i, and the
pivot L[i, i] is the norm of y_i's residual after projection onto y_0, ...,
y_{i-1}.  Bordering a core factor L with a vector y solves L v = M[core, y]:
v conjugated is y's new row, so ||v|| is the length of y's projection and
M[y, y] - ||v||^2 the square of its residual norm.  This is one
Schur-complement step, the one-step Szego-parameter extension of Bakonyi
and Timotin; the NaN corner never enters it.

A stage space is its own stage Gram, gathered over the stage's pairs Q
with one table (pdcore._stage_table), and its core size.  Its residuals
are that Gram's core factored once and bordered with the working pair
(_bordered), the one residual routine, which residual_from_gram, and
through it extend.toeplitz_step, shares.  A function's space is built on
first use and kept, so a walk's function and a copy of it agree bit for
bit.  (The central, zeta = 0, extension needs no stage space:
extend.central_extension runs its order-r recurrence over windows of the
data ball.)  Vectors never materialize.

The factors and solves are direct LAPACK and BLAS calls, zpotrf and one
single-vector ztrsv per solve, read from freepd._linalg, which imports SciPy
at the first call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _linalg, pdcore
from .errors import (
    DegenerateStageError,
    DomainError,
    NotStrictError,
    ParameterError,
)
from .pdcore import DEFAULT_TOL, PDFunction


@dataclass(frozen=True)
class ResidualData:
    """The three stage numbers: residual norms and the projected cross term."""

    n_g: float
    n_e: float
    cross: complex


class PartialHilbertSpace:
    """The stage (g, j, k) of one function: its stage Gram and core size.

    gram is the read-only Gram indexed by the stage's pairs Q
    (pdcore.stage_pairs), with NaN at the working pair (positions
    core_size, core_size + 1), that is <Theta(g)_j, Theta(e)_k>; the two
    one-sided restrictions X_g and X_e are fully defined.
    """

    def __init__(self, gram: np.ndarray):
        self.gram, self.core_size, self._residuals = gram, len(gram) - 2, None
        gram.setflags(write=False)

    @property
    def x_g_gram(self) -> np.ndarray:
        m = self.core_size
        rows = list(range(m)) + [m]
        return self.gram[np.ix_(rows, rows)]

    @property
    def x_e_gram(self) -> np.ndarray:
        m = self.core_size
        rows = list(range(m)) + [m + 1]
        return self.gram[np.ix_(rows, rows)]

    def residuals(self) -> tuple:
        """(n_g, n_e, cross) of the stage Gram (_bordered), computed once.
        A core pivot at or below DEFAULT_TOL raises NotStrictError at its
        position in the core."""
        if self._residuals is None:
            self._residuals = _bordered(self.gram, self.core_size)
        return self._residuals


def build_partial_space(C: PDFunction) -> PartialHilbertSpace:
    """The stage space of a partial-domain function.

    Every entry of its Gram except the working corner comes from C; a
    genuinely missing value (the domain does not cover a needed quotient)
    raises the usual missing-entry error.  A function never changes, so its
    space is built once and kept in its _stage_space slot.
    """
    if C.domain.kind != "partial":
        raise DomainError("build_partial_space needs a partial-domain function")
    if C._stage_space is None:
        dom = C.domain
        table = pdcore._stage_table(dom.g, C.d, dom.j, dom.k)
        C._stage_space = PartialHilbertSpace(pdcore._gram(C, table=table, corner=1))
    return C._stage_space


def _factor(M):
    """Lower Cholesky factor L of a Hermitian matrix (M = L L*) and its pivots.

    The caller vouches for M: square and Hermitian.  The pivots are the
    diagonal of L; a pivot LAPACK could not take reads 0, as does every
    pivot after it.
    """
    L, info = _linalg.zpotrf(M, lower=1, clean=1)
    pivots = L.diagonal().real.copy()
    if info > 0:
        pivots[info - 1:] = 0.0
    return L, pivots


def _solve(L: np.ndarray, b: np.ndarray) -> np.ndarray:
    """L^-1 b, one single-vector ztrsv (a multi-column one wakes a spinning OpenBLAS worker)."""
    return _linalg.ztrsv(L, b, lower=1) if len(b) else np.zeros(0, dtype=complex)


def _norm(square: complex) -> float:
    """A residual norm from its square, or 0."""
    return math.sqrt(max(square.real, 0.0))


def _core_factor(M: np.ndarray, m: int) -> np.ndarray:
    """The factor M[:m, :m] = L L* of the core, the first m rows, by
    _factor; a pivot at or below DEFAULT_TOL (NaN too) raises
    NotStrictError at its position."""
    if not m:
        return np.zeros((0, 0), dtype=complex)
    L, pivots = _factor(M[:m, :m])
    if not pivots.min() > DEFAULT_TOL:  # NaN fails too
        t = int(np.argmin(pivots > DEFAULT_TOL))
        raise NotStrictError(f"Cholesky pivot collapsed at position {t} (pivot {pivots[t]:.3e})")
    return L


def _core_coordinates(M: np.ndarray, m: int) -> tuple:
    """(L, V): the core factor L (_core_factor) and V = L^-1 M[:m, m:],
    the core coordinates of the vectors after it, one _solve per column."""
    L = _core_factor(M, m)
    return L, np.column_stack([_solve(L, M[:m, c]) for c in range(m, M.shape[1])])


def _bordered(M: np.ndarray, m: int) -> tuple:
    """(n_g, n_e, cross) of the last two rows of M, the working pair,
    against its first m, the core: the core factor bordered with each
    working vector (_core_coordinates, V), and P = V* V, the Gram of their
    projections, so the corner M[m, m + 1] never enters.  P is one product,
    not a vdot per pair: the solver's iteration counts follow the last bits
    of these numbers, which tests/test_walk.py pins at d = 1."""
    V = _core_coordinates(M, m)[1]
    P = V.conj().T @ V
    # 0j + turns a -0.0 cross term into 0.0
    return _norm(M[m, m] - P[0, 0]), _norm(M[m + 1, m + 1] - P[1, 1]), complex(0j + P[0, 1])


def _checked(n_g: float, n_e: float, cross: complex) -> ResidualData:
    if not (n_g > DEFAULT_TOL and n_e > DEFAULT_TOL):  # NaN fails too
        raise DegenerateStageError(
            f"residual norm collapsed (n_g={n_g:.3e}, n_e={n_e:.3e})"
        )
    return ResidualData(n_g=n_g, n_e=n_e, cross=cross)


def residual_from_gram(G: np.ndarray, core_size: int) -> ResidualData:
    """Residual data of a stage Gram: core at the front, the two working
    vectors in the last two rows (g-side first, e-side last).

    The core is factored once and bordered with each working vector
    (_bordered), so the NaN corner never enters.  A matrix that is not
    square, or not finite and Hermitian off its corner, raises
    ParameterError; a core pivot at or below DEFAULT_TOL NotStrictError, a
    residual norm at or below it DegenerateStageError.  The outcome does
    not depend on the core ordering, since an orthogonal projection is
    basis-free.
    """
    G, m = np.asarray(G, dtype=complex), core_size
    if G.ndim != 2 or G.shape != (m + 2, m + 2):
        raise ParameterError("a stage Gram is square, core_size its size minus two")
    H = np.array(G)
    H[m, m + 1] = H[m + 1, m] = 0.0
    scale = max(1.0, float(np.max(np.abs(H))))
    if not float(np.max(np.abs(H - H.conj().T))) <= 1e-10 * scale:  # NaN fails too
        raise ParameterError("a stage Gram must be finite and Hermitian off its corner")
    return _checked(*_bordered(G, m))


def residual_data(space: PartialHilbertSpace) -> ResidualData:
    """The stage numbers of a partial Hilbert space (see
    PartialHilbertSpace.residuals and residual_from_gram)."""
    return _checked(*space.residuals())
