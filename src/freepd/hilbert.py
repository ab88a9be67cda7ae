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
y_{i-1}.  Factoring the core plus one working vector therefore yields that
vector's residual norm as the last pivot and its projection's coordinates as
the last row; one such factor per working vector gives all three stage
numbers.  This is one Schur-complement step, the one-step Szego-parameter
extension of Bakonyi and Timotin.  Vectors never materialize: the stage
Gram is pdcore's one Gram gather, its corner the undefined stage slot (NaN).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from . import pdcore
from .errors import (
    DegenerateStageError,
    DomainError,
    NotStrictError,
    ParameterError,
)
from .pdcore import DEFAULT_TOL, PDFunction
from .words import Word

DEGENERACY_TOL = 1e-12


@dataclass(frozen=True)
class StageIndexSets:
    """The pinned indices P and the working set Q of a stage (g, j, k)."""

    g: Word
    d: int
    j: int
    k: int
    P: tuple
    Q: tuple

    @staticmethod
    def at(g, d: int, j: int, k: int) -> "StageIndexSets":
        P, Q = pdcore.stage_pairs(g, d, j, k)
        return StageIndexSets(pdcore._as_word(g), d, j, k, P, Q)


@dataclass(frozen=True)
class PartialHilbertSpace:
    """Gram data over Q with exactly one undefined entry pair.

    The matrix is indexed by indices.Q; the pair at positions (len(P),
    len(P)+1), that is <Theta(g)_j, Theta(e)_k>, holds NaN.  The two
    one-sided restrictions X_g and X_e are fully defined.
    """

    indices: StageIndexSets
    gram: np.ndarray

    @property
    def core_size(self) -> int:
        return len(self.indices.P)

    @property
    def core_gram(self) -> np.ndarray:
        m = self.core_size
        return self.gram[:m, :m]

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


@dataclass(frozen=True)
class ResidualData:
    """The three stage numbers: residual norms and the projected cross term."""

    n_g: float
    n_e: float
    cross: complex


def build_partial_space(C: PDFunction) -> PartialHilbertSpace:
    """Assemble the Q-Gram of a partial-domain function.

    Every entry except the working corner comes from C; a genuinely missing
    value (the domain does not cover a needed quotient) raises the usual
    missing-entry error.  A function never changes, so its space is built
    once and kept in its _stage_space slot.
    """
    if C.domain.kind != "partial":
        raise DomainError("build_partial_space needs a partial-domain function")
    if C._stage_space is None:
        dom = C.domain
        idx = StageIndexSets.at(dom.g, C.d, dom.j, dom.k)
        G = pdcore._gram(C, idx.Q, corner=True)
        G.setflags(write=False)
        C._stage_space = PartialHilbertSpace(indices=idx, gram=G)
    return C._stage_space


def _cholesky(M, tol: float, leading: int | None = None):
    """Lower Cholesky factor L of a Hermitian matrix (M = L L*) and its pivots.

    The pivots are the diagonal of L; a pivot LAPACK could not take reads 0,
    as does every pivot after it.  NotStrictError is raised when one of the
    first `leading` pivots (all of them by default) is at or below tol.
    """
    M = np.asarray(M, dtype=complex)
    n = M.shape[0]
    if M.ndim != 2 or M.shape != (n, n):
        raise ParameterError("a Cholesky factor needs a square matrix")
    scale = max(1.0, float(np.max(np.abs(M)))) if n else 1.0
    if n and float(np.max(np.abs(M - M.conj().T))) > 1e-10 * scale:
        raise ParameterError("a Cholesky factor needs a Hermitian matrix")
    L, info = scipy.linalg.lapack.zpotrf(M, lower=1, clean=1)
    pivots = np.diag(L).real.copy()
    if info > 0:
        pivots[info - 1:] = 0.0
    bad = np.flatnonzero(pivots[:leading] <= tol)
    if bad.size:
        t = int(bad[0])
        raise NotStrictError(
            f"Cholesky pivot collapsed at position {t} (pivot {pivots[t]:.3e})"
        )
    return L, pivots


def ortho_matrices(M, tol: float = DEFAULT_TOL):
    """Orthogonalization matrices of M in input order, from its Cholesky factor.

    Returns (G, N): G is the unit upper triangular orthogonalization matrix
    (its column k holds the coefficients turning y-coordinates into the k-th
    orthogonal vector's coordinates, conjugated), N = L^-* the
    orthonormalization matrix, so that (N^-1)* (N^-1) equals M and
    G = N diag(L).  A pivot (residual norm) at or below tol raises.
    """
    L, pivots = _cholesky(M, tol)
    if not pivots.size:
        return L, L.copy()
    # inverting the unit lower triangular L diag(L)^-1 keeps G's diagonal
    # exactly one
    G = scipy.linalg.lapack.ztrtri(L / pivots, lower=1, unitdiag=1)[0].conj().T
    return G, G / pivots


def residual_from_gram(G: np.ndarray, core_size: int,
                       tol: float = DEGENERACY_TOL) -> ResidualData:
    """Residual data of a stage Gram: core at the front, the two working
    vectors in the last two rows (g-side first, e-side last).

    The core plus one working vector is factored per side, so the NaN
    corner never enters: the last pivot is the residual norm and the last
    row the projection's coordinates.  A core pivot at or below DEFAULT_TOL
    raises NotStrictError, a residual at or below tol DegenerateStageError.
    The outcome does not depend on the core ordering, since an orthogonal
    projection is basis-free.
    """
    n = G.shape[0]
    if core_size != n - 2:
        raise ParameterError("core_size must be the matrix size minus two")
    m = core_size
    rows, norms = [], []
    for last in (m, m + 1):
        keep = list(range(m)) + [last]
        L, pivots = _cholesky(G[np.ix_(keep, keep)], DEFAULT_TOL, leading=m)
        rows.append(L[m, :m])
        norms.append(float(pivots[m]))
    n_g, n_e = norms
    if n_g <= tol or n_e <= tol:
        raise DegenerateStageError(
            f"residual norm collapsed (n_g={n_g:.3e}, n_e={n_e:.3e})"
        )
    cross = complex(rows[0] @ np.conj(rows[1]))
    return ResidualData(n_g=n_g, n_e=n_e, cross=cross)


def residual_data(space: PartialHilbertSpace,
                  tol: float = DEGENERACY_TOL) -> ResidualData:
    """The stage numbers of a partial Hilbert space (see residual_from_gram)."""
    return residual_from_gram(space.gram, space.core_size, tol=tol)
