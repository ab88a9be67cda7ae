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

The d*d stages of a novel level g share their core's first part, the
clique interior K_g minus {e, g}.  A _Level gathers the Gram over the pairs
interior x [d], g x [d], e x [d] once (pdcore's one Gram gather; only its
C(g) block may be NaN), factors the interior block once, and borders that
factor with the 2d g/e vectors: their interior coordinates V and the 2d x 2d
Schur block S = G[ge, ge] - V* V, the Gram of their residuals against the
interior.  A stage (j, k) then factors only the rows (g, m < j) and
(e, m < k) of S and borders them with (g, j) and (e, k); the interior part
V* V of the cross term is added back.  The stage Q-Gram and S are served
from the level with the C(g) block read from the function's own top row, so
their values are those of a direct gather.  A function built by
the walk on the same level inherits the level through hand_off, every other
function builds its own on first use.  Vectors never materialize.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

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
class ResidualData:
    """The three stage numbers: residual norms and the projected cross term."""

    n_g: float
    n_e: float
    cross: complex


class _Level:
    """The data the d*d stages of one novel level g share.

    pairs lists the level's (word, coordinate) pairs, the clique interior
    K_g minus {e, g} times [d] (size of them), then g x [d], then e x [d];
    gram is their read-only Gram, NaN where the building function had not
    written C(g).  projections() computes the rest, once.
    """

    def __init__(self, C: PDFunction):
        self.g, self.d = C.domain.g, C.d
        self.pairs, table = pdcore._clique_pairs(self.g, self.d, level=True)
        self.size = len(self.pairs) - 2 * self.d
        self.gram = pdcore._gram(C, self.pairs, corner=self.d, table=table)
        self.gram.setflags(write=False)
        self._projections = None

    def projections(self) -> np.ndarray:
        """V* V, the 2d x 2d Gram of the g/e vectors' projections onto the
        interior, V their interior coordinates (see _core_coordinates).  An
        interior pivot at or below DEFAULT_TOL raises NotStrictError."""
        if self._projections is None:
            V = _core_coordinates(self.gram, self.size)
            self._projections = V.conj().T @ V
        return self._projections


class PartialHilbertSpace:
    """The stage (g, j, k) of one function, served from its level.

    gram is the stage Gram indexed by indices.Q, with NaN at the working
    pair (positions len(P), len(P)+1), that is <Theta(g)_j, Theta(e)_k>;
    the two one-sided restrictions X_g and X_e are fully defined.  schur is
    the level's Schur block with this function's C(g) values.
    """

    def __init__(self, level: _Level, C: PDFunction):
        self.level, self.j, self.k = level, C.domain.j, C.domain.k
        self.top = C._stack[-1]
        self._residuals = None

    @property
    def core_size(self) -> int:
        return self.level.size + self.j + self.k - 2

    @cached_property
    def indices(self) -> StageIndexSets:
        lv = self.level
        P, work = pdcore._stage_rows(lv.size, lv.d, self.j, self.k)
        P = tuple(lv.pairs[i] for i in P)
        return StageIndexSets(lv.g, lv.d, self.j, self.k, P, P + tuple(lv.pairs[i] for i in work))

    @cached_property
    def gram(self) -> np.ndarray:
        lv, j, k = self.level, self.j, self.k
        n, m = lv.size, self.core_size
        P, work = pdcore._stage_rows(n, lv.d, j, k)
        G = lv.gram[np.ix_(P + work, P + work)]
        rows, cols = [*range(n, n + j - 1), m], [*range(n + j - 1, m), m + 1]
        G[np.ix_(rows, cols)] = self.top[:j, :k]
        G[np.ix_(cols, rows)] = self.top[:j, :k].conj().T
        G.setflags(write=False)
        return G

    @cached_property
    def schur(self) -> np.ndarray:
        n, d = self.level.size, self.level.d
        S = np.array(self.level.gram[n:, n:])
        S[:d, d:], S[d:, :d] = self.top, self.top.conj().T
        S -= self.level.projections()
        S.setflags(write=False)
        return S

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

    def residuals(self) -> tuple:
        """(n_g, n_e, cross): the rows (g, m < j), (e, m < k) of the Schur
        block factored and bordered with (g, j), (e, k), the interior part
        of the cross term added back.  A core pivot at or below DEFAULT_TOL
        raises NotStrictError."""
        if self._residuals is None:
            d, j, k = self.level.d, self.j, self.k
            P = self.level.projections()
            rows = np.array([*range(j - 1), *range(d, d + k - 1), j - 1, d + k - 1])
            n_g, n_e, cross = _border(self.schur[rows[:, None], rows], j + k - 2,
                                      first=self.level.size)
            self._residuals = (n_g, n_e, complex(cross + P[j - 1, d + k - 1]))
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
        C._stage_space = PartialHilbertSpace(_Level(C), C)
    return C._stage_space


def hand_off(C: PDFunction, nxt: PDFunction):
    """Give nxt, the function C's walk step wrote, C's level if it sits on
    the same one; nxt's own space reads its C(g) values from its top row.
    C's space does not change."""
    sp = C._stage_space
    if sp is not None and nxt.domain.g == sp.level.g:
        nxt._stage_space = PartialHilbertSpace(sp.level, nxt)


def _cholesky(M, first: int = 0):
    """Lower Cholesky factor L of a Hermitian matrix (M = L L*) and its pivots.

    The pivots are the diagonal of L; a pivot LAPACK could not take reads 0,
    as does every pivot after it.  NotStrictError is raised when a pivot is
    at or below DEFAULT_TOL, its position counted from first.
    """
    M = np.asarray(M, dtype=complex)
    n = M.shape[0]
    if M.ndim != 2 or M.shape != (n, n):
        raise ParameterError("a Cholesky factor needs a square matrix")
    scale = max(1.0, float(np.max(np.abs(M)))) if n else 1.0
    if n and not float(np.max(np.abs(M - M.conj().T))) <= 1e-10 * scale:
        raise ParameterError("a Cholesky factor needs a finite Hermitian matrix")
    L, info = scipy.linalg.lapack.zpotrf(M, lower=1, clean=1)
    pivots = np.diag(L).real.copy()
    if info > 0:
        pivots[info - 1:] = 0.0
    bad = np.flatnonzero(pivots <= DEFAULT_TOL)
    if bad.size:
        t = int(bad[0])
        raise NotStrictError(
            f"Cholesky pivot collapsed at position {first + t} (pivot {pivots[t]:.3e})"
        )
    return L, pivots


def ortho_matrices(M):
    """Orthogonalization matrices of M in input order, from its Cholesky factor.

    Returns (G, N): G is the unit upper triangular orthogonalization matrix
    (its column k holds the coefficients turning y-coordinates into the k-th
    orthogonal vector's coordinates, conjugated), N = L^-* the
    orthonormalization matrix, so that (N^-1)* (N^-1) equals M and
    G = N diag(L).  A pivot (residual norm) at or below DEFAULT_TOL raises.
    """
    L, pivots = _cholesky(M)
    if not pivots.size:
        return L, L.copy()
    # inverting the unit lower triangular L diag(L)^-1 keeps G's diagonal
    # exactly one
    G = scipy.linalg.lapack.ztrtri(L / pivots, lower=1, unitdiag=1)[0].conj().T
    return G, G / pivots


def _core_coordinates(M: np.ndarray, m: int, first: int = 0) -> np.ndarray:
    """V = L^-1 M[:m, m:], the coordinates of the vectors after a core of m
    rows in the core factor M[:m, :m] = L L*: one zpotrf, then one
    single-vector ztrsv per column (a multi-column triangular solve wakes an
    OpenBLAS worker that then spins).  A core pivot at or below DEFAULT_TOL
    raises NotStrictError, its position counted from first."""
    V = np.zeros((m, M.shape[1] - m), dtype=complex)
    if m:
        L, _ = _cholesky(M[:m, :m], first=first)
        for c in range(V.shape[1]):
            V[:, c] = scipy.linalg.blas.ztrsv(L, M[:m, m + c], lower=1)
    return V


def _border(M: np.ndarray, m: int, first: int = 0) -> tuple:
    """(n_g, n_e, cross) of the last two rows of M over its leading m rows,
    from their core coordinates; a residual square at or below 0 reads 0."""
    V = _core_coordinates(M, m, first)
    n_g, n_e = (math.sqrt(max(M[c, c].real - np.vdot(v, v).real, 0.0))
                for v, c in zip(V.T, (m, m + 1)))
    return n_g, n_e, complex(np.vdot(V[:, 0], V[:, 1]))


def _checked(n_g: float, n_e: float, cross: complex) -> ResidualData:
    if not (n_g > DEFAULT_TOL and n_e > DEFAULT_TOL):  # NaN fails too
        raise DegenerateStageError(
            f"residual norm collapsed (n_g={n_g:.3e}, n_e={n_e:.3e})"
        )
    return ResidualData(n_g=n_g, n_e=n_e, cross=cross)


def residual_from_gram(G: np.ndarray, core_size: int) -> ResidualData:
    """Residual data of a stage Gram: core at the front, the two working
    vectors in the last two rows (g-side first, e-side last).

    The core is factored once and bordered with each working vector, so the
    NaN corner never enters.  A core pivot at or below DEFAULT_TOL raises
    NotStrictError, a residual norm at or below it DegenerateStageError.  The
    outcome does not depend on the core ordering, since an orthogonal
    projection is basis-free.
    """
    G = np.asarray(G, dtype=complex)
    if G.ndim != 2 or core_size != G.shape[0] - 2:
        raise ParameterError("core_size must be the matrix size minus two")
    return _checked(*_border(G, core_size))


def residual_data(space: PartialHilbertSpace) -> ResidualData:
    """The stage numbers of a partial Hilbert space, from its level's factor
    (see PartialHilbertSpace.residuals and residual_from_gram)."""
    return _checked(*space.residuals())
