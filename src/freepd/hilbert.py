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
clique interior K_g minus {e, g}.  A _Level takes the Gram over the pairs
interior x [d], g x [d], e x [d] that build_partial_space gathers once
(only its C(g) block may be NaN), factors the interior block once, and
borders that factor with the 2d g/e vectors: their interior coordinates V
and the 2d x 2d Schur block S = G[ge, ge] - V* V, the Gram of their
residuals against the interior.  (The central, zeta = 0, extension needs
no level: extend.central_extension runs its order-r recurrence over
windows of the data ball.)  The walk, which takes any parameter, goes a
stage at a time, and a stage (j, k) needs nothing but its level and the
C(g) values of its function's own top row: it takes S over its core, the
rows (g, m < j) and (e, m < k), and its working pair (g, j), (e, k), puts
the written C(g) values less their interior part V* V in the g x e block,
factors the core once, borders it with the working pair (_bordered, as
residual_from_gram does) and adds back the interior part of the cross
term.  A function the walk writes on the same level inherits the level
through hand_off, so each level is gathered and its interior factored
once; any other function builds its level on first use, and a walk's
function and a copy of it agree bit for bit.  Vectors never materialize.

The factors and solves are direct LAPACK and BLAS calls, zpotrf and one
single-vector ztrsv per solve, read from freepd._linalg, which imports SciPy
at the first call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

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


class _Level:
    """The data the d*d stages of one novel level g share.

    gram, which build_partial_space gathers, is the read-only Gram of
    the level's (word, coordinate) pairs, the clique interior K_g minus
    {e, g} times [d] (size of them), then g x [d], then e x [d], NaN where
    C(g) is not written yet.  projections() computes the rest, once.
    """

    def __init__(self, g, d: int, gram: np.ndarray):
        self.g, self.d, self.size, self.gram = g, d, len(gram) - 2 * d, gram
        gram.setflags(write=False)
        self._projections = None

    def projections(self) -> tuple:
        """(P, S): P = V* V, the 2d x 2d Gram of the g/e vectors' projections
        onto the interior, V their interior coordinates (see
        _core_coordinates), and the Schur block S = G[ge, ge] - P, whose
        g x e blocks a stage reads from its own top row instead.  An
        interior pivot at or below DEFAULT_TOL raises NotStrictError."""
        if self._projections is None:
            V = _core_coordinates(self.gram, self.size)[1]
            P = V.conj().T @ V
            self._projections = P, self.gram[self.size:, self.size:] - P
        return self._projections


class PartialHilbertSpace:
    """The stage (g, j, k) of one function, served from its level.

    gram is the stage Gram indexed by the stage's pairs Q
    (pdcore.stage_pairs), with NaN at the working pair (positions len(P),
    len(P)+1), that is <Theta(g)_j, Theta(e)_k>; the two one-sided
    restrictions X_g and X_e are fully defined.
    """

    def __init__(self, level: _Level, C: PDFunction):
        self.level, self.j, self.k = level, C.domain.j, C.domain.k
        self.top, self._residuals = C._stack[-1], None

    @property
    def core_size(self) -> int:
        return self.level.size + self.j + self.k - 2

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
        """(n_g, n_e, cross) from the level's Schur block S, its g x e block
        this space's C(g) values less their interior part, taken over the
        stage's core and working pairs: one factor of that core bordered
        with the working pair, and the interior part of the cross term
        added back.  A core pivot at or below DEFAULT_TOL raises
        NotStrictError at its position after the interior's."""
        if self._residuals is None:
            lv, j, k = self.level, self.j, self.k
            d, (P, S) = lv.d, lv.projections()
            T = np.array(S)
            T[:j, d:d + k] = block = self.top[:j, :k] - P[:j, d:d + k]
            T[d:d + k, :j] = block.conj().T
            core, work = pdcore._stage_rows(0, d, j, k)
            at = np.array(core + work)
            n_g, n_e, cross = _bordered(T.take(at, 0).take(at, 1), len(core), lv.size)
            self._residuals = n_g, n_e, complex(cross + P[work[0], work[1]])
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
        g, d = C.domain.g, C.d
        gram = pdcore._gram(C, table=pdcore._clique_pairs(g, d, level=True)[0], corner=d)
        C._stage_space = PartialHilbertSpace(_Level(g, d, gram), C)
    return C._stage_space


def hand_off(C: PDFunction, nxt: PDFunction):
    """Give nxt, the function C's walk step wrote, C's level if it sits on
    the same level; nxt's space reads its C(g) values from its top row and
    keeps no reference to C or to C's space, which does not change."""
    sp = C._stage_space
    if sp is not None and nxt.domain.g == sp.level.g:
        nxt._stage_space = PartialHilbertSpace(sp.level, nxt)


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


def _norm(square: complex, v: np.ndarray) -> float:
    """A residual norm from the square norm and core coordinates v, or 0."""
    return math.sqrt(max(square.real - np.vdot(v, v).real, 0.0))


def _core_factor(M: np.ndarray, m: int, first: int = 0) -> np.ndarray:
    """The factor M[:m, :m] = L L* of the core, the first m rows, by
    _factor; a pivot at or below DEFAULT_TOL (NaN too) raises
    NotStrictError at its position plus first."""
    if not m:
        return np.zeros((0, 0), dtype=complex)
    L, pivots = _factor(M[:m, :m])
    if not pivots.min() > DEFAULT_TOL:  # NaN fails too
        t = int(np.argmin(pivots > DEFAULT_TOL))
        raise NotStrictError(
            f"Cholesky pivot collapsed at position {first + t} (pivot {pivots[t]:.3e})")
    return L


def _core_coordinates(M: np.ndarray, m: int) -> tuple:
    """(L, V): the core factor L (_core_factor) and V = L^-1 M[:m, m:],
    the core coordinates of the vectors after it, one _solve per column."""
    L = _core_factor(M, m)
    return L, np.column_stack([_solve(L, M[:m, c]) for c in range(m, M.shape[1])])


def _bordered(M: np.ndarray, m: int, first: int = 0) -> tuple:
    """(n_g, n_e, cross) of the last two rows of M, the working pair,
    against its first m, the core: one core factor (_core_factor, a pivot
    raising at first plus its position) bordered with each working vector,
    so the corner M[m, m + 1] never enters."""
    L = _core_factor(M, m, first)
    v_g, v_e = _solve(L, M[:m, m]), _solve(L, M[:m, m + 1])
    return _norm(M[m, m], v_g), _norm(M[m + 1, m + 1], v_e), complex(np.vdot(v_g, v_e))


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
    NaN corner never enters.  A matrix that is not square, or not finite and
    Hermitian off its corner, raises ParameterError; a core pivot at or
    below DEFAULT_TOL NotStrictError, a residual norm at or below it
    DegenerateStageError.  The outcome does not depend on the core
    ordering, since an orthogonal projection is basis-free.
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
    """The stage numbers of a partial Hilbert space, from its level's factor
    (see PartialHilbertSpace.residuals and residual_from_gram)."""
    return _checked(*space.residuals())
