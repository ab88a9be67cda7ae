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
stage at a time: a stage (j, k) borders the factor of its core, the rows
(g, m < j) and (e, m < k) of S, with (g, j) and (e, k) and adds back the
interior part V* V of the cross term; the C(g) entries it reads come from
the function's own top row.  A function the walk writes on the same level
inherits, through hand_off, the level and its predecessor's core factor,
grown by one row: (e, k - 1) within a row, its row the predecessor's e
coordinates and pivot n_e (the g coordinates gain one entry from the value
just written), or (g, j - 1) at a row start, onto the leading g rows.  So a
stage takes one or two triangular solves.  Other functions build their
level on first use and replay that step from the empty core at (1, 1)
through every stage of the level up to their own, reading the values
written at those stages from their own top row, so a walk's function and a
copy of it agree bit for bit.  Vectors never materialize.

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
    restrictions X_g and X_e are fully defined.  grown is the stage state
    hand_off passes on, if any, from which the core factor grows.
    """

    def __init__(self, level: _Level, C: PDFunction, grown=None):
        self.level, self.j, self.k = level, C.domain.j, C.domain.k
        self.top, self._grown = C._stack[-1], grown
        self._state = self._residuals = None

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
        """(n_g, n_e, cross): the stage state, advanced once from a
        handed-on one or replayed from (1, 1), and the interior part of the
        cross term added back.  A core pivot at or below DEFAULT_TOL, of
        this stage or of one the replay passes, raises NotStrictError."""
        if self._residuals is None:
            d, g, e = self.level.d, self.j - 1, self.level.d + self.k - 1
            state, last = self._grown, g * d + self.k - 1  # stages row-major
            for t in range(last if state is not None else 0, last + 1):
                state = self._advance(state, t // d + 1, t % d + 1)
            self._state, self._grown = state, None
            v_g, v_e, n_e = state[1:]
            P, S = self.level.projections()
            self._residuals = (_norm(S[g, g], v_g), n_e, complex(np.vdot(v_g, v_e) + P[g, e]))
        return self._residuals

    def _advance(self, state, j: int, k: int) -> tuple:
        """The stage state (L, v_g, v_e, n_e) of stage (j, k) from the state
        of the stage before it on the level, or at (1, 1) from the empty
        core: the core factor, the core coordinates of (g, j) and (e, k)
        and the residual norm of (e, k).  The C(g) values it reads, all
        written before (j, k), come from this space's top row."""
        d, n, top = self.level.d, self.level.size, self.top
        g, e = j - 1, d + k - 1
        P, S = self.level.projections()
        if state is None:
            L, v_g = np.zeros((0, 0), dtype=complex), np.zeros(0, dtype=complex)
        else:
            L, v_g, v_e, n_e = state
            if k > 1:  # the core gains (e, k - 1), next to the value written there
                L = _grow(L, v_e, n_e, n)
                # ztrsv's last step, which scales by the pivot's reciprocal
                x = (top[g, k - 2].conj() - P[e - 1, g] - np.vdot(v_e, v_g)) * (1.0 / n_e)
                v_g = np.concatenate((v_g, [x]))
            else:  # a row starts: the core is the predecessor's g rows plus (g, j - 1)
                v = v_g[:g - 1]
                L = _grow(L[:g - 1, :g - 1], v, _norm(S[g - 1, g - 1], v), n)
                v_g = _solve(L, S[:g, g])
        v_e = _solve(L, np.concatenate([top[:g, k - 1] - P[:g, e], S[d:e, e]]))
        return L, v_g, v_e, _norm(S[e, e], v_e)


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
    """Give nxt, the function C's walk step wrote, C's level and stage state
    (core factor, core coordinates of the working pair, n_e) if it sits on
    the same level; nxt's space reads its C(g) values from its top row and
    keeps no reference to C or to C's space, which does not change."""
    sp = C._stage_space
    if sp is not None and nxt.domain.g == sp.level.g:
        nxt._stage_space = PartialHilbertSpace(sp.level, nxt, sp._state)


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


def _cholesky(M):
    """_factor(M), raising NotStrictError when a pivot is at or below
    DEFAULT_TOL or NaN."""
    L, pivots = _factor(M)
    bad = np.flatnonzero(~(pivots > DEFAULT_TOL))  # NaN fails too
    if bad.size:
        t = int(bad[0])
        raise _collapsed(t, pivots[t])
    return L, pivots


def _collapsed(position: int, pivot: float) -> NotStrictError:
    return NotStrictError(f"Cholesky pivot collapsed at position {position} (pivot {pivot:.3e})")


def _grow(L: np.ndarray, v: np.ndarray, pivot: float, first: int) -> np.ndarray:
    """L bordered with a vector of core coordinates v, pivot checked as in _cholesky."""
    m = len(v)
    if not pivot > DEFAULT_TOL:  # NaN fails too
        raise _collapsed(first + m, pivot)
    out = np.zeros((m + 1, m + 1), dtype=complex, order="F")
    out[:m, :m], out[m, :m], out[m, m] = L, v.conj(), pivot
    return out


def _solve(L: np.ndarray, b: np.ndarray) -> np.ndarray:
    """L^-1 b, one single-vector ztrsv (a multi-column one wakes a spinning OpenBLAS worker)."""
    return _linalg.ztrsv(L, b, lower=1) if len(b) else np.zeros(0, dtype=complex)


def _norm(square: complex, v: np.ndarray) -> float:
    """A residual norm from the square norm and core coordinates v, or 0."""
    return math.sqrt(max(square.real - np.vdot(v, v).real, 0.0))


def _core_coordinates(M: np.ndarray, m: int) -> tuple:
    """(L, V): the core factor M[:m, :m] = L L* of the first m rows, one
    zpotrf, and V = L^-1 M[:m, m:], the core coordinates of the vectors
    after it, one _solve per column.  A core pivot at or below DEFAULT_TOL
    raises NotStrictError."""
    L = _cholesky(M[:m, :m])[0] if m else np.zeros((0, 0), dtype=complex)
    return L, np.column_stack([_solve(L, M[:m, c]) for c in range(m, M.shape[1])])


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
    v_g, v_e = _core_coordinates(G, m)[1].T
    return _checked(_norm(G[m, m], v_g), _norm(G[m + 1, m + 1], v_e), complex(np.vdot(v_g, v_e)))


def residual_data(space: PartialHilbertSpace) -> ResidualData:
    """The stage numbers of a partial Hilbert space, from its level's factor
    (see PartialHilbertSpace.residuals and residual_from_gram)."""
    return _checked(*space.residuals())
