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

Gram-Schmidt is done in Gram arithmetic: vectors never materialize, only
coefficient rows over the input basis, with inner products evaluated through
the Gram matrix.  The orthogonalization matrix G maps old coordinates to
orthogonal ones (unit upper triangular in the processing order), and the
orthonormalization matrix N additionally scales by the residual norms, so
that (N^-1)* (N^-1) reproduces the input matrix.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import pdcore
from .errors import (
    DegenerateStageError,
    DomainError,
    NotStrictError,
    ParameterError,
)
from .pdcore import DEFAULT_TOL, PDFunction
from .words import Word, inverse, mul

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
    missing-entry error.
    """
    if C.domain.kind != "partial":
        raise DomainError("build_partial_space needs a partial-domain function")
    dom = C.domain
    idx = StageIndexSets.at(dom.g, C.d, dom.j, dom.k)
    pairs = idx.Q
    n = len(pairs)
    invs = [inverse(w) for w, _ in pairs]
    G = np.empty((n, n), dtype=complex)
    for i1, (w1, c1) in enumerate(pairs):
        for i2, (_, c2) in enumerate(pairs):
            if (i1, i2) in ((n - 2, n - 1), (n - 1, n - 2)):
                G[i1, i2] = complex("nan")
            else:
                G[i1, i2] = C._scalar_fast(mul(invs[i2], w1), c1, c2)
    G.setflags(write=False)
    return PartialHilbertSpace(indices=idx, gram=G)


def _ip(M: np.ndarray, u: np.ndarray, v: np.ndarray) -> complex:
    # <sum u_i y_i, sum v_j y_j> with M[i, j] = <y_i, y_j>
    return u @ M @ np.conj(v)


def ortho_matrices(M, tol: float = DEFAULT_TOL):
    """Gram-Schmidt in input order, in Gram arithmetic.

    Returns (G, N): G is the unit upper triangular orthogonalization matrix
    (its column k holds the coefficients turning y-coordinates into the k-th
    orthogonal vector's coordinates, conjugated), N the orthonormalization
    matrix, scaled so that (N^-1)* (N^-1) equals M.  Modified Gram-Schmidt
    with one re-orthogonalization pass keeps the columns orthogonal even for
    small margins.  An intermediate squared norm at or below tol^2 raises.
    """
    M = np.asarray(M, dtype=complex)
    n = M.shape[0]
    if M.ndim != 2 or M.shape != (n, n):
        raise ParameterError("ortho_matrices needs a square matrix")
    scale = max(1.0, float(np.max(np.abs(M)))) if n else 1.0
    if n and float(np.max(np.abs(M - M.conj().T))) > 1e-10 * scale:
        raise ParameterError("ortho_matrices needs a Hermitian matrix")
    B = np.zeros((n, n), dtype=complex)
    norms = np.zeros(n)
    for t in range(n):
        b = np.zeros(n, dtype=complex)
        b[t] = 1.0
        for _ in range(2):
            for i in range(t):
                b = b - (_ip(M, b, B[i]) / (norms[i] ** 2)) * B[i]
        nsq = _ip(M, b, b).real
        if nsq <= tol * tol:
            raise NotStrictError(
                f"Gram-Schmidt norm collapsed at position {t} (squared norm {nsq:.3e})"
            )
        B[t] = b
        norms[t] = np.sqrt(nsq)
    G = B.conj().T
    N = G / norms
    return G, N


def residual_from_gram(G: np.ndarray, core_size: int,
                       tol: float = DEGENERACY_TOL) -> ResidualData:
    """Residual data of a stage Gram: core at the front, the two working
    vectors in the last two rows (g-side first, e-side last).

    Only defined entries are touched: the projections need core rows alone,
    so the NaN corner never enters.  The outcome does not depend on the core
    ordering, since an orthogonal projection is basis-free.
    """
    n = G.shape[0]
    if core_size != n - 2:
        raise ParameterError("core_size must be the matrix size minus two")
    m = core_size
    if m:
        _, N = ortho_matrices(np.array(G[:m, :m]))
        U = N.conj().T  # row i: coefficients of the i-th orthonormal vector
        coeff_g = G[n - 2, :m] @ U.conj().T
        coeff_e = G[n - 1, :m] @ U.conj().T
    else:
        coeff_g = np.zeros(0, dtype=complex)
        coeff_e = np.zeros(0, dtype=complex)
    p_g = float(np.sum(np.abs(coeff_g) ** 2))
    p_e = float(np.sum(np.abs(coeff_e) ** 2))
    n_g = np.sqrt(max(G[n - 2, n - 2].real - p_g, 0.0))
    n_e = np.sqrt(max(G[n - 1, n - 1].real - p_e, 0.0))
    if n_g <= tol or n_e <= tol:
        raise DegenerateStageError(
            f"residual norm collapsed (n_g={n_g:.3e}, n_e={n_e:.3e})"
        )
    cross = complex(coeff_g @ np.conj(coeff_e))
    return ResidualData(n_g=float(n_g), n_e=float(n_e), cross=cross)


def residual_data(space: PartialHilbertSpace,
                  tol: float = DEGENERACY_TOL) -> ResidualData:
    """The stage numbers of a partial Hilbert space (see residual_from_gram)."""
    return residual_from_gram(space.gram, space.core_size, tol=tol)
