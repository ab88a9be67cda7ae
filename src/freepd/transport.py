"""Transport operators and relative energies between positive definite functions.

For two functions C and D both strict over an index family S, the transport
operator sends the C-realization vector of each index to the D-realization
vector of the same index.  Its squared operator norm is the largest
generalized eigenvalue of the pencil (G_D, G_C) over S; we call that number
the relative energy of the pair.  Energies are at least 1, equal 1 exactly
when the two functions agree on S, grow when S grows, and are
submultiplicative along triples, which is what makes them usable as a
transport cost when gluing functions over graphs.

Full-ball energies use S = B_r x [d] and therefore read entries of length up
to 2r: callers hold functions on Ball(R) and may request any r with 2r <= R.
Stage energies use the two one-vector enlargements X_g and X_e of the stage
core (indexed by the clique K_g, never by a ball: translated index sets have
identical Grams) and report the larger of the two.

The pencil kernel _top_generalized_eig is the package's only
generalized-eigenvalue solver; the energy solver uses it for every
completed-stage pencil.  Its precondition is a strict base Gram (least
eigenvalue above DEFAULT_TOL * n), which its two callers show:
_energy_report by _strict_min_eig, and the energy solver's stage pencils
by a Weyl certificate from their last _strict_min_eig (see energysolver).
The strictness checks read np.linalg.eigvalsh, as check_pd does.  The
pencil calls LAPACK's zhegvd directly, with the arguments
scipy.linalg.eigh(A, B) passes for complex input: the result is identical
bit for bit, and what goes is SciPy's per-call validation, dtype dispatch
and work-size query, which at a solve's pencil sizes (3 to 12 rows) cost
several times the LAPACK work.  zhegvd is read from freepd._linalg, which
imports SciPy at the first call, so importing this module loads no SciPy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _linalg, pdcore
from .errors import DomainError, FreePDError, NotStrictError, ParameterError
from .hilbert import build_partial_space
from .pdcore import DEFAULT_TOL, PDFunction
from .words import ball

__all__ = [
    "EnergyReport",
    "relative_energy",
    "partial_relative_energy",
    "energy_schedule",
    "perturbation_bound_check",
]

RAYLEIGH_TOL = 1e-8


@dataclass(frozen=True)
class EnergyReport:
    """Outcome of one relative-energy computation.

    energy is the squared operator norm of the transport operator; the
    achieving vector (coordinates over ``indices``) attains it as a Rayleigh
    quotient, which is re-verified before the report is returned.
    restriction records which index family was used: "full" for a ball,
    "X_g" or "X_e" for the stage enlargements.
    """

    energy: float
    achieving_vector: np.ndarray
    restriction: str
    indices: tuple


def _require_finite(A) -> None:
    if not np.isfinite(A).all():
        raise ValueError("array must not contain infs or NaNs")


def _eigvalsh(G) -> np.ndarray:
    """Ascending eigenvalues of a Hermitian G from its lower triangle, by
    np.linalg.eigvalsh; a non-finite entry raises ValueError."""
    _require_finite(G)
    return np.linalg.eigvalsh(G)


def _strict_min_eig(G, name: str) -> float:
    """The least eigenvalue of G (_eigvalsh); NotStrictError unless above DEFAULT_TOL * n."""
    lam = float(_eigvalsh(G)[0])
    if lam <= DEFAULT_TOL * G.shape[0]:
        raise NotStrictError(f"{name} is not strictly positive (min eigenvalue {lam:.3e})")
    return lam


def _top_generalized_eig(G_C, G_D):
    """All generalized eigenvalues of G_D x = lambda G_C x plus the top achiever.

    G_C must be strict, its least eigenvalue above DEFAULT_TOL * n.  The
    kernel does not check it: each caller shows it first, _energy_report by
    _strict_min_eig and a stage pencil by its Weyl certificate, and raises
    NotStrictError otherwise.  The pencil (G_D - G_C, G_C) is
    handed to LAPACK's divide-and-conquer symmetric-definite solver zhegvd
    (itype 1, eigenvectors, lower triangle: what scipy.linalg.eigh(A, B)
    calls, called here without its per-call validation) and shifted back by
    one (same eigenvectors, exact at equal Grams, no digits lost to the
    identity part near one).  The achiever is scaled so that x* G_C x = 1,
    its largest coordinate rotated to the positive real axis so repeated
    calls agree, and certified by its Rayleigh quotient.
    """
    A = G_D - G_C
    _require_finite(A)
    vals, vecs, info = _linalg.zhegvd(A, G_C, itype=1, jobz="V", uplo="L")
    if info:
        raise np.linalg.LinAlgError(f"zhegvd failed (info {info})")
    x = vecs[:, -1]
    vals = vals + 1.0
    x = x / math.sqrt((x.conj() @ G_C @ x).real)
    i = int(np.abs(x).argmax())
    x = x * (x[i].conj() / abs(x[i]))
    top = float(vals[-1])
    rayleigh = float((x.conj() @ G_D @ x).real)
    if abs(rayleigh - top) > RAYLEIGH_TOL * max(1.0, abs(top)):
        raise FreePDError(
            f"achieving vector fails its Rayleigh certificate: {rayleigh!r} vs {top!r}"
        )
    return vals, x


def _energy_report(G_C, G_D, restriction: str, pairs) -> EnergyReport:
    """The top pencil energy with a unit achiever; both Grams must be strict."""
    _strict_min_eig(G_D, f"the comparison Gram ({restriction})")
    _strict_min_eig(G_C, "the base Gram matrix")
    vals, x = _top_generalized_eig(G_C, G_D)
    return EnergyReport(float(vals[-1]), x / np.linalg.norm(x), restriction, tuple(pairs))


def _ball_pairs(r: int, d: int) -> list:
    return [(w, j) for w in ball(r) for j in range(1, d + 1)]


def relative_energy(C: PDFunction, D: PDFunction, r: int | None = None) -> EnergyReport:
    """Relative energy of (C, D) over the index set B_r x [d].

    Both functions must live on the same Ball(R) domain with 2r <= R, since
    the Gram matrices read entries of length up to 2r.  When r is omitted
    the largest admissible radius R // 2 is used.  Both restrictions to the
    index set must be strictly positive.
    """
    if C.domain.kind != "ball" or D.domain.kind != "ball":
        raise DomainError("relative_energy expects two ball functions")
    if C.d != D.d or C.domain != D.domain:
        raise DomainError("relative_energy needs matching domains and dimension")
    R = C.domain.r
    r = R // 2 if r is None else int(r)
    if r < 0 or 2 * r > R:
        raise ParameterError(
            f"Gram over B_{r} reads entries on B_{2 * r}, but data stops at B_{R}"
        )
    pairs = _ball_pairs(r, C.d)
    table = pdcore._gram_slots(C, pairs)
    return _energy_report(*(pdcore._gram(F, table=table) for F in (C, D)), "full", pairs)


def partial_relative_energy(C: PDFunction, D: PDFunction) -> EnergyReport:
    """Relative energy of two stage-partial functions on the same stage.

    The transport operator of a stage acts on the two enlargements X_g and
    X_e of the core; the energy is the larger of the two squared norms, and
    the report says which side achieved it (ties go to X_g).
    """
    if C.domain.kind != "partial" or D.domain.kind != "partial":
        raise DomainError("partial_relative_energy expects stage-partial functions")
    if C.d != D.d or C.domain != D.domain:
        raise DomainError("partial_relative_energy needs one common stage")
    sC = build_partial_space(C)
    sD = build_partial_space(D)
    dom = C.domain
    P, Q = pdcore.stage_pairs(dom.g, C.d, dom.j, dom.k)
    sides = (
        _energy_report(sC.x_g_gram, sD.x_g_gram, "X_g", P + Q[-2:-1]),
        _energy_report(sC.x_e_gram, sD.x_e_gram, "X_e", P + Q[-1:]),
    )
    return max(sides, key=lambda rep: rep.energy)


def energy_schedule(C: PDFunction, D: PDFunction, radii) -> list:
    """Relative energies along an increasing list of radii.

    The resulting energies are nondecreasing: each index set contains the
    previous one, so the sup defining the energy can only grow.  All radii
    must satisfy 2r <= R for the common Ball(R) domain.
    """
    if C.domain.kind != "ball" or C.domain != D.domain:
        raise DomainError("energy_schedule expects two functions on one ball")
    return [relative_energy(C, D, r=r) for r in _increasing_radii(radii)]


def _increasing_radii(radii) -> list:
    """Schedule radii as integers: at least one, strictly increasing."""
    radii = [int(r) for r in radii]
    if not radii:
        raise ParameterError("no radii requested")
    if any(b <= a for a, b in zip(radii, radii[1:])):
        raise ParameterError("radii must be strictly increasing")
    return radii


def perturbation_bound_check(L, M, sigma: float) -> bool:
    """Whether the l1 perturbation premise implies the transport-norm bound.

    With eta = sigma / (2 ||L^{-1}||_op^2): if ||L*L - M*M||_1 <= eta then
    both coordinate-change operators M L^{-1} and L M^{-1} must have
    operator norm at most 1 + sigma.  Returns True when the premise fails
    (nothing to check) or when it holds and the bound does too.  Once
    sigma >= 2 the premise admits a singular M, whose backward norm is
    infinite, so the bound fails.
    """
    L = np.asarray(L, dtype=complex)
    M = np.asarray(M, dtype=complex)
    if L.ndim != 2 or L.shape[0] != L.shape[1] or M.shape != L.shape:
        raise ParameterError("perturbation_bound_check needs two square matrices")
    if not sigma > 0:
        raise ParameterError("sigma must be positive")
    smin = np.linalg.svd(L, compute_uv=False)[-1]
    if smin <= 0:
        raise ParameterError("L must be invertible")
    eta = sigma / (2.0 * (1.0 / smin) ** 2)
    gap = float(np.abs(L.conj().T @ L - M.conj().T @ M).sum())
    if gap > eta:
        return True
    try:
        t_forward = np.linalg.norm(M @ np.linalg.inv(L), 2)
        t_backward = np.linalg.norm(L @ np.linalg.inv(M), 2)
    except np.linalg.LinAlgError:
        return False
    return max(t_forward, t_backward) <= 1.0 + sigma
