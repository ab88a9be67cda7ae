"""Energy-controlled extension of families of positive definite functions.

A configuration is a family of strict functions sitting on the vertices of a
small directed graph, either a tree with edges pointing toward a root or a
single directed cycle.  The solver extends every member from its data ball to
a larger ball, one Szego parameter at a time, while keeping each edge's
relative energy close to where it started.  Three ingredients make that work:

* make_singular nudges the family (four strategic entries plus a slight
  mixing toward the point mass) so that the kernels of the per-function
  coordinate maps meet trivially.  This yields a coercivity certificate
  kappa^2 theta^2 / (2 - 2 |zeta|^2), which grows without bound as a
  parameter approaches the rim and therefore pins minimizers inside the disk.
* energy_gradient gives exact directional derivatives of the completed-stage
  energy in either of its two parameters, from the coefficients alpha, alpha'
  of the norm-achieving vector against the residual directions S, S' (and
  beta, beta' after transport).  Only the products alpha conj(alpha') and
  beta conj(beta') enter, so the phase ambiguity of the achiever is harmless.
* solve_edge and solve_cycle_params run projected gradient descent with
  Armijo backtracking on one parameter (tree edge, the target parameter being
  already fixed) or jointly on all cycle parameters.  The edge descent meets
  every iterate it cannot use with one rule: return the best point (or, after
  an exhausted Armijo search, the current one) if it meets the target, else
  spend one of 8 bumps.

The driver solve_configuration drives the extend module's one stage walk for
every vertex at once, reading each stage off the current stage domain, so it
visits the stages extend_ball visits.  Per stage it budgets a sigma, converts
it into an l1 perturbation allowance through the transport perturbation
bound, and records everything it consumed in a SolverReport.  Within a stage
the tree edges are independent once the parent parameters are known; the
implementation processes them sequentially from the root outward, which is
the same dependency order.

Conventions: stage functions are partial-domain PDFunctions; a configuration
of radius r carries data on Ball(2r) so that its edge energies over the index
set B_r x [d] are computable, matching the transport module's convention.
A stage pair (C^zeta, D^mu) is one _StagePencil(C, D): it checks the pair,
keeps both sides' residual data and alone solves the completed-stage pencil,
by transport._top_generalized_eig, the package's one generalized-eigenvalue
kernel; everything else reads its energy, value or coupling.  It keeps the
pair's last solved point, so each pencil is solved once: descent asks again
for the point it has just accepted, its Armijo step, Newton candidate or
Levenberg-Marquardt trial, and the stage asks again for its solved
parameters.  The re-use is exact: the completed corners are all that
differs between requests, a point is re-used only when both are bit for
bit the kept ones, and the kernel is deterministic.

The kernel needs a strict base Gram, and a stage pencil certifies most
corners without an eigenvalue call.  Its source Gram varies only in the
corner pair, so by Weyl's inequality moving the corner by Delta moves its
least eigenvalue by at most |Delta|: a corner close enough to the last one
checked by _strict_min_eig that this bound, less a slack for the rounding
of both eigenvalue calls, stays above DEFAULT_TOL * n is strict too.
A certified corner is one the check would have passed, so verdicts, results
and iteration counts are those of checking every corner; a descent checks
about once per pencil.
"""

from __future__ import annotations

import math
import struct
from collections import Counter
from dataclasses import dataclass

import numpy as np

from . import _linalg, pdcore
from .errors import (
    BudgetError,
    DegenerateAchieverError,
    DomainError,
    FormatError,
    FreePDError,
    NotStrictError,
    ParameterError,
    SingularizationError,
    SolveError,
)
from .extend import DELTA_MIN, SzegoParameter, _as_zeta, _open_walk, _stage_error, extend_entry
from .hilbert import _core_coordinates, build_partial_space, residual_data
from .pdcore import (
    DEFAULT_TOL,
    Domain,
    PDFunction,
    check_pd,
    l1_distance,
    mix_with_delta,
    restrict_to_ball,
)
from .transport import (
    _eigvalsh,
    _strict_min_eig,
    _top_generalized_eig,
    partial_relative_energy,
    relative_energy,
)
from .words import inverse, mul, word_to_str

__all__ = [
    "Configuration",
    "SingularityCertificate",
    "ExtensionComponents",
    "SolverReport",
    "stage_energy",
    "extension_components",
    "energy_gradient",
    "coordinate_rows",
    "make_singular",
    "solve_edge",
    "solve_cycle_params",
    "solve_configuration",
    "encost_report",
    "configuration_from_dict",
]

# Relative separation demanded of the top two pencil eigenvalues before the
# achiever (and hence the gradient) is trusted.
GAP_TOL = 1e-8

# Acceptance ratio sigma_min / sigma_max for the 2x2 projection matrix W'.
DET_TOL = 1e-6

# Acceptance ratio lambda_min / lambda_max for the pairwise kernel-separation
# matrices A_l* A_l + A_m* A_m.
PAIR_TOL = 1e-8

# Number of candidate mixing weights per function.
S_GRID = 32

# Random four-entry perturbations make_singular draws per family member.
MAX_TRIES = 400

# The four-entry perturbation needs |g| at this length or longer, so that the
# touched words g1^-1 g, g2^-1 g, g1^-1, g2^-1 are pairwise distinct interior
# levels.
MIN_SINGULAR_LENGTH = 5

ARMIJO_STEP = 0.1
ARMIJO_SHRINK = 0.5
ARMIJO_SLOPE = 1e-4
MAX_ITER = 10_000

# A solved edge's stage energy may exceed the pair's partial energy by this much.
TOL_EDGE = 1e-6

# Parameters are projected onto this closed disk, strictly inside the rim.
RIM = 1.0 - DELTA_MIN

# A stage pencil's Weyl certificate keeps WEYL_SLACK * n^2 * eps * tr(G_C)
# above the strictness floor for rounding (see _StagePencil).
WEYL_SLACK = 64


# ---------------------------------------------------------------------------
# Completed-stage pencils and their achievers
# ---------------------------------------------------------------------------


def _stage_of(C: PDFunction):
    if C.domain.kind != "partial":
        raise DomainError("stage operations need partial-domain functions")
    return (C.domain.g, C.domain.j, C.domain.k)


class _StagePencil:
    """The completed-stage pencil of the stage pair (C, D), solved once per point.

    Both functions sit at one stage (g, j, k) with one d; rd_C and rd_D are
    their residual data.  solve(zeta_c, zeta_d) sets each side's working
    corner to zeta * (n_g * n_e) + cross and returns the kernel's (vals, x),
    which the caller must not modify.  The last successful solve is kept and
    handed back while both corners are bit for bit the kept ones; a failed
    solve keeps nothing, so asking again solves, and fails, again.  energy,
    value and coupling read solve.

    Before the kernel runs, the source Gram G_C(c) is shown strict as the
    kernel requires.  The pencil keeps a reference (c_ref, lam_ref) from its
    last successful _strict_min_eig; a corner c with
    lam_ref - |c - c_ref| - slack > DEFAULT_TOL * n is certified by Weyl's
    inequality (moving the corner pair by Delta moves every eigenvalue by at
    most |Delta|), any other is checked by _strict_min_eig, which raises as
    before or becomes the new reference.  slack = WEYL_SLACK * n^2 * eps *
    tr(G_C) covers the rounding of NumPy's eigvalsh in the reference and in
    the call the certificate stands in for: each eigenvalue it computes
    (backward-stable tridiagonal reduction, then dsterf) is within a small
    multiple of n^2 * eps * ||G||_2 of the exact one, ||G||_2 <= tr G for a
    positive definite G (the reference is one, and so is any certified G_C),
    and the trace does not depend on the corner.  Every certified corner is
    thus one the check would have passed; NaN and infinite corners fail the
    comparison and reach the check, which raises ValueError.
    """

    def __init__(self, C: PDFunction, D: PDFunction):
        if C.d != D.d:
            raise DomainError("the two functions have different dimensions")
        if _stage_of(C) != _stage_of(D):
            raise DomainError("the two functions sit at different stages")
        spC, spD = build_partial_space(C), build_partial_space(D)
        self.rd_C, self.rd_D = rdC, rdD = residual_data(spC), residual_data(spD)
        self.core_size = spC.core_size
        self.scale_C = rdC.n_g * rdC.n_e
        self.scale_D = rdD.n_g * rdD.n_e
        self._gram_C, self._cross_C = spC.gram, rdC.cross
        self._gram_D, self._cross_D = spD.gram, rdD.cross
        self._key = self._solved = None
        n = len(spC.gram)
        self._slack = WEYL_SLACK * n * n * np.finfo(float).eps * float(np.trace(spC.gram).real)
        self._ref = (0j, -math.inf)

    def _filled(self, gram, value) -> np.ndarray:
        G = np.array(gram)
        m = self.core_size
        G[m, m + 1] = value
        G[m + 1, m] = np.conj(value)
        return G

    def solve(self, zeta_c, zeta_d):
        c = zeta_c * self.scale_C + self._cross_C
        d = zeta_d * self.scale_D + self._cross_D
        key = struct.pack("4d", c.real, c.imag, d.real, d.imag)
        if key != self._key:
            G_C = self._filled(self._gram_C, c)
            c_ref, lam_ref = self._ref
            # Weyl: no eigenvalue moved further than the corner (NaN fails too)
            if not lam_ref - abs(c - c_ref) - self._slack > DEFAULT_TOL * len(G_C):
                self._ref = (c, _strict_min_eig(G_C, "the base Gram matrix"))
            self._solved = _top_generalized_eig(G_C, self._filled(self._gram_D, d))
            self._key = key
        return self._solved

    def energy(self, zeta, mu) -> float:
        """stage_energy of this pair at the Szego parameters zeta, mu."""
        vals, _ = self.solve(_as_zeta(zeta).value, _as_zeta(mu).value)
        return float(vals[-1])

    def value(self, zeta_c, zeta_d) -> float:
        """The top energy at two corner parameters, or np.inf where the
        kernel cannot certify the pencil (a descent's trial point near the
        rim is never a keeper, so its failure reads as an infinite energy)."""
        try:
            vals, _ = self.solve(zeta_c, zeta_d)
        except FreePDError:
            return np.inf
        return float(vals[-1])

    def coupling(self, zeta_c, zeta_d):
        """(top energy, conj(x[m]) x[m+1]) of the achiever (_coord_product),
        the product 0j where the spectrum collapses to one point."""
        vals, x = self.solve(zeta_c, zeta_d)
        top, product = _coord_product(vals, x, self.core_size)
        return top, 0j if product is None else product


def _coord_product(vals, x, m: int):
    """Top energy and conj(x[m]) * x[m+1] of the achiever, degeneracy-aware.

    When the whole spectrum collapses to one point the two completed Grams
    are proportional, every vector achieves the energy, and the symmetric
    derivative of the energy vanishes in every direction; that case reports
    a zero product.  A collapse of the top two eigenvalues only leaves the
    achiever genuinely ill defined and raises instead.
    """
    top = float(vals[-1])
    spread = GAP_TOL * max(abs(top), 1.0)
    if top - float(vals[0]) <= spread:
        return top, None
    if len(vals) > 1 and top - float(vals[-2]) <= spread:
        raise DegenerateAchieverError(
            f"top eigenvalues {top!r} and {float(vals[-2])!r} are too close "
            "for a well-defined achiever"
        )
    return top, complex(np.conj(x[m]) * x[m + 1])


def stage_energy(C: PDFunction, D: PDFunction, zeta, mu) -> float:
    """Relative energy of the one-step extensions C^zeta, D^mu.

    Both functions must sit at the same stage (g, j, k); the undefined corner
    of each stage Gram is filled from its own residual data and the returned
    number is the top generalized eigenvalue of the completed pencil.
    """
    return _StagePencil(C, D).energy(zeta, mu)


@dataclass(frozen=True)
class ExtensionComponents:
    """Achiever coefficients against the residual directions.

    The norm-achieving vector of the completed-stage pencil decomposes as
    x = alpha S + alpha' S' + (core part) on the source side; its transport
    image decomposes as beta T + beta' T' + (core part) on the target side.
    Individually the four scalars carry the achiever's arbitrary phase, but
    the two products below do not, and they are all the gradients need.
    """

    alpha: complex
    alpha_prime: complex
    beta: complex
    beta_prime: complex
    energy: float

    @property
    def alpha_pair(self) -> complex:
        return self.alpha * np.conj(self.alpha_prime)

    @property
    def beta_pair(self) -> complex:
        return self.beta * np.conj(self.beta_prime)


def extension_components(C: PDFunction, D: PDFunction, zeta, mu) -> ExtensionComponents:
    """Achiever components of the pair (C^zeta, D^mu).

    The canonical coordinate of the achiever at (g, j) is alpha / n_g and at
    (e, k) is alpha' / n_e, with n the source-side residual norms; transport
    preserves canonical coordinates, so the target-side scalars are the same
    coordinates rescaled by the target residual norms.  Requires the top
    generalized eigenvalue to be simple to within GAP_TOL relative.
    """
    pencil = _StagePencil(C, D)
    vals, x = pencil.solve(_as_zeta(zeta).value, _as_zeta(mu).value)
    m = pencil.core_size
    top, product = _coord_product(vals, x, m)
    if product is None:
        return ExtensionComponents(0j, 0j, 0j, 0j, energy=top)
    c_g = np.conj(x[m])
    c_e = np.conj(x[m + 1])
    return ExtensionComponents(
        alpha=complex(c_g * pencil.rd_C.n_g),
        alpha_prime=complex(c_e * pencil.rd_C.n_e),
        beta=complex(c_g * pencil.rd_D.n_g),
        beta_prime=complex(c_e * pencil.rd_D.n_e),
        energy=top,
    )


def energy_gradient(C: PDFunction, D: PDFunction, zeta, mu, side: str,
                    varsigma) -> float:
    """Directional derivative of zeta/mu -> energy(C^zeta, D^mu).

    side selects which parameter moves; varsigma is the unit direction in
    which it moves.  The value is -2 e Re(varsigma alpha conj(alpha')) on the
    zeta side and +2 Re(varsigma beta conj(beta')) on the mu side, with the
    components taken from the (unique) norm achiever.
    """
    if side not in ("zeta", "mu"):
        raise ParameterError(f"side must be 'zeta' or 'mu', got {side!r}")
    s = complex(varsigma)
    if not np.isfinite(s.real) or not np.isfinite(s.imag) or abs(abs(s) - 1.0) > 1e-9:
        raise ParameterError("the direction must be a unit complex number")
    comps = extension_components(C, D, zeta, mu)
    if side == "zeta":
        return float(-2.0 * comps.energy * np.real(s * comps.alpha_pair))
    return float(2.0 * np.real(s * comps.beta_pair))


# ---------------------------------------------------------------------------
# Singularity-inducing perturbations
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SingularityCertificate:
    """Coercivity data for a perturbed pair.

    kappa is the smaller of the two functions' minimal orthogonalized core
    norms; theta is the kernel-separation constant: any unit vector killed by
    one function's coordinate rows is moved by the other's with norm at least
    theta.  Together they force the pair energy above
    kappa^2 theta^2 / (2 - 2 |zeta|^2), which blows up toward the rim.
    """

    kappa: float
    theta: float

    def bound(self, zeta) -> float:
        z = _as_zeta(zeta).value
        return (self.kappa * self.theta) ** 2 / (2.0 - 2.0 * abs(z) ** 2)


def coordinate_rows(C: PDFunction) -> np.ndarray:
    """Core rows of the canonical-to-orthogonal coordinate change at a stage.

    Row i (over the stage core) of the returned matrix gives, for each of the
    len(P) + 2 canonical stage vectors, its coefficient on the i-th
    unnormalized Gram-Schmidt vector of the core.  With the core factor L,
    a vector's coordinates in the orthonormal core basis are its row of L
    (a core vector) or its conjugated core coordinates V (a working one);
    the i-th Gram-Schmidt vector is L[i, i] times the i-th basis vector.
    Only the core and its two borders are read, so the undefined corner of
    the stage Gram never enters.
    """
    return _core_rows(C)[0]


def _core_rows(C: PDFunction) -> tuple:
    """coordinate_rows(C) and the least core pivot (inf on an empty core),
    both from one core factor."""
    sp = build_partial_space(C)
    L, V = _core_coordinates(sp.gram, sp.core_size)
    pivots = np.diag(L)
    rows = np.hstack([L.T, V.conj()]) / pivots[:, None]
    return rows, float(np.min(pivots.real, initial=np.inf))


def _l1_ball_sample(rng, n: int, radius: float) -> np.ndarray:
    """A random point of the complex l1 ball of the given radius."""
    rho = radius * float(rng.uniform()) ** (1.0 / (2 * n))
    moduli = rng.dirichlet(np.full(n, 2.0)) * rho
    phases = np.exp(2j * np.pi * rng.uniform(size=n))
    return moduli * phases


def _wprime_ratio(C: PDFunction, g1, g2, j: int, k: int) -> float:
    """Singular-value ratio of the 2x2 restricted projection matrix W'.

    W' maps span{Theta(g)_j, Theta(e)_k} into span{Theta(g1)_1, Theta(g2)_1}
    written in the latter's (non-orthogonal) basis; its entries are affine in
    the four perturbed scalars, which is what makes the rejection sampling
    succeed almost surely.
    """
    # row i of G[2:, :2].T is <Theta(g)_j, Theta(g_i)_1>, <Theta(e)_k, Theta(g_i)_1>
    G = pdcore._gram(C, [(g1, 1), (g2, 1), (C.domain.g, j), ((), k)], corner=1)
    W = np.linalg.solve(G[:2, :2], G[2:, :2].T)
    sv = np.linalg.svd(W, compute_uv=False)
    if sv[0] <= 0.0:
        return 0.0
    return float(sv[-1] / sv[0])


def _pairs_separated(rows) -> bool:
    for l in range(len(rows)):
        for m in range(l + 1, len(rows)):
            H = rows[l].conj().T @ rows[l] + rows[m].conj().T @ rows[m]
            w = _eigvalsh(H)
            if w[0] < PAIR_TOL * max(w[-1], 0.0):
                return False
    return True


def make_singular(family, eta: float, seed=0):
    """Perturb a stage family into one with trivially intersecting kernels.

    Two moves, both small in the l1 metric: first each member gets four of
    its interior entries shifted (the correlations of the working vectors
    with Theta(g1)_1 and Theta(g2)_1, where g1, g2 are the length-1 and
    length-2 prefixes of g) until the restricted projection W' is invertible;
    the unperturbed candidate is tried first, then random draws from the l1
    ball of radius eta/4.  Second, each member is mixed slightly toward the
    point mass with a staggered grid of weights until every pair of
    coordinate-row matrices has jointly trivial kernel.

    Returns (new_family, certificates) where certificates maps each position
    pair (l, m), l < m, to its SingularityCertificate.  The total l1 drift of
    each member stays at or below eta.  Requires |g| >= 5 and strict inputs.
    """
    fam = list(family)
    if not fam:
        raise ParameterError("make_singular needs at least one function")
    if not (isinstance(eta, (int, float)) and math.isfinite(eta) and eta > 0):
        raise ParameterError("eta must be a positive real number")
    stage = _stage_of(fam[0])
    d = fam[0].d
    for C in fam:
        if C.d != d or _stage_of(C) != stage:
            raise DomainError("family members sit at different stages")
    g, j, k = stage
    if len(g) < MIN_SINGULAR_LENGTH:
        raise ParameterError(
            f"the level must have length at least {MIN_SINGULAR_LENGTH}, "
            f"got {len(g)}"
        )
    for idx, C in enumerate(fam):
        if check_pd(C).status != "strict":
            raise NotStrictError(f"family member {idx} is not strict")

    rng = np.random.default_rng(seed)
    g1, g2 = g[:1], g[:2]
    cells = (
        (mul(inverse(g1), g), j, 1),
        (mul(inverse(g2), g), j, 1),
        (inverse(g1), k, 1),
        (inverse(g2), k, 1),
    )

    primed = []
    for idx, C in enumerate(fam):
        accepted = None
        for attempt in range(MAX_TRIES):
            if attempt == 0:
                lam = np.zeros(4, dtype=complex)
            else:
                lam = _l1_ball_sample(rng, 4, eta / 4.0)
            cand = pdcore.add_to_entries(C, cells, lam)
            if _wprime_ratio(cand, g1, g2, j, k) < DET_TOL:
                continue
            if check_pd(cand).status != "strict":
                continue
            accepted = cand
            break
        if accepted is None:
            raise SingularizationError(
                f"no admissible four-entry perturbation for member {idx} "
                f"within {MAX_TRIES} samples"
            )
        primed.append(accepted)

    n_fam = len(primed)
    point_mass = pdcore.delta(d, primed[0].domain)
    nus = [max(1.0, l1_distance(Cp, point_mass)) for Cp in primed]
    mixed = rows = core_mins = None
    for offset in range(S_GRID):
        weights = [
            eta / (2.0 * (((i + offset) % S_GRID) + 1) * S_GRID * nus[i])
            for i in range(n_fam)
        ]
        trial = [mix_with_delta(Cp, s) for Cp, s in zip(primed, weights)]
        trial_rows, trial_mins = zip(*map(_core_rows, trial))
        if _pairs_separated(trial_rows):
            mixed, rows, core_mins = trial, trial_rows, trial_mins
            break
    if mixed is None:
        raise SingularizationError(
            "no mixing offset separated the kernels of the coordinate rows"
        )

    kernels = [_linalg.null_space(A) for A in rows]
    certificates = {}
    for l in range(n_fam):
        for m in range(l + 1, n_fam):
            theta = min(
                float(np.linalg.svd(rows[l] @ kernels[m], compute_uv=False)[-1]),
                float(np.linalg.svd(rows[m] @ kernels[l], compute_uv=False)[-1]),
            )
            if theta <= 0.0:
                raise SingularizationError(
                    f"kernel separation collapsed for the pair ({l}, {m})"
                )
            certificates[(l, m)] = SingularityCertificate(
                kappa=float(min(core_mins[l], core_mins[m])), theta=theta
            )
    return mixed, certificates


# ---------------------------------------------------------------------------
# Parameter optimization
# ---------------------------------------------------------------------------


def _project(z: complex) -> complex:
    a = abs(z)
    if a <= RIM:
        return z
    return z * (RIM / a)


def _unit(rng) -> complex:
    z = complex(rng.standard_normal(), rng.standard_normal())
    return z / abs(z) if z else 1.0 + 0j


GRAD_TOL = 1e-6

# Cycle polish target for the achiever coupling products |alpha alpha'|.
PAIR_STOP = 5e-6

# Upper bound on chain-initialization rounds before the joint refinement.
CHAIN_ROUNDS = 24


def _solve_edge_impl(pencil, mu, target, max_iter, seed, inits, grad_tol=GRAD_TOL):
    # every evaluation reads the one _StagePencil, so the iteration after an
    # accepted Armijo step or Newton candidate gets the pencil that
    # accepting it solved back without a kernel call.  That is exact: a
    # point is re-used only when both completed corners match bit for bit.
    mu = _as_zeta(mu).value
    rng = np.random.default_rng(seed)

    def value_and_pair(z):
        top, p = pencil.coupling(z, mu)
        return top, p * pencil.scale_C

    def newton_step(z, v0, gnorm):
        # one root-finding step on the gradient field: the coupling dies at
        # an interior minimum, so once the energy target is in hand this
        # drives |grad| to the stationarity tolerance quadratically where
        # plain descent crawls (gradient scale ~ energy can be huge)
        h = 1e-6 * max(1.0, abs(z))
        try:
            vs = []
            for w in (z + h, z - h, z + 1j * h, z - 1j * h):
                e_w, pair_w = value_and_pair(_project(w))
                vs.append(-2.0 * e_w * np.conj(pair_w))
        except FreePDError:
            return None
        dvx = (vs[0] - vs[1]) / (2.0 * h)
        dvy = (vs[2] - vs[3]) / (2.0 * h)
        J = np.array([[dvx.real, dvy.real], [dvx.imag, dvy.imag]])
        try:
            delta = np.linalg.solve(J, -np.array([v0.real, v0.imag]))
        except np.linalg.LinAlgError:
            return None
        cand = _project(z + complex(delta[0], delta[1]))
        try:
            e_c, pair_c = value_and_pair(cand)
        except FreePDError:
            return None
        return cand if e_c <= target and abs(2.0 * e_c * pair_c) <= 0.7 * gnorm else None

    def armijo_step(z, e, grad, gnorm):
        step, gsq = ARMIJO_STEP, gnorm * gnorm
        while step >= 1e-18:
            candidate = _project(z - step * grad)
            if pencil.value(candidate, mu) <= e - ARMIJO_SLOPE * step * gsq:
                return candidate
            step *= ARMIJO_SHRINK
        return None

    best_z, best_e = 0j, np.inf
    used = 0
    for init in inits:
        z = _project(complex(init))
        bumps = 0
        while used < max_iter:
            used += 1
            inward = False
            try:
                e, pair = value_and_pair(z)
            except FreePDError as exc:
                # a degenerate achiever, or an iterate the kernel cannot
                # certify (an init handed in from a previous sweep can sit
                # essentially on the rim): fall back on the best point
                keep, inward = (best_z, best_e), not isinstance(exc, DegenerateAchieverError)
            else:
                if e < best_e:
                    best_e, best_z = e, z
                grad = -2.0 * e * np.conj(pair)
                gnorm = abs(grad)
                # the descent stops only where the energy target is met and
                # the point is stationary to within grad_tol in every direction
                if e <= target and gnorm <= grad_tol:
                    return SzegoParameter(z), used
                move = None
                if e <= target and np.isfinite(grad_tol):
                    move = newton_step(z, grad, gnorm)
                # numerically stationary yet above the target (a spurious
                # critical point or a flat spot) keeps no point; an Armijo
                # search that exhausts machine precision keeps its own
                keep = (z, np.inf)
                if move is None and gnorm > 1e-14 * max(1.0, e):
                    move = armijo_step(z, e, grad, gnorm)
                    keep = (z, e)
                if move is not None:
                    z = move
                    continue
            # the one recovery rule: return the kept point where it meets
            # the target, else spend a bump (at most 8 per init)
            if keep[1] <= target:
                return SzegoParameter(keep[0]), used
            if bumps >= 8:
                break
            bumps += 1
            z = _project(0.99 * z if inward else z + 1e-7 * _unit(rng))
    raise SolveError(
        f"edge solve stalled at energy {best_e!r} against target {target!r} "
        f"after {used} iterations",
        best=SzegoParameter(best_z),
        value=best_e,
    )


def solve_edge(C: PDFunction, D: PDFunction, mu, max_iter: int = MAX_ITER,
               seed=0) -> SzegoParameter:
    """Choose zeta minimizing the energy of (C^zeta, D^mu).

    Projected gradient descent with Armijo backtracking from zeta = 0,
    terminating as soon as the energy is within TOL_EDGE of the partial
    (pre-extension) energy of the pair, which is a lower bound for every
    zeta.  A certificate from make_singular guarantees an interior minimizer
    at exactly the partial energy; the projection onto |zeta| <= 1 - 1e-6
    keeps iterates compact.  Exceeding max_iter raises a SolveError carrying
    the best parameter seen.

    An iterate the descent cannot use meets one recovery rule: the best
    point so far is returned at a degenerate achiever or an uncertifiable
    point, and the current one after an exhausted Armijo search, if it
    meets the target; otherwise, and always at a flat spot above the
    target, one of 8 bumps moves an uncertifiable point inward (times
    0.99) and any other aside (by 1e-7 in a random direction).
    """
    target = partial_relative_energy(C, D).energy + TOL_EDGE
    return _solve_edge_impl(_StagePencil(C, D), mu, target, max_iter, seed, (0j,))[0]


def _cycle_pencils(family) -> list:
    """The stage pencil of each cycle edge (i, i+1), in order."""
    fam = list(family)
    if len(fam) < 2:
        raise ParameterError("a cycle needs at least two functions")
    return [_StagePencil(C, fam[(i + 1) % len(fam)]) for i, C in enumerate(fam)]


def _solve_cycle_impl(pencils, base, seed):
    # pencils[i] serves every evaluation of edge i, the chain phase's edge
    # descents included, so the residuals at an accepted LM candidate re-use
    # the pencils its trial solved
    n_fam = len(pencils)
    rng = np.random.default_rng(seed)

    def f_value(zs):
        total = 0.0
        for i, pencil in enumerate(pencils):
            e = pencil.value(zs[i], zs[(i + 1) % n_fam])
            if not np.isfinite(e):
                return np.inf
            total += (e - base[i]) ** 2
        return total

    def residuals_jacobian(zs):
        # each zs[i] enters edge i as the source parameter and edge i-1 as
        # the target parameter; the same achiever products give both the
        # residuals and their exact Jacobian over the 2N real coordinates
        res = np.zeros(n_fam)
        pairs = np.zeros(n_fam, dtype=complex)
        J = np.zeros((n_fam, 2 * n_fam))
        for i, pencil in enumerate(pencils):
            try:
                top, coord = pencil.coupling(zs[i], zs[(i + 1) % n_fam])
            except DegenerateAchieverError as exc:
                exc.edge = i
                raise
            alpha_pair = coord * pencil.scale_C
            beta_pair = coord * pencil.scale_D
            res[i] = top - base[i]
            pairs[i] = alpha_pair
            src = -2.0 * top * alpha_pair
            tgt = 2.0 * beta_pair
            J[i, 2 * i] = np.real(src)
            J[i, 2 * i + 1] = np.real(1j * src)
            t = (i + 1) % n_fam
            J[i, 2 * t] = np.real(tgt)
            J[i, 2 * t + 1] = np.real(1j * tgt)
        return res, J, pairs

    zs = np.zeros(n_fam, dtype=complex)
    target = n_fam * TOL_EDGE * TOL_EDGE
    best_zs, best_f = zs.copy(), f_value(zs)
    used = 0
    # Chain phase: walk the cycle backwards re-solving each source parameter
    # against the freshest target.  When the family is close to constant the
    # loop map is a near-identity contraction, so the sweep iterates creep
    # toward the joint solution geometrically; estimating the dominant
    # multiplier from successive differences lets us extrapolate straight to
    # the limit instead of crawling there.  The one-dimensional edge solver
    # also copes with the near-degenerate achievers that flatten the joint
    # Jacobian close to the zero set.
    history = [zs.copy()]
    chain_tol = TOL_EDGE * 1e-2
    for _ in range(CHAIN_ROUNDS):
        if best_f <= target or used >= MAX_ITER // 2:
            break
        for n in range(n_fam - 1, -1, -1):
            budget = max(1, min(400, MAX_ITER // 2 - used))
            try:
                zeta, it = _solve_edge_impl(
                    pencils[n], zs[(n + 1) % n_fam], base[n] + chain_tol,
                    budget, seed, (zs[n],), grad_tol=np.inf)
            except SolveError as exc:
                zeta, it = exc.best, budget
            zs[n] = zeta.value
            used += it
        f = f_value(zs)
        if f < best_f:
            best_f, best_zs = f, zs.copy()
        history.append(zs.copy())
        if len(history) < 3:
            continue
        d1 = history[-2] - history[-3]
        d2 = history[-1] - history[-2]
        den = complex(np.vdot(d1, d1))
        lam = complex(np.vdot(d1, d2) / den) if abs(den) > 0 else 1.0 + 0j
        if abs(lam) < 0.999 and abs(1.0 - lam) > 1e-12:
            jump = np.array(
                [_project(z) for z in history[-1] + d2 * lam / (1.0 - lam)])
            fj = f_value(jump)
            if fj < best_f:
                best_f, best_zs = fj, jump.copy()
            if fj < f:
                zs = jump
                history = [zs.copy()]
    # Levenberg-Marquardt on the residual vector: the objective is a smooth
    # zero-residual least-squares problem at the solutions this routine is
    # used on, so damped Gauss-Newton steps converge quadratically where
    # plain gradient descent crawls
    zs = best_zs.copy()
    bumps = 0
    damping = 1e-3
    satisfied = False
    polish = 0
    while used < MAX_ITER:
        used += 1
        try:
            res, J, pairs = residuals_jacobian(zs)
        except DegenerateAchieverError as exc:
            if satisfied or bumps >= 8:
                break
            bumps += 1
            zs[exc.edge] = _project(zs[exc.edge] + 1e-7 * _unit(rng))
            continue
        f = float(res @ res)
        if f < best_f:
            best_f, best_zs = f, zs.copy()
        grad = 2.0 * (J.T @ res)
        gnorm = float(np.linalg.norm(grad))
        satisfied = f <= target or gnorm <= 1e-8
        if satisfied:
            # converged in the declared sense; keep polishing briefly so the
            # achiever couplings collapse along with the residuals, which is
            # what an exact minimizer looks like
            polish += 1
            if polish > 60 or float(np.max(np.abs(pairs))) <= PAIR_STOP:
                return _params(zs), used
        H = J.T @ J
        for _ in range(40):
            try:
                step = np.linalg.solve(H + damping * np.eye(2 * n_fam), J.T @ res)
            except np.linalg.LinAlgError:  # pragma: no cover
                damping *= 10.0
                continue
            # the 2N real coordinates are the float view of zs
            cand = np.array([_project(complex(z)) for z in (zs.view(float) - step).view(complex)])
            if f_value(cand) < f:
                zs = cand
                damping = max(damping * 0.3, 1e-12)
                break
            damping *= 10.0
        else:  # no damping moved
            if satisfied or bumps >= 8:
                break
            bumps += 1
            zs = np.array([_project(z + 1e-7 * _unit(rng)) for z in zs])
    if satisfied or best_f <= target:
        return _params(best_zs if best_f <= target else zs), used
    raise SolveError(
        f"cycle solve stalled at objective {best_f!r} after {used} iterations",
        best=_params(best_zs),
        value=best_f,
    )


def _params(zs) -> list:
    return [SzegoParameter(complex(z)) for z in zs]


def solve_cycle_params(family, base_energies=None, seed=0) -> list:
    """Joint parameters zeta_1..zeta_N for a directed cycle of stage functions.

    Minimizes the sum of squared deviations of the edge energies
    energy(D_n^{zeta_n}, D_{n+1}^{zeta_{n+1}}) from the base energies (the
    partial pair energies when not supplied) by damped Gauss-Newton steps
    projected onto the parameter disk, with the exact per-edge derivatives;
    each parameter appears in two edge terms, once per side.  Terminates
    when the objective falls below N * TOL_EDGE^2 or the gradient norm
    below 1e-8, and gives up after MAX_ITER iterations.
    """
    fam = list(family)
    pencils = _cycle_pencils(fam)
    if base_energies is None:
        base = [partial_relative_energy(C, fam[(i + 1) % len(fam)]).energy
                for i, C in enumerate(fam)]
    else:
        base = [float(b) for b in base_energies]
        if len(base) != len(fam):
            raise ParameterError("need one base energy per edge")
    return _solve_cycle_impl(pencils, base, seed)[0]


# ---------------------------------------------------------------------------
# Configurations
# ---------------------------------------------------------------------------


class _FieldError(ParameterError):
    """A ParameterError that names the configuration field at fault."""

    def __init__(self, key, message):
        self.key = key
        super().__init__(message)


@dataclass(frozen=True)
class Configuration:
    """A family of strict functions on the vertices of a directed graph.

    shape is "tree" (every edge points toward the root) or "cycle" (one
    directed cycle through all vertices).  A configuration of radius r
    carries data on Ball(2r), so that the edge energies over B_r x [d] are
    computable; this is checked, as is strictness of every member and the
    declared graph shape.
    """

    shape: str
    r: int
    d: int
    vertices: tuple
    edges: tuple
    functions: dict
    root: str | None = None

    def __post_init__(self):
        if self.shape not in ("tree", "cycle"):
            raise _FieldError("shape", f"unknown shape {self.shape!r}")
        if isinstance(self.r, bool) or not isinstance(self.r, int) or self.r < 0:
            raise _FieldError("r", "the radius must be a nonnegative integer")
        if isinstance(self.d, bool) or not isinstance(self.d, int):
            raise _FieldError("d", "d must be an integer")
        if not self.vertices:
            raise _FieldError("vertices", "a configuration needs at least one vertex")
        if len(set(self.vertices)) != len(self.vertices):
            raise _FieldError("vertices", "vertex names must be distinct")
        vset = set(self.vertices)
        seen = set()
        for edge in self.edges:
            if len(edge) != 2 or edge[0] not in vset or edge[1] not in vset:
                raise _FieldError("edges", f"edge {edge!r} has an unknown endpoint")
            if edge[0] == edge[1]:
                raise _FieldError("edges", f"self-loop at {edge[0]!r}")
            if edge in seen:
                raise _FieldError("edges", f"duplicate edge {edge!r}")
            seen.add(edge)
        if set(self.functions) != vset:
            raise _FieldError(
                "vertices", "functions must be given exactly on the vertices")
        want = Domain.ball(2 * self.r)
        for v in self.vertices:
            C = self.functions[v]
            if not isinstance(C, PDFunction) or C.d != self.d:
                raise ParameterError(f"vertex {v!r} needs a PDFunction with d={self.d}")
            if C.domain != want:
                raise DomainError(
                    f"vertex {v!r} must carry data on Ball({2 * self.r}) "
                    f"(radius-r configurations hold doubled-radius data)"
                )
            if check_pd(C).status != "strict":
                raise NotStrictError(f"the function at vertex {v!r} is not strict")
        self.edge_order()

    def edge_order(self) -> list:
        """The edges in solve order; validates the declared shape.

        A tree lists each vertex's edge toward the root, parents before
        children and siblings by name; a cycle lists its edges around the
        cycle from the first vertex.
        """
        succ = {}
        for v, w in self.edges:
            if v in succ:
                raise _FieldError("edges", f"vertex {v!r} has two outgoing edges")
            succ[v] = w
        if self.shape == "tree":
            if self.root not in self.vertices:
                raise _FieldError("root", "a tree configuration needs a root vertex")
            if self.root in succ:
                raise _FieldError("root", "the root must have no outgoing edge")
            for v in self.vertices:
                if v != self.root and v not in succ:
                    raise _FieldError(
                        "edges", f"vertex {v!r} has no path toward the root")
            children = {}
            for v, w in succ.items():
                children.setdefault(w, []).append(v)
            order = [self.root]
            i = 0
            while i < len(order):
                order.extend(sorted(children.get(order[i], ())))
                i += 1
            if len(order) != len(self.vertices):
                raise _FieldError(
                    "edges", "the edges do not form a tree toward the root")
            return [(v, succ[v]) for v in order[1:]]
        if self.root is not None:
            raise _FieldError("root", "a cycle configuration takes no root")
        if len(self.vertices) < 2:
            raise _FieldError("vertices", "a cycle needs at least two vertices")
        indeg = Counter(succ.values())
        for v in self.vertices:
            if v not in succ or indeg[v] != 1:
                raise _FieldError(
                    "edges",
                    f"vertex {v!r} must have exactly one outgoing and one "
                    "incoming edge",
                )
        # every vertex has in- and out-degree one, so the walk closes up
        order = [self.vertices[0]]
        while succ[order[-1]] != order[0]:
            order.append(succ[order[-1]])
        if len(order) != len(self.vertices):
            raise _FieldError("edges", "the edges do not form a single cycle")
        return [(v, succ[v]) for v in order]


def configuration_from_dict(obj, load) -> Configuration:
    """Build a Configuration from its JSON dictionary form.

    The "vertices" mapping names each vertex's function by a source string,
    and load(source) returns that function (the CLI reads the file of that
    name beside the configuration).  The object and its vertex sources are
    checked before any is loaded.  A malformed field, a graph of the wrong
    shape included, raises FormatError naming it; a function that does not
    fit raises the constructor's error.
    """
    if not isinstance(obj, dict):
        raise FormatError("configuration", "the configuration must be a JSON object")
    sources = obj.get("vertices")
    if not isinstance(sources, dict) or not sources:
        raise FormatError("vertices", "vertices must map names to function files")
    for name, src in sources.items():
        if not isinstance(src, str):
            raise FormatError("vertices", f"vertex {name!r} must name a file")
    functions = {str(name): load(src) for name, src in sources.items()}
    for key in ("shape", "r", "d", "edges"):
        if key not in obj:
            raise FormatError(key, f"missing configuration field {key!r}")
    allowed = {"shape", "r", "d", "vertices", "edges", "root"}
    for key in obj:
        if key not in allowed:
            raise FormatError(key, f"unknown configuration field {key!r}")
    if not isinstance(obj["edges"], list):
        raise FormatError("edges", "edges must be a list of [from, to] pairs")
    names = tuple(map(str, sources))
    edges = []
    for item in obj["edges"]:
        if not isinstance(item, list) or len(item) != 2:
            raise FormatError("edges", f"bad edge entry {item!r}")
        edges.append((str(item[0]), str(item[1])))
    root = obj.get("root")
    if root is not None:
        root = str(root)
    try:
        return Configuration(
            shape=obj["shape"],
            r=obj["r"],
            d=obj["d"],
            vertices=names,
            edges=tuple(edges),
            functions=functions,
            root=root,
        )
    except _FieldError as exc:
        raise FormatError(exc.key, str(exc)) from exc


# ---------------------------------------------------------------------------
# The stage-by-stage driver
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SolverReport:
    """What an extension run consumed and achieved.

    energies_before holds the edge energies of the input functions over
    B_r x [d]; energies_after those of the outputs over B_{R//2} x [d].
    encost is max over edges of (after - 1) / (before - 1) with 0/0 read as
    one.  stage_records carries one dictionary per extension stage: the
    stage, its sigma and l1 budgets, the realized l1 drift, per-edge
    energies before and after solving, the chosen parameters, iteration
    counts, and any slack consumed by a capped edge solve.  The restriction
    fields compare each output, cut back to the data ball, against the
    original function: l1 distance and two-sided relative energy.
    """

    edges: tuple
    energies_before: dict
    energies_after: dict
    encost: float
    sigma_consumed: tuple
    stage_records: tuple
    restriction_drift: dict
    restriction_energy: dict
    iterations_total: int

    def to_dict(self) -> dict:
        def _edge_key(edge):
            return f"{edge[0]}->{edge[1]}"

        def _complex(z):
            return [float(np.real(z)), float(np.imag(z))]

        records = []
        for rec in self.stage_records:
            g, j, k = rec["stage"]
            records.append(
                {
                    "stage": [word_to_str(g), j, k],
                    "sigma": rec["sigma"],
                    "eta": rec["eta"],
                    "drift": rec["drift"],
                    "before": {_edge_key(e): x for e, x in rec["before"].items()},
                    "after": {_edge_key(e): x for e, x in rec["after"].items()},
                    "zetas": {v: _complex(z) for v, z in rec["zetas"].items()},
                    "iterations": rec["iterations"],
                    "slack": rec["slack"],
                }
            )
        return {
            "edges": [_edge_key(e) for e in self.edges],
            "energies_before": {_edge_key(e): x for e, x in self.energies_before.items()},
            "energies_after": {_edge_key(e): x for e, x in self.energies_after.items()},
            "encost": self.encost,
            "sigma_consumed": list(self.sigma_consumed),
            "stages": records,
            "restriction_drift": dict(self.restriction_drift),
            "restriction_energy": dict(self.restriction_energy),
            "iterations_total": self.iterations_total,
        }

    def over_budget(self, eps: float) -> str:
        """Each vertex whose restriction energy exceeds 1 + eps, with that
        energy, in one comma-separated listing; empty when there is none."""
        return _over_budget(self.restriction_energy, eps)


def _sqrt1pm1(x: float) -> float:
    """sqrt(1 + x) - 1, written x / (1 + sqrt(1 + x)) so that it does not
    cancel to 0 for tiny x."""
    return x / (1.0 + math.sqrt(1.0 + x))


def _eta_budget(family, eta_prime: float) -> float:
    """Function-l1 allowance keeping two-sided stage energies under 1+eta_prime.

    The transport perturbation bound controls operator norms: a Gram-level l1
    shift of at most s / (2 ||L^-1||^2) keeps both transport norms under
    1 + s, hence energies under (1 + s)^2 = 1 + eta_prime for
    s = sqrt(1 + eta_prime) - 1.  Gram entries repeat function entries, so
    the allowance is further divided by the largest multiplicity of any
    oriented entry across the stage restriction Grams.
    """
    s = _sqrt1pm1(eta_prime)
    budget = np.inf
    mult = 1
    for C in family:
        sp = build_partial_space(C)
        m = sp.core_size
        # a (stack slot, c1, c2) key is one oriented entry (quotient, c1, c2)
        _, slots, coords = pdcore._stage_table(C.domain.g, C.d, C.domain.j, C.domain.k)
        keys = (slots * C.d + coords[:, None]) * C.d + coords[None, :]
        for G, last in ((sp.x_g_gram, m), (sp.x_e_gram, m + 1)):
            lam = _strict_min_eig(G, "a stage restriction Gram")
            budget = min(budget, s * lam / 2.0)
            sub = np.r_[:m, last]
            counts = np.unique(keys[np.ix_(sub, sub)], return_counts=True)[1]
            mult = max(mult, int(counts.max()))
    return float(budget / mult)


def solve_configuration(config: Configuration, R: int, eps: float,
                        sigma_schedule=None, seed=0):
    """Extend every vertex function to Ball(R) with controlled edge energies.

    Drives extend's stage walk beyond the data ball for every vertex at once
    (novel levels in shortlex order, coordinates row-major).  Each stage
    consumes a sigma from the schedule (default geometric, eps/4 * 2^-t): on
    long enough levels the family is first made singular within an l1
    allowance derived from sigma through the transport perturbation bound
    (verified a posteriori and retried smaller if needed), then the
    parameters are chosen by per-edge descent from the root outward (trees)
    or one joint cycle descent.  Short levels skip the perturbation, start
    the descent from several initial points, and may absorb a capped solve
    into the stage's sigma slack.

    Returns (extensions, report): the extensions on Ball(R) keyed by vertex,
    and a SolverReport with per-stage and per-edge records.  A FreePDError
    raised inside a stage keeps its class and names the stage, in its
    message and its ``stage`` attribute.
    """
    if not isinstance(config, Configuration):
        raise ParameterError("solve_configuration needs a Configuration")
    r2 = 2 * config.r
    if isinstance(R, bool) or not isinstance(R, int) or R < r2:
        raise ParameterError(f"the target radius must be an integer >= {r2}")
    if not (isinstance(eps, (int, float)) and math.isfinite(eps) and eps > 0):
        raise ParameterError("eps must be a positive real number")
    if sigma_schedule is not None:
        sigma_schedule = [float(s) for s in sigma_schedule]
        if any(not (s > 0 and math.isfinite(s)) for s in sigma_schedule):
            raise ParameterError("sigma_schedule must be positive throughout")

    verts = config.vertices
    edge_seq = config.edge_order()
    cyc = [v for v, _ in edge_seq]

    rng = np.random.default_rng(seed)
    cur = {v: _open_walk(config.functions[v]) for v in verts}
    records = []
    while len(cur[verts[0]].domain.g) <= R:
        g, j, k = _stage_of(cur[verts[0]])
        try:
            t = len(records)
            if sigma_schedule is None:
                sigma_t = eps / 4.0 * 2.0 ** (-t)
            elif t < len(sigma_schedule):
                sigma_t = sigma_schedule[t]
            else:
                raise BudgetError("sigma schedule exhausted")
            pe = {
                e: partial_relative_energy(cur[e[0]], cur[e[1]]).energy
                for e in edge_seq
            }

            eta_func = 0.0
            drift = 0.0
            work, ppe = cur, pe
            singular = len(g) >= MIN_SINGULAR_LENGTH
            if singular:
                eta_prime = _sqrt1pm1(sigma_t / max(pe.values()))
                eta_func = _eta_budget([cur[v] for v in verts], eta_prime)
                for _ in range(6):
                    fam, _ = make_singular([cur[v] for v in verts], eta_func,
                                           seed=int(rng.integers(2 ** 31)))
                    work = dict(zip(verts, fam))
                    # each member's two-sided stage energy against its original
                    if not any(
                        max(partial_relative_energy(cur[v], work[v]).energy,
                            partial_relative_energy(work[v], cur[v]).energy)
                        > 1.0 + eta_prime * (1.0 + 1e-9)
                        for v in verts
                    ):
                        break
                    eta_func /= 4.0
                else:
                    raise SolveError(
                        "the singular perturbation kept overshooting its"
                        " energy allowance"
                    )
                drift = max(l1_distance(work[v], cur[v]) for v in verts)
                ppe = {
                    e: partial_relative_energy(work[e[0]], work[e[1]]).energy
                    for e in edge_seq
                }

            slack_allowance = max(TOL_EDGE, sigma_t / (4.0 * max(1, len(edge_seq))))
            slack_used = 0.0
            iters = 0
            # one pencil per edge serves its descent and its "after" energy
            pencils = {}
            if config.shape == "tree":
                zetas = {config.root: 0j}
                for v, w in edge_seq:
                    inits = (0j,) if singular else (0j, zetas[w])
                    pencil = pencils[(v, w)] = _StagePencil(work[v], work[w])
                    try:
                        zv, it = _solve_edge_impl(
                            pencil, zetas[w], ppe[(v, w)] + TOL_EDGE,
                            MAX_ITER, int(rng.integers(2 ** 31)), inits,
                        )
                    except SolveError as exc:
                        if exc.value > ppe[(v, w)] + slack_allowance:
                            raise SolveError(
                                f"edge {v}->{w}: {exc}",
                                best=exc.best,
                                value=exc.value,
                            ) from exc
                        zv, it = exc.best, MAX_ITER
                        slack_used = max(slack_used, exc.value - ppe[(v, w)])
                    zetas[v] = zv.value
                    iters += it
            else:
                pencils = dict(zip(edge_seq, _cycle_pencils([work[v] for v in cyc])))
                try:
                    params, it = _solve_cycle_impl(
                        list(pencils.values()), [ppe[e] for e in edge_seq],
                        int(rng.integers(2 ** 31)),
                    )
                except SolveError as exc:
                    trial = {v: p.value for v, p in zip(cyc, exc.best)}
                    after = {e: pencils[e].energy(trial[e[0]], trial[e[1]]) for e in edge_seq}
                    if any(after[e] > ppe[e] + slack_allowance for e in edge_seq):
                        raise
                    params, it = exc.best, MAX_ITER
                    slack_used = max(after[e] - ppe[e] for e in edge_seq)
                zetas = {v: p.value for v, p in zip(cyc, params)}
                iters += it

            after = {
                e: pencils[e].energy(zetas[e[0]], zetas[e[1]])
                for e in edge_seq
            }
            cur = {v: extend_entry(work[v], zetas[v]) for v in verts}
            records.append(
                {
                    "stage": (g, j, k),
                    "sigma": sigma_t,
                    "eta": eta_func,
                    "drift": drift,
                    "before": pe,
                    "after": after,
                    "zetas": dict(zetas),
                    "iterations": iters,
                    "slack": slack_used,
                }
            )
        except FreePDError as exc:
            if getattr(exc, "stage", None) is not None:
                raise
            dom = cur[verts[0]].domain
            raise _stage_error(exc, "stopped", dom.g, dom.j, dom.k)

    outputs = {v: restrict_to_ball(cur[v], R) for v in verts}

    energies_before, energies_after, restriction_drift, restriction_energy = (
        _final_energies(config, outputs, R)
    )
    report = SolverReport(
        edges=tuple(edge_seq),
        energies_before=energies_before,
        energies_after=energies_after,
        encost=_encost(energies_before, energies_after),
        sigma_consumed=tuple(rec["sigma"] for rec in records),
        stage_records=tuple(records),
        restriction_drift=restriction_drift,
        restriction_energy=restriction_energy,
        iterations_total=sum(rec["iterations"] for rec in records),
    )
    return outputs, report


def _encost(before: dict, after: dict) -> float:
    worst = 1.0
    for e, b in before.items():
        num = after[e] - 1.0
        den = b - 1.0
        if den < 1e-10:
            contribution = 1.0 if num < 1e-10 else np.inf
        else:
            contribution = num / den
        worst = max(worst, contribution)
    return float(worst)


def _final_energies(config: Configuration, extensions, R: int):
    """Edge energies before (over B_r) and after (over B_{R//2}), then per
    vertex the l1 distance and two-sided relative energy between the
    extension cut back to Ball(2r) and the original."""
    edges = config.edge_order()
    before = {
        e: relative_energy(config.functions[e[0]], config.functions[e[1]], r=config.r).energy
        for e in edges
    }
    after = {
        e: relative_energy(extensions[e[0]], extensions[e[1]], r=R // 2).energy
        for e in edges
    }
    drift = {}
    restriction = {}
    for v in config.vertices:
        C = config.functions[v]
        cut = restrict_to_ball(extensions[v], 2 * config.r)
        drift[v] = l1_distance(cut, C)
        forward = relative_energy(C, cut, r=config.r).energy
        backward = relative_energy(cut, C, r=config.r).energy
        restriction[v] = max(forward, backward)
    return before, after, drift, restriction


def _over_budget(restriction_energy: dict, eps: float) -> str:
    return ", ".join(
        f"{v!r} at {x:.6g}" for v, x in restriction_energy.items() if x > 1.0 + eps
    )


def encost_report(config: Configuration, extensions, eps: float) -> float:
    """Extension energy cost of a set of extensions against a configuration.

    M is the largest, over the edges, of (energy of the extended pair over
    B_{R//2} minus one) divided by (energy of the original pair over B_r
    minus one); a denominator under 1e-10 contributes one when the numerator
    is also under 1e-10 and +inf otherwise.  Every extension must restrict
    back to within 1 + eps of its original in two-sided relative energy;
    violations are reported per vertex.
    """
    if not isinstance(config, Configuration):
        raise ParameterError("encost_report needs a Configuration")
    if set(extensions) != set(config.vertices):
        raise ParameterError("extensions must be keyed exactly by the vertices")
    domains = {extensions[v].domain for v in config.vertices}
    if len(domains) != 1 or next(iter(domains)).kind != "ball":
        raise DomainError("extensions must share one common ball domain")
    R = next(iter(domains)).r
    if R < 2 * config.r:
        raise DomainError(f"extensions must cover the data ball Ball({2 * config.r})")
    before, after, _, restriction = _final_energies(config, extensions, R)
    bad = _over_budget(restriction, eps)
    if bad:
        raise ParameterError(f"restriction energies exceed 1 + eps for: {bad}")
    return _encost(before, after)
