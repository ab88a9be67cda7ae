"""One-parameter extension of partially defined positive definite functions.

Each undefined stage (g, j, k) leaves a single unknown Gram inner product.
Writing the two working vectors as (projection onto the known span) plus
(orthogonal residual), the admissible values form a closed disk

    center = <p Theta(g)_j, p Theta(e)_k>,    radius = n_g * n_e,

and the choice is parametrized by a point zeta of the closed unit disk via
value = zeta * radius + center.  We keep |zeta| <= 1 - DELTA_MIN so every
step stays strictly inside, which preserves strictness of the extended
function and keeps later stages nondegenerate.

extend_entry performs one such step and advances the stage bookkeeping.
This module owns the one stage walk: _open_walk starts it beyond Ball(r),
_write_and_advance alone orders its stages, and restrict_to_ball cuts the
result onto Ball(R).  extend_ball drives it with a parameter policy, and the
energy solver drives it for a whole family of functions.  Each step builds
its successor by construction, the stack a copy of the predecessor's with
one write.  The residuals of a stage come from its level's one interior
factor (see hilbert): each stage function the walk writes on the same level
inherits that level, gathered and factored once for its d*d stages, and its
predecessor's stage factor, grown by one row.  A stage failure keeps its
class and names the stage in its message and its stage attribute.

The zeta = 0 choice at every stage is the central (maximal entropy)
extension, which on two letters reproduces the multiplicative values
C(uv) = C(u) C(v) along reduced products.  central_extension computes it
a level at a time, not a stage at a time: at zeta = 0 each stage leaves the
residuals of (g, j) and (e, k) against the level's interior K orthogonal,
so every cross term is the interior part <P_K Theta(g)_j, P_K Theta(e)_k>
alone, and the level's whole top C(g) is the g x e block P[:d, d:] of the
Gram P = V* V the level computes anyway (hilbert._Level.projections).  The
stage residual norms are the Cholesky pivots of the Schur block S's g and
e blocks, which name the stage a collapse falls at.  The levels fill one
working stack.  The result equals the central policy's walk to rounding,
bit for bit at d <= 2.

toeplitz_step is the rank-one classical analogue: one Schur step extending
a finite positive definite Toeplitz sequence, used as an independent check
that the group walk restricted to powers of a single letter agrees with
the circle case.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import _linalg, words
from .errors import DegenerateStageError, DomainError, FreePDError, ParameterError
from .hilbert import (
    _checked,
    _factor,
    _Level,
    _level_gram,
    build_partial_space,
    hand_off,
    residual_data,
    residual_from_gram,
)
from .pdcore import (
    Domain,
    PDFunction,
    _next_stage,
    _padded,
    restrict_to_ball,
    restrict_to_stage,
)
from .transport import _strict_min_eig
from .words import next_novel, word_to_str

__all__ = [
    "DELTA_MIN",
    "SzegoParameter",
    "ParameterPolicy",
    "central_policy",
    "constant_policy",
    "legal_disk",
    "extend_entry",
    "extend_ball",
    "central_extension",
    "toeplitz_step",
]

# Safety margin keeping parameters off the degenerate rim of the unit disk.
DELTA_MIN = 1e-6


@dataclass(frozen=True)
class SzegoParameter:
    """A point of the open unit disk selecting one extension of a stage.

    Values with |zeta| > 1 - DELTA_MIN are rejected: on the rim the extended
    function is only semidefinite and the residuals of later stages collapse.
    """

    value: complex

    def __post_init__(self):
        try:
            v = complex(self.value)
        except (TypeError, ValueError) as exc:
            raise ParameterError(f"not a complex number: {self.value!r}") from exc
        if not np.isfinite(v.real) or not np.isfinite(v.imag):
            raise ParameterError("szego parameter must be finite")
        if abs(v) > 1.0 - DELTA_MIN:
            raise ParameterError(
                f"|zeta| = {abs(v):.9f} reaches the degenerate rim "
                f"(allowed at most {1.0 - DELTA_MIN})"
            )
        object.__setattr__(self, "value", v)


def _as_zeta(z) -> SzegoParameter:
    if isinstance(z, SzegoParameter):
        return z
    return SzegoParameter(z)


@dataclass(frozen=True)
class ParameterPolicy:
    """A rule choosing the parameter for each stage of an extension walk.

    ``rule(stage, current, context)`` receives the stage coordinates
    (g, j, k), the partially defined function built so far, and a context
    dict with the legal disk of the stage under ``"disk"`` (center, radius)
    and the raw residual data under ``"residuals"``.  It returns a
    SzegoParameter or anything complex() accepts.  Any exception it raises,
    and any out-of-disk value, aborts the walk with the stage identified.
    """

    rule: Callable
    name: str = "custom"


def central_policy() -> ParameterPolicy:
    """Always pick the disk center (zeta = 0)."""
    return ParameterPolicy(lambda stage, current, context: 0j, name="central")


def constant_policy(z) -> ParameterPolicy:
    """Use the same parameter at every stage."""
    zeta = _as_zeta(z)
    return ParameterPolicy(
        lambda stage, current, context: zeta, name=f"constant({zeta.value})"
    )


def legal_disk(C: PDFunction) -> tuple:
    """The disk of values completing the current stage positively.

    Returns (center, radius).  Values v with |v - center| < radius give
    strictly positive definite one-step extensions, the boundary circle
    gives semidefinite ones, everything outside fails.  Both |center| <= 1
    and 0 <= radius <= 1 hold since all working vectors are unit vectors.
    """
    rd = _residuals(C)
    return complex(rd.cross), float(rd.n_g * rd.n_e)


def _stage_error(exc: FreePDError, message: str, g, j: int, k: int) -> FreePDError:
    """exc, its class kept, with the stage named in its message and its
    stage attribute set to (g, j, k), g as text."""
    exc.stage = (word_to_str(g), j, k)
    exc.args = (f"{message} at stage ({exc.stage[0]}, {j}, {k}): {exc}",)
    return exc


def _residuals(C: PDFunction):
    """The residual data of C's stage; a failure names the stage."""
    try:
        return residual_data(build_partial_space(C))
    except FreePDError as exc:
        raise _stage_error(exc, "residuals failed", C.domain.g, C.domain.j, C.domain.k)


def _write_and_advance(C: PDFunction, rd, zeta: SzegoParameter) -> PDFunction:
    """Fill the working slot with zeta's value and move to the next stage; a
    successor on the same level inherits C's level and stage state
    (hilbert.hand_off)."""
    dom = C.domain
    d = C.d
    value = zeta.value * (rd.n_g * rd.n_e) + rd.cross
    slot = (dom.j - 1) * d + dom.k  # the next slot, row-major
    if slot == d * d:
        # Level complete; the value at the inverse is forced by symmetry and
        # lives in the same stored matrix.  Skip ahead to the next novel
        # level, whose top matrix starts out fully undefined.
        new_dom = Domain("partial", g=next_novel(dom.g), j=1, k=1)
    else:
        new_dom = Domain("partial", g=dom.g, j=slot // d + 1, k=slot % d + 1)
    nxt = _next_stage(C, value, new_dom)
    hand_off(C, nxt)
    return nxt


def extend_entry(C: PDFunction, zeta) -> PDFunction:
    """One extension step at the current stage of a partial function.

    The output lives on the successor stage and restricts to C exactly.
    Strictness is inherited: |zeta| < 1 puts the new value in the open
    disk, so every Gram matrix of the output stays strictly positive.
    """
    if C.domain.kind != "partial":
        raise DomainError("extend_entry needs a partially defined function")
    z = _as_zeta(zeta)
    return _write_and_advance(C, _residuals(C), z)


def _policy_step(C: PDFunction, policy: ParameterPolicy) -> PDFunction:
    dom = C.domain
    rd = _residuals(C)
    context = {"disk": (complex(rd.cross), float(rd.n_g * rd.n_e)), "residuals": rd}
    try:
        z = _as_zeta(policy.rule((dom.g, dom.j, dom.k), C, context))
    except Exception as exc:
        raise _stage_error(ParameterError(str(exc)), f"policy '{policy.name}' failed",
                           dom.g, dom.j, dom.k) from exc
    return _write_and_advance(C, rd, z)


def _open_walk(C: PDFunction) -> PDFunction:
    """The data of a Ball(r) function at the first novel stage beyond Ball(r)."""
    return restrict_to_stage(C, next_novel((3,) * C.domain.r), 1, 1)


def _target_radius(C: PDFunction, R: int) -> int:
    """R as an int, checked against the ball C lives on."""
    if C.domain.kind != "ball":
        raise DomainError("extend_ball starts from a fully specified ball")
    R = int(R)
    if R < C.domain.r:
        raise ParameterError(f"target radius {R} is below the source radius {C.domain.r}")
    return R


def extend_ball(C: PDFunction, R: int, policy: ParameterPolicy | None = None) -> PDFunction:
    """Extend a function on Ball(r) to Ball(R) stage by stage.

    Novel levels of B_R are visited in shortlex order, all d*d coordinates
    of each in row-major order; non-novel levels are mirrors and need no
    choice.  The walk is deterministic given the policy, and the output
    restricted to B_r equals C bitwise.  With no policy the result is
    central_extension(C, R).
    """
    if policy is None:
        return central_extension(C, R)
    R = _target_radius(C, R)
    cur = _open_walk(C)
    while len(cur.domain.g) <= R:
        cur = _policy_step(cur, policy)
    return restrict_to_ball(cur, R)


def central_extension(C: PDFunction, R: int) -> PDFunction:
    """The zeta = 0 extension of a ball function out to radius R, a level at
    a time, on one working stack.

    Why one block read per level equals the walk: write a_j and b_k for
    the residuals of (g, j) and (e, k) against the level's interior K.  If
    the stages before (j, k) made a_m orthogonal to b_l for each (m, l) of
    theirs, a_j projects onto the core's a's alone and b_k onto its b's
    alone, two orthogonal spans, so the stage's projected cross term is the
    interior part <P_K Theta(g)_j, P_K Theta(e)_k>.  zeta = 0 writes
    exactly that, which makes a_j orthogonal to b_k in turn.  So C(g) is
    the g x e block of the level's P = V* V (hilbert._Level.projections),
    the residual norms are the Cholesky pivots of S's g and e blocks, and
    the result is extend_ball(C, R, central_policy()) to rounding (bit for
    bit at d <= 2), with the same failures: the interior factor's
    NotStrictError at (g, 1, 1), or DegenerateStageError at the first
    stage, row-major, whose n_g or n_e collapses, n_g at (g, j, k) being
    the j-th pivot of S's g block and n_e the k-th of its e block.

    The levels fill one padded stack [I, rows, NaN] (pdcore._gather), grown
    by one word length's NaN rows at a time: nothing sized by R exists
    before length r + 1 is written.  No clique quotient ranks past its
    level, so a level's Gram reads the rows the walk's function at its
    first stage holds, its own as NaN: the walk's Gram, so the walk's bits.
    """
    R, d, n = _target_radius(C, R), C.d, C.domain.r
    work = _padded(C)
    while n < R:
        n += 1
        tops, first = words._clique_table(n)[0], len(work) - 1  # the levels of length n
        work = np.concatenate([work[:-1], np.full((len(tops) + 1, d, d), complex("nan"))])
        for row, g in enumerate(map(words.word_of_rank, tops), first):
            try:
                P, S = _Level(g, d, _level_gram(work, n, g, d)).projections()
            except FreePDError as exc:
                raise _stage_error(exc, "residuals failed", g, 1, 1)
            n_g, n_e = _factor(S[:d, :d])[1], _factor(S[d:, d:])[1]
            try:
                for t in range(d * d):  # the level's stages, row-major
                    _checked(n_g[t // d], n_e[t % d], 0j)
            except DegenerateStageError as exc:
                raise _stage_error(exc, "residuals failed", g, t // d + 1, t % d + 1)
            # + 0.0 turns a -0.0 into 0.0, as the walk's sum with its zero terms does
            work[row] = P[:d, d:] + 0.0
    return PDFunction._from_stack(d, Domain.ball(R), work[1:-1])


def toeplitz_step(seq, zeta) -> complex:
    """One Schur extension step for a scalar positive definite sequence.

    seq = (c_0, ..., c_N) with c_0 = 1 must have a strictly positive
    Toeplitz matrix T[i, j] = c_{i-j} (negative indices by conjugation).
    Returns the value c_{N+1} = zeta * |(1-p)Phi_{N+1}| * |(1-p)Phi_0|
                                + <p Phi_{N+1}, p Phi_0>,
    with p the projection onto span(Phi_1, ..., Phi_N).  The same bordered
    core factor as the group walk is used, on the Gram matrix ordered
    (Phi_1, ..., Phi_N, Phi_{N+1}, Phi_0) with the unknown corner masked.
    """
    c = np.asarray(seq, dtype=complex).ravel()
    if c.size == 0:
        raise ParameterError("the sequence must contain at least c_0")
    if not np.isfinite(c).all():
        raise ParameterError("the sequence must be finite")
    if abs(c[0] - 1.0) > 1e-12:
        raise ParameterError(f"c_0 must equal 1, got {c[0]}")
    z = _as_zeta(zeta)
    N = c.size - 1
    T = _linalg.toeplitz(np.append(c, complex("nan")))
    _strict_min_eig(T[:N + 1, :N + 1], "the Toeplitz matrix")
    order = list(range(1, N + 2)) + [0]
    G = T[np.ix_(order, order)]
    rd = residual_from_gram(G, core_size=N)
    return complex(z.value * (rd.n_g * rd.n_e) + rd.cross)
