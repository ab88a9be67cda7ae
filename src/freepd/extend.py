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
energy solver drives it for a whole family of functions.  Each step's
successor is the predecessor's stack, copied with one write, through the
one validator (pdcore._next_stage).  The residuals of a stage come from
its own stage Gram, its core factored once and bordered with the working
pair (see hilbert); a stage function inherits nothing from its predecessor
but its stack.  A stage failure keeps its class and names the stage in its
message and its stage attribute.

The zeta = 0 choice at every stage is the central (maximal entropy)
extension, which on two letters reproduces the multiplicative values
C(uv) = C(u) C(v) along reduced products.  central_extension computes it
without the walk, by the order-r recurrence that the maximum-determinant
structure implies (Grone, Johnson, Sa and Wolkowicz, LAA 58, 1984: the
completion's inverse vanishes off the specified pattern; Bakonyi and
Timotin, J. Funct. Anal. 246, 2007): C(g) is a linear combination of the
C(gu) over a window of u in B_r, with coefficients that depend on the
window alone.  It equals the central policy's walk to rounding, and hands
a window near collapse to the walk, whose failures keep their class and
stage.

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
from .errors import DomainError, FreePDError, ParameterError
from .hilbert import (
    _factor,
    build_partial_space,
    residual_data,
    residual_from_gram,
)
from .pdcore import (
    DEFAULT_TOL,
    Domain,
    PDFunction,
    _gather,
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
    """Fill the working slot with zeta's value and move to the next stage,
    whose function builds its own stage space when asked."""
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
    return _next_stage(C, value, new_dom)


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
    """The zeta = 0 extension of a ball function out to radius R, by its
    order-r recurrence, a word length at a time on one working stack.

    For a novel g beyond Ball(r), the central extension projects Theta(g)
    onto the interior of its level through its window Theta(gu), u in U(g),
    the u of B_r - {e} whose gu ranks (canonically) below g, alone.
    Translated by g^-1 the window is U(g) itself, so with G the Gram of
    Ball(r) x [d] and A = G[U, U], the coefficients M = G[e, U] A^-1 depend
    on U(g) alone, and C(g) = sum_u M_u C(gu) (M's d x d blocks).  The e
    side's window E(g), the u whose g^-1 u ranks below g, carries the
    residual of Theta(e).  Only u led by the inverse of g's last letter can
    be in U(g), and only u led by g's first letter in E(g), so a type is a
    side, a letter and a mask over a quarter of B_r - {e}: 22 types at
    r = 2 and 32 at r = 3, each screened once per call.

    Per word length n: G is gathered from the stack (pdcore._gather; NaN
    past the rows written, which no window reads, its quotients lying in
    I_g), one words._canonical_quotients call gives every window, each new
    type one factor of its window Gram bordered by e (and a U type a solve),
    and the words whose same-length window words are written take one
    batched product, wave after wave (up to eight at r = 2 and 3).  Values
    are read through canonical rows and mirror flags, so only canonical
    rows are written, and nothing sized by R exists before length r + 1 is.

    A Cholesky pivot of A, of S_g = I - M G[U, e] or of its e-side analogue
    S_e at or below sqrt(DEFAULT_TOL) hands the whole extension to
    extend_ball(C, R, central_policy()), which raises the walk's failures
    with their class and stage, or returns.  Otherwise the result is that
    walk's to rounding.
    """
    R, d, r = _target_radius(C, R), C.d, C.domain.r
    work, u = _padded(C), np.arange(1, words.ball_size(r))  # B_r - {e}, by rank
    quotients, slots = words.quotient_table(tuple(range(len(u) + 1)))
    pairs = np.repeat(np.arange(len(u) + 1), d)  # Ball(r) x [d], by rank
    table = quotients, slots[pairs[:, None], pairs], np.arange(len(pairs)) % d
    # B_r - {e} by first letter: gu ranks below g only for u led by the inverse
    # of g's last letter, and g^-1 u only for u led by g's first letter
    lead = u[np.argsort(words._tree(r).letters[u, 0], kind="stable")].reshape(4, -1)
    solved = {}  # (side, letter, window mask) -> U's coefficients or E's Gram; None: screened out
    for n in range(r + 1, R + 1):
        tree, first = words._tree(n), len(work) - 1
        tops = np.arange(words._OFFSET[n], words._OFFSET[n + 1])
        tops = tops[tops < tree.inv[tops]]  # the canonical words of length n
        work = np.concatenate([work[:-1], np.full((len(tops) + 1, d, d), complex("nan"))])
        G = _gather(work, n, *table)
        x = np.stack([(tree.letters[tops, n - 1] + 2) % 4, tree.letters[tops, 0]])
        b = np.stack([tree.inv[tops], tops])[..., None]
        # b^-1 u: gu and g^-1 u for every g of length n and u led by x
        q, flip = words._canonical_quotients(tree, lead[x], b)
        window = q < tops[:, None]  # U(g), then E(g), over lead[x]
        for side in (1, 0):  # E's types only screen; U's, last, give the coefficients
            # a type is one byte row, its letter and its packed mask, as one void
            packed = np.column_stack([x[side].astype(np.uint8), np.packbits(window[side], 1)])
            types, kind = np.unique(packed.view(f"V{packed.shape[1]}").ravel(),
                                    return_inverse=True)
            for t in map(bytes, types):
                if (side, t) not in solved:
                    mask = np.unpackbits(np.frombuffer(t, np.uint8)[1:], count=lead.shape[1]) > 0
                    F = _window_gram(G, lead[t[0]], mask, d)
                    solved[side, t] = F if side or F is None else _window_coefficients(F, mask, d)
                if solved[side, t] is None:
                    return extend_ball(C, R, central_policy())
        coefficients = np.stack([solved[0, bytes(t)] for t in types])[kind]
        at = np.where(window[0], q[0], 0)  # off U, row 0: the identity, times 0
        rows, mirrored = 1 + tree.rows[at], window[0] & flip[0]
        # a window word of length n waits for its row (-1: the spare False)
        waits = np.where(at >= words._OFFSET[n], rows - first, -1)
        todo = np.append(np.ones(len(tops), bool), False)
        while todo.any():
            ready = np.flatnonzero(todo[:-1] & ~todo[waits].any(1))
            V = work[rows[ready]]
            V = np.where(mirrored[ready, :, None, None], V.conj().transpose(0, 1, 3, 2), V)
            # + 0.0 turns a -0.0 into 0.0, as the walk's sum with its zero terms does
            work[first + ready] = np.einsum("njum,numk->njk", coefficients[ready], V) + 0.0
            todo[ready] = False
    return PDFunction._from_stack(d, Domain.ball(R), work[1:-1])


def _window_gram(G: np.ndarray, ranks: np.ndarray, mask: np.ndarray, d: int):
    """The Gram F of the window W of the words ranks[mask] bordered by e,
    from G, the Gram of Ball(r) x [d] in rank order; None when a Cholesky
    pivot of F, that is of G[W, W] or of its Schur block I - M G[W, e], is
    at or below sqrt(DEFAULT_TOL) (NaN too).  An E-side window ends here."""
    at = np.append(ranks[mask, None] * d + np.arange(d), np.arange(d))  # W's pairs, then e's
    F = G[np.ix_(at, at)]
    return F if (_factor(F)[1] > DEFAULT_TOL ** 0.5).all() else None


def _window_coefficients(F: np.ndarray, mask: np.ndarray, d: int):
    """The coefficients M = G[e, W] G[W, W]^-1 of a U-side window's Gram F
    (_window_gram), in (d, len(mask), d) with zeros off the mask."""
    m = len(F) - d
    out = np.zeros((d, len(mask), d), complex)
    out[:, mask] = np.linalg.solve(F[:m, :m], F[:m, m:]).conj().T.reshape(d, -1, d)
    return out


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
