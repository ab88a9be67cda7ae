"""Shared fixtures-by-hand for the test modules."""

import math
import sys
from collections import deque
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
import scipy.linalg

from freepd import pdcore
from freepd.errors import (
    DomainError,
    EntryError,
    FormatError,
    MissingEntryError,
    ParameterError,
    SurgeryError,
    WordError,
)
from freepd.pdcore import (
    DEFAULT_TOL,
    MIRROR_TOL,
    Domain,
    PDFunction,
    PDVerdict,
    canonical_rep,
    gram,
    gram_indexed,
    stage_pairs,
)
from freepd.surgery import _greedy_positions
from freepd.words import (
    _AFTER,
    _ALLOWED_AFTER,
    _canonical_quotients,
    _ranks,
    _tree,
    ball_size,
    ball,
    clique,
    inverse,
    is_novel,
    mul,
    quotient_table,
    rank_of,
    shortlex_key,
    word_from_str,
    word_to_str,
)


def library_caches():
    """The functools caches of every loaded freepd module, collected as the
    benchmark collects them to clear between rounds."""
    found = {}
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "freepd" or name.startswith("freepd.")):
            continue
        for value in vars(module).values():
            if callable(getattr(value, "cache_clear", None)) and hasattr(value, "cache_info"):
                found[id(value)] = value
    return list(found.values())


def canonical_ball(r):
    """The canonical words of Ball(r) (novel, so e excluded), shortlex order."""
    return tuple(w for w in ball(r) if is_novel(w))


def tree_of_radius(r):
    """(letters, length, suffix, inv) of ball(r) built for radius r alone:
    the oracle for the one tree of words._tree, whose leading ranks and
    columns must match it."""
    L = np.full((ball_size(r), r + 1), -1)
    level, at = np.arange(4)[:, None], 1
    for n in range(1, r + 1):
        if n > 1:  # each word of length n - 1 has three children, in order
            level = np.column_stack([np.repeat(level, 3, axis=0),
                                     _AFTER[level[:, -1]].ravel()])
        L[at:at + len(level), :n] = level
        at += len(level)
    n = (L >= 0).sum(1)
    suffix = np.column_stack([_ranks(np.pad(L[:, k:], ((0, 0), (0, k)), constant_values=-1))
                              for k in range(r + 1)])
    back = n[:, None] - 1 - np.arange(r + 1)
    inv = _ranks(np.where(back >= 0, (np.take_along_axis(L, np.maximum(back, 0), 1) + 2) % 4, -1))
    return L, n, suffix, inv


# Shortlex neighbours by letter arithmetic: an oracle for the library's
# enumeration order (ball, canonical_ball, next_novel).
def successor(w):
    """The next reduced word in shortlex order (odometer with a varying alphabet)."""
    letters = list(w)
    # Try to bump some position, rightmost first; positions to its right are
    # refilled with the smallest letter the reducedness constraint allows.
    for i in range(len(letters) - 1, -1, -1):
        prev = letters[i - 1] if i > 0 else None
        allowed = _ALLOWED_AFTER[prev]
        larger = [y for y in allowed if y > letters[i]]
        if larger:
            letters[i] = larger[0]
            for j in range(i + 1, len(letters)):
                letters[j] = _ALLOWED_AFTER[letters[j - 1]][0]
            return tuple(letters)
    # Carried past the front: the first word of the next length is a, aa, aaa, ...
    return (0,) * (len(w) + 1)


def predecessor(w):
    """The previous reduced word in shortlex order; the identity has none."""
    if not w:
        raise WordError("the identity has no shortlex predecessor")
    letters = list(w)
    for i in range(len(letters) - 1, -1, -1):
        prev = letters[i - 1] if i > 0 else None
        allowed = _ALLOWED_AFTER[prev]
        smaller = [y for y in allowed if y < letters[i]]
        if smaller:
            letters[i] = smaller[-1]
            # Refill the suffix with the largest allowed letters.
            for j in range(i + 1, len(letters)):
                letters[j] = _ALLOWED_AFTER[letters[j - 1]][-1]
            return tuple(letters)
    # w is the least word of its length (a^n); the predecessor is the greatest
    # word one letter shorter, which is (b^-1)^(n-1).
    return (3,) * (len(w) - 1)


def embed_toeplitz(c, n_target):
    """A d = 1 partial function holding a Toeplitz sequence on powers of a.

    c = (c_0=1, c_1, ..., c_m) becomes C(a^k) = c_k; every other novel level
    up to the stage boundary is set to zero.  The returned function sits at
    stage (a^{n_target}, 1, 1) ready for one extension step, which only ever
    reads inner products among powers of a.
    """
    m = len(c) - 1
    if n_target != m + 1:
        raise ValueError("the stage must sit one past the end of the sequence")
    g = (0,) * n_target
    dom = Domain.partial(g, 1, 1)
    entries = {}
    # the levels before a^n in shortlex order are the words of Ball(n - 1)
    for w in ball(n_target - 1):
        if w == () or not is_novel(w):
            continue
        if set(w) == {0}:
            entries[w] = [[c[len(w)]]]
        else:
            entries[w] = [[0.0]]
    return PDFunction(1, dom, entries)


def fill_stage(C, value, nxt):
    """C with its working slot set to value, on any later stage domain nxt
    (a later stage of the same level, or a later level whose rows start out
    undefined), through the constructor's validator, which checks that nxt
    fits: the walk's successor step for a next stage of the caller's choice."""
    pdcore._check_header(C.d, nxt)
    grow = pdcore._size(nxt) - len(C._stack)
    if C.domain.kind != "partial" or grow < 0:
        raise DomainError("fill_stage moves a partial function to a later stage")
    stack = np.concatenate([C._stack, np.full((grow, C.d, C.d), complex("nan"))])
    stack[len(C._stack) - 1, C.domain.j - 1, C.domain.k - 1] = value
    return PDFunction._from_stack(C.d, nxt, stack)


def letter_weights_function(ca, cb, r=1):
    """The d = 1 ball function with C(a) = ca, C(b) = cb (r = 1 only)."""
    assert r == 1
    return PDFunction(1, Domain.ball(1), {"a": [[ca]], "b": [[cb]]})


def representation_function(m, r, d, seed):
    """The Ball(r) function C(w) = (V* pi(w) V)^T, pi an m-dimensional unitary
    representation with Haar generators and V a Haar isometry of C^d into C^m
    (d <= m): positive definite, and semidefinite on every Gram of more than
    m rows."""
    rng = np.random.default_rng(seed)
    u_a, u_b = pdcore._haar_unitary(rng, m), pdcore._haar_unitary(rng, m)
    gens = (u_a, u_b, u_a.conj().T, u_b.conj().T)
    V = pdcore._haar_unitary(rng, m)[:, :d]
    reps = {(): np.eye(m, dtype=complex)}
    for w in ball(r)[1:]:
        reps[w] = reps[w[:-1]] @ gens[w[-1]]
    rows = [(V.conj().T @ reps[w] @ V).T for w in pdcore.canonical_words(Domain.ball(r))]
    return PDFunction._from_stack(d, Domain.ball(r), np.array(rows, complex).reshape(-1, d, d))


def sorted_novel(words_iter):
    return sorted((w for w in words_iter if is_novel(w)), key=shortlex_key)


def novel_stages(r, R, d):
    """The extension stages from Ball(r) to Ball(R), from the word tables alone.

    Novel levels of length r+1..R in shortlex order, each with its d*d
    coordinates (j, k) in row-major order.
    """
    levels = sorted_novel(w for w in ball(R) if len(w) > r)
    return [(g, j, k) for g in levels for j in range(1, d + 1) for k in range(1, d + 1)]


def scan_clique(g):
    """The vertices of K_g by one scan of the ranks of Ball(|g|): h is kept
    when both h and g^-1 h lie in I_g, that is when the canonical
    representative of each has rank at most rank g.  The result is asserted
    to be a clique: every canonical quotient in the quotient table of the
    vertices has rank at most rank g.  An oracle for words.clique, which
    grows every clique of a word length by descent instead.
    """
    ws, top = ball(len(g)), int(_ranks(np.array([g + (-1,)]))[0])
    tree = _tree(len(g))
    h = np.flatnonzero(np.minimum(np.arange(len(ws)), tree.inv[:len(ws)]) <= top)  # I_g
    moved, _ = _canonical_quotients(tree, h, top)
    kept = h[moved <= top]
    vertices = tuple(ws[i] for i in kept)
    quotients, slots = quotient_table(tuple(kept))
    for a, b in np.argwhere(quotients[slots % len(quotients)] > top)[:1]:
        raise WordError(
            f"common neighborhood of (e, {word_to_str(g)}) is not a clique: "
            f"({word_to_str(vertices[a])}, {word_to_str(vertices[b])}) not adjacent"
        )
    return vertices


@dataclass(frozen=True)
class IndexSet:
    """The symmetric set I_g of all h with h or h^-1 shortlex-preceding g."""

    origin: tuple
    members: frozenset


@lru_cache(maxsize=None)
def index_set(g) -> IndexSet:
    """I_g from the tree: the words up to g's rank and their inverses."""
    n = rank_of(g) + 1
    if not n:
        raise WordError(f"{g!r} is not a reduced word")
    words, inv = ball(len(g)), _tree(len(g)).inv[:n]
    return IndexSet(g, frozenset(words[:n] + tuple(map(words.__getitem__, inv))))


def adjacent(h, l, iset):
    """Edge test in the generalized Cayley graph at iset.origin."""
    return h != l and mul(inverse(l), h) in iset.members


def maximal_cliques(vertices, iset):
    """All maximal cliques of the induced subgraph on ``vertices`` (Bron-Kerbosch).

    Small inputs only: the oracle for words.clique and, through
    brute_force_verdict, for check_pd's reduction to the level cliques.
    """
    verts = list(vertices)
    nbrs = {
        v: {w for w in verts if w != v and adjacent(v, w, iset)} for v in verts
    }
    out = []

    def expand(r, p, x):
        if not p and not x:
            out.append(frozenset(r))
            return
        pivot = max(p | x, key=lambda v: len(nbrs[v] & p))
        for v in list(p - nbrs[pivot]):
            expand(r | {v}, p & nbrs[v], x & nbrs[v])
            p.remove(v)
            x.add(v)

    expand(set(), set(verts), set())
    return out


def brute_force_verdict(C, tol=DEFAULT_TOL):
    """The status check_pd must reach, from every maximal clique of the
    domain graph in place of the level cliques: the e block, the Gram of
    each maximal clique of the graph of the domain's index set (for a
    partial domain, I_g of the level before g), then a partial domain's
    stage restrictions, the current stage by its two one-sided halves.
    Grams come from the public gram, gram_indexed and stage_pairs alone,
    and each least eigenvalue meets check_pd's threshold, tol times the
    Gram's order."""
    dom, d = C.domain, C.d
    top = (3,) * dom.r if dom.kind == "ball" else dom.g
    iset = index_set(predecessor(top) if dom.kind == "partial" else top)
    grams = [gram(C, [()])]
    grams += [gram(C, sorted(E, key=shortlex_key)) for E in maximal_cliques(iset.members, iset)]
    if dom.kind == "partial":
        stages = [(l, m) for l in range(1, d + 1) for m in range(1, d + 1) if (l, m) < (dom.j, dom.k)]
        grams += [gram_indexed(C, stage_pairs(dom.g, d, l, m)[1]) for l, m in stages]
        Q = stage_pairs(dom.g, d, dom.j, dom.k)[1]
        grams += [gram_indexed(C, Q[:-1]), gram_indexed(C, Q[:-2] + Q[-1:])]
    least = [(np.linalg.eigvalsh(G)[0], tol * len(G)) for G in grams]
    if any(lam < -thr for lam, thr in least):
        return "not_pd"
    return "semidefinite" if any(lam <= thr for lam, thr in least) else "strict"


def predecessor_clique(g):
    """The shortlex-least level h at which K_g minus its top works, with a translate.

    Returns (h, t) where K_g \\ {g} is a clique in the level-h graph and
    K_g \\ {g} is contained in t * K_h.  Scans h upward from a; both conditions
    are required, and existence is a theorem we simply rely on (bounded scan).
    """
    kg = clique(g)
    rest = [v for v in kg.vertices if v != g]
    h = (0,)
    # The scan cannot need to pass g itself: K_g \ {g} is a clique at level g's
    # predecessor already. Cap generously and fail loudly if exceeded.  Only
    # novel levels are visited: a non-novel level has the same graph as some
    # earlier one, so it can never be the least level, and K_h needs novelty.
    for _ in range(4 * (rank_of(g) + 1) + 8):
        if not is_novel(h):
            h = successor(h)
            continue
        iset_h = index_set(h)
        ok = all(
            adjacent(u, v, iset_h) for i, u in enumerate(rest) for v in rest[i + 1:]
        )
        if ok:
            kh = clique(h).vertices
            kh_inv = [inverse(x) for x in kh]
            candidates = [mul(rest[0], x) for x in kh_inv] if rest else [()]
            for t in sorted(set(candidates), key=shortlex_key):
                t_inv = inverse(t)
                if all(mul(t_inv, v) in kh for v in rest):
                    return h, t
        h = successor(h)
    raise WordError(f"no translate level found for {word_to_str(g)}")


def r_separated(cycle, R):
    """Greedy maximal R-separated subset of a directed cycle.

    The walk starts at the least vertex of the cycle, so consecutive gaps
    sit in [R, 2R] and at least two vertices survive.  Two picks need room
    for two gaps, so cycles shorter than 2R are rejected.
    """
    if isinstance(R, bool) or not isinstance(R, int) or R < 1:
        raise SurgeryError(f"separation must be a positive integer, got {R!r}")
    length = len(cycle)
    if length < 2 * R:
        raise SurgeryError(
            f"cycle of length {length} is too short to {R}-separate (needs >= {2 * R})"
        )
    start = cycle.index(min(cycle))
    rotated = list(cycle[start:]) + list(cycle[:start])
    return [rotated[p] for p in _greedy_positions(length, R, list(range(length)))]


def reference_quotients(ws):
    """The quotient table of a word list by word arithmetic alone.

    Entry (a, b) is (c, mirrored): c the shortlex-smaller of ws[b]^-1 ws[a]
    and its inverse, mirrored whether the quotient is the inverse of c.
    """
    out = {}
    for a, h in enumerate(ws):
        for b, l in enumerate(ws):
            q = mul(inverse(l), h)
            c = min(q, inverse(q), key=shortlex_key)
            out[a, b] = (c, c != q)
    return out


def reference_gram(C, pairs):
    """Gram over (word, coordinate) pairs read entry by entry: C(w2^-1 w1)[c1, c2].

    A plain double loop over the word arithmetic and C.scalar, independent of
    the library's Gram assembly; an undefined slot reads NaN.
    """
    pairs = list(pairs)
    G = np.empty((len(pairs), len(pairs)), dtype=complex)
    for i1, (w1, c1) in enumerate(pairs):
        for i2, (w2, c2) in enumerate(pairs):
            q = mul(inverse(w2), w1)
            G[i1, i2] = C.scalar(q, c1, c2) if C.defined(q, c1, c2) else complex("nan")
    return G


def level_spectra(C):
    """(least eigenvalue, its eigenvector, pairs) of each Gram of check_pd's
    default family, one level at a time with one Gram each, its least
    eigenvalue by eigvalsh and its eigenvector by eigh: the e block, K_h x
    [d] for every novel level h of the domain but a partial top, then a
    partial domain's stage restrictions."""
    dom, d = C.domain, C.d
    families = [(tuple(((), m) for m in range(1, d + 1)), None)]
    levels = pdcore.canonical_words(dom)
    families += [(pairs(), table) for table, pairs in
                 (pdcore._clique_pairs(h, d)
                  for h in (levels[:-1] if dom.kind == "partial" else levels))]
    if dom.kind == "partial":
        families += list(pdcore._partial_stage_families(C))
    for pairs, table in families:
        G = pdcore._gram(C, pairs, table=table)
        yield float(np.linalg.eigvalsh(G)[0]), np.array(np.linalg.eigh(G)[1][:, 0]), pairs


def level_at_a_time_check_pd(C, tol=DEFAULT_TOL):
    """check_pd's default mode as a scan of level_spectra: the oracle for
    the check that batches the levels of one word length."""
    worst = None
    strict = True
    for lam, vec, pairs in level_spectra(C):
        thr = tol * len(pairs)
        if lam <= thr:
            strict = False
        if worst is None or lam < worst[0]:
            worst = (lam, pairs, vec)
        if lam < -thr:
            return PDVerdict("not_pd", lam, pairs, vec)
    lam, pairs, vec = worst
    return PDVerdict("strict" if strict else "semidefinite", lam, pairs, vec)


def two_factor_residuals(G, core_size):
    """(n_g, n_e, cross) of a stage Gram by two Cholesky factors: the core
    plus one working vector per side, the last pivot its residual norm and
    the last row its projection's coordinates.  The corner never enters.
    A pivot LAPACK could not take reads 0; core pivots are not checked."""
    m = core_size
    rows, norms = [], []
    for last in (m, m + 1):
        keep = list(range(m)) + [last]
        L, info = scipy.linalg.lapack.zpotrf(G[np.ix_(keep, keep)], lower=1, clean=1)
        pivots = np.diag(L).real.copy()
        if info > 0:
            pivots[info - 1:] = 0.0
        rows.append(L[m, :m])
        norms.append(float(pivots[m]))
    return norms[0], norms[1], complex(rows[0] @ np.conj(rows[1]))


def matches_two_factor_residuals(rd, sp, tol=1e-12):
    """Whether residual data rd is within tol of two_factor_residuals of the
    stage space sp's Gram."""
    oracle = two_factor_residuals(sp.gram, sp.core_size)
    return all(abs(x - y) <= tol for x, y in zip((rd.n_g, rd.n_e, rd.cross), oracle))


def gram_schmidt_rows(G, core_size):
    """energysolver.coordinate_rows by the core's orthogonalization matrix:
    with the core factor L, Go = (L diag(L)^-1)^-* is unit upper triangular,
    its column i the conjugated coefficients over the core of the i-th
    unnormalized Gram-Schmidt vector z_i, so (G[:, :m] @ Go)[q, i] is
    <y_q, z_i>, and y_q's coefficient on z_i that over ||z_i||^2 = L[i, i]^2.
    Only the core columns are read, so the corner never enters."""
    m = core_size
    if m == 0:
        return np.zeros((0, G.shape[0]), dtype=complex)
    L, info = scipy.linalg.lapack.zpotrf(G[:m, :m], lower=1, clean=1)
    assert info == 0
    pivots = np.diag(L).real
    # inverting the unit lower triangular L diag(L)^-1 keeps Go's diagonal exactly one
    Go = scipy.linalg.lapack.ztrtri(L / pivots, lower=1, unitdiag=1)[0].conj().T
    return (G[:, :m] @ Go / pivots ** 2).T


def random_unit_complex(rng):
    phi = rng.uniform(0.0, 2.0 * np.pi)
    return complex(np.cos(phi), np.sin(phi))


def random_search_energy(G_C, G_D, seed=0, rounds=10, per_round=10_000):
    """Derivative-free maximization of the Rayleigh ratio x*G_D x / x*G_C x.

    Ten shrinking-neighborhood rounds spend the sample budget; no
    eigensolver is involved, so this is an independent check of the
    generalized-eigenvalue route.
    """
    rng = np.random.default_rng(seed)
    n = G_C.shape[0]
    best_x, best_v = None, -np.inf
    radius = 1.0
    for _ in range(rounds):
        Z = rng.normal(size=(per_round, n)) + 1j * rng.normal(size=(per_round, n))
        if best_x is not None:
            Z = best_x[None, :] + radius * Z
            radius *= 0.5
        num = np.einsum("ij,jk,ik->i", Z.conj(), G_D, Z).real
        den = np.einsum("ij,jk,ik->i", Z.conj(), G_C, Z).real
        vals = num / den
        i = int(np.argmax(vals))
        if vals[i] > best_v:
            best_v = float(vals[i])
            best_x = Z[i] / np.linalg.norm(Z[i])
    return best_v


def seeded_rim_policy(seed, spread=0.45, cap=0.9):
    """A stage-parameter policy drawing independent values inside |z| <= cap."""
    from freepd.extend import ParameterPolicy

    r = np.random.default_rng(seed)

    def rule(stage, current, context):
        z = spread * (r.standard_normal() + 1j * r.standard_normal()) / np.sqrt(2)
        a = abs(z)
        return z if a <= cap else z * cap / a

    return ParameterPolicy(rule, name="seeded")


def stage_function(seed, gs="aaaaa", d=1):
    """A random strict d-dim function restricted to the stage (gs, 1, 1).

    Built by extending a radius-2 random function out to |gs| with a seeded
    policy, so different seeds give genuinely different boundary behavior,
    then cutting back to the single stage of interest.
    """
    from freepd.extend import extend_ball
    from freepd.pdcore import random_nspd, restrict_to_stage

    C2 = random_nspd(2, d, seed=seed)
    C_full = extend_ball(C2, len(gs), policy=seeded_rim_policy(seed + 1000))
    return restrict_to_stage(C_full, gs, 1, 1)


def eta_budget_oracle(family, eta_prime):
    """energysolver._eta_budget rebuilt from each stage's own index list:
    the restriction Grams X_g, X_e by gram_indexed over P + one working
    pair, and the slot multiplicities from _gram_slots over Q
    (pdcore.stage_pairs) rather than the level's clique table."""
    s = eta_prime / (1.0 + math.sqrt(1.0 + eta_prime))  # sqrt(1 + eta') - 1, uncancelled
    budget, mult = np.inf, 1
    for C in family:
        P, Q = pdcore.stage_pairs(C.domain.g, C.d, C.domain.j, C.domain.k)
        _, slots, coords = pdcore._gram_slots(C, Q)
        keys = (slots * C.d + coords[:, None]) * C.d + coords[None, :]
        m = len(P)
        for last in (m, m + 1):
            lam = scipy.linalg.eigvalsh(pdcore.gram_indexed(C, P + (Q[last],)))[0]
            budget = min(budget, s * lam / 2.0)
            sub = np.r_[:m, last]
            mult = max(mult, int(np.unique(keys[np.ix_(sub, sub)], return_counts=True)[1].max()))
    return float(budget / mult)


def function_to_dict(C):
    """The JSON object form of C, built as nested lists: the oracle for
    pdcore.save_function, whose file is json.dumps(function_to_dict(C),
    indent=1) and a newline, byte for byte.  Keys are the canonical words'
    texts in shortlex order, cells [re, im], null where a partial top is
    NaN."""
    dom, keys = C.domain, [word_to_str(w) for w in pdcore.canonical_words(C.domain)]
    dd = {"kind": dom.kind}
    if dom.kind == "ball":
        dd["r"] = dom.r
    else:
        dd["g"] = word_to_str(dom.g)
    if dom.kind == "partial":
        dd.update(j=dom.j, k=dom.k)
    cells = np.ascontiguousarray(C._stack).view(float).reshape(len(keys), C.d, C.d, 2).tolist()
    if dom.kind == "partial":
        for l, m in np.argwhere(np.isnan(C._stack[-1])).tolist():
            cells[-1][l][m] = None
    return {"d": C.d, "domain": dd, "entries": dict(zip(keys, cells))}


def _cell_to_complex(cell, path, l, m):
    if cell is None:
        return complex("nan")
    ok = isinstance(cell, (list, tuple)) and len(cell) == 2 and all(
        (isinstance(x, int) and not isinstance(x, bool) and -2 ** 63 <= x < 2 ** 63)
        or (isinstance(x, float) and math.isfinite(x)) for x in cell)
    if not ok:
        raise FormatError(path, f"position ({l},{m}) must be a finite [re, im] pair or null")
    return complex(cell[0], cell[1])


def per_entry_function_from_dict(obj):
    """(d, domain, stack) of a function's JSON object form, read an entry
    and a cell at a time: the oracle of pdcore.function_from_dict, with its
    FormatError keys and messages.  Rows are kept by canonical word and the
    domain's canonical words are walked in shortlex order (successor) only
    up to the first row that is wrong or missing, so a huge d or radius
    allocates nothing."""
    if not isinstance(obj, dict):
        raise FormatError("$", "top level must be an object")
    for key in ("d", "domain", "entries"):
        if key not in obj:
            raise FormatError(key, f"missing required key {key!r}")
    pdcore._expect_keys(obj, {"d", "domain", "entries"}, "$")
    d = obj["d"]
    if isinstance(d, bool) or not isinstance(d, int) or d < 1:
        raise FormatError("d", "d must be a positive integer")
    domain = pdcore._domain_from_dict(obj["domain"])
    ent = obj["entries"]
    if not isinstance(ent, dict):
        raise FormatError("entries", "entries must be an object")
    parsed = {}
    for key, mat in ent.items():
        path = f"entries.{key}"
        try:
            w = word_from_str(key)
        except WordError as exc:
            raise FormatError(path, str(exc))
        if not isinstance(mat, list) or len(mat) != d or any(
            not isinstance(row, list) or len(row) != d for row in mat
        ):
            raise FormatError(path, f"entry must be a {d} x {d} array")
        parsed[w] = [[_cell_to_complex(cell, path, l + 1, m + 1) for m, cell in enumerate(row)]
                     for l, row in enumerate(mat)]
    try:
        return d, domain, _per_entry_stack(d, domain, parsed)
    except EntryError as exc:
        raise FormatError(f"entries.{exc.word}", str(exc)) from None
    except ParameterError as exc:
        too_many = domain.kind == "partial" and max(domain.j, domain.k) > d
        raise FormatError("domain.j" if too_many else "d", str(exc)) from None


def _per_entry_stack(d, domain, entries):
    pdcore._check_header(d, domain)
    r = domain.r if domain.kind == "ball" else len(domain.g)

    def inside(c):  # of a canonical word: at most the radius, and up to g
        return len(c) <= r and (domain.kind == "ball" or shortlex_key(c) <= shortlex_key(domain.g))

    rows, given = {}, {}
    for w, raw in entries.items():
        c, text = canonical_rep(w), word_to_str(w)
        if w and not inside(c):
            raise EntryError(text, f"{text} is outside the domain")
        arr = np.array(raw, dtype=complex)
        val = arr.conj().T if c != w else arr
        if not w:
            if not np.max(np.abs(val - np.eye(d))) <= MIRROR_TOL:
                raise EntryError(text, "C(e) must be the d x d identity")
        elif c not in rows:
            rows[c], given[c] = val, w
        elif not np.allclose(rows[c], val, rtol=0, atol=MIRROR_TOL, equal_nan=True):
            raise EntryError(text, f"entries for {text} and its inverse are not "
                                   "conjugate transposes of each other")
    order, w = [], successor(())
    while inside(w):
        if is_novel(w):
            order.append(w)
            top = domain.kind == "partial" and w == domain.g
            expected = (np.arange(d * d).reshape(d, d) >= (domain.j - 1) * d + domain.k - 1
                        if top else np.zeros((d, d), bool))
            if w not in rows:  # a row no entry gives: undefined throughout
                if top and (domain.j, domain.k) == (1, 1):
                    rows[w] = np.full((d, d), complex("nan"))
                    break
                text = word_to_str(w)
                raise MissingEntryError(text, f"C({text})[1,1] is undefined, but the domain defines it")
            for l, m in np.argwhere(np.isnan(rows[w]) != expected)[:1]:
                name, where = word_to_str(given[w]), f"C({word_to_str(w)})[{l + 1},{m + 1}]"
                if np.isnan(rows[w][l, m]):
                    raise MissingEntryError(name, f"{where} is undefined, but the domain defines it")
                raise EntryError(name, f"{where} lies beyond the declared stage position and must be NaN")
        w = successor(w)
    if d * d * 16 > 2 ** 63 - 1:  # no d x d complex matrix fits in 64-bit addresses
        raise ParameterError(f"d = {d} is too large: a d x d complex matrix cannot be addressed")
    return np.array([rows[w] for w in order], complex).reshape(len(order), d, d)


def source_loader(functions):
    """configuration_from_dict's load over a dict keyed by source: an unknown
    source raises FormatError keyed by it, as the CLI's reader does for a
    file it cannot read."""
    def load(src):
        if src not in functions:
            raise FormatError(src, f"cannot load {src}")
        return functions[src]
    return load


def mix_functions(A, B, weight):
    """Entrywise convex mix of two functions on the same domain."""
    from freepd.pdcore import PDFunction

    Bd = dict(B.canonical_items())
    entries = {
        w: (1.0 - weight) * np.array(arr) + weight * np.array(Bd[w])
        for w, arr in A.canonical_items()
    }
    return PDFunction(A.d, A.domain, entries)


def girth_permutation(n, min_len, rng):
    """A permutation of range(n) whose cycles all have length >= min_len.

    Shuffled vertices are chopped into blocks of length min_len..2*min_len
    (the tail is absorbed into the last block) and each block becomes one
    cycle.
    """
    verts = list(rng.permutation(n))
    perm = [0] * n
    i = 0
    while i < n:
        take = int(rng.integers(min_len, 2 * min_len + 1))
        if n - i - take < min_len:
            take = n - i
        block = verts[i:i + take]
        for j, v in enumerate(block):
            perm[v] = block[(j + 1) % len(block)]
        i += take
    return tuple(perm)


def random_labeled_graph(n, R, seed, connected=True):
    """A seeded valid surgery input: both permutations have girth >= 4R.

    When connected is set the seed is bumped until the union of the two
    edge sets is weakly connected, so directed-reachability conditions are
    meaningful.
    """
    from freepd.surgery import LabeledGraph

    for attempt in range(64):
        rng = np.random.default_rng(seed + 1000 * attempt)
        g = LabeledGraph(
            n,
            girth_permutation(n, 4 * R, rng),
            girth_permutation(n, 4 * R, rng),
        )
        if not connected or _weakly_connected(g):
            return g
    raise RuntimeError(f"no connected instance near seed {seed}")


def _weakly_connected(g):
    seen = {0}
    stack = [0]
    inv_a = {w: v for v, w in enumerate(g.perm_a)}
    inv_b = {w: v for v, w in enumerate(g.perm_b)}
    while stack:
        v = stack.pop()
        for w in (g.perm_a[v], g.perm_b[v], inv_a[v], inv_b[v]):
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == g.n


def orbit_cycles(out):
    """Cycle decomposition of a vertex->vertex bijection given as a dict,
    walked vertex by vertex: the oracle for ``surgery._cycle_labels``.

    Cycles start at their least vertex and are listed by that least vertex.
    """
    seen = set()
    result = []
    for v in sorted(out):
        if v in seen:
            continue
        cyc = [v]
        seen.add(v)
        w = out[v]
        while w != v:
            cyc.append(w)
            seen.add(w)
            w = out[w]
        result.append(cyc)
    return result


def ball_match(steps0, steps1, root, radius):
    """Rooted labeled ball isomorphism test between two step tables (lists
    of the four rows of surgery._step_rows): the oracle for surgery's G-1
    census (``_balls_kept``).

    Walks both graphs in lockstep from the common root, pairing vertices
    reached by identical letter walks.  The pairing must stay single
    valued and injective, and every labeled edge inside either ball must
    have its mirror inside the other.
    """
    fwd = {root: root}
    back = {root: root}
    frontier = [root]
    for _ in range(radius):
        nxt = []
        for x in frontier:
            y = fwd[x]
            for l in range(4):
                x2, y2 = steps0[l][x], steps1[l][y]
                if x2 in fwd:
                    if fwd[x2] != y2:
                        return False
                elif y2 in back:
                    return False
                else:
                    fwd[x2] = y2
                    back[y2] = x2
                    nxt.append(x2)
        frontier = nxt
    for x, y in fwd.items():
        for l in range(4):
            x2, y2 = steps0[l][x], steps1[l][y]
            if (x2 in fwd) != (y2 in back):
                return False
            if x2 in fwd and fwd[x2] != y2:
                return False
    return True


# Queue-based graph searches over Python containers: the oracle for
# surgery's array sweeps (``_sweep``, ``_undisturbed_set``).


def undirected_adjacency(a_out, b_out, count):
    """Neighbour lists of the undirected union of two vertex->vertex maps."""
    adj = [[] for _ in range(count)]
    for out in (a_out, b_out):
        for v, w in out.items():
            adj[v].append(w)
            adj[w].append(v)
    return adj


def bfs_layers(adj, sources):
    """Yield (vertex, distance) in breadth-first order from the sources."""
    seen = {v: 0 for v in sources}
    queue = deque(seen)
    while queue:
        v = queue.popleft()
        d = seen[v]
        yield v, d
        for w in adj[v]:
            if w not in seen:
                seen[w] = d + 1
                queue.append(w)


def directed_distances(graph, sources, blocked=()):
    """Distances along a- and b-edges, -1 where unreached or blocked."""
    dist = [-1] * graph.n
    queue = deque()
    block = set(blocked)
    for v in sources:
        if v not in block and dist[v] < 0:
            dist[v] = 0
            queue.append(v)
    while queue:
        v = queue.popleft()
        for w in (graph.perm_a[v], graph.perm_b[v]):
            if w not in block and dist[w] < 0:
                dist[w] = dist[v] + 1
                queue.append(w)
    return dist


def undirected_distances(adj, source, blocked=()):
    """Distances from one source as a dict; a blocked source reaches only itself."""
    dist = {source: 0}
    if source in blocked:
        return dist
    queue = deque([source])
    while queue:
        v = queue.popleft()
        for w in adj[v]:
            if w not in dist and w not in blocked:
                dist[w] = dist[v] + 1
                queue.append(w)
    return dist


def undisturbed_set(before, after, touched, r):
    """Originals farther than r from every touched vertex, by set adjacency
    over the union of the old and new edges."""
    count = after.n
    adj = [set() for _ in range(count)]
    for perm in (after.perm_a, after.perm_b):
        for v, w in enumerate(perm):
            adj[v].add(w)
            adj[w].add(v)
    for perm in (before.perm_a, before.perm_b):
        for v in range(before.n):
            adj[v].add(perm[v])
            adj[perm[v]].add(v)
    near = set()
    for v, d in bfs_layers([sorted(s) for s in adj], sorted(touched)):
        if d > r:
            break
        near.add(v)
    return [v for v in range(before.n) if v not in near]
