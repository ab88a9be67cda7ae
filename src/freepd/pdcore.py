"""Matrix-valued functions on the free group: storage, Gram matrices, positivity.

A function C assigns a d x d complex matrix to each reduced word of its
domain, with C(e) = I and the Hermitian mirror C(g^-1) = C(g)^*.  Positive
definiteness is a statement about Gram matrices: for any finite word list E
whose pairwise quotients stay inside the domain, the block matrix with block
(h, l) equal to C(l^-1 h) must be positive semidefinite.  Inner products are
linear in the first slot throughout the package, so the convention reads
<Phi(h)_j, Phi(l)_k> = C(l^-1 h)_{j,k}; coordinate indices are 1-based.

Positivity of a fully specified function is decided on the family
{K_h : h a novel level of the domain}: every maximal clique of every level
graph is a translate of some K_h, translates have identical Gram matrices,
and the least level at which a given clique occurs is itself novel.  A
brute-force mode enumerates all maximal cliques instead, kept around so the
reduction stays falsifiable.  A partially specified top level (the state
midway through an extension stage) is checked through the stage restriction
matrices, which are exactly its fully defined principal submatrices.

Only one of {g, g^-1} is stored, the shortlex-smaller one; the mirror is
materialized on read, and every Gram of the package is one gather (_gram)
through a quotient table cached per word list.  Stored arrays are marked
read-only, and an undefined slot of a partial top row is a complex NaN.
"""

from __future__ import annotations

import json
import os
import tempfile
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.stats import unitary_group

from . import words
from .errors import (
    DomainError,
    EntryError,
    FormatError,
    MissingEntryError,
    NotPositiveError,
    NotStrictError,
    ParameterError,
    WordError,
)
from .words import (
    Word,
    clique,
    index_set,
    inverse,
    is_novel,
    maximal_cliques,
    mul,
    reduce_word,
    shortlex_key,
    word_from_str,
    word_to_str,
)

DEFAULT_TOL = 1e-10
MIRROR_TOL = 1e-12


def _as_word(key) -> Word:
    """Accept a word as a tuple of letters or as text; validate either way."""
    if isinstance(key, str):
        return word_from_str(key)
    w = tuple(key)
    if not all(x in (0, 1, 2, 3) for x in w):
        raise WordError(f"bad letters in {w!r}")
    if reduce_word(w) != w:
        raise WordError(f"{word_to_str(w)} is not reduced")
    return w


def canonical_rep(w: Word) -> Word:
    """The stored representative of {w, w^-1}: the shortlex-smaller one."""
    wi = inverse(w)
    return w if shortlex_key(w) <= shortlex_key(wi) else wi


@dataclass(frozen=True)
class Domain:
    """Where a function lives.

    kind "ball": all words of length <= r.
    kind "prefix": the symmetric index set I_g of the level g.
    kind "partial": I_g with the top matrix C(g) only defined at positions
    (l, m) lexicographically before the stage coordinates (j, k); requires
    a novel g, since only novel levels carry extension stages.
    """

    kind: str
    r: int = None
    g: Word = None
    j: int = None
    k: int = None

    @staticmethod
    def ball(r: int) -> "Domain":
        if isinstance(r, bool) or not isinstance(r, int) or r < 0:
            raise ParameterError("ball radius must be a nonnegative integer")
        return Domain("ball", r=r)

    @staticmethod
    def prefix(g) -> "Domain":
        return Domain("prefix", g=_as_word(g))

    @staticmethod
    def partial(g, j: int, k: int) -> "Domain":
        w = _as_word(g)
        if not is_novel(w):
            raise WordError(
                f"partial domains live at novel levels; {word_to_str(w)} is not one"
            )
        for name, v in (("j", j), ("k", k)):
            if isinstance(v, bool) or not isinstance(v, int) or v < 1:
                raise ParameterError(f"stage coordinate {name} must be a positive integer")
        return Domain("partial", g=w, j=j, k=k)


@lru_cache(maxsize=None)
def _domain_iset(domain: Domain):
    """The index set whose members are exactly the domain's words."""
    if domain.kind == "ball":
        return index_set((3,) * domain.r)
    return index_set(domain.g)


@lru_cache(maxsize=None)
def domain_words(domain: Domain) -> tuple:
    """Every word of the domain, shortlex sorted (mirrors included)."""
    return tuple(sorted(_domain_iset(domain).members, key=shortlex_key))


@lru_cache(maxsize=None)
def canonical_words(domain: Domain) -> tuple:
    """The canonical (novel) representatives a total function must specify."""
    return tuple(w for w in domain_words(domain) if w and is_novel(w))


def _undefined_top(domain: Domain, d: int) -> np.ndarray:
    """The d x d mask of the slots of C(g) a partial domain leaves undefined."""
    return np.arange(d * d).reshape(d, d) >= (domain.j - 1) * d + domain.k - 1


def _mirror_gap(a: np.ndarray, b: np.ndarray) -> float:
    """Largest deviation between two candidate values for the same entry."""
    na, nb = np.isnan(a), np.isnan(b)
    if not np.array_equal(na, nb):
        return np.inf
    if na.all():
        return 0.0
    return float(np.nanmax(np.abs(a - b)))


class PDFunction:
    """An immutable matrix-valued function on a Domain.

    entries maps words (tuples or text) to d x d arrays; scalars are accepted
    when d = 1.  Whichever of {g, g^-1} arrives, the canonical representative
    is stored; supplying both is allowed when they agree under conjugate
    transposition to within 1e-12.  The function must be total on its domain,
    except that the top level of a partial domain carries NaN beyond the
    stage position.  Positivity is NOT checked here: check_pd passes verdicts,
    constructors pass data.
    """

    __slots__ = ("d", "domain", "_entries")

    def __init__(self, d: int, domain: Domain, entries):
        if isinstance(d, bool) or not isinstance(d, int) or d < 1:
            raise ParameterError("d must be a positive integer")
        if not isinstance(domain, Domain):
            raise ParameterError("domain must be a Domain")
        if domain.kind == "partial" and (domain.j > d or domain.k > d):
            raise ParameterError("partial stage coordinates exceed d")
        members = _domain_iset(domain).members
        canon = {}
        given = {}
        for key, raw in entries.items():
            w = key if key in members else _as_word(key)
            if w not in members:
                text = word_to_str(w)
                raise EntryError(text, f"{text} is outside the domain")
            arr = np.array(raw, dtype=complex)
            if arr.shape == () and d == 1:
                arr = arr.reshape(1, 1)
            if arr.shape != (d, d):
                raise ParameterError(
                    f"entry for {word_to_str(w)} has shape {arr.shape}, expected {(d, d)}"
                )
            c = canonical_rep(w)
            val = arr if c == w else arr.conj().T
            if c not in canon:
                canon[c], given[c] = val, w
            elif _mirror_gap(canon[c], val) > MIRROR_TOL:
                raise EntryError(
                    word_to_str(w),
                    f"entries for {word_to_str(w)} and its inverse are not "
                    "conjugate transposes of each other",
                )
        ident = canon.pop((), None)
        if ident is not None and not np.max(np.abs(ident - np.eye(d))) <= MIRROR_TOL:
            raise EntryError(word_to_str(given[()]), "C(e) must be the d x d identity")
        top = domain.g if domain.kind == "partial" else None
        if top is not None and top not in canon:
            # an absent top is all NaN, which only stage (1, 1) accepts
            canon[top], given[top] = np.full((d, d), complex("nan")), top
        if len(canon) < len(canonical_words(domain)):
            w = next(w for w in canonical_words(domain) if w not in canon)
            raise MissingEntryError(
                word_to_str(w), f"domain requires an entry for {word_to_str(w)}"
            )
        # One pass over every stored value: NaN marks exactly the undefined
        # slots, which only the top of a partial domain has.
        keys = list(canon)
        undefined = np.isnan(np.array(list(canon.values())).reshape(-1, d, d))
        expected = np.zeros_like(undefined)
        if top is not None:
            expected[keys.index(top)] = _undefined_top(domain, d)
        for i, l, m in np.argwhere(undefined != expected)[:1]:
            where = f"C({word_to_str(keys[i])})[{l + 1},{m + 1}]"
            if undefined[i, l, m]:
                raise MissingEntryError(
                    word_to_str(given[keys[i]]), f"{where} is defined but not given"
                )
            raise EntryError(
                word_to_str(given[keys[i]]),
                f"{where} lies beyond the declared stage position and must be NaN",
            )
        for arr in canon.values():
            arr.setflags(write=False)
        self.d = d
        self.domain = domain
        self._entries = canon

    def scalar(self, w, j: int, k: int) -> complex:
        """C(w)_{j,k} with 1-based coordinates, mirroring as needed."""
        if not (1 <= j <= self.d and 1 <= k <= self.d):
            raise ParameterError(f"coordinates ({j},{k}) out of range for d={self.d}")
        w = _as_word(w)
        if w == ():
            return 1 + 0j if j == k else 0j
        c = canonical_rep(w)
        arr = self._entries.get(c)
        if arr is None:
            raise MissingEntryError(word_to_str(c))
        v = arr[j - 1, k - 1] if c == w else np.conj(arr[k - 1, j - 1])
        if np.isnan(v):
            raise MissingEntryError(
                word_to_str(c),
                f"C({word_to_str(w)})[{j},{k}] is beyond the defined part of the stage",
            )
        return complex(v)

    def entry(self, w) -> np.ndarray:
        """The full matrix C(w), read as the Gram block <Phi(w), Phi(e)>;
        fails on the partially defined top level."""
        E = range(1, self.d + 1)
        return _gram(self, [(_as_word(w), m) for m in E] + [((), m) for m in E])[
            :self.d, self.d:]

    def defined(self, w, j: int, k: int) -> bool:
        w = _as_word(w)
        if w == ():
            return True
        c = canonical_rep(w)
        arr = self._entries.get(c)
        if arr is None:
            return False
        return not np.isnan(arr[j - 1, k - 1] if c == w else arr[k - 1, j - 1])

    def canonical_items(self):
        """(word, matrix) pairs of the stored representatives, shortlex order."""
        for w in sorted(self._entries, key=shortlex_key):
            yield w, self._entries[w]

    def __eq__(self, other):
        if not isinstance(other, PDFunction):
            return NotImplemented
        if self.d != other.d or self.domain != other.domain:
            return False
        if set(self._entries) != set(other._entries):
            return False
        return all(
            np.array_equal(a, other._entries[w], equal_nan=True)
            for w, a in self._entries.items()
        )

    __hash__ = None

    def __repr__(self):
        return f"<PDFunction d={self.d} {self.domain} with {len(self._entries)} entries>"


def delta(d: int, domain: Domain) -> PDFunction:
    """The normalized point mass at e: identity there, zero elsewhere."""
    entries = {w: np.zeros((d, d), dtype=complex) for w in canonical_words(domain)}
    if domain.kind == "partial":
        entries[domain.g][_undefined_top(domain, d)] = np.nan
    return PDFunction(d, domain, entries)


@lru_cache(maxsize=None)
def _quotient_table(ws: tuple):
    """(quotients, slots) of the distinct words ws: the canonical l^-1 h
    (h, l in ws), e first, and slots[a, b], where C(ws[b]^-1 ws[a]) sits in
    their stacked entries followed by their conjugate transposes."""
    position = {(): 0}
    slots = np.zeros((len(ws), len(ws)), dtype=np.intp)
    mirrored = np.zeros(slots.shape, dtype=bool)
    invs = [inverse(w) for w in ws]
    for a, b in zip(*np.triu_indices(len(ws), 1)):
        # the (b, a) quotient is the inverse of the (a, b) one, never equal
        q, q_inv = mul(invs[b], ws[a]), mul(invs[a], ws[b])
        flip = shortlex_key(q_inv) < shortlex_key(q)
        slots[a, b] = slots[b, a] = position.setdefault(q_inv if flip else q, len(position))
        mirrored[a, b], mirrored[b, a] = flip, not flip
    slots += mirrored * len(position)
    slots.setflags(write=False)
    return tuple(position), slots


def _gram_slots(pairs):
    """The quotients, the stack slot of every Gram entry and the 0-based
    coordinates of validated (word, coordinate) pairs."""
    ws = tuple(dict.fromkeys(w for w, _ in pairs))
    quotients, slots = _quotient_table(ws)
    row = {w: a for a, w in enumerate(ws)}
    rows = [row[w] for w, _ in pairs]
    return quotients, slots[np.ix_(rows, rows)], np.array([c - 1 for _, c in pairs], int)


def _gram(C: PDFunction, pairs, corner: bool = False) -> np.ndarray:
    """The one Gram assembly: G[i1, i2] = C(w2^-1 w1)[c1, c2] as one gather
    over validated pairs.  A NaN (a quotient outside the domain, an undefined
    slot) raises, except at the corner of the last two pairs if corner is set."""
    quotients, slots, coords = _gram_slots(pairs)
    missing = np.full((C.d, C.d), complex("nan"))
    stack = np.array([np.eye(C.d, dtype=complex)]
                     + [C._entries.get(q, missing) for q in quotients[1:]])
    stack = np.concatenate([stack, stack.conj().transpose(0, 2, 1)])
    G = stack[slots, coords[:, None], coords]
    undefined = np.isnan(G)
    if corner:
        undefined[-2, -1] = undefined[-1, -2] = False
    for i1, i2 in np.argwhere(undefined)[:1]:
        c = word_to_str(quotients[slots[i1, i2] % len(quotients)])
        raise MissingEntryError(c, f"the Gram reads C({c}), which is missing or partial")
    return G


def gram_indexed(C: PDFunction, pairs) -> np.ndarray:
    """Gram matrix over explicit (word, coordinate) pairs, coordinates 1-based.

    Entry (i1, i2) is <Phi(w1)_{c1}, Phi(w2)_{c2}> = C(w2^-1 w1)_{c1, c2}.
    Exactly Hermitian by construction since mirrored reads conjugate exactly.
    """
    pairs = [(_as_word(w), c) for w, c in pairs]
    for _, c in pairs:
        if not (isinstance(c, int) and 1 <= c <= C.d):
            raise ParameterError(f"coordinate {c!r} out of range for d={C.d}")
    return _gram(C, pairs)


def gram(C: PDFunction, E) -> np.ndarray:
    """Block Gram matrix of the word list E: block (h, l) equals C(l^-1 h)."""
    E = [_as_word(w) for w in E]
    return gram_indexed(C, ((h, m) for h in E for m in range(1, C.d + 1)))


def stage_pairs(g, d: int, j: int, k: int):
    """Index lists (P, Q) of the extension stage (g, j, k) at dimension d.

    P holds the already-pinned coordinates: every coordinate of the clique
    interior K_g minus {e, g} in shortlex order, then (g, m) for m < j, then
    (e, m) for m < k.  Q appends the working pair (g, j), (e, k); the Gram
    over Q has exactly one undefined entry pair, <Theta(g)_j, Theta(e)_k>.
    """
    g = _as_word(g)
    if not (1 <= j <= d and 1 <= k <= d):
        raise ParameterError(f"stage coordinates ({j},{k}) out of range for d={d}")
    interior = [h for h in clique(g).vertices if h != () and h != g]
    P = [(h, m) for h in interior for m in range(1, d + 1)]
    P += [(g, m) for m in range(1, j)]
    P += [((), m) for m in range(1, k)]
    Q = P + [(g, j), ((), k)]
    return tuple(P), tuple(Q)


@dataclass(frozen=True)
class PDVerdict:
    """Outcome of a positivity check.

    status is "strict", "semidefinite" or "not_pd"; min_eigenvalue and the
    witness describe the extremal Gram matrix found (for not_pd the witness
    vector alpha satisfies alpha* G alpha < 0).
    """

    status: str
    min_eigenvalue: float
    witness_indices: tuple
    witness_vector: np.ndarray

    def witness_words(self) -> tuple:
        return tuple(dict.fromkeys(w for w, _ in self.witness_indices))


def _partial_stage_families(C: PDFunction):
    dom, d = C.domain, C.d
    for l in range(1, d + 1):
        for m in range(1, d + 1):
            if (l, m) > (dom.j, dom.k):
                return
            P, Q = stage_pairs(dom.g, d, l, m)
            if (l, m) == (dom.j, dom.k):
                # current stage: the two one-sided restrictions are the
                # largest fully defined principal submatrices
                yield P + ((dom.g, l),)
                yield P + (((), m),)
                return
            yield Q


def _gram_families(C: PDFunction, brute_force: bool, cap: int):
    yield tuple(((), m) for m in range(1, C.d + 1))
    dom = C.domain
    if dom.kind == "partial":
        base = index_set(words.predecessor(dom.g))
    else:
        base = _domain_iset(dom)
    if brute_force:
        verts = sorted(base.members, key=shortlex_key)
        found = sorted(
            (tuple(sorted(cl, key=shortlex_key)) for cl in maximal_cliques(verts, base)),
            key=lambda E: (len(E), tuple(map(shortlex_key, E))),
        )
        for E in found:
            if len(E) > cap:
                raise ParameterError(
                    f"brute-force clique of size {len(E)} exceeds the cap {cap}"
                )
            yield tuple((h, m) for h in E for m in range(1, C.d + 1))
    else:
        for h in base.prefixes:
            if h and is_novel(h):
                yield tuple(
                    (w, m) for w in clique(h).vertices for m in range(1, C.d + 1)
                )
    if dom.kind == "partial":
        yield from _partial_stage_families(C)


def check_pd(C: PDFunction, tol: float = DEFAULT_TOL, brute_force: bool = False,
             cap: int = 64) -> PDVerdict:
    """Classify C as strict, semidefinite or not_pd, with an extremal witness.

    The default family is one Gram matrix per novel level (plus the stage
    restrictions on partial domains); brute_force=True checks every maximal
    clique of the domain graph instead.  Eigenvalues are compared against
    tol scaled by the matrix dimension; crossing below the negative threshold
    ends the scan immediately with that clique and eigenvector as certificate.
    """
    worst = None
    strict = True
    for pairs in _gram_families(C, brute_force, cap):
        G = gram_indexed(C, pairs)
        vals, vecs = np.linalg.eigh(G)
        lam = float(vals[0])
        thr = tol * len(pairs)
        if lam <= thr:
            strict = False
        if worst is None or lam < worst[0]:
            worst = (lam, pairs, np.array(vecs[:, 0]))
        if lam < -thr:
            return PDVerdict("not_pd", lam, pairs, np.array(vecs[:, 0]))
    lam, pairs, vec = worst
    return PDVerdict("strict" if strict else "semidefinite", lam, pairs, vec)


@dataclass(frozen=True)
class Realization:
    """Concrete vectors behind a positive function.

    Row i of factors is the vector Phi at indices[i]; the Gram matrix of the
    rows reproduces gram to reconstruction_error (max entry deviation).
    """

    indices: tuple
    gram: np.ndarray
    factors: np.ndarray
    reconstruction_error: float

    def vector(self, w, j: int = 1) -> np.ndarray:
        return self.factors[self.indices.index((_as_word(w), j))]


def realize(C: PDFunction, tol: float = DEFAULT_TOL) -> Realization:
    """Factor the Gram of C into vectors: over B_{r//2} for a ball domain of
    radius r, over K_g for a prefix domain (so every needed product stays
    inside the data).  Eigenvalues in [-tol*n, 0] are clipped to zero; worse
    ones raise."""
    dom = C.domain
    if dom.kind == "ball":
        E = words.ball(dom.r // 2)
    elif dom.kind == "prefix":
        E = clique(dom.g).vertices
    else:
        raise DomainError("cannot realize a partially specified function")
    pairs = tuple((h, m) for h in E for m in range(1, C.d + 1))
    G = gram_indexed(C, pairs)
    vals, vecs = np.linalg.eigh(G)
    thr = tol * len(pairs)
    if vals[0] < -thr:
        raise NotPositiveError(
            f"minimum Gram eigenvalue {vals[0]:.3e} is below the tolerance -{thr:.1e}"
        )
    lam = np.clip(vals, 0.0, None)
    keep = lam > 0.0
    F = vecs[:, keep] * np.sqrt(lam[keep])
    err = float(np.max(np.abs(F @ F.conj().T - G))) if len(pairs) else 0.0
    bound = 1e-10 * max(float(np.max(np.abs(G))), 1.0)
    if err > bound:  # pragma: no cover - eigh is far more accurate than this
        raise NotPositiveError(f"factorization failed to reproduce the Gram ({err:.3e})")
    return Realization(indices=pairs, gram=G, factors=F, reconstruction_error=err)


def random_nspd(r: int, d: int, seed=0, margin: float = 0.1) -> PDFunction:
    """Random normalized strictly positive definite function on Ball(r).

    The base function is realized by unit vectors pi(w) e_j where pi sends
    the two generators to independent Haar unitaries (so positivity is
    structural, not numerical), then mixed toward the point mass:
    (1 - margin) C0 + margin Delta.  Every Gram matrix of the result has
    minimum eigenvalue at least margin.  Deterministic in seed.
    """
    if isinstance(r, bool) or not isinstance(r, int) or r < 0:
        raise ParameterError("radius must be a nonnegative integer")
    if isinstance(d, bool) or not isinstance(d, int) or d < 1:
        raise ParameterError("d must be a positive integer")
    if not 0 < margin <= 1:
        raise ParameterError("margin must lie in (0, 1]")
    rng = np.random.default_rng(seed)
    dim = max(2 * d, 3)
    u_a = unitary_group.rvs(dim, random_state=rng)
    u_b = unitary_group.rvs(dim, random_state=rng)
    gens = (u_a, u_b, u_a.conj().T, u_b.conj().T)
    reps = {(): np.eye(dim, dtype=complex)}
    entries = {}
    for w in words.ball(r):
        if not w:
            continue
        reps[w] = reps[w[:-1]] @ gens[w[-1]]
        if is_novel(w):
            # <pi(w) e_j, e_k> is the (k, j) entry, hence the transpose
            entries[w] = (1.0 - margin) * reps[w][:d, :d].T
    out = PDFunction(d, Domain.ball(r), entries)
    verdict = check_pd(out)
    if verdict.status != "strict" or verdict.min_eigenvalue < margin / 2:
        raise NotStrictError(  # pragma: no cover - structurally impossible
            "random instance failed its strictness guarantee"
        )
    return out


def mix_with_delta(C: PDFunction, s: float) -> PDFunction:
    """The convex mixture (1 - s) C + s Delta on the same domain."""
    if not 0 <= s <= 1:
        raise ParameterError("mixture weight must lie in [0, 1]")
    entries = {w: (1.0 - s) * a for w, a in C.canonical_items()}
    return PDFunction(C.d, C.domain, entries)


def restrict_to_ball(C: PDFunction, r: int) -> PDFunction:
    """Forget all data beyond radius r of a ball-domain function."""
    if C.domain.kind != "ball":
        raise DomainError("restrict_to_ball needs a ball domain")
    if isinstance(r, bool) or not isinstance(r, int) or not 0 <= r <= C.domain.r:
        raise ParameterError(f"target radius must lie in [0, {C.domain.r}]")
    entries = {w: a for w, a in C.canonical_items() if len(w) <= r}
    return PDFunction(C.d, Domain.ball(r), entries)


def restrict_to_stage(C: PDFunction, g, j: int, k: int) -> PDFunction:
    """Forget data beyond the extension stage (g, j, k).

    Keeps the full entries at every level before g and the leading part of
    C(g) strictly before position (j, k); everything later becomes undefined.
    The source domain must cover I_g; a partial source works as long as every
    slot the target keeps is defined in it (scalar() raises otherwise).
    """
    dom = Domain.partial(g, j, k)
    have = set(domain_words(C.domain))
    entries = {}
    for w in canonical_words(dom):
        if w not in have:
            raise DomainError(
                f"stage domain needs {word_to_str(w)}, outside the source domain"
            )
        if w == dom.g:
            top = np.full((C.d, C.d), complex("nan"))
            for l, m in np.argwhere(~_undefined_top(dom, C.d)):
                top[l, m] = C.scalar(w, l + 1, m + 1)
            entries[w] = top
        else:
            entries[w] = C.entry(w)
    return PDFunction(C.d, dom, entries)


def l1_distance(C: PDFunction, D: PDFunction) -> float:
    """Sum of entrywise |C - D| over the full symmetric domain.

    Mirrors contribute too (both g and g^-1 are counted), so the value is
    twice the sum over canonical representatives.
    """
    if C.d != D.d or C.domain != D.domain:
        raise DomainError("l1_distance needs two functions on the same domain")
    total = 0.0
    for w, a in C.canonical_items():
        diff = np.abs(a - D._entries[w])
        total += 2.0 * float(np.nansum(diff))
    return total


# ---------------------------------------------------------------------------
# JSON form
# ---------------------------------------------------------------------------


def function_to_dict(C: PDFunction) -> dict:
    dom = C.domain
    if dom.kind == "ball":
        dd = {"kind": "ball", "r": dom.r}
    elif dom.kind == "prefix":
        dd = {"kind": "prefix", "g": word_to_str(dom.g)}
    else:
        dd = {"kind": "partial", "g": word_to_str(dom.g), "j": dom.j, "k": dom.k}
    ent = {}
    for w, arr in C.canonical_items():
        ent[word_to_str(w)] = [
            [None if np.isnan(z) else [float(z.real), float(z.imag)] for z in row]
            for row in arr
        ]
    return {"d": C.d, "domain": dd, "entries": ent}


def _expect_keys(obj: dict, allowed: set, where: str):
    extra = set(obj) - allowed
    if extra:
        raise FormatError(f"{where}.{sorted(extra)[0]}", "unknown key")


def _domain_from_dict(dd) -> Domain:
    if not isinstance(dd, dict) or not isinstance(dd.get("kind"), str):
        raise FormatError("domain.kind", "domain needs a string 'kind'")
    kind = dd["kind"]
    if kind == "ball":
        _expect_keys(dd, {"kind", "r"}, "domain")
        r = dd.get("r")
        if isinstance(r, bool) or not isinstance(r, int) or r < 0:
            raise FormatError("domain.r", "ball radius must be a nonnegative integer")
        return Domain.ball(r)
    if kind in ("prefix", "partial"):
        _expect_keys(dd, {"kind", "g"} | ({"j", "k"} if kind == "partial" else set()),
                     "domain")
        try:
            g = word_from_str(dd.get("g", ""))
        except WordError as exc:
            raise FormatError("domain.g", str(exc))
        if kind == "prefix":
            return Domain.prefix(g)
        for name in ("j", "k"):
            v = dd.get(name)
            if isinstance(v, bool) or not isinstance(v, int) or v < 1:
                raise FormatError(f"domain.{name}", "stage coordinate must be a positive integer")
        try:
            return Domain.partial(g, dd["j"], dd["k"])
        except WordError as exc:
            raise FormatError("domain.g", str(exc))
    raise FormatError("domain.kind", f"unknown domain kind {kind!r}")


def _cell_to_complex(cell, path: str, l: int, m: int) -> complex:
    if cell is None:
        return complex("nan")
    ok = (
        isinstance(cell, (list, tuple))
        and len(cell) == 2
        and all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in cell)
        and all(np.isfinite(x) for x in cell)
    )
    if not ok:
        raise FormatError(
            path, f"position ({l},{m}) must be a finite [re, im] pair or null"
        )
    return complex(cell[0], cell[1])


def function_from_dict(obj) -> PDFunction:
    """Parse the JSON object form; FormatError names the first offending key.

    This parses only: the JSON types, the word text, the d x d shape and the
    cells, with null read as an undefined (NaN) slot.  The constructor
    validates the result, and its errors are reported at the entry key they
    concern, or at "domain.j" for stage coordinates beyond d.
    """
    if not isinstance(obj, dict):
        raise FormatError("$", "top level must be an object")
    for key in ("d", "domain", "entries"):
        if key not in obj:
            raise FormatError(key, f"missing required key {key!r}")
    _expect_keys(obj, {"d", "domain", "entries"}, "$")
    d = obj["d"]
    if isinstance(d, bool) or not isinstance(d, int) or d < 1:
        raise FormatError("d", "d must be a positive integer")
    domain = _domain_from_dict(obj["domain"])
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
        parsed[w] = [
            [_cell_to_complex(cell, path, l + 1, m + 1) for m, cell in enumerate(row)]
            for l, row in enumerate(mat)
        ]
    try:
        return PDFunction(d, domain, parsed)
    except EntryError as exc:
        raise FormatError(f"entries.{exc.word}", str(exc)) from None
    except ParameterError as exc:
        raise FormatError("domain.j", str(exc)) from None


def write_json_atomic(obj, path):
    """Serialize obj as JSON at path through a same-directory temp file."""
    path = os.fspath(path)
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".freepd-", suffix=".json")
    try:
        with os.fdopen(fd, "w") as fh:
            json.dump(obj, fh, indent=1)
            fh.write("\n")
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def save_function(C: PDFunction, path):
    write_json_atomic(function_to_dict(C), path)


def load_function(path) -> PDFunction:
    with open(path) as fh:
        try:
            obj = json.load(fh)
        except json.JSONDecodeError as exc:
            raise FormatError("$", f"invalid JSON: {exc}")
    return function_from_dict(obj)
