"""Reduced words in the rank-2 free group, shortlex order, and clique geometry.

Words are stored as tuples of letter codes 0..3 standing for a, b, a^-1, b^-1
in that fixed order; the empty tuple is the identity e.  All functions accept
and return reduced words only (reduction happens on construction), so tuples
double as canonical dictionary keys.

The generalized Cayley graph at level g has vertex set the whole group and an
edge between distinct h, l whenever l^-1 h lies in the symmetric index set I_g.
Everything downstream (positive definiteness checks, extension stages) reduces
to cliques of these graphs, so the combinatorics here is deliberately small,
exhaustively tested, and free of floating point.  The canonical words of
a ball, an index set or an extension stage form a prefix of the shortlex
order of all canonical words (see is_novel), so that order ranks storage.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import WordError

LETTER_CHARS = "abAB"
_CHAR_TO_LETTER = {c: i for i, c in enumerate(LETTER_CHARS)}

Word = tuple  # tuple of ints in 0..3


def inv_letter(x: int) -> int:
    return (x + 2) % 4


def reduce_word(letters) -> Word:
    """Free reduction: cancel adjacent mutually-inverse letters, stack style."""
    out = []
    for x in letters:
        if out and out[-1] == inv_letter(x):
            out.pop()
        else:
            out.append(x)
    return tuple(out)


def inverse(w: Word) -> Word:
    return tuple(inv_letter(x) for x in reversed(w))


def mul(u: Word, v: Word) -> Word:
    """Product of two reduced words (cancellation only at the junction)."""
    i = len(u)
    j = 0
    while i > 0 and j < len(v) and u[i - 1] == inv_letter(v[j]):
        i -= 1
        j += 1
    return u[:i] + v[j:]


def word_from_str(text: str) -> Word:
    """Parse the text encoding: letters a, b, A, B concatenated; "e" is the identity."""
    if text == "e":
        return ()
    if not text:
        raise WordError("empty word text; the identity is written 'e'")
    try:
        letters = tuple(_CHAR_TO_LETTER[c] for c in text)
    except KeyError as exc:
        raise WordError(f"illegal letter {exc.args[0]!r} in word {text!r}") from None
    if reduce_word(letters) != letters:
        raise WordError(f"word {text!r} is not reduced")
    return letters


def word_to_str(w: Word) -> str:
    return "".join(LETTER_CHARS[x] for x in w) if w else "e"


def shortlex_key(w: Word):
    return (len(w), w)


# Letters allowed after a given letter (anything but its inverse), ascending.
_ALLOWED_AFTER = {None: (0, 1, 2, 3)}
for _x in range(4):
    _ALLOWED_AFTER[_x] = tuple(y for y in range(4) if y != inv_letter(_x))


@lru_cache(maxsize=None)
def ball(r: int) -> tuple:
    """All reduced words of length <= r, in shortlex order."""
    if r < 0:
        raise WordError("radius must be nonnegative")
    words = [()]
    frontier = [()]
    for _ in range(r):
        nxt = []
        for w in frontier:
            prev = w[-1] if w else None
            for y in _ALLOWED_AFTER[prev]:
                nxt.append(w + (y,))
        words.extend(nxt)
        frontier = nxt
    return tuple(words)


def ball_size(r: int) -> int:
    return 1 if r == 0 else 2 * 3 ** r - 1


@lru_cache(maxsize=None)
def _ball_inverses(r: int) -> tuple:
    """The inverses of ball(r), in the same order."""
    return tuple(inverse(w) for w in ball(r))


@lru_cache(maxsize=None)
def canonical_ball(r: int) -> tuple:
    """The canonical words of Ball(r) (novel, so e excluded), shortlex order."""
    return tuple(w for w in ball(r) if is_novel(w))


@lru_cache(maxsize=None)
def canonical_ranks(r: int) -> dict:
    """The 0-based rank of each word of canonical_ball(r), the same for all r."""
    return {w: i for i, w in enumerate(canonical_ball(r))}


@dataclass(frozen=True)
class IndexSet:
    """The symmetric set I_g of all h with h or h^-1 shortlex-preceding g."""

    origin: Word
    prefixes: tuple  # all h with h <= g, in shortlex order
    members: frozenset


@lru_cache(maxsize=None)
def index_set(g: Word) -> IndexSet:
    words = ball(len(g))
    if g not in words:
        raise WordError(f"{g!r} is not a reduced word")
    n = words.index(g) + 1
    prefixes = words[:n]
    members = frozenset(prefixes + _ball_inverses(len(g))[:n])
    return IndexSet(origin=g, prefixes=prefixes, members=members)


def adjacent(h: Word, l: Word, iset: IndexSet) -> bool:
    """Edge test in the generalized Cayley graph at iset.origin."""
    return h != l and mul(inverse(l), h) in iset.members


def is_novel(g: Word) -> bool:
    """Whether level g adds a new edge, i.e. g strictly precedes its inverse.

    When g^-1 precedes g, the pair {g, g^-1} already entered the index set at
    level g^-1, so I_g = I_{g_up} and the level-g graph equals the previous
    one.  Such levels carry no clique of their own and no extension stage:
    the value at g is forced by Hermitian symmetry.
    """
    return g != () and shortlex_key(g) < shortlex_key(inverse(g))


def next_novel(w: Word) -> Word:
    """The first novel word strictly after w in shortlex order: the next
    canonical word, or a^(n+1) after the last canonical word of length n.

    Extension walks visit novel levels only, so the stage after completing
    level g starts here rather than at the next word of the order.
    """
    ws = canonical_ball(len(w))
    i = bisect_right(ws, shortlex_key(w), key=shortlex_key)
    return ws[i] if i < len(ws) else (0,) * (len(w) + 1)


@dataclass(frozen=True)
class Clique:
    level: Word
    vertices: tuple  # shortlex order


@lru_cache(maxsize=None)
def clique(g: Word) -> Clique:
    """The unique maximal clique K_g containing the edge (e, g).

    Defined for novel g only (see is_novel): at a non-novel level the graph
    is unchanged and the unique-maximal-clique property genuinely fails
    (e.g. two maximal cliques contain the edge (e, b·a^-1)).

    Computed as {e, g} together with the common neighborhood of e and g:
    h is kept when both h and g^-1 h lie in I_g.  Uniqueness of the maximal
    clique through (e, g) forces this set to be a clique, but that is a
    theorem about the group, not about this code, so we assert pairwise
    adjacency before returning.  The assertion reads the vertices' quotient
    table, which the Gram matrices over K_g then reuse.
    """
    if not g:
        raise WordError("K_g is defined for g != e only")
    if not is_novel(g):
        raise WordError(
            f"level {word_to_str(g)} adds no new edge (its inverse precedes it); "
            "K_g is defined for novel levels only"
        )
    iset = index_set(g)
    g_inv = inverse(g)
    members = [(), g]
    for h in iset.members:
        if h == () or h == g:
            continue
        if mul(g_inv, h) in iset.members:
            members.append(h)
    vertices = tuple(sorted(members, key=shortlex_key))
    quotients, slots = quotient_table(vertices)
    outside = np.array([q not in iset.members for q in quotients])
    for a, b in np.argwhere(outside[slots % len(quotients)])[:1]:
        raise WordError(
            f"common neighborhood of (e, {word_to_str(g)}) is not a clique: "
            f"({word_to_str(vertices[a])}, {word_to_str(vertices[b])}) not adjacent"
        )
    return Clique(level=g, vertices=vertices)


@lru_cache(maxsize=None)
def quotient_table(ws: tuple):
    """(quotients, slots) of shortlex-sorted distinct words ws.

    quotients lists the canonical representatives of the l^-1 h (h, l in ws),
    e first; slots[a, b] is the position of ws[b]^-1 ws[a] in that list, plus
    len(quotients) where the quotient is the inverse of the listed word.
    Keying by the sorted words lets a level's clique, its stage Grams and
    its positivity Gram share one table.
    """
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


def maximal_cliques(vertices, iset: IndexSet):
    """All maximal cliques of the induced subgraph on ``vertices`` (Bron-Kerbosch).

    Small inputs only; used as the brute-force oracle against ``clique`` and by
    the brute-force positive definiteness mode.
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

