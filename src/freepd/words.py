"""Reduced words in the rank-2 free group, shortlex order, and clique geometry.

Words cross the API as tuples of letter codes 0..3 standing for a, b, a^-1,
b^-1 in that fixed order; the empty tuple is the identity e.  All functions
accept and return reduced words only (reduction happens on construction), so
tuples double as canonical dictionary keys.

The generalized Cayley graph at level g has vertex set the whole group and an
edge between distinct h, l whenever l^-1 h lies in the symmetric index set I_g.
Everything downstream (positive definiteness checks, extension stages) reduces
to cliques of these graphs, so the combinatorics here is deliberately small,
exhaustively tested (the tests enumerate every maximal clique by
Bron-Kerbosch), and free of floating point.  The canonical words of a ball,
an index set or an extension stage form a prefix of the shortlex order of
all canonical words (see is_novel), so that order ranks storage.

Inside the package a word is its shortlex rank (rank_of, word_of_rank), its
position in ball(r) for every r that holds it, so one tree of arrays indexed
by rank, grown to the largest radius asked, serves every radius (_tree):
letters, length, the ranks of suffixes and of the inverse, and the storage
row of each canonical rank.  Since the Cayley graph is the 4-regular tree, a
quotient l^-1 h is s^-1 t for the suffixes s, t of l and h after their
longest common prefix, and its rank follows from the pieces' ranks by
arithmetic (_canonical_quotients).  Left translation does not change
quotients, so a long word list is moved to start at e first.  The cliques
of all novel levels of one length, and their quotient tables, come from one
descent of the tree and one batched table pass (_clique_table).  A table is
built from half the pairs of its list: h^-1 l is the inverse of l^-1 h, so
the pairs a <= b are ranked and the rest are their mirrors.  Word text
crosses the file boundary through one text table per radius (_texts), the
texts of the tree's words in rank order and the map back, so a file's keys
are read and written without parsing or spelling a word.
"""

from __future__ import annotations

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
    """All reduced words of length <= r, in shortlex order: the tree's rows."""
    if r < 0:
        raise WordError("radius must be nonnegative")
    tree, m = _tree(r), ball_size(r)
    return tuple(tuple(w[:n]) for w, n in zip(tree.letters[:m].tolist(), tree.length[:m].tolist()))


def ball_size(r: int) -> int:
    return 1 if r == 0 else 2 * 3 ** r - 1


_POW3 = 3 ** np.arange(40, dtype=np.int64)
# _OFFSET[n] is the shortlex rank of the first word of length n, ball_size(n - 1)
_OFFSET = np.concatenate([[0], 2 * _POW3 - 1])
_AFTER = np.array([_ALLOWED_AFTER[x] for x in range(4)])
# quotient-table pairs a <= b (_quotient_tables) and Gram entries (pdcore's
# level Grams) batched at once, to bound memory
_CHUNK = 8192


def _ranks(L: np.ndarray) -> np.ndarray:
    """Shortlex ranks of the rows of a letter matrix, each row a word padded
    with -1.  Within its length a word is a numeral: the first letter is a
    base-4 digit, each later one a base-3 digit (its place among the three
    letters allowed after its predecessor)."""
    n = (L >= 0).sum(1)
    prev = np.concatenate([np.full((len(L), 1), -1), L[:, :-1]], axis=1)
    digit = np.where(prev < 0, L, L - (L > (prev + 2) % 4))
    place = n[:, None] - 1 - np.arange(L.shape[1])
    return _OFFSET[n] + np.where(place >= 0, digit * _POW3[np.maximum(place, 0)], 0).sum(1)


def word_of_rank(rank) -> Word:
    """The word at a shortlex rank (the inverse of a word's position in ball)."""
    rank, n = int(rank), 0
    while _OFFSET[n + 1] <= rank:
        n += 1
    rest, out = rank - int(_OFFSET[n]), []
    for place in range(n - 1, -1, -1):
        digit, rest = divmod(rest, 3 ** place)
        out.append(_ALLOWED_AFTER[out[-1] if out else None][digit])
    return tuple(out)


def rank_of(w) -> int:
    """The shortlex rank of a word (its position in ball(r) for every r >=
    len(w); see _ranks), or -1 when w is not a reduced word of letters 0..3."""
    rank, prev = 0, None
    for x in w:
        if x not in (0, 1, 2, 3) or (prev is not None and x == inv_letter(prev)):
            return -1
        x = int(x)
        rank = x if prev is None else 3 * rank + x - (x > inv_letter(prev))
        prev = x
    return ball_size(len(w) - 1) + rank if w else 0


@dataclass(frozen=True)
class _Tree:
    """The words of ball(r) as arrays indexed by shortlex rank: letters
    (padded with -1, one spare column), length, suffix[i, k] (the rank of
    word i without its first k letters), inv (the rank of the inverse) and
    rows (one longer): the count of canonical ranks below i, -1 at e."""

    letters: np.ndarray
    length: np.ndarray
    suffix: np.ndarray
    inv: np.ndarray
    rows: np.ndarray


_EMPTY = _Tree(letters=np.empty((0, 1), int), length=np.empty(0, int),
               suffix=np.empty((0, 1), int), inv=np.empty(0, int), rows=np.array([-1]))


def _build(r: int, tree: _Tree = _EMPTY) -> _Tree:
    """The tree of ball(r) grown from the tree of a smaller ball (or none):
    its ranks are copied, and only the new ranks are computed, a column at
    a time, so that no temporary is larger than one column of N ints."""
    lo, width = tree.letters.shape
    n = np.repeat(np.arange(r + 1), np.diff(_OFFSET[:r + 2]))
    L, suffix = np.full((len(n), r + 1), -1), np.zeros((len(n), r + 1), int)
    L[:lo, :width], suffix[:lo, :width] = tree.letters, tree.suffix
    L[1:5, 0] = np.arange(4) if r else []
    for k in range(max(2, n[lo]), r + 1):  # each word of length k - 1 has three children
        (a, b), (c, e) = _OFFSET[k - 1:k + 1], _OFFSET[k:k + 2]
        for col in range(k - 1):
            L[c:e, col] = np.repeat(L[a:b, col], 3)
        L[c:e, k - 1] = _AFTER[L[a:b, k - 2]].ravel()
    # without its first k letters a word of length n and in-length rank x is
    # the word of length n - k led by letter k whose later digits are x's last
    at, m = np.arange(lo, len(n)), n[lo:]  # the new ranks and their lengths
    x = at - _OFFSET[m]
    for k in range(r + 1):
        left = m - k
        place = _POW3[np.maximum(left - 1, 0)]
        suffix[lo:, k] = np.where(left > 0, _OFFSET[np.maximum(left, 0)] + L[lo:, k] * place
                                  + x % place, 0)
    # the inverse's letter i is the inverse of letter n - 1 - i, a digit as in _ranks
    inv, prev = _OFFSET[m], None
    for i in range(r):
        back = np.maximum(m - 1 - i, 0)
        letter = (L[at, back] + 2) % 4
        digit = letter if prev is None else letter - (letter > (prev + 2) % 4)
        inv += np.where(m > i, digit * _POW3[back], 0)
        prev = letter
    inv = np.concatenate([tree.inv, inv])
    rows = np.concatenate([tree.rows, max(tree.rows[-1], 0) + np.cumsum(at < inv[lo:])])
    for a in (L, n, suffix, inv, rows):
        a.setflags(write=False)
    return _Tree(letters=L, length=n, suffix=suffix, inv=inv, rows=rows)


@lru_cache(maxsize=1)
def _grown() -> list:
    """Holds the one tree; a functools cache, so cache_clear drops it."""
    return []


def _tree(r: int) -> _Tree:
    """The one tree, grown to radius r if shorter: radius r reads its first
    ball_size(r) ranks, the tree of ball(r) with padding columns."""
    held = _grown()
    if not held or len(held[0].inv) < ball_size(r):
        held[:] = [_build(r, *held)]
    return held[0]


@lru_cache(maxsize=None)
def _texts(r: int):
    """(texts, ranks): the text of every word of ball(r) in shortlex order,
    read off the one tree's letters, and the map from text to rank."""
    tree, m, width = _tree(r), ball_size(r), max(r, 1)
    chars = np.frombuffer(LETTER_CHARS.encode() + b"\0", np.uint8)[tree.letters[:m, :width]]
    texts = np.ascontiguousarray(chars).view(f"S{width}").ravel().astype(f"U{width}").tolist()
    texts[0] = "e"
    return texts, dict(zip(texts, range(m)))


def _product(tree: _Tree, u, v, x, y):
    """Rank of the product u v of two tree words that does not cancel: x is
    the first letter of u^-1, y the first letter of v, and x != y."""
    nu, nv = tree.length[u], tree.length[v]
    head = (u - _OFFSET[nu]) * 3 - (y > x)  # y's digit after the last letter of u
    joined = _OFFSET[nu + nv] + head * _POW3[np.maximum(nv - 1, 0)] + v - _OFFSET[nv]
    return np.where(nu == 0, v, np.where(nv == 0, u, joined))


def _canonical_quotients(tree: _Tree, a, b):
    """For broadcast rank arrays a, b of tree words: the rank of the canonical
    representative of b^-1 a, and whether b^-1 a is the inverse of it.

    The longest common prefix of a and b ends at the first column where
    their padded letters differ.  The spare last column counts as a
    mismatch, so two equal words (all their columns agree, padding too)
    share the whole tree width.  With s, t the suffixes of b and a after
    that prefix, b^-1 a = s^-1 t and its inverse is t^-1 s; s and t differ
    in their first letters (or both are e), so neither product cancels and
    both ranks are arithmetic."""
    differ = tree.letters[a] != tree.letters[b]
    differ[..., -1] = True
    p = differ.argmax(-1)
    s, t = tree.suffix[b, p], tree.suffix[a, p]
    x, y = tree.letters[b, p], tree.letters[a, p]
    q, q_inv = _product(tree, tree.inv[s], t, x, y), _product(tree, tree.inv[t], s, y, x)
    return np.minimum(q, q_inv), q > q_inv


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
    i = rank_of(w) + 1
    if not i:
        raise WordError(f"{w!r} is not a reduced word")
    inv = _tree(len(w)).inv
    while i < len(inv) and inv[i] < i:
        i += 1
    return word_of_rank(i)


@dataclass(frozen=True, eq=False)
class Clique:
    """K_g: the ranks of its vertices (g at ranks[top]) and their table."""

    level: Word
    ranks: np.ndarray
    top: int
    quotients: np.ndarray
    slots: np.ndarray

    @property
    def vertices(self) -> tuple:
        """The vertices as words, in shortlex order."""
        return tuple(map(ball(len(self.level)).__getitem__, self.ranks))


@lru_cache(maxsize=None)
def clique(g: Word) -> Clique:
    """The unique maximal clique K_g containing the edge (e, g).

    Defined for novel g only (see is_novel): at a non-novel level the graph
    is unchanged and the unique-maximal-clique property genuinely fails
    (e.g. two maximal cliques contain the edge (e, b·a^-1)).

    K_g is {e, g} and the common neighborhood of e and g, the h with h and
    g^-1 h in I_g, read off the cliques of its length (_clique_table).
    """
    if not g:
        raise WordError("K_g is defined for g != e only")
    top = rank_of(g)
    if top < 0:
        raise WordError(f"{g!r} is not a reduced word")
    if _tree(len(g)).inv[top] < top:
        raise WordError(
            f"level {word_to_str(g)} adds no new edge (its inverse precedes it); "
            "K_g is defined for novel levels only"
        )
    tops, offsets, ranks, tables = _clique_table(len(g))
    i = np.searchsorted(tops, top)  # its place among the levels of its length
    K = ranks[offsets[i]:offsets[i + 1]]
    return Clique(g, K, int(np.searchsorted(K, top)), *tables[i])


@lru_cache(maxsize=None)
def _clique_table(n: int):
    """(tops, offsets, ranks, tables): the i-th novel level of length n, of
    rank tops[i], has clique ranks[offsets[i]:offsets[i + 1]] (shortlex) and
    quotient table tables[i].  K_g is prefix-closed, so one descent from e
    grows them all on a (level, rank) frontier: a child h stays when the
    canonical forms of h and g^-1 h rank at most g.  The table builder
    asserts the clique."""
    tree, tops = _tree(n), np.arange(_OFFSET[n], _OFFSET[n + 1])
    tops = tops[tops < tree.inv[tops]]
    found = [(np.arange(len(tops)), np.zeros(len(tops), np.int64))]
    for l in range(n):
        width = 4 if l == 0 else 3  # e has four children, other words three
        level, rank = found[-1]
        level = np.repeat(level, width)
        rank = ((3 * (rank - _OFFSET[l]) + _OFFSET[l + 1])[:, None] + np.arange(width)).ravel()
        top = tops[level]
        keep = ((np.minimum(rank, tree.inv[rank]) <= top)
                & (_canonical_quotients(tree, rank, top)[0] <= top))
        found.append((level[keep], rank[keep]))
    level, rank = (np.concatenate(a) for a in zip(*found))
    ranks = rank[np.argsort(level, kind="stable")]  # each layer is sorted already
    ranks.setflags(write=False)
    offsets = np.concatenate([[0], np.cumsum(np.bincount(level, minlength=len(tops)))])
    return tops, offsets, ranks, _quotient_tables(tree, offsets, ranks, tops)


def _quotient_tables(tree: _Tree, offsets, ranks, tops=None) -> list:
    """(quotients, slots) of each list ranks[offsets[i]:offsets[i + 1]] (see
    quotient_table), built for the lists starting in one _CHUNK of pairs at
    a time.  Only the pairs a <= b of a list are ranked: slots[b, a] is
    slots[a, b] with the mirror flag flipped, since l^-1 h is the inverse
    of h^-1 l (and e, on the diagonal, is its own).  With tops, a quotient
    ranked above tops[i] raises WordError."""
    sizes = np.diff(offsets)
    ends = np.concatenate([[0], np.cumsum(sizes * (sizes + 1) // 2)])  # pairs a <= b
    full = np.concatenate([[0], np.cumsum(sizes * sizes)])
    cuts = np.append(np.unique(ends[:-1] // _CHUNK, return_index=True)[1], len(sizes))
    out = []
    for i, j in zip(cuts[:-1], cuts[1:]):
        # the triangle row <= col of every list, row by row: row r of a list
        # of size k holds the columns r .. k - 1
        lists = np.repeat(np.arange(i, j), sizes[i:j])
        r = np.arange(len(lists)) - (offsets[lists] - offsets[i])
        width = sizes[lists] - r
        own, row = np.repeat(lists, width), np.repeat(r, width)  # each pair's list and row
        col = row + np.arange(ends[j] - ends[i]) - np.repeat(np.cumsum(width) - width, width)
        k = sizes[own]
        a, b = ranks[offsets[own] + row], ranks[offsets[own] + col]
        canon, mirrored = _canonical_quotients(tree, a, b)
        for p in np.flatnonzero(canon > tops[own])[:1] if tops is not None else ():
            g, h, l = (word_to_str(word_of_rank(x)) for x in (tops[own[p]], a[p], b[p]))
            raise WordError(f"common neighborhood of (e, {g}) is not a clique: "
                            f"({h}, {l}) not adjacent")
        span, rel = int(canon.max()) + 1, own - i
        unique, where = np.unique(rel * span + canon, return_inverse=True)
        starts = np.searchsorted(unique, np.arange(j - i + 1) * span)
        where, n = where - starts[rel], np.diff(starts)[rel]  # within the pair's list
        slots = np.empty(full[j] - full[i], np.int64)
        at = full[own] - full[i]
        slots[at + col * k + row] = where + ~mirrored * n  # the mirrors first, so
        slots[at + row * k + col] = where + mirrored * n  # that the diagonal keeps its own
        for c, k in enumerate(sizes[i:j]):
            quotients = unique[starts[c]:starts[c + 1]] - c * span
            table = slots[full[i + c] - full[i]:full[i + c + 1] - full[i]].reshape(k, k)
            for x in (quotients, table):
                x.setflags(write=False)
            out.append((quotients, table))
    return out


@lru_cache(maxsize=None)
def quotient_table(ranks: tuple):
    """(quotients, slots) of distinct words given by shortlex rank, sorted
    so that one list has one table.

    quotients holds the sorted shortlex ranks of the canonical
    representatives of the l^-1 h (h, l in the list), so e (rank 0) first;
    slots[a, b] is the position of the b-th word's inverse times the a-th,
    plus len(quotients) where the quotient is the inverse of the ranked
    word.  Cliques carry theirs.
    """
    tree = _tree(len(word_of_rank(max(ranks))))
    return _quotient_tables(tree, np.array([0, len(ranks)]), np.array(ranks))[0]
