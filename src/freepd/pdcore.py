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
partially specified top level (the state midway through an extension stage)
is checked through the stage restriction matrices, which are exactly its
fully defined principal submatrices.

Only one of {g, g^-1} is stored, the shortlex-smaller (canonical) one, and
the mirror is materialized on read.  A function is one read-only (N, d, d)
stack ranked in the global shortlex order of canonical words, which every
domain's words begin; a partial top is the last row, its undefined slots a
complex NaN.  Words are ranks here too, mapped to rows by the one tree of
words._tree, and tuples only where they leave (canonical_items, witnesses,
stage indices, errors).  Restrictions are slices and every Gram is one
gather (_gather) from [I, stack, NaN] through a quotient table
(words.quotient_table, or a clique's own), whose quotient ranks the tree's
rows map to stack rows.  A word list that leaves C's radius once moved to
start at e has no table: _gram_slots raises, naming the first moved word
past the radius, the quotient at its row and e's column.  The gather takes
a stack of tables of one size too: check_pd visits the levels a word
length at a time, reading their tables from the length's clique table and
passing the Grams of one clique size to one stacked eigvalsh, then scans
the least eigenvalues in level order.  Only the witness needs an
eigenvector: its Gram is gathered again for the one eigh of a check.  A
witness among levels whose least eigenvalues tie to a few ulps is the
first least under eigvalsh's rounding, which may not be the level an eigh
scan picks.

A function file is written from the stack in one pass (save_function):
the stack's floats are formatted once each and filled, with the word
texts, into a d x d entry template, with no nested lists in between; its
bytes are json.dumps of the object form with indent=1.  Every other JSON
file (reports, graphs) goes through _json_text, and both through the one
atomic writer, _write_atomic.
"""

from __future__ import annotations

import cmath
import json
import math
import os
import tempfile
from dataclasses import dataclass
from itertools import chain, repeat

import numpy as np

from . import words
from .errors import (
    DomainError,
    EntryError,
    FormatError,
    MissingEntryError,
    NotPositiveError,
    NotStrictError,
    OutputError,
    ParameterError,
    WordError,
)
from .words import (
    Word,
    clique,
    inverse,
    is_novel,
    mul,
    quotient_table,
    shortlex_key,
    word_from_str,
    word_to_str,
)

DEFAULT_TOL = 1e-10
MIRROR_TOL = 1e-12


def _as_word(key) -> Word:
    """Accept a word as a tuple of integer letters or as text; validate either way."""
    if isinstance(key, str):
        return word_from_str(key)
    w = tuple(key)
    if not all(x in (0, 1, 2, 3) and not isinstance(x, (bool, np.bool_)) for x in w):
        raise WordError(f"bad letters in {w!r}")
    if words.rank_of(w) < 0:
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


def _radius(domain: Domain) -> int:
    """The length of the longest word the domain stores."""
    return domain.r if domain.kind == "ball" else len(domain.g)


def _size(domain: Domain) -> int:
    """The row count N of a domain: its canonical words up to (3,) * r or g."""
    r = _radius(domain)
    last = words.ball_size(r) - 1 if domain.kind == "ball" else words.rank_of(domain.g)
    return int(words._tree(r).rows[last + 1])


def _canonical_ranks(r: int) -> np.ndarray:
    """The ranks of the canonical words of ball(r), shortlex sorted: row i
    of a stack is the word of rank _canonical_ranks(r)[i]."""
    inv = words._tree(r).inv[:words.ball_size(r)]
    return np.flatnonzero(np.arange(len(inv)) < inv)


def canonical_words(domain: Domain) -> tuple:
    """The canonical (novel) representatives a total function must specify,
    shortlex sorted: the first canonical words, up to (3,) * r or up to g."""
    ranks = _canonical_ranks(_radius(domain))[:_size(domain)]
    return tuple(map(words.ball(_radius(domain)).__getitem__, ranks))


def _undefined_top(domain: Domain, d: int) -> np.ndarray:
    """The d x d mask of the slots of C(g) a partial domain leaves undefined."""
    return np.arange(d * d).reshape(d, d) >= (domain.j - 1) * d + domain.k - 1


def _check_header(d: int, domain: Domain):
    """Validate d and the domain."""
    if isinstance(d, bool) or not isinstance(d, int) or d < 1:
        raise ParameterError("d must be a positive integer")
    if not isinstance(domain, Domain):
        raise ParameterError("domain must be a Domain")
    if domain.kind == "partial" and (domain.j > d or domain.k > d):
        raise ParameterError("partial stage coordinates exceed d")


def _bad_slots(d: int, domain: Domain, stack: np.ndarray, top: bool = True) -> np.ndarray:
    """The (row, l, m) of the slots of the leading rows stack of a domain's
    stack, in row order, whose NaN is wrong: NaN where the domain defines
    the slot, or a number beyond the stage position of a partial top (the
    last row, when top)."""
    wrong = np.isnan(stack)
    if top and domain.kind == "partial":
        wrong[-1] ^= _undefined_top(domain, d)
    return np.argwhere(wrong)


def _slot_error(w: str, l: int, m: int, undefined: bool, name: str = None) -> EntryError:
    """The error at slot (l, m), 0-based, of the row of canonical word text
    w, named by the text the row was given as (name) or else w."""
    where = f"C({w})[{l + 1},{m + 1}]"
    if undefined:
        return MissingEntryError(name or w, f"{where} is undefined, but the domain defines it")
    return EntryError(name or w, f"{where} lies beyond the declared stage position and must be NaN")


# letter codes as digits: the shortlex order of words of one length is their text's
_CODES = str.maketrans(words.LETTER_CHARS, "0123")


def _key_radius(domain: Domain, count: int) -> int:
    """The radius of the key table (words._texts) that reads count entries
    on the domain: the domain's own, unless it has more canonical words
    shorter than its radius than there are entries, so that a row is
    surely missing; then the least radius with more canonical words than
    entries, which holds the first missing row.  Either way the table has
    at most about six words per entry."""
    r = _radius(domain)
    if r == 0 or (r <= 40 and 3 ** (r - 1) <= count):
        return r
    rho = 1
    while 3 ** rho < count + 2:
        rho += 1
    return min(rho, r)


def _fill(d: int, domain: Domain, names: list, cells: np.ndarray, late=None):
    """The stack of a function given as entries (the filler of PDFunction
    and function_from_dict).  names[i] is the valid word text of the i-th
    entry in the order given, and cells holds the entries' d x d values end
    to end as given.  The last name may lack a value: late is then the
    error its value raised, raised after its own outside test and the
    checks of the entries before it.

    Raises at the first entry, in the order given, that lies outside the
    domain, is e but not the identity, or gives a row that an earlier entry
    gave otherwise (beyond MIRROR_TOL, conjugate transposed for the
    inverse); then at the first slot, in row order, whose NaN is wrong,
    the slots of a row no entry gives included.  The stack is allocated
    only up to the first row no entry gives, which lies within the key
    table, so it holds no more rows than the entries hold; a d whose d x d
    complex matrix cannot be addressed raises ParameterError before it,
    which only a domain without rows (Ball(0), prefix e) gets to."""
    _check_header(d, domain)
    r, rho = _radius(domain), _key_radius(domain, len(names))
    tree, (texts, table), size = words._tree(rho), words._texts(rho), words.ball_size(rho)
    rank = np.fromiter(map(table.get, names, repeat(-1)), np.int64, len(names))  # -1 past it
    canon = np.minimum(rank, tree.inv[rank])
    flip, row = canon != rank, tree.rows[canon]
    # the rows of the domain within the key table; all of them, at its radius
    n = _size(domain) if rho == r else 3 ** rho - 1
    outside = row >= n
    seen, longer = {}, np.flatnonzero(rank < 0)
    if len(longer):  # words past the key table, by their text
        top = word_to_str(domain.g).translate(_CODES) if domain.kind != "ball" else None
        for i in longer.tolist():
            code, back = names[i].translate(_CODES), names[i][::-1].swapcase().translate(_CODES)
            least = min(code, back)
            canon[i], flip[i], row[i] = size + seen.setdefault(least, len(seen)), back < code, -1
            outside[i] = len(code) > r or (len(code) == r and top is not None and least > top)
    bad = [(i, 0) for i in np.flatnonzero(outside)[:1]]
    count = len(cells) // (d * d)
    given = np.arange(count)
    if count:
        values = cells.reshape(count, d, d)
        values = np.where(flip[:count, None, None], values.conj().transpose(0, 2, 1), values)
        is_e = canon[:count] == 0
        e = np.flatnonzero(is_e)
        bad += [(i, 1) for i in e[~(np.abs(values[e] - np.eye(d)).max(axis=(1, 2)) <= MIRROR_TOL)][:1]]
        _, first, where = np.unique(canon[:count], return_index=True, return_inverse=True)
        first = first[where]
        again = np.flatnonzero((first != given) & ~is_e)
        agree = np.isclose(values[first[again]], values[again], rtol=0, atol=MIRROR_TOL,
                           equal_nan=True).all(axis=(1, 2))
        bad += [(i, 2) for i in again[~agree][:1]]
        given = np.flatnonzero((first == given) & ~is_e)
    if bad:
        i, kind = min(bad)
        name = names[i]
        raise EntryError(name, (f"{name} is outside the domain", "C(e) must be the d x d identity",
                                f"entries for {name} and its inverse are not conjugate "
                                "transposes of each other")[kind])
    if late is not None:
        raise late
    given = given[row[given] >= 0]
    covered = np.zeros(n, bool)
    covered[row[given]] = True
    if domain.kind == "partial" and (domain.j, domain.k) == (1, 1) and rho == r:
        covered[-1] = True  # its whole top is undefined
    missing = [_slot_error(texts[_canonical_ranks(rho)[i]], 0, 0, True)
               for i in np.flatnonzero(~covered)[:1]]
    if missing and not covered[0]:  # no row to read before it, whatever d
        raise missing[0]
    if d * d * np.dtype(complex).itemsize > np.iinfo(np.intp).max:  # only when no row is needed
        raise ParameterError(f"d = {d} is too large: a d x d complex matrix cannot be addressed")
    stack = np.full((covered.argmin() if missing else n, d, d), complex("nan"))
    given = given[row[given] < len(stack)]
    if len(given):
        stack[row[given]] = values[given]
    for i, l, m in _bad_slots(d, domain, stack, top=not missing)[:1]:
        k = given[row[given] == i][0]
        raise _slot_error(texts[canon[k]], l, m, np.isnan(stack[i, l, m]), names[k])
    if missing:
        raise missing[0]
    return stack


def _read_each(d: int, entries) -> tuple:
    """(names, cells, late) for _fill of entries that map words
    (tuples or text) to d x d arrays, scalars when d = 1, read an entry at
    a time; the first word or value that does not read ends the names, and
    its error is late."""
    names, values, late = [], [], None
    for key, raw in entries.items():
        try:
            names.append(word_to_str(_as_word(key)))
            arr = np.array(raw, dtype=complex)
        except (WordError, TypeError, ValueError) as exc:
            late = exc
            break
        if arr.shape == () and d == 1:
            arr = arr.reshape(1, 1)
        if arr.shape != (d, d):
            late = ParameterError(f"entry for {names[-1]} has shape {arr.shape}, expected {(d, d)}")
            break
        values.append(arr.ravel())
    cells = np.concatenate(values) if values else np.empty(0, complex)
    return names, cells, late


class PDFunction:
    """An immutable matrix-valued function on a Domain.

    Its values are one read-only complex (N, d, d) stack: row i is C(w) for
    the i-th word w of canonical_words(domain), and an undefined slot of a
    partial top row is NaN.  The constructor parses outside input: entries
    maps words (tuples or text) to d x d arrays, scalars when d = 1, read an
    entry at a time (_read_each); function_from_dict reads a file's entries
    at once, and one filler (_fill) makes the stack of either.  Either of
    {g, g^-1} may arrive, or both when they agree under conjugate
    transposition to within 1e-12.  The function must be total on its
    domain, except beyond the stage position of a partial top.  Errors name
    the first offending entry in the order given.  Parsed and computed
    stacks pass one validator (_adopt): a walk's successor stage by
    construction (_next_stage, one scalar write), and central_extension's
    result once, from the working stack its recurrence fills.  Positivity
    is NOT checked here: check_pd passes verdicts, constructors pass data.
    _stage_space keeps the stage space hilbert.build_partial_space builds,
    once.
    """

    __slots__ = ("d", "domain", "_stack", "_stage_space", "__weakref__")

    def __init__(self, d: int, domain: Domain, entries):
        _check_header(d, domain)  # before _read_each, so a bad d outranks bad entries
        self._adopt(d, domain, _fill(d, domain, *_read_each(d, entries)))

    @classmethod
    def _from_stack(cls, d: int, domain: Domain, stack: np.ndarray) -> "PDFunction":
        """A function from a computed stack, through the constructor's validator."""
        self = object.__new__(cls)
        self._adopt(d, domain, stack)
        return self

    def _adopt(self, d: int, domain: Domain, stack: np.ndarray):
        """The one validator of every function, parsed or computed: the
        complex (N, d, d) shape, and NaN exactly at the undefined slots of a
        partial top."""
        _check_header(d, domain)
        n = _size(domain)
        if stack.shape != (n, d, d) or stack.dtype != complex:
            raise ParameterError(f"the domain needs a complex array of shape {(n, d, d)}")
        for i, l, m in _bad_slots(d, domain, stack)[:1]:
            raise _slot_error(word_to_str(canonical_words(domain)[i]), l, m, np.isnan(stack[i, l, m]))
        stack.setflags(write=False)
        self.d, self.domain, self._stack, self._stage_space = d, domain, stack, None

    def _row(self, w: Word):
        """(row, mirrored) of a validated word: its canonical representative's
        stack row (None at e and outside), and whether w is that one's inverse."""
        r, rank = _radius(self.domain), words.rank_of(w)
        if rank >= words.ball_size(r):
            return None, False
        tree = words._tree(r)
        c = min(rank, int(tree.inv[rank]))
        row = int(tree.rows[c])
        return (row if 0 <= row < len(self._stack) else None), c != rank

    def _value(self, w: Word, j: int, k: int) -> complex:
        """C(w)_{j,k} as stored, mirrored as needed; NaN outside the domain."""
        if w == ():
            return complex(j == k)
        i, flip = self._row(w)
        if i is None:
            return complex("nan")
        return np.conj(self._stack[i, k - 1, j - 1]) if flip else self._stack[i, j - 1, k - 1]

    def scalar(self, w, j: int, k: int) -> complex:
        """C(w)_{j,k} with 1-based coordinates, mirroring as needed."""
        if not (1 <= j <= self.d and 1 <= k <= self.d):
            raise ParameterError(f"coordinates ({j},{k}) out of range for d={self.d}")
        w = _as_word(w)
        v = self._value(w, j, k)
        if np.isnan(v):
            raise MissingEntryError(
                word_to_str(canonical_rep(w)),
                f"C({word_to_str(w)})[{j},{k}] is outside the domain or beyond the "
                "defined part of the stage",
            )
        return complex(v)

    def entry(self, w) -> np.ndarray:
        """The full matrix C(w); fails on the partially defined top level."""
        E = range(1, self.d + 1)
        return np.array([[self.scalar(w, j, k) for k in E] for j in E])

    def defined(self, w, j: int, k: int) -> bool:
        return not np.isnan(self._value(_as_word(w), j, k))

    def canonical_items(self):
        """(word, matrix) pairs of the stored representatives, shortlex order."""
        return zip(canonical_words(self.domain), self._stack)

    def __eq__(self, other):
        if not isinstance(other, PDFunction):
            return NotImplemented
        return (self.d == other.d and self.domain == other.domain
                and np.array_equal(self._stack, other._stack, equal_nan=True))

    __hash__ = None

    def __repr__(self):
        return f"<PDFunction d={self.d} {self.domain} with {len(self._stack)} entries>"


def delta(d: int, domain: Domain) -> PDFunction:
    """The normalized point mass at e: identity there, zero elsewhere."""
    _check_header(d, domain)
    stack = np.zeros((_size(domain), d, d), dtype=complex)
    if domain.kind == "partial":
        stack[-1][_undefined_top(domain, d)] = np.nan
    return PDFunction._from_stack(d, domain, stack)


def _gram_slots(C: PDFunction, pairs):
    """The quotient ranks, the quotient slot of every Gram entry (see
    words.quotient_table) and the 0-based coordinates of validated
    (word, coordinate) pairs.  The words are moved so that the least is e;
    a moved word is itself the quotient at its row and e's column, so the
    first that leaves C's radius raises MissingEntryError, naming it."""
    least = min((w for w, _ in pairs), key=words.rank_of, default=())
    if least:
        t = inverse(least)
        pairs = [(mul(t, w), c) for w, c in pairs]
    at, size = [words.rank_of(w) for w, _ in pairs], words.ball_size(_radius(C.domain))
    for (w, _), rank in zip(pairs, at):
        if rank >= size:
            c = word_to_str(canonical_rep(w))
            raise MissingEntryError(c, f"the Gram reads C({c}), which is missing or partial")
    ranks = sorted(set(at)) or [0]
    quotients, slots = quotient_table(tuple(ranks))
    rows = np.searchsorted(ranks, at)
    return quotients, slots[np.ix_(rows, rows)], np.array([c - 1 for _, c in pairs], int)


def _clique_order(g, d: int, level: bool = False):
    """K_g, its vertex positions in Gram order (a level's: K_g - {e, g}, then
    g, then e) and a function building the pairs of K_g x [d] in it."""
    K = clique(g)
    at, top = range(len(K.ranks)), K.top
    at = [*at[1:top], *at[top + 1:], top, 0] if level else at
    return K, at, lambda: tuple((v, m) for v in map(K.vertices.__getitem__, at)
                                for m in range(1, d + 1))


def _clique_pairs(g, d: int, level: bool = False):
    """The _gram_slots table of K_g x [d] in _clique_order, off the
    clique's own, and the function building its pairs."""
    K, at, pairs = _clique_order(g, d, level)
    rows = np.repeat(at, d)
    return (K.quotients, K.slots[rows[:, None], rows], np.arange(len(rows)) % d), pairs


def _stage_rows(n: int, d: int, j: int, k: int):
    """Where stage (j, k)'s P and working pair sit among its level's pairs."""
    return [*range(n + j - 1), *range(n + d, n + d + k - 1)], [n + j - 1, n + d + k - 1]


def _stage_table(g, d: int, j: int, k: int):
    """The _gram_slots table of stage (g, j, k)'s pairs Q (stage_pairs):
    K_g's slots at the stage's rows (_stage_rows) of its level's pairs."""
    K, at, _ = _clique_order(g, d, level=True)
    P, work = _stage_rows((len(at) - 2) * d, d, j, k)
    rows = np.array(P + work)
    vertices = np.repeat(at, d)[rows]
    return K.quotients, K.slots[vertices[:, None], vertices], rows % d


def _padded(C: PDFunction) -> np.ndarray:
    """[I, C's stack, NaN], the stack _gather reads."""
    return np.concatenate([np.eye(C.d, dtype=complex)[None], C._stack,
                           np.full((1, C.d, C.d), complex("nan"))])


def _gather(stack: np.ndarray, r: int, quotients, slots, coords) -> np.ndarray:
    """The one Gram assembly: G[..., i1, i2] = C(w2^-1 w1)[c1, c2] as one
    gather from a padded stack [I, rows, NaN] (_padded, or the working
    stack of extend.central_extension, which reads its data ball's Gram
    once per word length, NaN where the rows are not written yet) for a
    table (quotients, slots, coords) (see _gram_slots) whose slots may
    stack several Grams of one size, each quotient rank at 1 + its
    canonical row (the tree's rows), r at least the radius of the rows; a
    quotient past the rows reads the NaN pad."""
    N, d = len(stack) - 2, stack.shape[1]
    lookup = words._tree(r).rows
    values = stack[1 + np.minimum(lookup[np.minimum(quotients, len(lookup) - 1)], N)]
    # a slot past the quotients is mirrored: the conjugate transpose of its quotient's value
    values = np.concatenate([values, values.conj().transpose(0, 2, 1)]).ravel()
    return values[slots * (d * d) + (coords[:, None] * d + coords)]


def _gram(C: PDFunction, pairs=None, corner: int = 0, table=None) -> np.ndarray:
    """The Gram over validated pairs, gathered (_gather) through their
    table; a clique's Grams pass its table (_clique_pairs) in place of
    pairs.  A NaN (outside the domain, an undefined slot) raises, except in
    the block of rows [-2c:-c] against columns [-c:] for c = corner > 0 and
    its mirror: one stage's corner for 1, a level's C(g) for d."""
    table = _gram_slots(C, pairs) if table is None else table
    quotients, slots, _ = table
    G = _gather(_padded(C), _radius(C.domain), *table)
    undefined = np.isnan(G)
    if corner:
        undefined[-2 * corner:-corner, -corner:] = False
        undefined[-corner:, -2 * corner:-corner] = False
    if undefined.any():
        i1, i2 = np.argwhere(undefined)[0]
        c = word_to_str(words.word_of_rank(quotients[slots[i1, i2] % len(quotients)]))
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
    pairs = _clique_order(g, d, level=True)[2]()
    P, work = _stage_rows(len(pairs) - 2 * d, d, j, k)
    return tuple(pairs[i] for i in P), tuple(pairs[i] for i in P + work)


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
    (quotients, slots, coords), pairs = _clique_pairs(dom.g, d, level=True)
    pairs = pairs()
    stages = [(l, m) for l in range(1, d + 1) for m in range(1, d + 1) if (l, m) <= (dom.j, dom.k)]
    for l, m in stages:
        P, work = _stage_rows(len(pairs) - 2 * d, d, l, m)
        # the current stage: its one-sided restrictions, the largest defined minors
        for at in [P + work] if (l, m) < (dom.j, dom.k) else [P + work[:1], P + work[1:]]:
            yield tuple(pairs[i] for i in at), (quotients, slots[np.ix_(at, at)], coords[at])


def _least_vector(G: np.ndarray) -> np.ndarray:
    """The least eigenvector of a Hermitian G, from its one eigh."""
    return np.array(np.linalg.eigh(G)[1][:, 0])


def _family_spectra(C: PDFunction, families):
    """(least eigenvalue, Gram size, witness) of each family of (pairs,
    table), one eigvalsh each; witness returns (pairs, least eigenvector),
    check_pd's one eigh.  Every family brings its table, a stage
    restriction a slice of its level's."""
    for pairs, table in families:
        G = _gram(C, table=table)
        yield (float(np.linalg.eigvalsh(G)[0]), len(pairs),
               lambda pairs=pairs, G=G: (pairs, _least_vector(G)))


def _level_spectra(C: PDFunction):
    """_family_spectra of the Grams over K_h x [d], h the novel levels of
    the domain but a partial top, a word length at a time: the levels of
    length n are a prefix of words._clique_table(n), and its Grams of one
    clique size are gathered (_gather) and passed to eigvalsh together, at
    most about words._CHUNK entries at once.  A witness gathers its level's
    Gram again for its eigh.  Yielded in level order, so that a NaN
    raises (in the level's own _gram) where a level at a time would."""
    dom, d = C.domain, C.d
    count, n = len(C._stack) - (dom.kind == "partial"), 0
    if count:  # the domain's tree first, so each clique length reads a slice of it
        stack = _padded(C)
        words._tree(_radius(dom))

    def witness(top):
        table, pairs = _clique_pairs(words.word_of_rank(top), d)
        return pairs(), _least_vector(_gram(C, table=table))

    while (at := (words.ball_size(n) - 1) // 2) < count:  # the levels shorter than n + 1
        n += 1
        tops, offsets, _, tables = words._clique_table(n)
        sizes = np.diff(offsets)[:count - at]
        lam, missing = np.empty(len(sizes)), np.zeros(len(sizes), bool)
        order = np.argsort(sizes, kind="stable")  # one clique size at a time
        for group in np.split(order, np.flatnonzero(np.diff(sizes[order])) + 1):
            k = int(sizes[group[0]])
            step = max(1, words._CHUNK // (k * d) ** 2)
            for batch in (group[i:i + step] for i in range(0, len(group), step)):
                # one table for the batch: its levels' quotients end to end,
                # and each slot moved to its level's place among them
                quotients = [tables[i][0] for i in batch]
                own = np.array([len(q) for q in quotients])[:, None, None]
                quotients = np.concatenate(quotients)
                slots = np.stack([tables[i][1] for i in batch])
                start = np.cumsum(own).reshape(own.shape) - own
                slots += start + (slots >= own) * (len(quotients) - own)
                rows = np.repeat(np.arange(k), d)
                G = _gather(stack, _radius(dom), quotients, slots[:, rows[:, None], rows],
                            np.tile(np.arange(d), k))
                bad = missing[batch] = np.isnan(G).any(axis=(1, 2))
                lam[batch] = np.linalg.eigvalsh(np.where(bad[:, None, None], 0, G)
                                                if bad.any() else G)[:, 0]
        for i, top in enumerate(tops[:len(sizes)]):
            if missing[i]:  # raises, naming the first quotient missing
                witness(top)
            yield float(lam[i]), int(sizes[i]) * d, lambda top=top: witness(top)


def check_pd(C: PDFunction, tol: float = DEFAULT_TOL) -> PDVerdict:
    """Classify C as strict, semidefinite or not_pd, with an extremal witness.

    The family is one Gram matrix per novel level (plus the stage
    restrictions on partial domains), checked a word length at a time with
    one eigvalsh per clique size (_level_spectra).  The e block, whose
    Gram is I, comes first with least eigenvalue 1 and witness vector e_1,
    read off without a Gram.  Least eigenvalues, all from eigvalsh, are
    compared against tol scaled by the matrix dimension; crossing below the
    negative threshold ends the scan with that Gram as certificate, and a
    tie for the least eigenvalue goes to the first Gram scanned.  The
    witness Gram is then gathered again for the one eigh of the check,
    whose least eigenvector is the witness vector.  Among levels whose
    least eigenvalues agree to a few ulps, which one eigvalsh rounds lowest
    decides the witness, so it may differ from the level an eigh scan
    would pick.  tol must be a finite real number >= 0; it is the
    package's one tolerance a caller sets, every other check reads
    DEFAULT_TOL.
    """
    if not (isinstance(tol, (int, float)) and math.isfinite(tol) and tol >= 0):
        raise ParameterError(f"tol must be a finite real number >= 0, got {tol!r}")
    d = C.d
    # the e block's Gram is I (_padded): its least eigenvalue 1 and its
    # witness e_1, the vector eigh returns, need no table and no Gram
    e_block = [(1.0, d, lambda: (tuple(((), m) for m in range(1, d + 1)),
                                 np.eye(1, d, dtype=complex)[0]))]
    spectra = [e_block, _level_spectra(C)]
    if C.domain.kind == "partial":
        spectra.append(_family_spectra(C, _partial_stage_families(C)))
    worst, status = None, "strict"
    for lam, size, witness in (s for family in spectra for s in family):
        thr = tol * size
        if lam <= thr:
            status = "semidefinite"
        if worst is None or lam < worst[0]:
            worst = (lam, witness)
        if lam < -thr:
            status, worst = "not_pd", (lam, witness)
            break
    lam, witness = worst
    return PDVerdict(status, lam, *witness())


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


def realize(C: PDFunction) -> Realization:
    """Factor the Gram of C into vectors: over B_{r//2} for a ball domain of
    radius r, over K_g for a prefix domain (so every needed product stays
    inside the data).  Eigenvalues in [-DEFAULT_TOL*n, 0] are clipped to
    zero; worse ones raise."""
    dom, table = C.domain, None
    if dom.kind == "ball":
        pairs = tuple((h, m) for h in words.ball(dom.r // 2) for m in range(1, C.d + 1))
    elif dom.kind == "prefix":
        table, pairs = _clique_pairs(dom.g, C.d)
        pairs = pairs()
    else:
        raise DomainError("cannot realize a partially specified function")
    G = _gram(C, pairs, table=table)
    vals, vecs = np.linalg.eigh(G)
    thr = DEFAULT_TOL * len(pairs)
    if vals[0] < -thr:
        raise NotPositiveError(
            f"minimum Gram eigenvalue {vals[0]:.3e} is below the tolerance -{thr:.1e}"
        )
    lam = np.clip(vals, 0.0, None)
    keep = lam > 0.0
    F = vecs[:, keep] * np.sqrt(lam[keep])
    err = float(np.max(np.abs(F @ F.conj().T - G))) if len(pairs) else 0.0
    bound = 1e-10 * max(float(np.max(np.abs(G))), 1.0)
    if err > bound:
        raise NotPositiveError(f"factorization failed to reproduce the Gram ({err:.3e})")
    return Realization(indices=pairs, gram=G, factors=F, reconstruction_error=err)


def _haar_unitary(rng: np.random.Generator, dim: int) -> np.ndarray:
    """A Haar-random dim x dim unitary: the Q of a complex Gaussian matrix,
    each column's phase fixed by R's diagonal (Mezzadri 2007), drawn as
    scipy.stats.unitary_group.rvs draws it, so that seeds keep their bits."""
    z = 1 / math.sqrt(2) * (rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
    q, r = np.linalg.qr(z)
    phase = r.diagonal()
    return q * (phase / abs(phase))


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
    u_a, u_b = _haar_unitary(rng, dim), _haar_unitary(rng, dim)
    gens = (u_a, u_b, u_a.conj().T, u_b.conj().T)
    reps = {(): np.eye(dim, dtype=complex)}
    for w in words.ball(r)[1:]:
        reps[w] = reps[w[:-1]] @ gens[w[-1]]
    # <pi(w) e_j, e_k> is the (k, j) entry, hence the transpose
    rows = [(1.0 - margin) * reps[w][:d, :d].T for w in canonical_words(Domain.ball(r))]
    out = PDFunction._from_stack(d, Domain.ball(r), np.array(rows, complex).reshape(-1, d, d))
    verdict = check_pd(out)
    if verdict.status != "strict" or verdict.min_eigenvalue < margin / 2:
        raise NotStrictError(
            "random instance failed its strictness guarantee"
        )
    return out


def mix_with_delta(C: PDFunction, s: float) -> PDFunction:
    """The convex mixture (1 - s) C + s Delta on the same domain."""
    if not 0 <= s <= 1:
        raise ParameterError("mixture weight must lie in [0, 1]")
    return PDFunction._from_stack(C.d, C.domain, (1.0 - s) * C._stack)


def add_to_entries(C: PDFunction, cells, values) -> PDFunction:
    """C with values[i] added to C(w)[j, k] for cells[i] = (w, j, k),
    coordinates 1-based; the mirror C(w^-1) moves with it."""
    stack = np.array(C._stack)
    for (w, j, k), v in zip(cells, values):
        if not (1 <= j <= C.d and 1 <= k <= C.d):
            raise ParameterError(f"coordinates ({j},{k}) out of range for d={C.d}")
        i, flip = C._row(_as_word(w))
        if i is None:
            raise MissingEntryError(word_to_str(canonical_rep(_as_word(w))))
        if flip:
            stack[i, k - 1, j - 1] += np.conj(v)
        else:
            stack[i, j - 1, k - 1] += v
    return PDFunction._from_stack(C.d, C.domain, stack)


def restrict_to_ball(C: PDFunction, r: int) -> PDFunction:
    """Forget all data beyond radius r: of a ball-domain function, or of an
    extension walk's partial function past radius r, whose levels up to r
    are complete.  The result is the leading rows of the stack."""
    dom = C.domain
    if dom.kind == "prefix":
        raise DomainError("restrict_to_ball needs a ball domain or a stage beyond it")
    top = dom.r if dom.kind == "ball" else len(dom.g) - 1
    if isinstance(r, bool) or not isinstance(r, int) or not 0 <= r <= top:
        raise ParameterError(f"target radius must lie in [0, {top}]")
    ball = Domain.ball(r)
    return PDFunction._from_stack(C.d, ball, C._stack[:_size(ball)])


def restrict_to_stage(C: PDFunction, g, j: int, k: int) -> PDFunction:
    """Forget data beyond the extension stage (g, j, k).

    Keeps the full entries at every level before g and the leading part of
    C(g) strictly before position (j, k); everything later becomes undefined.
    The source domain must cover the levels before g, and level g too unless
    the stage is (g, 1, 1); a partial source works as long as every slot the
    target keeps is defined in it (the validator raises otherwise).
    """
    dom = Domain.partial(g, j, k)
    _check_header(C.d, dom)
    n = _size(dom)
    keep = ~_undefined_top(dom, C.d)
    if len(C._stack) < (n if keep.any() else n - 1):
        w = word_to_str(canonical_words(dom)[len(C._stack)])
        raise DomainError(f"stage domain needs {w}, outside the source domain")
    top = np.full((1, C.d, C.d), complex("nan"))
    if keep.any():
        top[0][keep] = C._stack[n - 1][keep]
    return PDFunction._from_stack(C.d, dom, np.concatenate([C._stack[:n - 1], top]))


def _next_stage(C: PDFunction, value, nxt: Domain) -> PDFunction:
    """C with its working slot set to value, on the walk's next stage nxt.
    A finite value keeps C's validated NaN pattern exact, so the stack is
    adopted as built; any other goes through the validator."""
    n = len(C._stack)
    stack = np.empty((n + (nxt.g != C.domain.g), C.d, C.d), dtype=complex)
    stack[:n], stack[n:] = C._stack, complex("nan")
    stack[n - 1, C.domain.j - 1, C.domain.k - 1] = value
    if not cmath.isfinite(value):
        return PDFunction._from_stack(C.d, nxt, stack)
    stack.setflags(write=False)
    out = object.__new__(PDFunction)
    out.d, out.domain, out._stack, out._stage_space = C.d, nxt, stack, None
    return out


def l1_distance(C: PDFunction, D: PDFunction) -> float:
    """Sum of entrywise |C - D| over the full symmetric domain.

    Mirrors contribute too (both g and g^-1 are counted), so the value is
    twice the sum over canonical representatives.
    """
    if C.d != D.d or C.domain != D.domain:
        raise DomainError("l1_distance needs two functions on the same domain")
    # summed row by row, in row order
    return float(sum(2.0 * np.nansum(np.abs(C._stack - D._stack), axis=(1, 2)), 0.0))


# ---------------------------------------------------------------------------
# JSON form
# ---------------------------------------------------------------------------


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
            if not isinstance(dd.get("g"), str):
                raise WordError("the level g must be word text")
            g = word_from_str(dd["g"])
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


def _shaped(mats, d: int) -> bool:
    """Whether every entry is a list of d lists of d cells, tested on the
    sets of types and lengths of all entries and of all their rows."""
    if not all(issubclass(t, list) for t in set(map(type, mats))) or set(map(len, mats)) - {d}:
        return False
    rows = list(chain.from_iterable(mats))
    return all(issubclass(t, list) for t in set(map(type, rows))) and not set(map(len, rows)) - {d}


def _cell_values(cells):
    """The cells as one complex array, null read as NaN; None when a cell is
    neither null nor a pair of finite floats or integers within the int64
    range (wider JSON integers are refused, as many JSON readers refuse
    them).  The tests run on the sets of types and lengths of all cells and
    of all their numbers at once."""
    kinds = set(map(type, cells))
    if not all(t is type(None) or issubclass(t, (list, tuple)) for t in kinds):
        return None
    pairs = [c for c in cells if c is not None] if type(None) in kinds else cells
    if set(map(len, pairs)) - {2}:
        return None
    numbers = list(chain.from_iterable(pairs))
    types = set(map(type, numbers))
    if not all(issubclass(t, float) or issubclass(t, int) and not issubclass(t, bool) for t in types):
        return None
    if not all(issubclass(t, float) for t in types):
        ints = [x for x in numbers if isinstance(x, int)]
        if min(ints) < -2 ** 63 or max(ints) >= 2 ** 63:
            return None
    values = np.array(numbers, dtype=float)
    if not np.isfinite(values).all():
        return None
    if type(None) not in kinds:
        return values.view(complex)
    out = np.full(len(cells), complex("nan"))
    out[[c is not None for c in cells]] = values.view(complex)
    return out


def function_from_dict(obj) -> PDFunction:
    """Parse the JSON object form; FormatError names the first offending key.

    The header is read first: d, then the domain, then entries.  The
    entries are read per file, not per entry: each key is looked up in the
    text table of words._texts, and the shapes, types and lengths of all
    entries and cells are tested at once, then their numbers are read into
    one array, with null read as an undefined (NaN) slot.  Keys may come in
    any order, and either of g and g^-1 may be given, or both when they
    agree to within 1e-12 under conjugate transposition.  The error names
    the first offending entry in file order: first the first whose word
    text, d x d shape or cells do not read; then "domain.j" for stage
    coordinates beyond d; then the first that lies outside the domain, is
    e but not the identity, or disagrees with its inverse; then the first
    row, in shortlex order, with a missing entry or a wrongly null cell;
    last "d" when no row is missing but a d x d complex matrix cannot be
    addressed (so Ball(0) with a huge d).  Memory is bounded by the file's
    own size: the text table and the stack grow only with the entries given
    (_key_radius, _fill).
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
    names, mats = list(ent), list(ent.values())
    table = words._texts(_key_radius(domain, len(names)))[1]
    # reading stops at the first entry whose word text, or else shape, does not read
    stop = len(mats) if _shaped(mats, d) else next(
        i for i, mat in enumerate(mats) if not _shaped([mat], d))
    error = None if stop == len(mats) else f"entry must be a {d} x {d} array"
    for i in [i for i, key in enumerate(names[:stop + 1]) if key not in table]:
        try:
            word_from_str(names[i])  # a word past the table, or else an error
        except WordError as exc:
            stop, error = i, str(exc)
            break
    cells = list(chain.from_iterable(chain.from_iterable(mats[:stop])))
    values = _cell_values(cells)
    if values is None:
        at = next(i for i, cell in enumerate(cells) if _cell_values([cell]) is None)
        raise FormatError(f"entries.{names[at // (d * d)]}",
                          f"position ({at // d % d + 1},{at % d + 1}) must be a finite "
                          "[re, im] pair or null")
    if error is not None:
        raise FormatError(f"entries.{names[stop]}", error)
    try:
        return PDFunction._from_stack(d, domain, _fill(d, domain, names, values))
    except EntryError as exc:
        raise FormatError(f"entries.{exc.word}", str(exc)) from None
    except ParameterError as exc:  # stage coordinates beyond d, or d too large to address
        key = "domain.j" if domain.kind == "partial" and max(domain.j, domain.k) > d else "d"
        raise FormatError(key, str(exc)) from None


def read_json(path):
    """The JSON value in the file at path; FormatError keyed by the path
    when the file cannot be read or is not JSON."""
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise FormatError(str(path), f"cannot load {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise FormatError(str(path), f"{path} is not valid JSON: {exc}") from exc


def _json_text(obj) -> str:
    """json.dumps(obj, indent=1), byte for byte, with each list (or tuple)
    of plain ints and floats written by one call of json's C encoder, its
    item separator that depth's ",\n" and indent; json.dumps with an indent
    runs its pure-Python encoder throughout.  Every other scalar, and every
    key, is json's own text.  Keys are text, as every key freepd writes is;
    any other raises TypeError, where json.dumps would convert a number."""
    encoders = {}  # by indent

    def text(obj, pad: str) -> str:
        inner = pad + " "
        if isinstance(obj, (list, tuple)):
            if not obj:
                return "[]"
            if set(map(type, obj)) <= {int, float}:
                if inner not in encoders:
                    encoders[inner] = json.JSONEncoder(separators=(",\n" + inner, ": ")).encode
                body = encoders[inner](obj)[1:-1]
            else:
                body = (",\n" + inner).join([text(x, inner) for x in obj])
            return f"[\n{inner}{body}\n{pad}]"
        if isinstance(obj, dict):
            if not obj:
                return "{}"
            body = (",\n" + inner).join([f"{json.encoder.encode_basestring_ascii(k)}: "
                                         f"{text(v, inner)}" for k, v in obj.items()])
            return f"{{\n{inner}{body}\n{pad}}}"
        return json.dumps(obj)

    return text(obj, "")


def _write_atomic(text: str, path):
    """Write text at path through a same-directory temp file, making the
    directory first if it is missing.

    A failed write leaves no temp file behind; an OSError on the way is
    raised as OutputError naming path.
    """
    path = os.fspath(path)
    directory = os.path.dirname(os.path.abspath(path))
    tmp = None
    try:
        try:
            fd, tmp = tempfile.mkstemp(dir=directory, prefix=".freepd-", suffix=".json")
        except FileNotFoundError:  # only a missing directory costs the second try
            os.makedirs(directory, exist_ok=True)
            fd, tmp = tempfile.mkstemp(dir=directory, prefix=".freepd-", suffix=".json")
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException as exc:
        if tmp is not None:
            try:
                os.unlink(tmp)
            except OSError:
                pass
        if isinstance(exc, OSError):
            raise OutputError(exc.errno, exc.strerror or str(exc), path) from exc
        raise


def write_json_atomic(obj, path):
    """Serialize obj as JSON (_json_text) at path (_write_atomic)."""
    _write_atomic(_json_text(obj) + "\n", path)


def save_function(C: PDFunction, path):
    """Write C at path (_write_atomic) as json.dumps(obj, indent=1) of its
    object form, byte for byte: d, the domain, then the canonical words'
    texts (words._texts) in shortlex order, each with its d x d matrix of
    [re, im] cells, null at the undefined slots of a partial top.  The text
    is formatted from the stack in one pass, with no nested lists: one
    float repr per number, one format per cell, one d x d entry template
    per row, one join."""
    dom, (n, d), r = C.domain, C._stack.shape[:2], _radius(C.domain)
    dd = {"kind": dom.kind, **({"r": r} if dom.kind == "ball" else {"g": word_to_str(dom.g)})}
    if dom.kind == "partial":
        dd.update(j=dom.j, k=dom.k)
    numbers = map(float.__repr__, np.ascontiguousarray(C._stack).view(float).ravel().tolist())
    cells = list(map("[\n     {},\n     {}\n    ]".format, *[numbers] * 2))
    if dom.kind == "partial":
        for i in np.flatnonzero(_undefined_top(dom, d)).tolist():
            cells[(n - 1) * d * d + i] = "null"
    row = "[\n    " + ",\n    ".join(["{}"] * d) + "\n   ]"
    entry = '"{}": [\n   ' + ",\n   ".join([row] * d) + "\n  ]"
    keys = map(words._texts(r)[0].__getitem__, _canonical_ranks(r)[:n].tolist())
    body = ",\n  ".join(map(entry.format, keys, *[iter(cells)] * (d * d)))
    entries = f"{{\n  {body}\n }}" if n else "{}"
    header = json.dumps({"d": d, "domain": dd}, indent=1)[:-2]  # less its closing "\n}"
    _write_atomic(f'{header},\n "entries": {entries}\n}}\n', path)


def load_function(path) -> PDFunction:
    """The function in the file at path (read_json, function_from_dict); a
    malformed one keeps function_from_dict's key and names the file."""
    obj = read_json(path)
    try:
        return function_from_dict(obj)
    except FormatError as exc:
        raise FormatError(exc.key, f"{path}: {exc}") from None
