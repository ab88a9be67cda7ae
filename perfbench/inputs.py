"""Seeded inputs for the benchmark, built without importing freepd.

Functions on Ball(r) are realized the way the package's own ``random_nspd``
realizes them: two Haar unitaries drive a representation pi of the free
group, and C(w) = (1 - margin) * (pi(w)[:d, :d]).T.  Every Gram matrix of
such a function is (1 - margin) times a Gram of unit vectors plus margin
times the identity, so its minimum eigenvalue is at least ``margin`` by
construction, not by a numerical check.  Labeled graphs are pairs of
permutations whose cycles all have a prescribed minimum length.

Everything here depends on its ``rng`` argument alone, so one seed gives
byte-identical files.
"""

import json
import os

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components

LETTERS = "abAB"
INVERSE = {"a": "A", "b": "B", "A": "a", "B": "b"}


def inverse(word):
    return "".join(INVERSE[x] for x in reversed(word))


def shortlex_key(word):
    return (len(word), [LETTERS.index(x) for x in word])


def is_canonical(word):
    """Whether ``word`` is the stored one of the pair {w, w^-1}."""
    return shortlex_key(word) < shortlex_key(inverse(word))


def ball_words(r):
    """Reduced words of length at most r, shortlex order, identity as ''."""
    out = [""]
    frontier = [""]
    for _ in range(r):
        frontier = [w + x for w in frontier for x in LETTERS if not w or x != INVERSE[w[-1]]]
        out.extend(frontier)
    return out


def haar_unitary(rng, n):
    z = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    phases = np.diagonal(r) / np.abs(np.diagonal(r))
    return q * phases


def random_function(rng, r, d, margin=0.1):
    """Canonical word -> d x d complex matrix of a strict function on Ball(r)."""
    dim = max(2 * d, 3)
    ua, ub = haar_unitary(rng, dim), haar_unitary(rng, dim)
    gens = {"a": ua, "b": ub, "A": ua.conj().T, "B": ub.conj().T}
    reps = {"": np.eye(dim, dtype=complex)}
    entries = {}
    for w in ball_words(r)[1:]:
        reps[w] = reps[w[:-1]] @ gens[w[-1]]
        if is_canonical(w):
            entries[w] = (1.0 - margin) * reps[w][:d, :d].T
    return entries


def mix(a, b, weight):
    """Entrywise convex mixture (1 - weight) a + weight b of two functions."""
    return {w: (1.0 - weight) * a[w] + weight * b[w] for w in a}


def function_dict(entries, r, d):
    """The freepd function file form of an entries mapping on Ball(r)."""
    cells = {
        w: [[[float(z.real), float(z.imag)] for z in row] for row in arr]
        for w, arr in entries.items()
    }
    return {"d": d, "domain": {"kind": "ball", "r": r}, "entries": cells}


def long_cycle_permutation(rng, n, min_len):
    """A permutation of range(n) whose cycles all have length >= min_len."""
    verts = rng.permutation(n)
    perm = np.empty(n, dtype=np.int64)
    i = 0
    while i < n:
        take = int(rng.integers(min_len, 2 * min_len + 1))
        if n - i - take < min_len:
            take = n - i
        block = verts[i:i + take]
        perm[block] = np.roll(block, -1)
        i += take
    return perm


def weakly_connected(perm_a, perm_b):
    n = len(perm_a)
    src = np.concatenate([np.arange(n), np.arange(n)])
    dst = np.concatenate([perm_a, perm_b])
    adj = coo_matrix((np.ones(2 * n), (src, dst)), shape=(n, n))
    count, _ = connected_components(adj, directed=True, connection="weak")
    return count == 1


def random_graph(rng, n, min_len):
    """A weakly connected labeled graph whose letter cycles have length >= min_len."""
    while True:
        perm_a = long_cycle_permutation(rng, n, min_len)
        perm_b = long_cycle_permutation(rng, n, min_len)
        if weakly_connected(perm_a, perm_b):
            return {"n": n, "perm_a": perm_a.tolist(), "perm_b": perm_b.tolist()}


def write_json(obj, path):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh)
    return os.fspath(path)
