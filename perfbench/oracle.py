"""Independent checks of freepd outputs, written without freepd.

Gram matrices are assembled here from the function files with this
directory's own word arithmetic, and energies come from SciPy's
symmetric-definite eigensolver, so an oracle shares no code with the
package it checks.
"""

import json

import numpy as np
import scipy.linalg

from inputs import INVERSE, ball_words, inverse, is_canonical


def load_entries(path):
    """(d, radius, canonical word -> d x d complex matrix) of a ball function file."""
    with open(path, encoding="utf-8") as fh:
        obj = json.load(fh)
    d = obj["d"]
    entries = {}
    for w, cells in obj["entries"].items():
        arr = np.array([[complex(re, im) for re, im in row] for row in cells])
        entries[w if is_canonical(w) else inverse(w)] = arr if is_canonical(w) else arr.conj().T
    return d, obj["domain"]["r"], entries


def mul(u, v):
    i, j = len(u), 0
    while i > 0 and j < len(v) and u[i - 1] == INVERSE[v[j]]:
        i -= 1
        j += 1
    return u[:i] + v[j:]


def value(entries, w, d):
    if not w:
        return np.eye(d, dtype=complex)
    if is_canonical(w):
        return entries[w]
    return entries[inverse(w)].conj().T


def ball_gram(entries, d, r):
    """Block Gram over Ball(r): block (h, l) is C(l^-1 h)."""
    words = ball_words(r)
    n = len(words)
    G = np.empty((n * d, n * d), dtype=complex)
    for p, h in enumerate(words):
        for q, l in enumerate(words):
            G[p * d:(p + 1) * d, q * d:(q + 1) * d] = value(entries, mul(inverse(l), h), d)
    return G


def min_eigenvalue(entries, d, r):
    return float(np.linalg.eigvalsh(ball_gram(entries, d, r))[0])


def energy(a, b, d, r):
    """Largest lambda with G_b x = lambda G_a x over Ball(r) x [d]."""
    return float(scipy.linalg.eigh(ball_gram(b, d, r), ball_gram(a, d, r),
                                   eigvals_only=True)[-1])


def cycle_lengths(perm):
    seen = np.zeros(len(perm), dtype=bool)
    lengths = []
    for v in range(len(perm)):
        if seen[v]:
            continue
        n = 0
        w = v
        while not seen[w]:
            seen[w] = True
            w = perm[w]
            n += 1
        lengths.append(n)
    return lengths


def close(a, b, rel):
    return abs(a - b) <= rel * max(1.0, abs(a), abs(b))
