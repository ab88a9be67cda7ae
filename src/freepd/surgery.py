"""Four-regular labeled graphs and the three-stage cycle rewiring.

A labeled graph is a pair of permutations of one vertex set: ``perm_a[v]``
is the head of the a-edge leaving ``v``, likewise ``perm_b``.  Counting
labeled in- and out-edges every vertex has degree four.

``perform_surgery`` rewires such a graph in three deterministic stages so
that afterwards every a- and b-cycle is short except for one ring through
a distinguished set B of fresh vertices, while every original vertex far
from the rewired edges keeps its exact labeled neighborhood.  Stage 1
shortens the a-cycles and plants bypass vertices (classes D and D'), stage
2 does the same for b-cycles (classes E and E'), stage 3 seats the B-ring
inside a-edges and splices pairs of b-cycles together so that a single
directed b-walk meets the whole ring.

``verify_conditions`` re-derives the seven advertised guarantees G-1..G-7
from the output by direct graph search and reports a measured constant
next to each pass flag; nothing is trusted from the construction.

Inside this module a graph is one vertex-indexed integer array per label,
rewired in place and grown as vertices are inserted.  Cycles are labelled
by pointer jumping (``_cycle_labels``: each vertex's least cycle vertex and
its position from it); every distance search is one breadth-first sweep
(``_sweep``) over rows of the arrays and their inverses, a level at a time,
and G-1 and G-5 read the vertices words reach from one walk (``_walk``).
The G-3 and G-5 searches stop once the vertices they read are settled.

Vertices are plain integers.  Originals are ``0..n-1``; inserted vertices
are numbered consecutively from ``n`` in creation order, which together
with the canonical orderings below makes the construction reproducible
bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import words
from .errors import FormatError, SurgeryError

__all__ = [
    "LabeledGraph",
    "SurgeryResult",
    "cycles",
    "perform_surgery",
    "verify_conditions",
]

_GRAPH_KEYS = ("n", "perm_a", "perm_b")
_INSERTED_CLASSES = ("D", "D_prime", "E", "E_prime", "B")
_WALK_CAP = 1 << 22  # the most walks (words times roots) in one G-1 chunk


class _FieldError(SurgeryError):
    """A SurgeryError that names the graph field at fault."""

    def __init__(self, key, message):
        self.key = key
        super().__init__(message)


def _as_perm(name, values, n):
    try:
        perm = tuple(map(int, values))
    except (TypeError, ValueError):
        raise _FieldError(name, f"{name} must be a sequence of integers") from None
    if len(perm) != n or not np.array_equal(np.sort(perm), np.arange(n)):
        raise _FieldError(name, f"{name} is not a bijection of range({n})")
    return perm


@dataclass(frozen=True)
class LabeledGraph:
    """Pair of permutations of ``range(n)`` read as directed a- and b-edges."""

    n: int
    perm_a: tuple
    perm_b: tuple

    def __post_init__(self):
        if isinstance(self.n, bool) or not isinstance(self.n, int) or self.n <= 0:
            raise _FieldError(
                "n", f"vertex count must be a positive integer, got {self.n!r}"
            )
        object.__setattr__(self, "perm_a", _as_perm("perm_a", self.perm_a, self.n))
        object.__setattr__(self, "perm_b", _as_perm("perm_b", self.perm_b, self.n))

    def to_dict(self):
        return {"n": self.n, "perm_a": list(self.perm_a), "perm_b": list(self.perm_b)}

    @classmethod
    def from_dict(cls, data):
        if not isinstance(data, dict):
            raise FormatError("graph", "graph artifact must be a JSON object")
        for key in _GRAPH_KEYS:
            if key not in data:
                raise FormatError(key, f"graph artifact lacks the field {key!r}")
        extra = sorted(set(data) - set(_GRAPH_KEYS))
        if extra:
            raise FormatError(extra[0], f"unknown graph field {extra[0]!r}")
        n = data["n"]
        if isinstance(n, bool) or not isinstance(n, int):
            raise FormatError("n", "vertex count must be an integer")
        for key in ("perm_a", "perm_b"):
            arr = data[key]
            # one pass over the items, then a test of each type they have
            if not isinstance(arr, list) or not all(
                issubclass(t, int) and not issubclass(t, bool) for t in set(map(type, arr))
            ):
                raise FormatError(key, f"{key} must be a list of integers")
        try:
            return cls(n, data["perm_a"], data["perm_b"])
        except _FieldError as exc:
            raise FormatError(exc.key, str(exc)) from exc


def _cycle_labels(perm):
    """Each vertex's cycle by pointer jumping (Wyllie's list ranking).

    Returns ``(least, pos)``: the least vertex of the cycle through ``v``
    and the number of steps from it to ``v``, each after ceil(log2 n)
    doubling rounds of whole-array gathers.  Cycle sizes are
    ``np.bincount(least)``.
    """
    perm = ahead = np.asarray(perm, dtype=np.intp)
    n = perm.size
    rounds = (n - 1).bit_length()
    least = np.arange(n)
    for _ in range(rounds):  # least over a window of 2^t steps from v
        least = np.minimum(least, least[ahead])
        ahead = ahead[ahead]
    root = least == np.arange(n)
    ahead = np.where(root, least, perm)
    rank = (~root).astype(np.intp)
    for _ in range(rounds):  # steps from v on to its least vertex
        rank += rank[ahead]
        ahead = ahead[ahead]
    size = np.bincount(least, minlength=n)[least]
    return least, (size - rank) % size


def _cycle_list(perm):
    """The cycles of ``perm`` as arrays, each starting at its least vertex,
    listed by that least vertex."""
    least, pos = _cycle_labels(perm)
    size = np.bincount(least)
    return np.split(np.lexsort((pos, least)), np.cumsum(size[size > 0])[:-1])


def cycles(g, label):
    """Canonical cycle decomposition of one of the two edge permutations."""
    if label == "a":
        perm = g.perm_a
    elif label == "b":
        perm = g.perm_b
    else:
        raise SurgeryError(f"edge label must be 'a' or 'b', got {label!r}")
    return [c.tolist() for c in _cycle_list(perm)]


def _greedy_positions(length, gap, candidates):
    """Greedy gap-separated picks among candidate positions on a cycle.

    Takes the first candidate, then every candidate at least ``gap`` past
    the previous pick, finally dropping trailing picks that land within
    ``gap`` of the first one around the wrap.
    """
    if not candidates:
        return []
    marks = [candidates[0]]
    for p in candidates[1:]:
        if p - marks[-1] >= gap:
            marks.append(p)
    while len(marks) > 1 and marks[0] + length - marks[-1] < gap:
        marks.pop()
    return marks


@dataclass(frozen=True)
class SurgeryResult:
    """Rewired graph plus the marker sets produced alongside it.

    ``original`` flags the input vertices, ``W`` the originals whose
    labeled r-ball survived untouched, ``B`` the ring vertices, and
    ``inserted`` maps each insertion class to its vertex tuple.
    """

    graph: LabeledGraph
    original: frozenset
    W: tuple
    B: tuple
    inserted: dict = field(default_factory=dict)

    def to_dict(self):
        return {
            "graph": self.graph.to_dict(),
            "original": sorted(self.original),
            "W": list(self.W),
            "B": list(self.B),
            "inserted": {k: list(v) for k, v in self.inserted.items()},
        }


def _check_rewiring(a, b, stage):
    for name, perm in (("a", a), ("b", b)):
        if not np.array_equal(np.sort(perm), np.arange(perm.size)):
            raise SurgeryError(f"{stage} broke the {name}-edge bijection")


def _shorten_cycles(label, out, other, touched, anchor, gamma, min_len):
    """Stages 1 and 2: cut every ``out``-cycle and plant two bypass classes.

    Every cycle is cut at gamma-separated anchors ``v`` with ``anchor[v]``,
    each cut closing the arc up to the anchor into a cycle of its own.  At
    every anchor, fresh vertices x1 and x2 go into the ``other``-edges
    leaving the anchor and its second successor, with the ``out``-edge
    x1 -> x2; the anchors of a cycle are grouped in consecutive pairs (a
    triple closing an odd count) and each group's x2 -> x1 edges form a
    ring.  Anchors are read off the frozen cycle list, in whose order the
    i-th anchor's x1 and x2 are numbered ``out.size + 2i`` and one more.
    Returns the grown ``out``, ``other`` and ``touched`` and the x1 and x2
    tuples.
    """
    cuts, closes, seconds, partner = [], [], [], []
    for cyc in _cycle_list(out):
        cand = np.flatnonzero(anchor[cyc]).tolist()
        cyc, length = cyc.tolist(), cyc.size
        if length < min_len:
            raise SurgeryError(
                f"{label}-cycle through vertex {cyc[0]} has length {length};"
                f" every cycle entering its stage needs length >= {min_len}"
            )
        marks = _greedy_positions(length, gamma, cand)
        if len(marks) < 2:
            raise SurgeryError(
                f"{label}-cycle through vertex {cyc[0]} offers {len(marks)} usable"
                " anchor(s); the rewiring needs two"
            )
        m, base = len(marks), len(cuts)
        group = [i ^ 1 for i in range(m)]
        if m % 2:
            group[-3:] = [m - 2, m - 1, m - 3]
        for i, p in enumerate(marks):
            cuts.append(cyc[p])
            closes.append(cyc[(marks[i - 1] + 1) % length])
            seconds.append(cyc[(p + 2) % length])
            partner.append(base + group[i])

    count, k = out.size, len(cuts)
    cuts, closes, seconds = (np.array(x, dtype=np.intp)
                             for x in (cuts, closes, seconds))
    x1 = count + 2 * np.arange(k)
    x2 = x1 + 1
    succ, t1, t2 = out[cuts], other[cuts], other[seconds]
    touched = np.concatenate([touched, np.ones(2 * k, dtype=bool)])
    touched[np.concatenate([cuts, closes, seconds, succ, t1, t2])] = True
    out[cuts] = closes
    other[cuts] = x1
    other[seconds] = x2
    out = np.concatenate([out, np.column_stack([x2, x1[partner]]).ravel()])
    other = np.concatenate([other, np.column_stack([t1, t2]).ravel()])
    stage = f"the {label}-cycle stage"
    _check_rewiring(*((out, other) if label == "a" else (other, out)), stage)
    if 2 * k > 2 * count / gamma:
        raise SurgeryError(f"{stage} exceeded its insertion budget")
    return out, other, touched, tuple(x1.tolist()), tuple(x2.tolist())


def perform_surgery(g, R, r):
    """Run the three rewiring stages and return the graph with markers.

    Every input a- and b-cycle must be long enough to carry two separated
    anchors; the working separation is gamma = max(R, 4) so that every
    cycle the rewiring creates keeps length at least four.  Conflicts that
    the separation hypotheses are supposed to exclude abort with a
    diagnostic naming the offending cycle.
    """
    if isinstance(R, bool) or not isinstance(R, int) or R < 1:
        raise SurgeryError(f"R must be a positive integer, got {R!r}")
    if isinstance(r, bool) or not isinstance(r, int) or r < 0:
        raise SurgeryError(f"r must be a non-negative integer, got {r!r}")

    n0 = g.n
    gamma = max(R, 4)
    min_len = max(4 * R, 2 * gamma)
    a = np.array(g.perm_a, dtype=np.intp)
    b = np.array(g.perm_b, dtype=np.intp)
    touched = np.zeros(n0, dtype=bool)

    # ---- stage 1: shorten the a-cycles, plant D/D' bypasses ----
    a, b, touched, D, D_prime = _shorten_cycles(
        "a", a, b, touched, np.ones(n0, dtype=bool), gamma, min_len
    )
    worst = int(np.bincount(_cycle_labels(a)[0]).max())
    if worst > 2 * gamma:
        raise SurgeryError(f"stage 1 left an a-cycle of length {worst} (> {2 * gamma})")

    # ---- stage 2: the same treatment for b-cycles, classes E/E' ----
    # Anchors are restricted to original vertices whose second b-successor
    # is also original, so both fresh vertices end up adjacent to
    # originals.
    anchor = (np.arange(b.size) < n0) & (b[b] < n0)
    b, a, touched, E, E_prime = _shorten_cycles(
        "b", b, a, touched, anchor, gamma, min_len
    )
    a_least, b_least = _cycle_labels(a)[0], _cycle_labels(b)[0]
    a_len, b_len = np.bincount(a_least), np.bincount(b_least)
    for label, size in (("a", a_len), ("b", b_len)):
        worst = int(size.max())
        if worst > 4 * gamma:
            raise SurgeryError(
                f"stage 2 left a {label}-cycle of length {worst} (> {4 * gamma})"
            )

    # ---- stage 3: the B-ring and the b-cycle splices ----
    # The ring set A is grown on the frozen stage-2 graph: a greedy
    # maximal 10R-separated pass in vertex order, then farthest-point
    # picks until the ring can hold four vertices.  A candidate is seated
    # only if the a-cycle receiving its ring vertex stays short and the
    # two b-cycles it wants to splice are unclaimed with admissible
    # combined length, which keeps every post-splice cycle within the
    # advertised bound no matter the scale.  Cycles are named by their
    # least vertex.
    count = a.size
    nbrs = _step_rows(a, b)
    pred = nbrs[2, :n0]
    ca, cb, cb2 = a_least[:n0], b_least[:n0], b_least[pred]
    cap = 2 * (4 * R + 1)
    pair_ok = (cb == cb2) | (b_len[cb] + b_len[cb2] <= cap)
    a_load = np.zeros(count, dtype=np.intp)
    claimed = np.zeros(count, dtype=bool)
    dist_to_ring = np.full(count, np.inf)
    ring = []

    def admissible():
        return pair_ok & (a_len[ca] + a_load[ca] < cap) & ~claimed[cb] & ~claimed[cb2]

    def seat(v):
        ring.append(v)
        a_load[ca[v]] += 1
        claimed[[cb[v], cb2[v]]] = True
        dist = _sweep(nbrs, [v])
        np.minimum(dist_to_ring, np.where(dist < 0, np.inf, dist), out=dist_to_ring)

    # A seat only claims cycles and shortens distances, so the next seat
    # of the in-order scan is the first candidate past the last one.
    v = 0
    while True:
        ok = np.flatnonzero(admissible()[v:] & (dist_to_ring[v:n0] >= 10 * R))
        if not ok.size:
            break
        v += int(ok[0])
        seat(v)
        v += 1
    while len(ring) < 4:
        ok = admissible()
        if not ok.any():
            raise SurgeryError(
                "cannot seat a b-ring of four vertices; the input is too"
                " small or its cycles too entangled"
            )
        seat(int(np.argmax(np.where(ok, dist_to_ring[:n0], -np.inf))))

    # each ring vertex v gets a B vertex on its incoming a-edge, u -> B -> v
    ring = np.array(ring, dtype=np.intp)
    pred = pred[ring]
    B = np.arange(count, count + ring.size)
    a[pred] = B
    a = np.concatenate([a, ring])
    b = np.concatenate([b, np.roll(B, -1)])
    touched = np.concatenate([touched, np.ones(ring.size, dtype=bool)])
    touched[ring] = touched[pred] = True

    # Splice the b-cycles of v and u into one, swapping the b-edges of
    # their least vertices other than v (originals come first in vertex
    # order).  Every seat claimed its two b-cycles, so no other seat, ring
    # vertex or splice touches them and the stage-2 labels stay valid.
    for v, u in zip(ring.tolist(), pred.tolist()):
        lv, lu = b_least[v], b_least[u]
        if lv == lu:
            continue
        free = np.flatnonzero(b_least == lv)
        free = free[free != v]
        if not free.size:
            raise SurgeryError("no vertex available to splice; cycles too short")
        w = np.array([free[0], lu])
        t = b[w]
        b[w] = t[::-1]
        touched[w] = touched[t] = True

    count = a.size
    _check_rewiring(a, b, "stage 3")
    if B.size > 5 * n0 / R:
        raise SurgeryError("stage 3 exceeded its insertion budget")
    if count - n0 > 9 * n0 / R:
        raise SurgeryError(
            f"inserted {count - n0} vertices, over the ledger bound {9 * n0 / R:.1f}"
        )
    if not _one_cycle(_cycle_labels(b)[0], B):
        raise SurgeryError("the B vertices do not form a single b-cycle")
    inserted = {"D": D, "D_prime": D_prime, "E": E, "E_prime": E_prime,
                "B": tuple(B.tolist())}
    stranded = _stranded(_step_rows(a, b), np.arange(count) < n0)
    for x in (x for name in _INSERTED_CLASSES for x in inserted[name]):
        if stranded[x]:
            raise SurgeryError(f"inserted vertex {x} has no original neighbor")

    graph = LabeledGraph(count, tuple(a.tolist()), tuple(b.tolist()))
    undisturbed = _undisturbed_set(g, graph, np.flatnonzero(touched), r)
    return SurgeryResult(
        graph=graph,
        original=frozenset(range(n0)),
        W=tuple(undisturbed),
        B=inserted["B"],
        inserted=inserted,
    )


def _one_cycle(least, verts):
    """Whether ``verts`` is exactly the vertex set of one cycle of labels ``least``."""
    verts = sorted(verts)
    return np.array_equal(np.flatnonzero(least == least[verts[0]]), verts)


def _stranded(nbrs, original):
    """Mask of the vertices outside ``original`` (a mask) with no original
    among their neighbours in the rows of ``nbrs``."""
    return ~original & ~original[nbrs].any(axis=0)


def _step_rows(perm_a, perm_b):
    """Neighbour rows for ``_sweep``: a, b, then their inverses.

    The first two rows alone give the directed search.
    """
    rows = np.array([perm_a, perm_b], dtype=np.intp)
    inv = np.empty_like(rows)
    np.put_along_axis(inv, rows, np.arange(rows.shape[1]), axis=1)
    return np.concatenate([rows, inv])


def _sweep(nbrs, sources, blocked=None, depth=None, until=None):
    """Breadth-first distances from ``sources`` along the rows of ``nbrs``.

    ``nbrs`` is a ``(k, n)`` integer array whose row ``i`` maps every vertex
    to its ``i``-th neighbour.  Each level gathers the frontier's neighbours,
    keeps the unvisited ones and stops after ``depth`` levels when that is
    given.  Blocked vertices are never entered, not even as sources.  When
    ``until`` (vertices) is given, the search also stops at the first level
    at which every one of them has a distance or is blocked.  Returns the
    distances, exact wherever a vertex was reached, and -1 where it was not
    reached before the search stopped.
    """
    dist = np.full(nbrs.shape[1], -1, dtype=np.intp)
    if blocked is not None:
        dist[np.asarray(blocked, dtype=np.intp)] = -2
    frontier = np.asarray(sources, dtype=np.intp)
    frontier = frontier[dist[frontier] == -1]
    dist[frontier] = 0
    if until is not None:
        until = np.asarray(until, dtype=np.intp)
    level = 0
    while frontier.size and level != depth:
        if until is not None:
            until = until[dist[until] == -1]
            if not until.size:
                break
        level += 1
        reached = nbrs[:, frontier].ravel()
        dist[reached[dist[reached] == -1]] = level
        frontier = np.flatnonzero(dist == level)
    dist[dist == -2] = -1
    return dist


def _undisturbed_set(before, after, touched, r):
    """Originals farther than r from every rewired edge.

    Distance is meant in the union of the old and new edge sets, so that a
    vertex that only lost an edge still counts as disturbed nearby.  Both
    ends of every lost edge are touched, so the lost edges shorten no
    distance and the search runs on the new graph alone.
    """
    nbrs = _step_rows(after.perm_a, after.perm_b)
    near = _sweep(nbrs, touched, depth=r)
    return np.flatnonzero(near[: before.n] < 0).tolist()


def _walk(nbrs, r, roots):
    """The vertex each word of ball(r) reaches from each root along the rows
    of ``nbrs`` (_step_rows), one row per word in rank order.  Letters act
    right to left, so a word moves its suffix's vertex by its first letter."""
    tree = words._tree(r)
    reach = np.empty((words.ball_size(r), len(roots)), dtype=np.intp)
    reach[0] = roots
    for n in range(1, r + 1):
        at = slice(words.ball_size(n - 1), words.ball_size(n))
        reach[at] = nbrs[tree.letters[at, :1], reach[tree.suffix[at, 1]]]
    return reach


def _balls_kept(nbrs0, nbrs1, roots, r):
    """Whether each root's labelled r-ball is the same in both graphs: two
    words of ball(r), or one and a one-letter step of another (ball(r + 1)),
    end at one vertex in one graph exactly when they do in the other.  So
    each walk is labelled by the first word of ball(r) ending where it does
    (ball_size(r) for none), the labels must agree, and roots go in chunks
    of at most about _WALK_CAP walks."""
    k, step = words.ball_size(r), max(1, _WALK_CAP // words.ball_size(r + 1))
    kept = []
    for at in range(0, len(roots), step):
        chunk, labels = roots[at:at + step], []
        for nbrs in (nbrs0, nbrs1):
            keys = _walk(nbrs, r + 1, chunk) * len(chunk) + np.arange(len(chunk))
            seen, first = np.unique(keys[:k], return_index=True)
            i = np.searchsorted(seen, keys).clip(max=seen.size - 1)
            labels.append(np.where(seen[i] == keys, first[i] // len(chunk), k))
        kept.extend(np.all(labels[0] == labels[1], axis=0).tolist())
    return kept


def verify_conditions(original, result, r, R, samples=200, seed=0):
    """Re-derive the G-1..G-7 guarantees from a surgery output.

    Every condition is checked by direct graph search on the result: the
    distance conditions G-3..G-5 by breadth-first sweeps over the
    permutation arrays (``_sweep``; a G-3 or G-5 probe stops once its
    targets are settled), the rest by walking cycles and balls.
    Distance-ratio and labeled-path conditions are sampled (seeded, at
    most ``samples`` probes) since their claims are uniform.  The report
    maps each condition name to pass, measured and bound entries.
    """
    graph = result.graph
    n0 = original.n
    orig_set = set(result.original)
    ring = list(result.B)
    ring_set = set(ring)
    report = {}

    nbrs0 = _step_rows(original.perm_a, original.perm_b)
    nbrs1 = _step_rows(graph.perm_a, graph.perm_b)

    # G-1: census of undisturbed labeled r-balls
    good = sum(_balls_kept(nbrs0, nbrs1, result.W, r))
    lower = (1.0 - 20.0 * words.ball_size(r) / R) * n0
    report["G-1"] = {
        "pass": bool(good == len(result.W) and good >= lower),
        "measured": good / n0,
        "bound": max(0.0, lower / n0),
    }

    # G-2: one b-ring, everything else short
    a_len = np.bincount(_cycle_labels(graph.perm_a)[0])
    b_least = _cycle_labels(graph.perm_b)[0]
    b_len = np.bincount(b_least)
    ring_is_cycle = bool(ring) and _one_cycle(b_least, ring_set)
    others = np.delete(b_len, b_least[ring[0]]) if ring_is_cycle else b_len
    worst = int(max(a_len.max(), others.max()))
    cap = 2 * (4 * R + 1)
    report["G-2"] = {
        "pass": bool(ring_is_cycle and worst <= cap and len(ring) <= n0 / R),
        "measured": worst,
        "bound": cap,
    }

    # G-3: distances off the ring dominate the original distances
    rng = np.random.default_rng(seed)
    pool = sorted(orig_set)
    n_src = max(1, min(len(pool), samples // 10))
    sources = rng.choice(pool, size=n_src, replace=False)
    ratio = 0.0
    checked = 0
    for s in sources:
        targets = rng.choice(pool, size=min(len(pool), 10), replace=False)
        d0 = _sweep(nbrs0, [s], until=targets)
        d1 = _sweep(nbrs1, [s], blocked=ring, until=targets)
        for t in targets:
            if t == s or checked >= samples:
                continue
            checked += 1
            if d1[t] < 0:
                continue
            if d0[t] < 0:
                ratio = float("inf")
            elif d1[t] > 0:
                ratio = max(ratio, int(d0[t]) / int(d1[t]))
    bound3 = (4 * R + 1) * R * R
    report["G-3"] = {"pass": bool(ratio <= bound3), "measured": ratio, "bound": bound3}

    # G-4: the whole graph hangs below the ring in directed reach
    directed = nbrs1[:2]
    dist_from_ring = _sweep(directed, ring)
    worst4 = int(dist_from_ring.max()) if ring else -1
    reach_all = bool(ring) and int(dist_from_ring.min()) >= 0
    bound4 = 8 * (4 * R + 1) ** 2 * (10 * R + 1)
    report["G-4"] = {
        "pass": bool(reach_all and worst4 <= bound4),
        "measured": worst4 if reach_all else float("inf"),
        "bound": bound4,
    }

    # G-5: short directed detours avoiding the ring realize every ball word
    bound5 = 256 * max(1, r) * (4 * R + 1) ** 2
    n_src5 = max(1, min(len(pool), samples // max(1, words.ball_size(r) - 1)))
    sources5 = rng.choice(pool, size=n_src5, replace=False)
    worst5 = 0
    ok5 = True
    for s, targets in zip(sources5.tolist(), _walk(nbrs1, r, sources5)[1:].T.tolist()):
        if s in ring_set:
            continue
        targets = [t for t in targets if t in orig_set and t not in ring_set]
        dist = _sweep(directed, [s], blocked=ring, until=targets)
        for t in targets:
            d = int(dist[t])
            if d < 0 or d > bound5:
                ok5 = False
                worst5 = float("inf") if d < 0 else max(worst5, d)
            else:
                worst5 = max(worst5, d)
    report["G-5"] = {"pass": bool(ok5), "measured": worst5, "bound": bound5}

    # G-6: every fresh vertex touches an original
    is_orig = np.zeros(graph.n, dtype=bool)
    is_orig[pool] = True
    bad6 = int(_stranded(nbrs1, is_orig).sum())
    report["G-6"] = {"pass": bad6 == 0, "measured": bad6, "bound": 0}

    # G-7: no short loops anywhere
    shortest = int(min(a_len[a_len > 0].min(), b_len[b_len > 0].min()))
    report["G-7"] = {"pass": bool(shortest >= 4), "measured": shortest, "bound": 4}

    return report
