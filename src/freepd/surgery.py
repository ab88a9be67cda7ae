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
next to each pass flag; nothing is trusted from the construction.  Every
distance search, here and in the rewiring, is one breadth-first sweep
(``_sweep``) over rows of the permutation arrays, a whole level at a time.

Vertices are plain integers.  Originals are ``0..n-1``; inserted vertices
are numbered consecutively from ``n`` in creation order, which together
with the canonical orderings below makes the construction reproducible
bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import FormatError, SurgeryError
from .words import ball, ball_size

__all__ = [
    "LabeledGraph",
    "SurgeryResult",
    "cycles",
    "perform_surgery",
    "verify_conditions",
]

_GRAPH_KEYS = ("n", "perm_a", "perm_b")
_INSERTED_CLASSES = ("D", "D_prime", "E", "E_prime", "B")


class _FieldError(SurgeryError):
    """A SurgeryError that names the graph field at fault."""

    def __init__(self, key, message):
        self.key = key
        super().__init__(message)


def _as_perm(name, values, n):
    try:
        perm = tuple(int(x) for x in values)
    except (TypeError, ValueError):
        raise _FieldError(name, f"{name} must be a sequence of integers") from None
    if len(perm) != n or sorted(perm) != list(range(n)):
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
            if not isinstance(arr, list) or any(
                isinstance(x, bool) or not isinstance(x, int) for x in arr
            ):
                raise FormatError(key, f"{key} must be a list of integers")
        try:
            return cls(n, tuple(data["perm_a"]), tuple(data["perm_b"]))
        except _FieldError as exc:
            raise FormatError(exc.key, str(exc)) from exc

    def steps(self):
        """The four labeled step maps: a, b, then their inverses."""
        return (self.perm_a, self.perm_b, _invert(self.perm_a), _invert(self.perm_b))


def _invert(perm):
    inv = [0] * len(perm)
    for v, w in enumerate(perm):
        inv[w] = v
    return tuple(inv)


def _orbit_cycles(out):
    """Cycle decomposition of a vertex->vertex bijection given as a dict.

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


def cycles(g, label):
    """Canonical cycle decomposition of one of the two edge permutations."""
    if label == "a":
        perm = g.perm_a
    elif label == "b":
        perm = g.perm_b
    else:
        raise SurgeryError(f"edge label must be 'a' or 'b', got {label!r}")
    return _orbit_cycles({v: perm[v] for v in range(g.n)})


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

    @classmethod
    def from_dict(cls, data):
        if not isinstance(data, dict):
            raise FormatError("result", "surgery artifact must be a JSON object")
        for key in ("graph", "original", "W", "B", "inserted"):
            if key not in data:
                raise FormatError(key, f"surgery artifact lacks the field {key!r}")
        graph = LabeledGraph.from_dict(data["graph"])
        for key in ("original", "W", "B"):
            arr = data[key]
            if not isinstance(arr, list) or any(
                isinstance(x, bool) or not isinstance(x, int) for x in arr
            ):
                raise FormatError(key, f"{key} must be a list of integers")
        inserted = data["inserted"]
        if not isinstance(inserted, dict):
            raise FormatError("inserted", "inserted must map class names to vertex lists")
        return cls(
            graph=graph,
            original=frozenset(data["original"]),
            W=tuple(data["W"]),
            B=tuple(data["B"]),
            inserted={k: tuple(v) for k, v in inserted.items()},
        )


def _pairs_and_triple(items):
    # consecutive pairs, closing with one triple when the count is odd
    if len(items) < 2:
        raise SurgeryError("anchor grouping needs at least two vertices")
    if len(items) % 2:
        head, tail = items[:-3], [list(items[-3:])]
    else:
        head, tail = items, []
    return [list(head[i : i + 2]) for i in range(0, len(head), 2)] + tail


def _ring_edges(group):
    return list(zip(group, list(group[1:]) + [group[0]]))


def _cycle_through(out, v):
    cyc = [v]
    w = out[v]
    while w != v:
        cyc.append(w)
        w = out[w]
    return cyc


def _check_rewiring(a_out, b_out, stage, count):
    verts = set(range(count))
    for name, out in (("a", a_out), ("b", b_out)):
        if set(out) != verts or set(out.values()) != verts:
            raise SurgeryError(f"{stage} broke the {name}-edge bijection")


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
    a_out = {v: g.perm_a[v] for v in range(n0)}
    b_out = {v: g.perm_b[v] for v in range(n0)}
    touched = set()
    fresh = [n0]
    inserted = {name: [] for name in _INSERTED_CLASSES}

    def new_vertex(cls):
        v = fresh[0]
        fresh[0] += 1
        inserted[cls].append(v)
        return v

    def set_edge(out, x, y):
        old = out.get(x)
        if old is not None:
            touched.add(old)
        touched.add(x)
        touched.add(y)
        out[x] = y

    def split_edge(out, x, w):
        # x -> out[x] becomes x -> w -> out[x]
        t = out[x]
        set_edge(out, x, w)
        set_edge(out, w, t)

    def shorten_cycles(label, bypass, anchor_ok):
        # Cut every label-cycle at gamma-separated anchors p, those with
        # anchor_ok(cyc[p], cyc[p + 2]), and plant the two bypass classes
        # on the other label's edges.  Insertion points are read off the
        # frozen cycle list, not the mutating edge maps.
        out, other = (a_out, b_out) if label == "a" else (b_out, a_out)
        total = 0
        for cyc in _orbit_cycles(dict(out)):
            length = len(cyc)
            total += length
            if length < min_len:
                raise SurgeryError(
                    f"{label}-cycle through vertex {cyc[0]} has length {length};"
                    f" every cycle entering its stage needs length >= {min_len}"
                )
            cand = [
                i for i in range(length) if anchor_ok(cyc[i], cyc[(i + 2) % length])
            ]
            marks = _greedy_positions(length, gamma, cand)
            if len(marks) < 2:
                raise SurgeryError(
                    f"{label}-cycle through vertex {cyc[0]} offers {len(marks)} usable"
                    " anchor(s); the rewiring needs two"
                )
            for i, p in enumerate(marks):
                q = marks[i - 1]
                set_edge(out, cyc[p], cyc[(q + 1) % length])
            first, second = {}, {}
            for p in marks:
                v = cyc[p]
                x1 = new_vertex(bypass[0])
                x2 = new_vertex(bypass[1])
                first[v], second[v] = x1, x2
                split_edge(other, v, x1)
                split_edge(other, cyc[(p + 2) % length], x2)
                set_edge(out, x1, x2)
            for group in _pairs_and_triple([cyc[p] for p in marks]):
                for x, y in _ring_edges(group):
                    set_edge(out, second[x], first[y])
        stage = f"the {label}-cycle stage"
        _check_rewiring(a_out, b_out, stage, fresh[0])
        if len(inserted[bypass[0]]) + len(inserted[bypass[1]]) > 2 * total / gamma:
            raise SurgeryError(f"{stage} exceeded its insertion budget")

    # ---- stage 1: shorten the a-cycles, plant D/D' bypasses ----
    shorten_cycles("a", ("D", "D_prime"), lambda v, w: True)
    worst = max(len(c) for c in _orbit_cycles(dict(a_out)))
    if worst > 2 * gamma:
        raise SurgeryError(f"stage 1 left an a-cycle of length {worst} (> {2 * gamma})")

    # ---- stage 2: the same treatment for b-cycles, classes E/E' ----
    # Anchors are restricted to original vertices whose second b-successor
    # is also original, so both fresh vertices end up adjacent to
    # originals.
    shorten_cycles("b", ("E", "E_prime"), lambda v, w: v < n0 and w < n0)
    for label, out in (("a", a_out), ("b", b_out)):
        worst = max(len(c) for c in _orbit_cycles(dict(out)))
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
    # advertised bound no matter the scale.
    count = fresh[0]
    a_cyc_id, a_cyc_len = _cycle_index(a_out, count)
    b_cyc_id, b_cyc_len = _cycle_index(b_out, count)
    inv_a = {w: v for v, w in a_out.items()}
    nbrs = _step_rows([a_out[v] for v in range(count)], [b_out[v] for v in range(count)])
    cap = 2 * (4 * R + 1)
    a_load = {}
    claimed = set()
    ring = []

    def admissible(v):
        u = inv_a[v]
        ca = a_cyc_id[v]
        if a_cyc_len[ca] + a_load.get(ca, 0) + 1 > cap:
            return False
        cb, cb2 = b_cyc_id[v], b_cyc_id[u]
        if cb in claimed or cb2 in claimed:
            return False
        if cb != cb2 and b_cyc_len[cb] + b_cyc_len[cb2] > cap:
            return False
        return True

    dist_to_ring = np.full(count, np.inf)

    def seat(v):
        ring.append(v)
        u = inv_a[v]
        ca = a_cyc_id[v]
        a_load[ca] = a_load.get(ca, 0) + 1
        claimed.add(b_cyc_id[v])
        claimed.add(b_cyc_id[u])
        dist = _sweep(nbrs, [v])
        np.minimum(dist_to_ring, np.where(dist < 0, np.inf, dist), out=dist_to_ring)

    for v in range(n0):
        if dist_to_ring[v] >= 10 * R and admissible(v):
            seat(v)
    while len(ring) < 4:
        best = None
        seated = set(ring)
        for v in range(n0):
            if v in seated or not admissible(v):
                continue
            key = (dist_to_ring[v], -v)
            if best is None or key > best[0]:
                best = (key, v)
        if best is None:
            raise SurgeryError(
                "cannot seat a b-ring of four vertices; the input is too"
                " small or its cycles too entangled"
            )
        seat(best[1])

    pred = {}
    for v in ring:
        u = inv_a[v]
        ell = new_vertex("B")
        split_edge(a_out, u, ell)
        inv_a[v] = ell
        inv_a[ell] = u
        pred[v] = u
    ring_verts = inserted["B"]
    for x, y in _ring_edges(ring_verts):
        set_edge(b_out, x, y)

    cut = set()
    ring_set = set(ring)
    for v in ring:
        cyc_v = _cycle_through(b_out, v)
        cyc_u = _cycle_through(b_out, pred[v])
        if set(cyc_v) == set(cyc_u):
            continue
        w1 = _splice_pick(cyc_v, ring_set, cut, n0)
        w2 = _splice_pick(cyc_u, ring_set, cut, n0)
        t1, t2 = b_out[w1], b_out[w2]
        set_edge(b_out, w1, t2)
        set_edge(b_out, w2, t1)
        cut.add(w1)
        cut.add(w2)

    count = fresh[0]
    _check_rewiring(a_out, b_out, "stage 3", count)
    if len(ring_verts) > 5 * n0 / R:
        raise SurgeryError("stage 3 exceeded its insertion budget")
    if count - n0 > 9 * n0 / R:
        raise SurgeryError(
            f"inserted {count - n0} vertices, over the ledger bound {9 * n0 / R:.1f}"
        )
    ring_cycle = set(_cycle_through(b_out, ring_verts[0]))
    if ring_cycle != set(ring_verts):
        raise SurgeryError("the B vertices do not form a single b-cycle")
    a_in_final = {w: v for v, w in a_out.items()}
    b_in_final = {w: v for v, w in b_out.items()}
    for name in _INSERTED_CLASSES:
        for x in inserted[name]:
            nbrs = (a_out[x], b_out[x], a_in_final[x], b_in_final[x])
            if not any(y < n0 for y in nbrs):
                raise SurgeryError(f"inserted vertex {x} has no original neighbor")

    graph = LabeledGraph(
        count,
        tuple(a_out[v] for v in range(count)),
        tuple(b_out[v] for v in range(count)),
    )
    undisturbed = _undisturbed_set(g, graph, touched, r)
    return SurgeryResult(
        graph=graph,
        original=frozenset(range(n0)),
        W=tuple(undisturbed),
        B=tuple(ring_verts),
        inserted={k: tuple(v) for k, v in inserted.items()},
    )


def _splice_pick(cyc, ring_set, cut, n0):
    # least original vertex that is free to lose its b-edge; inserted
    # vertices only as a last resort (an all-fresh 4-ring has no original)
    for pool in (
        sorted(x for x in cyc if x < n0 and x not in ring_set and x not in cut),
        sorted(x for x in cyc if x not in ring_set and x not in cut),
    ):
        if pool:
            return pool[0]
    raise SurgeryError("no vertex available to splice; cycles too short")


def _cycle_index(out, count):
    cyc_id = [0] * count
    cyc_len = []
    for k, cyc in enumerate(_orbit_cycles(dict(out))):
        cyc_len.append(len(cyc))
        for v in cyc:
            cyc_id[v] = k
    return cyc_id, cyc_len


def _step_rows(perm_a, perm_b):
    """Neighbour rows for ``_sweep``: a, b, then their inverses.

    The first two rows alone give the directed search.
    """
    rows = np.array([perm_a, perm_b], dtype=np.intp)
    inv = np.empty_like(rows)
    np.put_along_axis(inv, rows, np.arange(rows.shape[1]), axis=1)
    return np.concatenate([rows, inv])


def _sweep(nbrs, sources, blocked=None, depth=None):
    """Breadth-first distances from ``sources`` along the rows of ``nbrs``.

    ``nbrs`` is a ``(k, n)`` integer array whose row ``i`` maps every vertex
    to its ``i``-th neighbour.  Each level gathers the frontier's neighbours,
    keeps the unvisited ones and stops after ``depth`` levels when that is
    given.  Blocked vertices are never entered, not even as sources.
    Returns the distances, -1 where a vertex was not reached.
    """
    dist = np.full(nbrs.shape[1], -1, dtype=np.intp)
    if blocked is not None:
        dist[np.asarray(blocked, dtype=np.intp)] = -2
    frontier = np.asarray(sources, dtype=np.intp)
    frontier = frontier[dist[frontier] == -1]
    dist[frontier] = 0
    level = 0
    while frontier.size and level != depth:
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
    near = _sweep(nbrs, list(touched), depth=r)
    return np.flatnonzero(near[: before.n] < 0).tolist()


def _ball_match(steps0, steps1, root, radius):
    """Rooted labeled ball isomorphism test between two step tables.

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


def _apply_word(steps, word, v):
    # letters act right to left, codes 0..3 index the step table directly
    for letter in reversed(word):
        v = steps[letter][v]
    return v


def verify_conditions(original, result, r, R, samples=200, seed=0):
    """Re-derive the G-1..G-7 guarantees from a surgery output.

    Every condition is checked by direct graph search on the result: the
    distance conditions G-3..G-5 by breadth-first sweeps over the
    permutation arrays (``_sweep``), the rest by walking cycles and balls.
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

    steps0 = original.steps()
    steps1 = graph.steps()

    # G-1: census of undisturbed labeled r-balls
    good = 0
    all_claimed_pass = True
    for w in result.W:
        if _ball_match(steps0, steps1, w, r):
            good += 1
        else:
            all_claimed_pass = False
    k_r = ball_size(r)
    lower = (1.0 - 20.0 * k_r / R) * n0
    report["G-1"] = {
        "pass": bool(all_claimed_pass and good >= lower),
        "measured": good / n0,
        "bound": max(0.0, lower / n0),
    }

    # G-2: one b-ring, everything else short
    a_cycles = cycles(graph, "a")
    b_cycles = cycles(graph, "b")
    ring_is_cycle = bool(ring) and any(set(c) == ring_set for c in b_cycles)
    others = [len(c) for c in a_cycles]
    others += [len(c) for c in b_cycles if set(c) != ring_set]
    worst = max(others) if others else 0
    cap = 2 * (4 * R + 1)
    report["G-2"] = {
        "pass": bool(ring_is_cycle and worst <= cap and len(ring) <= n0 / R),
        "measured": worst,
        "bound": cap,
    }

    # G-3: distances off the ring dominate the original distances
    rng = np.random.default_rng(seed)
    nbrs0 = _step_rows(original.perm_a, original.perm_b)
    nbrs1 = _step_rows(graph.perm_a, graph.perm_b)
    pool = sorted(orig_set)
    n_src = max(1, min(len(pool), samples // 10))
    sources = rng.choice(pool, size=n_src, replace=False)
    ratio = 0.0
    checked = 0
    for s in sources:
        d0 = _sweep(nbrs0, [s])
        d1 = _sweep(nbrs1, [s], blocked=ring)
        targets = rng.choice(pool, size=min(len(pool), 10), replace=False)
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
    words_r = [w for w in ball(r) if w]
    n_src5 = max(1, min(len(pool), max(1, samples // max(1, len(words_r)))))
    sources5 = rng.choice(pool, size=n_src5, replace=False)
    worst5 = 0
    ok5 = True
    for s in sources5:
        s = int(s)
        if s in ring_set:
            continue
        dist = _sweep(directed, [s], blocked=ring)
        for word in words_r:
            t = _apply_word(steps1, word, s)
            if t not in orig_set or t in ring_set:
                continue
            d = int(dist[t])
            if d < 0 or d > bound5:
                ok5 = False
                worst5 = float("inf") if d < 0 else max(worst5, d)
            else:
                worst5 = max(worst5, d)
    report["G-5"] = {"pass": bool(ok5), "measured": worst5, "bound": bound5}

    # G-6: every fresh vertex touches an original
    a_in = _invert(graph.perm_a)
    b_in = _invert(graph.perm_b)
    bad6 = 0
    fresh = [v for v in range(graph.n) if v not in orig_set]
    for v in fresh:
        nbrs = (graph.perm_a[v], graph.perm_b[v], a_in[v], b_in[v])
        if not any(w in orig_set for w in nbrs):
            bad6 += 1
    report["G-6"] = {"pass": bad6 == 0, "measured": bad6, "bound": 0}

    # G-7: no short loops anywhere
    shortest = min(len(c) for c in a_cycles + b_cycles)
    report["G-7"] = {"pass": bool(shortest >= 4), "measured": shortest, "bound": 4}

    return report
