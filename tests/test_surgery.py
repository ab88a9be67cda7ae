import hashlib
import itertools
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from freepd import surgery
from freepd.errors import FormatError, SurgeryError
from freepd.surgery import (
    LabeledGraph,
    SurgeryResult,
    _balls_kept,
    _cycle_labels,
    _step_rows,
    _sweep,
    cycles,
    perform_surgery,
    verify_conditions,
)
from helpers import (
    ball_match,
    bfs_layers,
    directed_distances,
    girth_permutation,
    orbit_cycles,
    r_separated,
    random_labeled_graph,
    undirected_adjacency,
    undirected_distances,
    undisturbed_set,
)


def cyclic_gaps(cycle, picks):
    """Distances along the cycle between consecutive picked vertices."""
    pos = {v: i for i, v in enumerate(cycle)}
    idx = sorted(pos[v] for v in picks)
    n = len(cycle)
    return [(idx[(i + 1) % len(idx)] - idx[i]) % n or n for i in range(len(idx))]


def test_cycles_identity():
    g = LabeledGraph(5, (0, 1, 2, 3, 4), (1, 2, 3, 4, 0))
    assert cycles(g, "a") == [[0], [1], [2], [3], [4]]
    assert cycles(g, "b") == [[0, 1, 2, 3, 4]]


def test_cycles_partition():
    for seed in range(10):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(5, 60))
        pa = tuple(rng.permutation(n))
        g = LabeledGraph(n, pa, tuple(rng.permutation(n)))
        for label in "ab":
            cyc = cycles(g, label)
            flat = sorted(itertools.chain.from_iterable(cyc))
            assert flat == list(range(n))
            perm = g.perm_a if label == "a" else g.perm_b
            for c in cyc:
                assert c[0] == min(c)
                for i, v in enumerate(c):
                    assert perm[v] == c[(i + 1) % len(c)]


@settings(max_examples=100, derandomize=True, deadline=None)
@given(st.data())
def test_cycle_labels_match_the_orbit_walk(data):
    n = data.draw(st.integers(1, 40))
    fixed = data.draw(st.sets(st.integers(0, n - 1)))
    moved = [v for v in range(n) if v not in fixed]
    perm = list(range(n))
    for v, w in zip(moved, data.draw(st.permutations(moved))):
        perm[v] = w
    want = orbit_cycles(dict(enumerate(perm)))
    least, pos = _cycle_labels(perm)
    size = np.bincount(least)
    for cyc in want:
        for i, v in enumerate(cyc):
            assert (least[v], pos[v], size[least[v]]) == (cyc[0], i, len(cyc))
    assert cycles(LabeledGraph(n, tuple(perm), tuple(range(n))), "a") == want


def test_cycles_bad_label():
    g = LabeledGraph(3, (0, 1, 2), (0, 1, 2))
    with pytest.raises(SurgeryError):
        cycles(g, "c")


def test_r_separated_length_ten():
    picks = r_separated(list(range(10)), 3)
    assert len(picks) >= 2
    for gap in cyclic_gaps(list(range(10)), picks):
        assert 3 <= gap <= 6


def test_r_separated_gap_window():
    for seed in range(25):
        rng = np.random.default_rng(100 + seed)
        R = int(rng.integers(2, 6))
        length = int(rng.integers(4 * R, 12 * R))
        cycle = list(rng.permutation(1000)[:length])
        picks = r_separated(cycle, R)
        assert len(picks) >= 2
        assert min(cycle) in picks
        for gap in cyclic_gaps(cycle, picks):
            assert R <= gap <= 2 * R


def test_r_separated_exact_multiples():
    for R in (1, 2, 3, 5):
        assert len(r_separated(list(range(4 * R)), R)) >= 2
        for k in (4, 5, 9):
            picks = r_separated(list(range(R * k)), R)
            assert 2 <= len(picks) <= k


def test_r_separated_too_short():
    with pytest.raises(SurgeryError):
        r_separated(list(range(3)), 2)
    with pytest.raises(SurgeryError):
        r_separated(list(range(12)), 0)
    # the feasibility floor itself is fine
    assert len(r_separated(list(range(4)), 2)) == 2


def test_graph_validation():
    with pytest.raises(SurgeryError):
        LabeledGraph(3, (0, 0, 1), (0, 1, 2))
    with pytest.raises(SurgeryError):
        LabeledGraph(3, (0, 1, 2), (0, 1))
    with pytest.raises(SurgeryError):
        LabeledGraph(0, (), ())
    with pytest.raises(SurgeryError):
        LabeledGraph(True, (0,), (0,))


def test_graph_fields_take_what_int_takes():
    # each entry passes through int(), and the result must be a bijection
    for values, want in (((2.0, 0.5, 1), (2, 0, 1)), (("1", "0", "2"), (1, 0, 2)),
                         ((True, False, 2), (1, 0, 2)), (np.array([2, 0, 1]), (2, 0, 1)),
                         ("120", (1, 2, 0))):
        perm = LabeledGraph(3, values, (0, 1, 2)).perm_a
        assert perm == want and all(type(x) is int for x in perm)
    for values in ((0, 2 ** 70, 1), (-1, 0, 1), (0, 1, 3), (0, 1), (0, 1, 2, 3), (1.0, 1.5, 0)):
        with pytest.raises(SurgeryError, match=r"^perm_a is not a bijection of range\(3\)$") as err:
            LabeledGraph(3, values, (0, 1, 2))
        assert err.value.key == "perm_a"
    for values in ((0, None, 1), ("x", 0, 1), ([0], [1], [2]), 5, (0, 1.5j, 2)):
        with pytest.raises(SurgeryError, match="^perm_b must be a sequence of integers$") as err:
            LabeledGraph(3, (0, 1, 2), values)
        assert err.value.key == "perm_b"


def test_graph_json_round_trip():
    g = random_labeled_graph(48, 2, seed=5, connected=False)
    d = g.to_dict()
    assert LabeledGraph.from_dict(d) == g
    for key in ("n", "perm_a", "perm_b"):
        broken = dict(d)
        del broken[key]
        with pytest.raises(FormatError) as info:
            LabeledGraph.from_dict(broken)
        assert info.value.key == key
    with pytest.raises(FormatError):
        LabeledGraph.from_dict({**d, "extra": 1})
    with pytest.raises(FormatError):
        LabeledGraph.from_dict({**d, "perm_a": "nope"})
    with pytest.raises(FormatError):
        LabeledGraph.from_dict({**d, "perm_a": d["perm_a"][:-1]})
    cases = (
        ({**d, "n": 0, "perm_a": [], "perm_b": []}, "n"),
        ({**d, "perm_a": d["perm_a"][:-1]}, "perm_a"),
        ({**d, "perm_b": d["perm_b"][:-1]}, "perm_b"),
        ({**d, "perm_b": [0] * d["n"]}, "perm_b"),
    )
    for broken, key in cases:
        with pytest.raises(FormatError) as info:
            LabeledGraph.from_dict(broken)
        assert info.value.key == key


def test_surgery_girth_precondition():
    # one a-cycle of length 6 < max(4R, 8)
    pa = list(range(1, 6)) + [0] + list(range(6, 48))
    pa[47] = 47
    rng = np.random.default_rng(0)
    with pytest.raises(SurgeryError):
        perform_surgery(LabeledGraph(48, tuple(pa), girth_permutation(48, 8, rng)), 2, 1)
    g = random_labeled_graph(64, 2, seed=0, connected=False)
    with pytest.raises(SurgeryError):
        perform_surgery(g, 0, 1)
    with pytest.raises(SurgeryError):
        perform_surgery(g, 2, -1)


def test_surgery_minimal_girth_construction():
    # a-permutation made of cycles of length exactly 4R, one long b-cycle
    for R in (2, 3):
        k, n = 13, 13 * 4 * R
        rng = np.random.default_rng(R)
        verts = list(rng.permutation(n))
        pa = [0] * n
        for i in range(0, n, 4 * R):
            block = verts[i:i + 4 * R]
            for j, v in enumerate(block):
                pa[v] = block[(j + 1) % (4 * R)]
        order = list(rng.permutation(n))
        pb = [0] * n
        for j, v in enumerate(order):
            pb[v] = order[(j + 1) % n]
        g = LabeledGraph(n, tuple(pa), tuple(pb))
        res = perform_surgery(g, R, 1)
        assert max(len(c) for c in cycles(res.graph, "a")) <= 2 * (4 * R + 1)
        rep = verify_conditions(g, res, 1, R)
        assert rep["G-2"]["pass"]


def test_surgery_markers_partition_vertices():
    g = random_labeled_graph(220, 2, seed=9)
    res = perform_surgery(g, 2, 1)
    n, N = g.n, res.graph.n
    assert res.original == frozenset(range(n))
    fresh = sorted(itertools.chain.from_iterable(res.inserted.values()))
    assert fresh == list(range(n, N))
    assert tuple(res.inserted["B"]) == res.B
    assert set(res.W) <= res.original
    assert N - n <= 9 * n / 2


def test_surgery_budget_sweep():
    for seed, n, R in [(0, 128, 2), (1, 200, 2), (2, 240, 3), (3, 333, 3), (4, 512, 2)]:
        g = random_labeled_graph(n, R, seed=seed, connected=False)
        res = perform_surgery(g, R, 1)
        assert res.graph.n - n <= 9 * n / R
        # the ring really is one b-cycle
        ring = [c for c in cycles(res.graph, "b") if set(c) == set(res.B)]
        assert len(ring) == 1 and len(res.B) >= 4


def test_surgery_deterministic():
    g = random_labeled_graph(180, 2, seed=4)
    first = perform_surgery(g, 2, 1)
    second = perform_surgery(g, 2, 1)
    assert first.graph == second.graph
    assert first.W == second.W and first.B == second.B
    assert first.inserted == second.inserted


def test_w_vertices_keep_their_edges():
    # r = 1 undisturbed vertices must carry exactly their old labeled edges
    g = random_labeled_graph(500, 3, seed=11)
    res = perform_surgery(g, 3, 1)
    out = res.graph
    for v in res.W:
        assert out.perm_a[v] == g.perm_a[v]
        assert out.perm_b[v] == g.perm_b[v]


def test_verify_end_to_end():
    for seed, n, R in [(0, 200, 2), (1, 350, 3), (2, 640, 2)]:
        g = random_labeled_graph(n, R, seed=seed)
        res = perform_surgery(g, R, 1)
        rep = verify_conditions(g, res, 1, R)
        for name in ("G-1", "G-2", "G-3", "G-4", "G-5", "G-6", "G-7"):
            assert rep[name]["pass"], (seed, name, rep[name])
        assert rep["G-3"]["measured"] <= (4 * R + 1) * R * R
        assert rep["G-4"]["measured"] <= 8 * (4 * R + 1) ** 2 * (10 * R + 1)
        assert rep["G-5"]["measured"] <= 256 * (4 * R + 1) ** 2
        assert rep["G-7"]["measured"] >= 4


def test_verify_identity_sanity():
    g = random_labeled_graph(160, 2, seed=21, connected=False)
    claim = SurgeryResult(
        graph=g,
        original=frozenset(range(g.n)),
        W=tuple(range(g.n)),
        B=(),
        inserted={},
    )
    rep = verify_conditions(g, claim, 1, 2)
    assert rep["G-1"]["pass"] and rep["G-1"]["measured"] == 1.0
    assert not rep["G-2"]["pass"]


def test_verify_rejects_overclaimed_w():
    g = random_labeled_graph(300, 2, seed=3)
    res = perform_surgery(g, 2, 1)
    fake = SurgeryResult(
        graph=res.graph,
        original=res.original,
        W=tuple(range(g.n)),
        B=res.B,
        inserted=res.inserted,
    )
    rep = verify_conditions(g, fake, 1, 2)
    assert not rep["G-1"]["pass"]
    assert rep["G-1"]["measured"] < 1.0


def test_g1_census_positive_regime():
    # with R large the undisturbed fraction bound is positive and the ball
    # census does real work on a big W
    n, R = 1500, 120
    g = random_labeled_graph(n, R, seed=7, connected=False)
    res = perform_surgery(g, R, 1)
    rep = verify_conditions(g, res, 1, R)
    assert rep["G-1"]["bound"] > 0
    assert len(res.W) > 0
    assert rep["G-1"]["pass"]


def _rewired_pair(seed, swaps=3):
    """Step rows of a graph and of a copy in which a few roots (vertices of
    the first half) take their other label's head on an a- or b-edge, by a
    swap of two heads, and whose other vertices are renamed."""
    rng = np.random.default_rng(seed)
    g = random_labeled_graph(300, 2, seed=seed)
    rows = np.array([g.perm_a, g.perm_b])
    for _ in range(swaps):
        label, u = rng.integers(2), rng.integers(150)
        v = np.flatnonzero(rows[label] == rows[1 - label, u])[0]
        rows[label, [u, v]] = rows[label, [v, u]]
    name = np.concatenate([np.arange(150), 150 + rng.permutation(150)])
    renamed = np.empty_like(rows)
    renamed[:, name] = name[rows]
    return _step_rows(g.perm_a, g.perm_b), _step_rows(*renamed)


@pytest.mark.parametrize("r", [1, 2, 3])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_g1_census_matches_the_lockstep_oracle(seed, r):
    nbrs0, nbrs1 = _rewired_pair(seed)
    roots = list(range(150))
    kept = _balls_kept(nbrs0, nbrs1, roots, r)
    assert kept == [ball_match(nbrs0.tolist(), nbrs1.tolist(), v, r) for v in roots]
    assert 0 < sum(kept) < len(roots)  # both verdicts occur


def test_g1_census_is_the_same_in_small_chunks(monkeypatch):
    nbrs0, nbrs1 = _rewired_pair(3)
    roots = list(range(150))
    whole = _balls_kept(nbrs0, nbrs1, roots, 2)
    for cap in (3 * 53, 1):  # 53 walks a root at r = 2: three roots a chunk, then one
        monkeypatch.setattr(surgery, "_WALK_CAP", cap)
        assert _balls_kept(nbrs0, nbrs1, roots, 2) == whole
    assert 0 < sum(whole) < len(roots)


@settings(max_examples=100, derandomize=True, deadline=None)
@given(st.data())
def test_sweep_matches_queue_bfs(data):
    n = data.draw(st.integers(1, 60))
    g = LabeledGraph(
        n,
        tuple(data.draw(st.permutations(range(n)))),
        tuple(data.draw(st.permutations(range(n)))),
    )
    vertex = st.integers(0, n - 1)
    sources = data.draw(st.lists(vertex, min_size=1, max_size=4, unique=True))
    blocked = data.draw(st.lists(vertex, max_size=max(1, n // 4), unique=True))
    if data.draw(st.booleans()):
        blocked.append(sources[0])
    depth = data.draw(st.sampled_from([None, 0, 1, 2]))
    directed = directed_distances(g, sources, blocked)
    until = data.draw(st.sampled_from([None, "empty", "drawn"]))
    if until is not None:
        until = [] if until == "empty" else data.draw(st.lists(vertex, max_size=3))
        unreached = [v for v, d in enumerate(directed) if d < 0]
        for pool in (sources, blocked, unreached):  # inside the sources, blocked, unreachable
            if pool and data.draw(st.booleans()):
                until.append(data.draw(st.sampled_from(pool)))

    def agrees(got, dist, block=()):
        # depth cuts the oracle; until leaves exact distances where the
        # sweep reached and at every vertex of until, and stops at the
        # first level that settles all of until unless one is never reached
        want = np.asarray(dist)
        if depth is not None:
            want = np.where(want > depth, -1, want)
        if until is not None:
            assert got[until].tolist() == want[until].tolist()
            reached = got >= 0
            assert got[reached].tolist() == want[reached].tolist()
            levels = [want[v] for v in until if v not in block]
            if min(levels, default=0) >= 0:
                want = np.where(want > max(levels, default=0), -1, want)
        assert got.tolist() == want.tolist()

    # directed: a- and b-edges only
    nbrs = _step_rows(g.perm_a, g.perm_b)
    agrees(_sweep(nbrs[:2], sources, blocked, depth, until), directed, blocked)

    # undirected: the four labeled step maps
    adj = undirected_adjacency(dict(enumerate(g.perm_a)), dict(enumerate(g.perm_b)), n)
    free = np.full(n, -1)
    for v, d in bfs_layers(adj, sources):
        free[v] = d
    agrees(_sweep(nbrs, sources, depth=depth, until=until), free)
    want = np.full(n, -1)
    for s in sources:
        if s in blocked:
            continue  # the oracle reports a blocked source at 0; the sweep never enters it
        for v, d in undirected_distances(adj, s, set(blocked)).items():
            if want[v] < 0 or d < want[v]:
                want[v] = d
    agrees(_sweep(nbrs, sources, blocked, depth, until), want, blocked)


def test_sweep_stops_at_the_level_that_settles_until():
    # an a- and b-cycle of 100: vertices up to distance 3 either way, no further
    n = 100
    ring = tuple((v + 1) % n for v in range(n))
    nbrs = _step_rows(ring, ring)
    dist = _sweep(nbrs, [0], until=[3, 98])
    assert np.flatnonzero(dist >= 0).tolist() == [0, 1, 2, 3, 97, 98, 99]
    assert _sweep(nbrs, [0], until=[]).tolist() == [0] + [-1] * (n - 1)
    assert _sweep(nbrs, [0], blocked=[50], until=[50]).max() == 0
    # a vertex never reached lets the search run to exhaustion
    assert (_sweep(nbrs, [0], blocked=[1, 99], until=[2]) == -1).sum() == n - 1
    assert (_sweep(nbrs[:2], [0], blocked=[60], until=[70]) >= 0).sum() == 60


def _cycles_graph(*cycles):
    """A labeled graph whose a- and b-edges both run along the given cycles."""
    perm = {v: c[(i + 1) % len(c)] for c in cycles for i, v in enumerate(c)}
    walk = tuple(perm[v] for v in range(len(perm)))
    return LabeledGraph(len(walk), walk, walk)


def _claim(graph, n0, ring):
    return SurgeryResult(graph=graph, original=frozenset(range(n0)), W=(), B=ring, inserted={})


# Hand-built results whose G-3 and G-5 searches run to exhaustion.  With
# samples = 80, ten per original, every original is a source of G-3 and of
# G-5, and every original is a target of each G-3 source.
EXHAUSTIVE = {
    # two 4-cycles merged into one 8-cycle: 0 reaches 4..7 only after the surgery
    "G-3 ratio inf": (_cycles_graph(range(4), range(4, 8)), _claim(_cycles_graph(range(8)), 8, ())),
    # one 8-cycle with original 2 on the ring: the G-5 probe from 2 is skipped,
    # and the ring cuts 0 off from its A- and B-neighbour 7 in directed search
    "G-5 ring source, target cut off": (
        _cycles_graph(range(8)), _claim(_cycles_graph(range(8)), 8, (2,))),
}


@pytest.mark.parametrize("name", sorted(EXHAUSTIVE))
def test_verify_branches_that_search_to_exhaustion(monkeypatch, name):
    original, claim = EXHAUSTIVE[name]
    report = verify_conditions(original, claim, 1, 2, samples=80)
    real, sweeps = surgery._sweep, []

    def full(nbrs, sources, blocked=None, depth=None, until=None):
        sweeps.append((list(sources), until is not None))
        return real(nbrs, sources, blocked, depth)

    monkeypatch.setattr(surgery, "_sweep", full)
    assert verify_conditions(original, claim, 1, 2, samples=80) == report
    assert sum(until for _, until in sweeps) == 8 + 8 + 8 - len(claim.B)  # G-3 twice, G-5
    if claim.B:
        assert report["G-3"]["measured"] < float("inf")
        assert [2] not in [sources for sources, until in sweeps[-7:]]
        assert report["G-5"] == {"pass": False, "measured": float("inf"), "bound": 256 * 81}
    else:
        assert report["G-3"] == {"pass": False, "measured": float("inf"), "bound": 9 * 4}
        assert report["G-5"]["pass"]


def test_undisturbed_set_and_plain_report_on_a_wide_surgery(monkeypatch):
    calls = []
    real = surgery._undisturbed_set

    def spy(before, after, touched, r):
        calls.append((before, after, set(touched), r))
        return real(before, after, touched, r)

    monkeypatch.setattr(surgery, "_undisturbed_set", spy)
    n, R = 2000, 40
    g = random_labeled_graph(n, R, seed=3)
    for r in (1, 2):
        res = perform_surgery(g, R, r)
        assert res.W and res.W == tuple(undisturbed_set(*calls[-1]))
        assert all(type(v) is int for v in res.W)
        rep = verify_conditions(g, res, r, R)
        for name, entry in rep.items():
            assert entry["pass"], (r, name, entry)
            for key in ("pass", "measured", "bound"):
                assert type(entry[key]) in (int, float, bool), (name, key)


def _inverse_pair(n, R, seed):
    # b runs every a-cycle backwards: each component is one a-cycle, so the
    # ring takes many seats and the splices run many times
    g = random_labeled_graph(n, R, seed=seed, connected=False)
    inv = [0] * n
    for v, w in enumerate(g.perm_a):
        inv[w] = v
    return LabeledGraph(n, g.perm_a, tuple(inv))


def _torus(k, m):
    # a-cycles are the rows and b-cycles the columns of a k x m grid: wide
    # enough that the in-order ring pass meets candidates at exactly 10R
    a = [(v // m) * m + (v + 1) % m for v in range(k * m)]
    b = [(v + m) % (k * m) for v in range(k * m)]
    return LabeledGraph(k * m, tuple(a), tuple(b))


def _sha256(obj):
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


# Digests of the surgery artifact and of the verification report, pinned
# so that a refactor of the rewiring cannot move a single vertex unseen.
PINNED = [
    (lambda: random_labeled_graph(200, 2, seed=0), 2, 1,
     "7fc209a87e8882f712307c00e875631e871538cca97fb0213faf4bfe8dc545d6",
     "90a43910d43778073a5cf63c11d7f5b1001a173638d54a2955352c64f2ffad6a"),
    (lambda: random_labeled_graph(360, 3, seed=1, connected=False), 3, 1,
     "755107307f1dadfc324d291085f90ce8665a95b11c6e602306b70cc18b91ff3e",
     "b752c90475175d3fc039bc98697f9dc1fda6b0bef708a27914308131fc55ce35"),
    (lambda: random_labeled_graph(600, 2, seed=2, connected=False), 2, 2,
     "180605922bad49e70e2e99e3a74b8210820c156c2307c1ebb1d12baa4d08d22a",
     "a8ddbebc880a196c55c550ff7277056d51e7cfee875aa6572b9237494b436ff1"),
    (lambda: _inverse_pair(400, 2, seed=0), 2, 1,
     "7d7b40985d8f9f2800a54273c69157536f0ec3351cb016e59ca7526a277b17e9",
     "d449a17431cacf0bec3b2bb2a4ab9120e7dbe31ff5896e594175c9864dc2074c"),
    (lambda: random_labeled_graph(600, 20, seed=1), 20, 0,
     "f3e3608a228a3385dcde2b105a673f4d5d4b65f2ce8d666df7c2251326aaa0a5",
     "36786008671b9d14f56119fd52b9a5d2599d70e2f6f1892af827e1371290da42"),
    (lambda: _torus(40, 40), 2, 1,
     "8f5f24915b52fb47b3a41aaf65fb3576454adac9ee4180b4265fdaabb68ea648",
     "1b062728e2c5a1aa612b5dda24741bd513317dae8eb9c63d513fe43d6d3df9ac"),
]


@pytest.mark.parametrize("make, R, r, result_sha, report_sha", PINNED)
def test_surgery_outputs_are_pinned(make, R, r, result_sha, report_sha):
    g = make()
    res = perform_surgery(g, R, r)
    assert _sha256(res.to_dict()) == result_sha
    assert _sha256(verify_conditions(g, res, r, R)) == report_sha


def test_surgery_error_message_is_pinned():
    pa = list(range(1, 6)) + [0] + list(range(6, 47)) + [47]
    g = LabeledGraph(48, tuple(pa), girth_permutation(48, 8, np.random.default_rng(0)))
    with pytest.raises(SurgeryError) as info:
        perform_surgery(g, 2, 1)
    assert str(info.value) == (
        "a-cycle through vertex 0 has length 6; every cycle entering its stage"
        " needs length >= 8"
    )
