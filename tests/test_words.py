import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from freepd import words
from freepd.errors import WordError
from freepd.pdcore import canonical_rep
from freepd.words import (
    ball,
    ball_size,
    clique,
    inverse,
    is_novel,
    mul,
    reduce_word,
    word_from_str,
    word_to_str,
)
from helpers import (
    adjacent,
    canonical_ball,
    index_set,
    maximal_cliques,
    predecessor,
    predecessor_clique,
    reference_quotients,
    scan_clique,
    successor,
    tree_of_radius,
)

A, B, Ai, Bi = 0, 1, 2, 3


def enumerate_reduced(max_len):
    """Independent oracle: all reduced words up to max_len, sorted shortlex."""
    out = [()]
    frontier = [()]
    for _ in range(max_len):
        nxt = []
        for w in frontier:
            for x in range(4):
                if w and w[-1] == words.inv_letter(x):
                    continue
                nxt.append(w + (x,))
        out.extend(nxt)
        frontier = nxt
    out.sort(key=lambda w: (len(w), w))
    return out


def test_reduce_examples():
    assert reduce_word([A, Ai]) == ()
    assert reduce_word([A, B, Bi, A]) == (A, A)
    assert reduce_word([]) == ()
    # idempotent
    assert reduce_word(reduce_word([A, B, Bi, Ai, A])) == reduce_word([A, B, Bi, Ai, A])


def test_inverse_antihomomorphism():
    ab = (A, B)
    assert inverse(ab) == (Bi, Ai)
    for w in ball(4):
        assert mul(w, inverse(w)) == ()
        assert mul(inverse(w), w) == ()


def test_mul_matches_reduce():
    for u in ball(3):
        for v in ball(2):
            assert mul(u, v) == reduce_word(u + v)


def test_ball_against_enumeration():
    oracle = enumerate_reduced(6)
    assert list(ball(6)) == oracle
    for r in range(1, 7):
        assert len(ball(r)) == 2 * 3 ** r - 1
        assert ball_size(r) == len(ball(r))
    assert list(ball(0)) == [()]


def test_successor_chain_prefix():
    got = []
    w = ()
    for _ in range(17):
        got.append(word_to_str(w))
        w = successor(w)
    assert got == [
        "e", "a", "b", "A", "B",
        "aa", "ab", "aB", "ba", "bb", "bA", "Ab", "AA", "AB", "Ba", "BA", "BB",
    ]


def test_successor_equals_enumeration_order():
    oracle = enumerate_reduced(5)
    w = ()
    for expected in oracle:
        assert w == expected
        w = successor(w)


def test_predecessor_inverts_successor():
    for w in ball(5):
        assert predecessor(successor(w)) == w
        if w != ():
            assert successor(predecessor(w)) == w
    assert predecessor((A,)) == ()
    with pytest.raises(WordError):
        predecessor(())


def test_text_encoding():
    assert word_from_str("e") == ()
    assert word_from_str("abA") == (A, B, Ai)
    assert word_to_str((A, B, Ai)) == "abA"
    for w in ball(3):
        assert word_from_str(word_to_str(w)) == w
    with pytest.raises(WordError):
        word_from_str("aA")  # not reduced
    with pytest.raises(WordError):
        word_from_str("ax")
    with pytest.raises(WordError):
        word_from_str("")


def test_index_set_examples():
    w = word_from_str
    assert index_set(w("a")).members == {(), w("a"), w("A")}
    assert index_set(w("b")).members == {(), w("a"), w("A"), w("b"), w("B")}
    expected = set(ball(1)) | {w("aa"), w("AA")}
    assert index_set(w("aa")).members == expected


def test_index_set_rejects_non_reduced_words():
    for g in ((0, 2), (1, 0, 2, 0), (4,)):
        with pytest.raises(WordError):
            index_set(g)


def test_ball_is_a_prefix_domain():
    # The ball of radius r is the index set of the shortlex-last word of length r.
    for r in range(1, 5):
        g_last = (Bi,) * r
        iset = index_set(g_last)
        assert iset.members == set(ball(r))


def test_clique_hand_examples():
    w = word_from_str
    assert clique(w("a")).vertices == ((), w("a"))
    assert clique(w("aa")).vertices == ((), w("a"), w("aa"))
    assert {word_to_str(v) for v in clique(w("ab")).vertices} == {"e", "a", "ab"}


def brute_unique_clique(g):
    """Unique maximal clique containing the edge (e, g), by exhaustive search.

    Works on the induced subgraph of I_g union g*I_g.  Maximal cliques through
    {e, g} are exactly {e, g} plus maximal cliques of the common neighborhood.
    """
    iset = index_set(g)
    common = [
        x
        for x in set(iset.members) | {mul(g, y) for y in iset.members}
        if x not in ((), g) and adjacent(x, (), iset) and adjacent(x, g, iset)
    ]
    if not common:
        return [frozenset({(), g})]
    subcliques = maximal_cliques(common, iset)
    return [c | {(), g} for c in subcliques]


def test_novelty():
    w = word_from_str
    assert is_novel(w("a")) and is_novel(w("b"))
    assert not is_novel(w("A")) and not is_novel(w("B"))
    assert not is_novel(())
    # exactly half the nonidentity elements of a ball are novel
    for r in (2, 3, 4):
        novel = [g for g in ball(r) if is_novel(g)]
        assert len(novel) == (len(ball(r)) - 1) // 2
    # a non-novel level changes nothing
    assert index_set(w("bA")).members == index_set(w("bb")).members


def test_clique_against_bruteforce_b4():
    for g in ball(4):
        if not is_novel(g):
            continue
        found = brute_unique_clique(g)
        assert len(found) == 1, f"clique through (e,{word_to_str(g)}) not unique"
        assert found[0] == set(clique(g).vertices)


def test_non_novel_level_is_degenerate():
    # At level bA the graph equals the level-bb graph, the edge (e, bA) is not
    # new, and two distinct maximal cliques contain it.  K_g is therefore
    # undefined there and clique() must refuse.
    g = word_from_str("bA")
    found = brute_unique_clique(g)
    assert len(found) == 2
    with pytest.raises(WordError):
        clique(g)


def test_clique_single_absent_edge_at_predecessor_level():
    # Each K_g has exactly one edge missing one level down, and it is (e, g).
    for g in ball(3):
        if not is_novel(g):
            continue
        iset_prev = index_set(predecessor(g))
        absent = [
            (u, v)
            for u, v in itertools.combinations(clique(g).vertices, 2)
            if not adjacent(u, v, iset_prev)
        ]
        assert len(absent) == 1
        assert set(absent[0]) == {(), g}


def test_predecessor_clique_examples():
    w = word_from_str
    h, t = predecessor_clique(w("a"))
    assert h == w("a")
    rest = {()}
    kh = set(clique(h).vertices)
    assert all(mul(inverse(t), v) in kh for v in rest)

    h, t = predecessor_clique(w("aa"))
    assert h == w("a")


def test_predecessor_clique_containment_b3():
    for g in ball(3):
        if not is_novel(g):
            continue
        h, t = predecessor_clique(g)
        kg_rest = [v for v in clique(g).vertices if v != g]
        iset_h = index_set(h)
        for i, u in enumerate(kg_rest):
            for v in kg_rest[i + 1:]:
                assert adjacent(u, v, iset_h)
        kh = set(clique(h).vertices)
        assert all(mul(inverse(t), v) in kh for v in kg_rest)


def test_next_novel_matches_a_successor_scan():
    for w in ball(4):
        g = successor(w)
        while not is_novel(g):
            g = successor(g)
        assert words.next_novel(w) == g


def test_next_novel_refuses_a_word_that_is_not_reduced():
    for bad in ((0, 2), (A, Ai, B), (5,), (A, 4)):
        with pytest.raises(WordError) as err:
            words.next_novel(bad)
        assert str(err.value) == f"{bad!r} is not a reduced word"


def test_canonical_order_ranks_every_index_set():
    # the canonical words of I_g are a prefix of the global canonical order,
    # and a novel g is the last of them; the tree's rows give each canonical
    # word its place in that order, which the domain of I_g stores
    from freepd.pdcore import Domain, canonical_words

    order = canonical_ball(5)
    rows = words._tree(5).rows
    assert [int(rows[words.rank_of(w)]) for w in order] == list(range(len(order)))
    for g in ball(4)[1:]:
        canon = sorted((h for h in index_set(g).members if is_novel(h)),
                       key=lambda h: (len(h), h))
        assert tuple(canon) == order[:len(canon)] == canonical_words(Domain.prefix(g))
        if is_novel(g):
            assert canon[-1] == g


def test_index_set_inverts_each_radius_once(monkeypatch):
    # index_set reads the inverses off the tree: no word is inverted as a
    # tuple, and asking the levels in shortlex order builds the tree once per
    # radius, as it grows, not once per level
    levels, calls, builds = ball(4)[1:], [], []
    real, build = words.inverse, words._build
    monkeypatch.setattr(words, "inverse", lambda w: calls.append(w) or real(w))
    monkeypatch.setattr(words, "_build", lambda r, *tree: builds.append(r) or build(r, *tree))
    index_set.cache_clear()
    words._grown.cache_clear()
    found = {g: index_set(g).members for g in levels}
    index_set.cache_clear()
    assert calls == [] and builds == [1, 2, 3, 4]
    for g, members in found.items():
        prefixes = ball(len(g))[:ball(len(g)).index(g) + 1]
        assert members == set(prefixes) | {real(h) for h in prefixes}


def test_the_one_tree_slices_to_every_radius():
    # grown to radius 7 first, so every smaller radius reads a slice of it
    words._grown.cache_clear()
    tree = words._tree(7)
    for r in range(8):
        assert words._tree(r) is tree
        m = ball_size(r)
        for got, want in zip((tree.letters[:m, :r + 1], tree.length[:m],
                              tree.suffix[:m, :r + 1], tree.inv[:m]), tree_of_radius(r)):
            assert _same_array(got, want), r
        # the padding columns past r hold no letter, and the empty suffix
        assert (tree.letters[:m, r + 1:] == -1).all() and (tree.suffix[:m, r + 1:] == 0).all()
        novel = np.arange(m) < tree.inv[:m]
        assert _same_array(tree.rows[:m + 1], np.concatenate([[-1], np.cumsum(novel)])), r
    assert len(words._grown()) == 1
    words._grown.cache_clear()


def test_a_grown_tree_is_the_tree_of_its_radius(monkeypatch):
    # a tree grown from any smaller one by its new lengths alone matches the
    # oracle built for its radius alone, rows included
    for r in range(1, 9):
        want = tree_of_radius(r)
        novel = np.arange(ball_size(r)) < want[3]
        for r0 in range(r):
            tree = words._build(r, words._build(r0))
            for got, oracle in zip((tree.letters, tree.length, tree.suffix, tree.inv), want):
                assert _same_array(got, oracle), (r0, r)
            assert _same_array(tree.rows, np.concatenate([[-1], np.cumsum(novel)])), (r0, r)
    # the one tree grows from the tree it holds
    given, real = [], words._build
    monkeypatch.setattr(words, "_build", lambda r, *tree: given.append((r, *tree)) or real(r, *tree))
    words._grown.cache_clear()
    held = words._tree(3)
    words._tree(6)
    assert [g[0] for g in given] == [3, 6] and len(given[0]) == 1 and given[1][1] is held
    words._grown.cache_clear()


def test_a_tree_build_holds_at_most_twice_what_it_keeps():
    # a column at a time: at radius 10 (118,097 words, 23.6 MB kept) the
    # build traces at most twice its arrays, and every radius matches the oracle
    for r in range(11):
        tracemalloc.start()
        try:
            tree = words._build(r)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        for got, want in zip((tree.letters, tree.length, tree.suffix, tree.inv),
                             tree_of_radius(r)):
            assert _same_array(got, want), r
        novel = np.arange(ball_size(r)) < tree.inv
        assert _same_array(tree.rows, np.concatenate([[-1], np.cumsum(novel)])), r
    kept = sum(a.nbytes for a in (tree.letters, tree.length, tree.suffix, tree.inv, tree.rows))
    assert peak <= 2 * kept


def _same_array(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def test_length_tables_match_the_scan_oracle():
    # every novel level up to length 6 (728 levels): the descent's vertices
    # are the scan's, and the table the clique carries is, bit for bit, the
    # one quotient_table builds for the same list
    levels = canonical_ball(6)
    assert len(levels) == 728
    for g in levels:
        K = clique(g)
        assert K.level == g and K.vertices == scan_clique(g), word_to_str(g)
        assert K.vertices[K.top] == g
        quotients, slots = words.quotient_table(tuple(K.ranks))
        assert _same_array(K.quotients, quotients) and _same_array(K.slots, slots)
    for bad in ((), word_from_str("A"), word_from_str("bA"), (A, Ai, B), (A, 5), (5,)):
        with pytest.raises(WordError):
            clique(bad)
    # a word that is not reduced is named as such, not blamed on novelty
    for bad in ((A, Ai), (5,)):
        with pytest.raises(WordError) as err:
            clique(bad)
        assert str(err.value) == f"{bad!r} is not a reduced word"


def test_clique_and_its_grams_share_one_quotient_table(monkeypatch):
    from freepd.hilbert import build_partial_space
    from freepd.pdcore import check_pd, random_nspd, restrict_to_stage

    C = random_nspd(3, 2, seed=2)
    passes = []
    real = words._quotient_tables
    monkeypatch.setattr(words, "_quotient_tables",
                        lambda tree, offsets, *rest: passes.append(len(offsets) - 1)
                        or real(tree, offsets, *rest))
    for cache in (words.clique, words._clique_table, words.quotient_table):
        cache.cache_clear()
    check_pd(C)
    # one descent and table pass for each of the lengths 1, 2, 3 (2, 6 and
    # 18 levels), and no list table at all: the e block's is a constant
    assert words._clique_table.cache_info().misses == 3
    assert words.quotient_table.cache_info().misses == 0
    assert sorted(passes) == [2, 6, 18]
    # the d^2 stage Grams of level ab read the clique's table as well
    for j, k in ((1, 1), (1, 2), (2, 1), (2, 2)):
        build_partial_space(restrict_to_stage(C, word_from_str("ab"), j, k))
    assert len(passes) == 3


def test_rank_decode_follows_the_ball_order():
    for r in range(6):
        assert tuple(words.word_of_rank(i) for i in range(ball_size(r))) == ball(r)
        assert [words.rank_of(w) for w in ball(r)] == list(range(ball_size(r)))
        tree = words._tree(r)
        for i, w in enumerate(ball(r)):
            assert tuple(x for x in tree.letters[i] if x >= 0) == w
            assert tree.length[i] == len(w)
            assert ball(r)[tree.inv[i]] == inverse(w)
            assert [ball(r)[s] for s in tree.suffix[i, :r + 1]] == [w[k:] for k in range(r + 1)]
    # ranks past any tree: a length-25 word and its neighbours in the order
    w = (0, 1) * 12 + (2,)
    L = np.array([list(w) + [-1]])
    rank = int(words._ranks(L)[0])
    assert words.rank_of(w) == rank
    assert words.word_of_rank(rank) == w
    assert words.word_of_rank(rank + 1) == successor(w)
    assert words.word_of_rank(rank - 1) == predecessor(w)


@st.composite
def _long_word(draw, n=25):
    """A reduced word of length n: a first letter, then n - 1 choices among
    the three letters allowed after the previous one."""
    out = [draw(st.integers(0, 3))]
    for choice in draw(st.lists(st.integers(0, 2), min_size=n - 1, max_size=n - 1)):
        out.append(words._ALLOWED_AFTER[out[-1]][choice])
    return tuple(out)


@settings(derandomize=True, max_examples=150, deadline=None, database=None)
@given(
    picked=st.lists(st.sampled_from(ball(4)), min_size=1, max_size=10, unique=True),
    with_e=st.booleans(),
    shift=st.one_of(st.just(()), _long_word()),
)
def test_rank_table_matches_word_arithmetic(picked, with_e, shift):
    ws = tuple(sorted({mul(shift, w) for w in picked + [()] * with_e},
                      key=lambda w: (len(w), w)))
    # moved by ws[0]^-1 to start at e, which changes no quotient, and ranked
    t = inverse(ws[0])
    quotients, slots = words.quotient_table(tuple(words.rank_of(mul(t, w)) for w in ws))
    n = len(quotients)
    assert quotients[0] == 0 and np.all(np.diff(quotients) > 0)
    seen = {}
    for (a, b), (c, mirrored) in reference_quotients(ws).items():
        assert words.word_of_rank(quotients[slots[a, b] % n]) == c
        assert (slots[a, b] >= n) == mirrored
        # equal quotients share a slot, and different ones do not
        assert seen.setdefault((c, mirrored), slots[a, b]) == slots[a, b]
    assert len(set(seen.values())) == len(seen)


@pytest.mark.parametrize("r", [1, 2, 3, 4])
def test_canonical_quotients_match_word_arithmetic_at_the_edges(r):
    # a tree of radius r exactly, so that two words of length r agree on
    # every column but the spare last one
    tree, ws = words._build(r), ball(r)
    full = [w for w in ws if len(w) == r]
    pairs = [(w, w) for w in ws]  # a = b
    pairs += [p for w in ws for p in (((), w), (w, ()))]  # e on either side
    pairs += [p for w in full for n in range(1, r) for p in ((w[:n], w), (w, w[:n]))]
    pairs += [(u, v) for u in full for v in full]  # both of full radius
    a, b = (np.array([words.rank_of(p[i]) for p in pairs]) for i in (0, 1))
    canon, mirrored = words._canonical_quotients(tree, a, b)
    for (h, l), c, m in zip(pairs, canon.tolist(), mirrored.tolist()):
        q = mul(inverse(l), h)
        assert words.word_of_rank(c) == canonical_rep(q) and m == (canonical_rep(q) != q)


def test_clique_assertion_names_the_pair_outside_the_index_set(monkeypatch):
    g = word_from_str("aab")
    top = int(words._ranks(np.array([g + (-1,)]))[0])
    real = words._canonical_quotients

    def corrupt(tree, a, b):
        # the quotient of one pair of K_g, (e, g), leaves Ball(|g|); only the
        # table builder pairs e with another word
        canon, mirrored = real(tree, a, b)
        return np.where((a == 0) & (b == top), ball_size(len(g)), canon), mirrored

    words.clique.cache_clear()
    words._clique_table.cache_clear()
    monkeypatch.setattr(words, "_canonical_quotients", corrupt)
    try:
        with pytest.raises(WordError) as err:
            clique(g)
    finally:
        words.clique.cache_clear()
        words._clique_table.cache_clear()
    assert "of (e, aab) is not a clique: (e, aab) not adjacent" in str(err.value)


# reduced words, short (so products often cancel) or of length 19 (int64
# ranks reach words of length 39, so products of two stay ranked)
_WORDS = st.one_of(st.sampled_from(ball(4)), _long_word(19))


@settings(derandomize=True, max_examples=100, deadline=None, database=None)
@given(u=_WORDS, v=_WORDS, w=_WORDS)
def test_mul_is_associative(u, v, w):
    assert mul(mul(u, v), w) == mul(u, mul(v, w))
    assert mul(u, inverse(u)) == () and mul((), v) == v == mul(v, ())


@settings(derandomize=True, max_examples=100, deadline=None, database=None)
@given(u=_WORDS, v=_WORDS, short=st.tuples(st.sampled_from(ball(5)), st.sampled_from(ball(5))))
def test_ranks_follow_products(u, v, short):
    def rank(w):
        return int(words._ranks(np.array([list(w) + [-1]]))[0])

    # the rank of a product decodes to the product
    uv = mul(u, v)
    assert words.word_of_rank(rank(uv)) == uv
    # where nothing cancels, the rank of u v is arithmetic on the ranks
    u, v = short
    x = words.inv_letter(u[-1]) if u else -1
    y = v[0] if v else -1
    if not u or x != y:
        tree = words._tree(max(len(u), len(v), 1))
        assert int(words._product(tree, rank(u), rank(v), x, y)) == rank(u + v)
