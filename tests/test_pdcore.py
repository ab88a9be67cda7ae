"""Function storage, Gram assembly, positivity verdicts, realizations.

Hand-computed oracles come first; randomized checks are seeded loops so a
failure always reproduces.
"""

import json
import os
import tempfile
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from freepd import pdcore, words
from freepd.errors import (
    DomainError,
    EntryError,
    FormatError,
    MissingEntryError,
    NotPositiveError,
    NotStrictError,
    ParameterError,
    WordError,
)
from freepd.pdcore import (
    Domain,
    PDFunction,
    PDVerdict,
    add_to_entries,
    canonical_words,
    check_pd,
    delta,
    function_from_dict,
    gram,
    gram_indexed,
    l1_distance,
    load_function,
    mix_with_delta,
    random_nspd,
    realize,
    restrict_to_ball,
    restrict_to_stage,
    save_function,
    stage_pairs,
)
from freepd.hilbert import build_partial_space
from freepd.words import ball, ball_size, clique, inverse, mul, word_from_str, word_to_str
from helpers import (
    brute_force_verdict,
    canonical_ball,
    fill_stage,
    function_to_dict,
    library_caches,
    level_at_a_time_check_pd,
    level_spectra,
    reference_gram,
)

W = word_from_str


def test_gram_of_delta_is_identity():
    for d in (1, 2):
        C = delta(d, Domain.prefix("aa"))
        E = clique(W("aa")).vertices
        G = gram(C, E)
        assert np.array_equal(G, np.eye(3 * d))


def test_gram_two_point_hand_example():
    c = 0.3 - 0.4j
    C = PDFunction(1, Domain.prefix("a"), {"a": c})
    G = gram(C, ["e", "a"])
    assert np.array_equal(G, np.array([[1, np.conj(c)], [c, 1]]))
    # reversing the list transposes the off-diagonal block
    G2 = gram(C, ["a", "e"])
    assert np.array_equal(G2, np.array([[1, c], [np.conj(c), 1]]))


def test_gram_missing_entry_names_the_canonical_word():
    C = PDFunction(1, Domain.ball(1), {"a": 0.2, "b": 0.1})
    with pytest.raises(MissingEntryError) as err:
        gram(C, ["e", "a", "aa"])
    assert err.value.word == "aa"


def test_gram_is_invariant_under_a_long_translation():
    C = random_nspd(4, 2, seed=3)
    t = (0, 1) * 12 + (0,)  # (ab)^12 a, of length 25
    for g in canonical_ball(4)[::9]:
        K = clique(g).vertices
        G = gram(C, K)
        assert _same_bits(gram(C, [mul(t, h) for h in K]), G)
        assert _same_bits(gram(C, [mul(inverse(t), h) for h in K]), G)


def test_gram_of_far_apart_words_names_the_first_missing_quotient():
    C = random_nspd(4, 1, seed=0)
    start = time.perf_counter()
    with pytest.raises(MissingEntryError) as err:
        gram(C, ["a" * 12, "b" * 12])
    assert time.perf_counter() - start < 0.1
    assert err.value.word == "A" * 12 + "b" * 12


def test_entries_outside_the_domain_read_as_undefined():
    C = random_nspd(1, 1, seed=0)
    assert C.defined("aa", 1, 1) is False
    with pytest.raises(MissingEntryError) as err:
        C.scalar("AA", 1, 1)
    assert err.value.word == "aa"


def test_gram_slots_name_the_first_moved_word_past_the_radius():
    # moved so that the least word, b, is e: e, Baa, Bab, Baab; Baa is the
    # first past radius 2, read at (aa's row, b's column), stored as AAb
    C = random_nspd(2, 1, seed=4)
    pairs = [(words.word_from_str(w), 1) for w in ("b", "aa", "ab", "aab")]
    with pytest.raises(MissingEntryError) as err:
        pdcore._gram_slots(C, pairs)
    assert err.value.word == "AAb"
    assert str(err.value) == "the Gram reads C(AAb), which is missing or partial"


def test_gram_indexed_rejects_bad_coordinates():
    C = delta(1, Domain.ball(1))
    with pytest.raises(ParameterError):
        gram_indexed(C, [((), 0)])


def _same_bits(A, B):
    """Equal shapes, NaN in the same slots, and bit-identical values elsewhere."""
    if A.shape != B.shape or not np.array_equal(np.isnan(A), np.isnan(B)):
        return False
    defined = ~np.isnan(A)
    return A[defined].tobytes() == B[defined].tobytes()


def _shuffled_pairs(rng, E, d):
    """Index pairs over E with its last word and e repeated, in a seeded order."""
    E = list(E) + [E[-1], ()]
    pairs = [(h, m) for h in E for m in range(1, d + 1)]
    return [pairs[i] for i in rng.permutation(len(pairs))]


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("kind", ["ball", "prefix", "partial"])
def test_gram_gather_matches_entrywise_reference(kind, d):
    rng = np.random.default_rng(10 * d + len(kind))
    C2 = random_nspd(2, d, seed=d)
    if kind == "ball":
        # quotients of Ball(1) words, mirrored pairs a, A and b, B among
        # them, stay inside Ball(2)
        G_pairs = _shuffled_pairs(rng, ball(1), d)
        assert _same_bits(gram_indexed(C2, G_pairs), reference_gram(C2, G_pairs))
        return
    for text in ("aa", "ab", "aB", "bb"):
        g = W(text)
        if kind == "prefix":
            dom = Domain.prefix(g)
            keep = set(canonical_words(dom))
            C = PDFunction(d, dom, {w: a for w, a in C2.canonical_items() if w in keep})
            G_pairs = _shuffled_pairs(rng, clique(g).vertices, d)
            assert _same_bits(gram_indexed(C, G_pairs), reference_gram(C, G_pairs))
            continue
        j, k = (int(x) for x in rng.integers(1, d + 1, size=2))
        stage = restrict_to_stage(C2, g, j, k)
        _, Q = stage_pairs(g, d, j, k)
        G = build_partial_space(stage).gram
        assert _same_bits(G, reference_gram(stage, Q))
        corner = np.zeros(G.shape, dtype=bool)
        corner[-2, -1] = corner[-1, -2] = True
        assert np.array_equal(np.isnan(G), corner)
        with pytest.raises(MissingEntryError) as err:
            gram_indexed(stage, [((), k), (g, j)])
        assert err.value.word == word_to_str(g)


def test_cleared_caches_give_the_same_grams():
    caches = library_caches()
    assert any(c is words.quotient_table for c in caches)
    assert any(c is words.clique for c in caches)
    assert any(c is words._clique_table for c in caches)
    assert any(c is words._grown for c in caches)
    C = random_nspd(3, 2, seed=5)
    pairs = [(h, m) for h in ball(1) for m in (1, 2)]

    def grams():
        # a fresh stage function, since a function keeps its stage space
        stage = restrict_to_stage(C, "aab", 1, 2)
        verdict = check_pd(C)
        return [gram_indexed(C, pairs), build_partial_space(stage).gram,
                verdict.witness_vector, np.array([verdict.min_eigenvalue])]

    def module_state():
        return {(m.__name__, k): id(v) for m in (pdcore, words) for k, v in vars(m).items()}

    state = module_state()
    before = grams()
    for cache in caches:
        cache.cache_clear()
    assert words.quotient_table.cache_info().currsize == 0
    assert words.clique.cache_info().currsize == 0
    assert words._clique_table.cache_info().currsize == 0
    assert words._grown.cache_info().currsize == 0
    after = grams()
    assert all(_same_bits(a, b) for a, b in zip(before, after))
    # what the batched check keeps between calls lives in the caches cleared
    # above: it reads each length's tables from _clique_table, and it binds
    # no module name and leaves nothing on the function
    assert words._clique_table.cache_info().currsize == 3
    assert len(words._grown()[0].inv) == ball_size(3)  # one tree, grown to C's radius
    assert module_state() == state
    assert C._stage_space is None


def test_constructor_canonicalizes_and_mirrors():
    c = 0.25 + 0.5j
    C = PDFunction(1, Domain.prefix("a"), {"A": c})
    assert C.scalar("a", 1, 1) == np.conj(c)
    assert C.scalar("A", 1, 1) == c

    m = np.array([[0.1, 0.2 + 0.3j], [-0.4j, 0.5]])
    D = PDFunction(2, Domain.prefix("a"), {"a": m})
    assert np.array_equal(D.entry("A"), m.conj().T)
    assert D.scalar("A", 2, 1) == np.conj(m[0, 1])


def test_letters_are_integers_not_bools():
    C = random_nspd(2, 1)
    for bad in ((True,), (np.True_,), (0, False)):
        with pytest.raises(WordError) as err:
            C.scalar(bad, 1, 1)
        assert str(err.value) == f"bad letters in {bad!r}"
    # Python and NumPy integers of any width stay letters
    for w in ((1,), (np.int64(1),), [np.int8(1)], np.array([1])):
        assert C.scalar(w, 1, 1) == C.scalar("b", 1, 1)
    assert C.scalar(np.array([0, 1], np.int8), 1, 1) == C.scalar("ab", 1, 1)


def test_function_from_dict_reduces_no_word(monkeypatch):
    # every key is looked up in the text table, which holds reduced words only
    C = random_nspd(5, 1, seed=4)
    obj = function_to_dict(C)
    calls = []
    real = words.reduce_word
    for module in (words, pdcore):  # wherever the package binds it
        if getattr(module, "reduce_word", None) is real:
            monkeypatch.setattr(module, "reduce_word", lambda w: calls.append(w) or real(w))
    assert function_from_dict(obj) == C
    assert len(obj["entries"]) == 242 and calls == []


def test_a_cold_check_builds_the_one_tree_once(monkeypatch):
    # the file's radius is asked first, when it is read, and every shorter
    # clique length is then a slice of that tree
    C = random_nspd(5, 1, seed=4)
    obj = function_to_dict(C)
    builds = []
    real = words._build
    monkeypatch.setattr(words, "_build", lambda r, *tree: builds.append(r) or real(r, *tree))
    for cache in library_caches():
        cache.cache_clear()
    verdict = check_pd(function_from_dict(obj))
    assert builds == [5]
    assert verdict.status == "strict"
    assert verdict.min_eigenvalue == check_pd(C).min_eigenvalue


@pytest.mark.parametrize("kind", ["ball", "prefix", "partial"])
def test_a_cold_check_of_a_function_built_earlier_builds_its_tree_once(monkeypatch, kind):
    # the level scan asks the function's own radius first, and every
    # clique length is a slice of that tree
    C = random_nspd(5, 2, seed=4)
    g = canonical_words(C.domain)[-3]
    if kind == "prefix":
        dom = Domain.prefix(g)
        C = PDFunction._from_stack(2, dom, C._stack[:len(canonical_words(dom))])
    elif kind == "partial":
        C = restrict_to_stage(C, g, 2, 1)
    warm = check_pd(C)
    builds = []
    real = words._build
    monkeypatch.setattr(words, "_build", lambda r, *tree: builds.append(r) or real(r, *tree))
    for cache in library_caches():
        cache.cache_clear()
    assert _same_verdict(check_pd(C), warm)
    assert builds == [5]


def test_haar_draws_match_scipy_bit_for_bit():
    from scipy.stats import unitary_group

    for seed in range(0, 200, 9):
        for dim in (3, 4, 6, 8):
            ours, scipys = np.random.default_rng(seed), np.random.default_rng(seed)
            for _ in range(2):  # the second draw continues the generator
                U = pdcore._haar_unitary(ours, dim)
                assert U.tobytes() == unitary_group.rvs(dim, random_state=scipys).tobytes()
                assert np.abs(U.conj().T @ U - np.eye(dim)).max() <= 1e-14


def test_constructor_rejects_bad_input():
    with pytest.raises(DomainError):
        PDFunction(1, Domain.prefix("a"), {"a": 0.5, "A": 0.4})
    with pytest.raises(DomainError):
        PDFunction(1, Domain.prefix("a"), {"a": 0.5, "e": 2.0})
    with pytest.raises(DomainError):
        PDFunction(1, Domain.prefix("a"), {"a": 0.5, "b": 0.1})
    with pytest.raises(MissingEntryError):
        PDFunction(1, Domain.ball(1), {"a": 0.5})
    with pytest.raises(ParameterError):
        PDFunction(2, Domain.prefix("a"), {"a": 0.5})
    with pytest.raises(ParameterError):
        PDFunction(0, Domain.ball(0), {})
    # the header is checked before the entries are read, even entries that are not a mapping
    for d, domain in ((0, Domain.ball(1)), (1, "ball"), (1, Domain.partial("a", 2, 1))):
        with pytest.raises(ParameterError):
            PDFunction(d, domain, [("a", 0.5)])
    with pytest.raises(WordError):
        Domain.partial("bA", 1, 1)  # that level adds no edge
    # NaN marks an undefined slot, which only the top of a partial domain has
    with pytest.raises(MissingEntryError) as err:
        PDFunction(1, Domain.ball(1), {"a": np.nan, "b": 0.2})
    assert err.value.word == "a"
    with pytest.raises(MissingEntryError) as err:
        PDFunction(1, Domain.ball(1), {"a": 0.1, "B": complex("nan")})
    assert err.value.word == "B"
    top = np.array([[0.1, np.nan], [np.nan, np.nan]])
    dom = Domain.partial("aa", 1, 2)
    entries = {"a": np.eye(2) * 0.1, "b": np.zeros((2, 2)), "aa": top}
    assert not PDFunction(2, dom, entries).defined("aa", 1, 2)
    with pytest.raises(MissingEntryError):
        PDFunction(2, dom, dict(entries, b=np.full((2, 2), np.nan)))
    with pytest.raises(MissingEntryError):
        PDFunction(2, Domain.partial("aa", 2, 1), entries)
    with pytest.raises(DomainError):
        PDFunction(2, Domain.partial("aa", 1, 1), entries)


def test_constructor_raises_at_the_first_offending_entry():
    dom = Domain.prefix("a")
    # a word or value that does not read comes after the entries before it
    # and after its own word's outside test
    with pytest.raises(WordError):
        PDFunction(1, dom, {"a": 0.5, "aA": 0.1})
    with pytest.raises(EntryError, match="b is outside"):
        PDFunction(1, dom, {"b": 0.5, "aA": 0.1})
    with pytest.raises(ValueError):
        PDFunction(2, dom, {"a": [[0.1, 0.2], [0.3]]})
    with pytest.raises(EntryError, match="b is outside"):
        PDFunction(2, dom, {"b": [[0.1, 0.2], [0.3]]})
    with pytest.raises(EntryError, match="not conjugate transposes"):
        PDFunction(1, dom, {"a": 0.5, "A": 0.4, "b": [[0.1, 0.2], [0.3]]})
    with pytest.raises(ParameterError, match="has shape"):
        PDFunction(1, Domain.ball(1), {"a": 0.5, "A": 0.5, "b": [0.1, 0.2]})


def test_check_pd_hand_examples():
    for d in (1, 2):
        v = check_pd(delta(d, Domain.ball(2)))
        assert v.status == "strict"
        assert v.min_eigenvalue == pytest.approx(1.0)

    ones = PDFunction(1, Domain.ball(1), {"a": 1.0, "b": 1.0})
    v = check_pd(ones)
    assert v.status == "semidefinite"
    assert abs(v.min_eigenvalue) < 1e-12

    bad = PDFunction(1, Domain.prefix("a"), {"a": 2.0})
    v = check_pd(bad)
    assert v.status == "not_pd"
    assert v.witness_words() == (W("e"), W("a"))
    G = gram_indexed(bad, v.witness_indices)
    alpha = v.witness_vector
    quad = (alpha.conj() @ G @ alpha).real
    assert quad == pytest.approx(-1.0, abs=1e-12)
    assert quad < 0
    for tol in (np.nan, np.inf, -1.0, "1e-9"):
        with pytest.raises(ParameterError, match="tol"):
            check_pd(bad, tol=tol)
    assert check_pd(bad, tol=0).status == "not_pd"


def test_check_pd_clique_and_brute_modes_agree():
    rng = np.random.default_rng(42)
    for trial in range(12):
        r = int(rng.integers(1, 3))
        d = int(rng.integers(1, 3))
        margin = float(rng.uniform(0.05, 0.9))
        C = random_nspd(r, d, seed=1000 + trial, margin=margin)
        assert check_pd(C).status == "strict"
        assert brute_force_verdict(C) == "strict"

        # break positivity by inflating one entry far beyond modulus 1
        entries = {w: np.array(a) for w, a in C.canonical_items()}
        wbad = list(entries)[int(rng.integers(0, len(entries)))]
        entries[wbad][0, 0] += 3.0
        broken = PDFunction(d, C.domain, entries)
        assert check_pd(broken).status == "not_pd"
        assert brute_force_verdict(broken) == "not_pd"


@pytest.mark.parametrize("d", [1, 2])
def test_check_pd_agrees_with_brute_force_on_prefix_and_partial_domains(d):
    # every level of Ball(2) as a prefix domain and at each of its stages,
    # strict and broken by inflating one defined entry
    C = random_nspd(2, d, seed=5 + d, margin=0.05)
    rng = np.random.default_rng(d)
    seen = set()
    for g in canonical_words(Domain.ball(2)):
        dom = Domain.prefix(g)
        prefix = PDFunction(d, dom, dict(list(C.canonical_items())[:len(canonical_words(dom))]))
        stages = [restrict_to_stage(C, g, j, k) for j in range(1, d + 1) for k in range(1, d + 1)]
        for F in [prefix, *stages]:
            entries = {w: np.array(a) for w, a in F.canonical_items()}
            defined = [w for w, a in entries.items() if not np.isnan(a[0, 0])]
            broken = []
            if defined:  # none at the first stage of the first level
                entries[defined[int(rng.integers(len(defined)))]][0, 0] += 3.0
                broken = [PDFunction(d, F.domain, entries)]
            for G in [F, *broken]:
                status = check_pd(G).status
                assert status == brute_force_verdict(G), (G.domain, status)
                seen.add(status)
    assert seen == {"strict", "not_pd"}


def test_pd_entries_bounded_by_one_on_random_instances():
    for seed in range(5):
        C = random_nspd(2, 2, seed=seed, margin=0.02)
        for _, arr in C.canonical_items():
            assert np.max(np.abs(arr)) <= 1 + 1e-10


def test_check_pd_stable_under_margin_mixing():
    C = random_nspd(2, 2, seed=7, margin=0.02)
    base = check_pd(C)
    assert base.status == "strict"
    for s in (0.1, 0.5, 1.0):
        v = check_pd(mix_with_delta(C, s))
        assert v.status == "strict"
        assert v.min_eigenvalue >= base.min_eigenvalue - 1e-12


def test_check_pd_partial_domain():
    # the domain at level aa is the full symmetric set I_aa, so b is in it too
    dom = Domain.partial("aa", 1, 1)
    C = PDFunction(1, dom, {"a": 0.6, "b": 0.1})
    assert check_pd(C).status == "strict"

    flat = PDFunction(1, dom, {"a": 1.0, "b": 0.0})
    assert check_pd(flat).status == "semidefinite"

    bad = PDFunction(1, dom, {"a": 2.0, "b": 0.0})
    assert check_pd(bad).status == "not_pd"


def _verdict_or_error(C):
    """check_pd's verdict and the oracle's, or the word each names on a miss."""
    out = []
    for check in (check_pd, level_at_a_time_check_pd):
        try:
            out.append(check(C))
        except MissingEntryError as err:
            out.append((err.word, str(err)))
    return out


def _same_verdict(a, b):
    if isinstance(a, tuple) or isinstance(b, tuple):
        return a == b
    return (a.status == b.status
            and np.float64(a.min_eigenvalue).tobytes() == np.float64(b.min_eigenvalue).tobytes()
            and a.witness_indices == b.witness_indices
            and a.witness_vector.dtype == b.witness_vector.dtype
            and _same_bits(a.witness_vector, b.witness_vector))


def _with_stack(C, stack):
    """C with another stack, past the validator: a hole (NaN) where the
    domain defines a value reaches the Grams only this way."""
    out = object.__new__(PDFunction)
    out.d, out.domain, out._stack, out._stage_space = C.d, C.domain, stack, None
    return out


def _constant(d, r, t):
    """C(w) = t I for every w != e: cliques of one size share their Gram, so
    their least eigenvalues tie bit for bit."""
    n = len(canonical_words(Domain.ball(r)))
    stack = np.tile(t * np.eye(d, dtype=complex), (n, 1, 1))
    return PDFunction._from_stack(d, Domain.ball(r), stack)


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("kind", ["ball", "prefix", "partial"])
@pytest.mark.parametrize("flavour", ["strict", "semidefinite", "not_pd", "tie"])
@settings(derandomize=True, max_examples=5, deadline=None, database=None)
@given(seed=st.integers(0, 2 ** 16), hole=st.sampled_from((False, False, True)), data=st.data())
def test_check_pd_matches_the_level_at_a_time_oracle(d, kind, flavour, seed, hole, data):
    r = data.draw(st.integers(2, {1: 4, 2: 3, 3: 2}[d]), label="r")
    if flavour == "tie":
        C = _constant(d, r, 0.9)
    else:
        C = random_nspd(r, d, seed=seed)
        if flavour == "semidefinite":  # the unit-vector part, singular on large cliques
            C = PDFunction._from_stack(d, C.domain, C._stack / 0.9)
    levels, first = canonical_words(C.domain), 0
    if flavour == "not_pd":
        # a level with a later one of its length, so the failing Gram is not
        # the last of its batch
        first = data.draw(st.sampled_from(
            [i for i, (w, v) in enumerate(zip(levels, levels[1:])) if len(w) == len(v)]))
        C = add_to_entries(C, [(levels[first], 1, 1)], [3.0])
    if kind != "ball":
        # a domain that keeps the failing level whole
        g = data.draw(st.sampled_from(levels[first + (kind == "partial"):]), label="g")
        if kind == "prefix":
            dom = Domain.prefix(g)
            C = PDFunction._from_stack(d, dom, C._stack[:len(canonical_words(dom))])
        else:
            j, k = data.draw(st.tuples(st.integers(1, d), st.integers(1, d)), label="j, k")
            C = restrict_to_stage(C, g, j, k)
    if hole:
        stack = np.array(C._stack)
        stack[data.draw(st.integers(0, len(stack) - 1), label="hole")] = np.nan
        C = _with_stack(C, stack)
    new, oracle = _verdict_or_error(C)
    assert _same_verdict(new, oracle), (new, oracle)


def _level_class(lam, size):
    thr = pdcore.DEFAULT_TOL * size
    return "not_pd" if lam < -thr else "semidefinite" if lam <= thr else "strict"


@pytest.mark.parametrize("d", [1, 2, 3])
def test_level_eigenvalues_match_an_eigh_scan(d):
    # a strict random function, and a mixed one: the mean of its unit-vector
    # part and that part's conjugate, singular on cliques larger than the
    # two representations, with its last level pushed out of positivity.
    # Ball(1) to Ball(5) hold the leading levels of Ball(6)
    C = random_nspd(6, d, seed=40 + d)
    unit = C._stack / 0.9
    mixed = PDFunction._from_stack(d, C.domain, (unit + unit.conj()) / 2)
    mixed = add_to_entries(mixed, [(canonical_words(C.domain)[-1], 1, 1)], [2.0])
    classes = set()
    for F in (C, mixed):
        levels = canonical_words(F.domain)
        tables = (pdcore._clique_pairs(h, d)[0] for h in levels)
        scan = [float(np.linalg.eigh(pdcore._gram(F, table=t))[0][0]) for t in tables]
        for r in range(1, 7):
            spectra = list(pdcore._level_spectra(restrict_to_ball(F, r)))
            assert len(spectra) == len(canonical_words(Domain.ball(r)))
            for (lam, size, _), h, oracle in zip(spectra, levels, scan):
                assert size == len(clique(h).ranks) * d
                assert abs(lam - oracle) <= 1e-13
                assert _level_class(lam, size) == _level_class(oracle, size)
                classes.add(_level_class(lam, size))
    assert classes == {"strict", "semidefinite", "not_pd"}


def test_check_pd_ties_go_to_the_first_level_of_the_least():
    for d, r in ((1, 4), (2, 3), (3, 3)):
        C = _constant(d, r, 0.9)
        least = min(lam for lam, _, _ in level_spectra(C))
        ties = [pairs for lam, _, pairs in level_spectra(C) if lam == least]
        assert len(ties) >= 2
        new, oracle = _verdict_or_error(C)
        assert _same_verdict(new, oracle)
        assert new.status == "strict" and new.witness_indices == ties[0]


def test_check_pd_certifies_the_gram_that_crossed_its_threshold(monkeypatch):
    # an earlier, larger Gram with a lower least eigenvalue inside its own
    # threshold is the worst so far, but the certificate is the later Gram
    # that crosses below its smaller one
    grams = {"large": -np.eye(10) * 5e-10, "small": np.diag([-4e-10, 1.0])}
    levels = [(-5e-10, 10, lambda: ("large", pdcore._least_vector(grams["large"]))),
              (-4e-10, 2, lambda: ("small", pdcore._least_vector(grams["small"])))]
    monkeypatch.setattr(pdcore, "_level_spectra", lambda C: iter(levels))
    verdict = check_pd(delta(1, Domain.ball(1)))
    assert verdict.status == "not_pd" and verdict.min_eigenvalue == -4e-10
    assert verdict.witness_indices == "small" and abs(verdict.witness_vector[0]) == 1.0


def test_check_pd_reads_the_e_block_without_a_d_by_d_array():
    # the e block's Gram is I: a check of a large d on Ball(0) holds no d x d
    # table, Gram or pad (one complex one is 36 MB at d = 1500), and its
    # witness is e_1, the vector eigh returns for I
    d = 1500
    C = delta(d, Domain.ball(0))
    tracemalloc.start()
    try:
        verdict = check_pd(C)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < d * d * 16 / 8
    assert verdict.status == "strict" and verdict.min_eigenvalue == 1.0
    assert verdict.witness_indices == tuple(((), m) for m in range(1, d + 1))
    assert verdict.witness_vector.tobytes() == np.eye(1, d, dtype=complex)[0].tobytes()
    small = delta(3, Domain.ball(0))
    assert _same_verdict(check_pd(small), level_at_a_time_check_pd(small))


def test_check_pd_fails_at_a_level_inside_its_length():
    C = random_nspd(4, 2, seed=4)
    levels = canonical_words(C.domain)
    for w in (levels[4], levels[30]):  # inside lengths 2 and 4
        bad = add_to_entries(C, [(w, 2, 1)], [3.0])
        new, oracle = _verdict_or_error(bad)
        assert _same_verdict(new, oracle)
        assert new.status == "not_pd" and w in new.witness_words()
        # a hole past the failing level is never read
        stack = np.array(bad._stack)
        stack[-1] = np.nan
        assert _same_verdict(check_pd(_with_stack(bad, stack)), new)
    stack = np.array(C._stack)
    stack[30] = np.nan
    new, oracle = _verdict_or_error(_with_stack(C, stack))
    assert new == oracle and new[0] == word_to_str(levels[30])


def test_partial_domain_scalar_access_and_masks():
    dom = Domain.partial("aa", 2, 1)
    top = np.array([[0.1 + 0.2j, -0.3j], [np.nan, np.nan]], dtype=complex)
    zero = np.zeros((2, 2))
    C = PDFunction(
        2, dom, {"a": np.array([[0.2, 0.0], [0.1j, 0.15]]), "b": zero, "aa": top}
    )
    assert C.scalar("aa", 1, 2) == -0.3j
    assert C.scalar("AA", 2, 1) == np.conj(-0.3j)
    assert not C.defined("aa", 2, 1)
    with pytest.raises(MissingEntryError):
        C.scalar("aa", 2, 1)
    with pytest.raises(MissingEntryError):
        C.entry("aa")

    # a defined slot may not hold NaN, an undefined one must
    with pytest.raises(MissingEntryError):
        PDFunction(2, dom, {"a": zero, "b": zero, "aa": np.full((2, 2), np.nan)})
    with pytest.raises(DomainError):
        PDFunction(2, dom, {"a": zero, "b": zero, "aa": np.zeros((2, 2))})

    # stage (1, 1) may omit the top level entirely
    D = PDFunction(2, Domain.partial("aa", 1, 1), {"a": zero, "b": zero})
    assert not D.defined("aa", 1, 1)
    assert check_pd(D).status == "strict"


def test_stage_pairs_bookkeeping():
    e, a, aa = W("e"), W("a"), W("aa")
    P, Q = stage_pairs("aa", 1, 1, 1)
    assert P == ((a, 1),)
    assert Q == ((a, 1), (aa, 1), (e, 1))

    P2, Q2 = stage_pairs("aa", 2, 2, 1)
    assert P2 == ((a, 1), (a, 2), (aa, 1))
    assert Q2 == P2 + ((aa, 2), (e, 1))

    b, bA, bb = W("b"), W("bA"), W("bb")
    P3, _ = stage_pairs("bb", 1, 1, 1)
    assert P3 == ((b, 1), (bA, 1))

    with pytest.raises(WordError):
        stage_pairs("bA", 1, 1, 1)
    with pytest.raises(ParameterError):
        stage_pairs("aa", 1, 2, 1)


def test_realize_identity_and_rank_deficient():
    R = realize(delta(2, Domain.ball(2)))
    assert R.factors.shape == (10, 10)
    assert np.allclose(R.factors @ R.factors.conj().T, np.eye(10), atol=1e-12)

    ones = PDFunction(1, Domain.ball(2), {w: 1.0 for w in ("a", "b", "aa", "ab", "aB", "ba", "bb", "Ab")})
    R1 = realize(ones)
    assert R1.factors.shape[1] == 1  # rank one
    for row in R1.factors:
        assert np.allclose(row, R1.factors[0], atol=1e-12)
    assert R1.reconstruction_error <= 1e-10 * np.max(np.abs(R1.gram))


def test_realize_roundtrip_on_random_instances():
    # realization over B_r needs data on Ball(2r)
    for r, d in ((1, 1), (1, 2), (2, 1)):
        for seed in range(34 if r == 1 else 33):
            C = random_nspd(2 * r, d, seed=seed, margin=0.1)
            R = realize(C)
            assert R.reconstruction_error <= 1e-10 * np.max(np.abs(R.gram))
            v1 = R.vector(W("a"), 1)
            v2 = R.vector(W("e"), d)
            ip = np.sum(v1 * np.conj(v2))
            assert ip == pytest.approx(C.scalar(W("a"), 1, d), abs=1e-10)


def test_realize_prefix_domain_and_failures():
    src = random_nspd(2, 1, seed=11, margin=0.2)
    entries = {w: src.entry(w) for w in (W("a"), W("b"), W("aa"), W("ab"))}
    C = PDFunction(1, Domain.prefix("ab"), entries)
    R = realize(C)
    assert R.indices == ((W("e"), 1), (W("a"), 1), (W("ab"), 1))
    assert R.reconstruction_error <= 1e-10

    with pytest.raises(NotPositiveError):
        realize(PDFunction(1, Domain.prefix("a"), {"a": 2.0}))
    with pytest.raises(DomainError):
        realize(delta(1, Domain.partial("aa", 1, 1)))


def test_realize_rejects_a_factorization_that_misses_the_gram(monkeypatch):
    C = random_nspd(2, 1, seed=4)
    eigh = np.linalg.eigh

    def perturbed(G):
        vals, vecs = eigh(G)
        return vals, vecs + 1e-6

    monkeypatch.setattr(np.linalg, "eigh", perturbed)
    with pytest.raises(NotPositiveError, match="failed to reproduce the Gram"):
        realize(C)


def test_random_nspd_rejects_an_instance_that_is_not_strict(monkeypatch):
    def semidefinite(C, *args, **kwargs):
        return PDVerdict("semidefinite", 0.0, (), np.zeros(0))

    monkeypatch.setattr(pdcore, "check_pd", semidefinite)
    with pytest.raises(NotStrictError, match="strictness guarantee"):
        random_nspd(2, 1, seed=4)


def test_random_nspd_contract():
    assert random_nspd(2, 2, seed=3, margin=1.0) == delta(2, Domain.ball(2))

    C1 = random_nspd(2, 2, seed=9, margin=0.3)
    C2 = random_nspd(2, 2, seed=9, margin=0.3)
    assert C1 == C2
    a1 = dict(C1.canonical_items())[W("ab")]
    a2 = dict(C2.canonical_items())[W("ab")]
    assert a1.tobytes() == a2.tobytes()
    assert random_nspd(2, 2, seed=10, margin=0.3) != C1

    v = check_pd(C1)
    assert v.status == "strict"
    assert v.min_eigenvalue >= 0.3 / 2

    with pytest.raises(ParameterError):
        random_nspd(1, 1, margin=0.0)
    with pytest.raises(ParameterError):
        random_nspd(1, 1, margin=1.5)


def test_l1_distance_examples():
    C = PDFunction(1, Domain.ball(1), {"a": 0.1, "b": 0.05})
    D = PDFunction(1, Domain.ball(1), {"a": 0.2, "b": 0.05})
    assert l1_distance(C, C) == 0.0
    assert l1_distance(C, D) == pytest.approx(0.2)  # both a and a^-1 count
    assert l1_distance(C, D) == l1_distance(D, C)

    E0 = PDFunction(1, Domain.ball(0), {})
    assert l1_distance(E0, E0) == 0.0

    with pytest.raises(DomainError):
        l1_distance(C, E0)
    with pytest.raises(DomainError):
        l1_distance(C, delta(2, Domain.ball(1)))


def test_restrict_and_mix():
    C = random_nspd(2, 2, seed=4, margin=0.15)
    C1 = restrict_to_ball(C, 1)
    assert C1.domain == Domain.ball(1)
    assert np.array_equal(C1.entry("a"), C.entry("a"))
    with pytest.raises(DomainError):
        restrict_to_ball(PDFunction(1, Domain.prefix("a"), {"a": 0.1}), 0)
    with pytest.raises(ParameterError):
        restrict_to_ball(C, 3)
    with pytest.raises(ParameterError):
        mix_with_delta(C, 1.2)
    assert l1_distance(mix_with_delta(C, 0.0), C) == 0.0


def test_json_roundtrip(tmp_path):
    partial_top = np.array([[0.05 - 0.1j, 0.2j], [np.nan, np.nan]], dtype=complex)
    cases = [
        random_nspd(2, 1, seed=1, margin=0.2),
        random_nspd(1, 2, seed=2, margin=0.5),
        PDFunction(1, Domain.prefix("ab"), {"a": 0.1j, "b": -0.2, "aa": 0.05, "ab": 0.0}),
        PDFunction(2, Domain.partial("aa", 2, 1),
                   {"a": np.array([[0.2, 0.1], [0.0, -0.1j]]),
                    "b": np.zeros((2, 2)), "aa": partial_top}),
    ]
    for i, C in enumerate(cases):
        path = tmp_path / f"f{i}.json"
        save_function(C, path)
        assert load_function(path) == C

    path1, path2 = tmp_path / "s1.json", tmp_path / "s2.json"
    save_function(cases[0], path1)
    save_function(cases[0], path2)
    assert path1.read_bytes() == path2.read_bytes()


@settings(derandomize=True, max_examples=60, deadline=None, database=None)
@given(seed=st.integers(0, 2 ** 16), d=st.sampled_from([1, 2, 3]),
       kind=st.sampled_from(["ball", "prefix", "partial"]), data=st.data())
def test_json_round_trips_every_domain_kind(seed, d, kind, data):
    if kind == "ball":
        domain = Domain.ball(data.draw(st.integers(0, 3)))
    else:
        g = data.draw(st.sampled_from(canonical_ball(3)))
        if kind == "prefix":
            domain = Domain.prefix(g)
        else:
            domain = Domain.partial(g, data.draw(st.integers(1, d)), data.draw(st.integers(1, d)))
    rng = np.random.default_rng(seed)
    n = len(canonical_words(domain))
    # any complex values, signed zeros and tiny and huge magnitudes included
    parts = (rng.choice([-1.0, -0.0, 0.0, 1.0], size=(2, n, d, d))
             * rng.uniform(size=(2, n, d, d)) * 10.0 ** rng.integers(-300, 300, (2, n, d, d)))
    stack = np.empty((n, d, d), dtype=complex)
    stack.real, stack.imag = parts
    if kind == "partial":
        stack[-1][pdcore._undefined_top(domain, d)] = np.nan
    C = PDFunction._from_stack(d, domain, stack)
    back = function_from_dict(json.loads(json.dumps(function_to_dict(C))))
    assert back.domain == domain and back._stack.tobytes() == C._stack.tobytes()
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "f.json")
        save_function(C, path)
        assert load_function(path)._stack.tobytes() == C._stack.tobytes()
        # the writer formats the stack itself: its bytes are json.dumps of the oracle's lists
        with open(path, "rb") as fh:
            assert fh.read() == (json.dumps(function_to_dict(C), indent=1) + "\n").encode()


_JSON_SCALARS = st.none() | st.booleans() | st.integers() | st.floats() | st.text()
# lists of plain numbers, with bools among them at times, which are not plain
_JSON_NUMBERS = st.lists(st.integers() | st.floats(), min_size=1) | st.lists(
    st.integers() | st.floats() | st.booleans(), min_size=1)
_JSON_TREES = st.recursive(
    _JSON_SCALARS | _JSON_NUMBERS | _JSON_NUMBERS.map(tuple),
    lambda kids: (st.lists(kids, max_size=4) | st.lists(kids, max_size=3).map(tuple)
                  | st.dictionaries(st.text(), kids, max_size=4)),
    max_leaves=30)


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(obj=_JSON_TREES)
def test_json_writer_is_json_dumps_with_indent_one(obj):
    # NaN, infinities, -0.0, escaped non-ASCII and empty containers included
    assert pdcore._json_text(obj) == json.dumps(obj, indent=1)


def test_json_writer_writes_files_as_json_does_and_refuses_other_keys(tmp_path):
    obj = {"n": [2, 2.5], "é\n": [-0.0, float("nan")], "t": (), "u": {}, "v": [True, None]}
    pdcore.write_json_atomic(obj, tmp_path / "o.json")
    assert (tmp_path / "o.json").read_text() == json.dumps(obj, indent=1) + "\n"
    for bad in ({1: 0}, {"x": {(1, 2): 0}}, {"x": {1, 2}}):
        with pytest.raises(TypeError):
            pdcore._json_text(bad)


def test_json_malformed_inputs(tmp_path):
    def dump(C):
        return function_to_dict(C)

    base = dump(PDFunction(1, Domain.ball(1), {"a": 0.1, "b": 0.2}))

    def expect(obj, key):
        with pytest.raises(FormatError) as err:
            function_from_dict(obj)
        assert err.value.key == key

    missing_d = dict(base)
    del missing_d["d"]
    expect(missing_d, "d")

    bad_kind = dict(base, domain={"kind": "disk"})
    expect(bad_kind, "domain.kind")

    bad_r = dict(base, domain={"kind": "ball", "r": -1})
    expect(bad_r, "domain.r")

    extra = dict(base, comment="hi")
    expect(extra, "$.comment")

    bad_word = dict(base, entries=dict(base["entries"], ax=[[[0.0, 0.0]]]))
    expect(bad_word, "entries.ax")

    outside = dict(base, entries=dict(base["entries"], aa=[[[0.0, 0.0]]]))
    expect(outside, "entries.aa")

    bad_shape = dict(base, entries=dict(base["entries"], a=[[[0.0, 0.0], [0.0, 0.0]]]))
    expect(bad_shape, "entries.a")

    for cell in ([0.2], [0.2, 0.0, 0.0], "ab", 0.2):
        expect(dict(base, entries=dict(base["entries"], b=[[cell]])), "entries.b")

    inconsistent = dict(base, entries=dict(base["entries"], A=[[[0.9, 0.0]]]))
    expect(inconsistent, "entries.A")

    consistent = dict(
        base, entries=dict(base["entries"], A=[[[0.1, -0.0]]])
    )
    assert function_from_dict(consistent).scalar("a", 1, 1) == 0.1

    short = dict(base, entries={"a": [[[0.1, 0.0]]]})
    expect(short, "entries.b")

    bad_e = dict(base, entries=dict(base["entries"], e=[[[0.5, 0.0]]]))
    expect(bad_e, "entries.e")

    # partial masks: null exactly beyond the stage position
    pd_dom = {"kind": "partial", "g": "aa", "j": 1, "k": 1}
    zero1 = [[[0.0, 0.0]]]
    part = {"d": 1, "domain": pd_dom,
            "entries": {"a": [[[0.1, 0.0]]], "b": zero1, "aa": [[None]]}}
    assert function_from_dict(part).defined("aa", 1, 1) is False
    bad_null = {"d": 1, "domain": pd_dom, "entries": {"a": [[None]], "b": zero1}}
    expect(bad_null, "entries.a")
    beyond = {"d": 1, "domain": pd_dom,
              "entries": {"a": [[[0.1, 0.0]]], "b": zero1, "aa": [[[0.2, 0.0]]]}}
    expect(beyond, "entries.aa")

    stage_dom = {"kind": "partial", "g": "aa", "j": 2, "k": 1}
    expect({"d": 1, "domain": stage_dom,
            "entries": {"a": [[[0.1, 0.0]]], "b": zero1}}, "domain.j")

    # a huge d with no entry is a missing entry, found before any allocation
    for d in (10 ** 12, 2 ** 70):
        expect({"d": d, "domain": {"kind": "ball", "r": 1}, "entries": {}}, "entries.a")
    # a domain without rows needs no entry: a d too large for one d x d
    # complex matrix to be addressed is named, before the stack is allocated
    for domain in ({"kind": "ball", "r": 0}, {"kind": "prefix", "g": "e"}):
        for d in (759250125, 10 ** 12, 2 ** 70):
            expect({"d": d, "domain": domain, "entries": {}}, "d")
        assert function_from_dict({"d": 759250124, "domain": domain, "entries": {}}).d == 759250124

    junk = tmp_path / "junk.json"
    junk.write_text("{not json")
    with pytest.raises(FormatError) as err:
        load_function(junk)
    assert err.value.key == str(junk)


def test_a_reader_builds_words_only_as_far_as_its_entries_reach(monkeypatch):
    # a radius with more words than the file has entries is read through the
    # key table of a small radius, and its missing rows and its words past
    # that table are found all the same
    builds = []
    real = words._build
    monkeypatch.setattr(words, "_build", lambda r, *tree: builds.append(r) or real(r, *tree))
    for cache in library_caches():
        cache.cache_clear()
    one = [[[0.1, 0.0]]]
    cases = [
        ({"kind": "ball", "r": 40}, {"a": one}, "entries.b", "C(b)[1,1] is undefined"),
        ({"kind": "ball", "r": 40}, {"a": one, "b": one, "a" * 41: one}, "entries." + "a" * 41,
         "outside the domain"),
        ({"kind": "ball", "r": 40}, {"b" * 30: one, "B" * 30: [[[0.2, 0.0]]]}, "entries." + "B" * 30,
         "not conjugate transposes"),
        ({"kind": "prefix", "g": "ab" * 30}, {"ba" * 30: one}, "entries." + "ba" * 30,
         "outside the domain"),
        ({"kind": "partial", "g": "a" * 60, "j": 1, "k": 1}, {"a" * 59: one, "A" * 59: one},
         "entries.a", "C(a)[1,1] is undefined"),
    ]
    for domain, entries, key, message in cases:
        with pytest.raises(FormatError) as err:
            function_from_dict({"d": 1, "domain": domain, "entries": entries})
        assert err.value.key == key and message in str(err.value)
    assert max(builds) <= 2


def test_check_pd_of_loaded_equals_original(tmp_path):
    C = random_nspd(2, 2, seed=21, margin=0.08)
    path = tmp_path / "c.json"
    save_function(C, path)
    D = load_function(path)
    assert check_pd(D).status == "strict"
    assert l1_distance(C, D) == 0.0


def test_computed_functions_pass_the_constructor_validator():
    C = random_nspd(2, 2, seed=6)
    # stage (aaa, 1, 1) opens one undefined row beyond Ball(2); (aaa, 1, 2) needs it
    walk = restrict_to_stage(C, "aaa", 1, 1)
    assert walk == PDFunction(2, walk.domain, dict(C.canonical_items()))
    with pytest.raises(DomainError):
        restrict_to_stage(C, "aaa", 1, 2)
    nxt = fill_stage(walk, 0.1j, Domain.partial("aaa", 1, 2))
    assert nxt.scalar("aaa", 1, 1) == 0.1j and nxt.scalar("AAA", 1, 1) == -0.1j
    assert not nxt.defined("aaa", 1, 2)
    # a next stage that skips a slot leaves a defined NaN; one that does not
    # move leaves a written slot beyond the stage; an earlier level shrinks
    with pytest.raises(MissingEntryError):
        fill_stage(walk, 0.1j, Domain.partial("aaa", 2, 1))
    with pytest.raises(EntryError) as info:
        fill_stage(walk, 0.1j, Domain.partial("aaa", 1, 1))
    assert type(info.value) is EntryError
    with pytest.raises(DomainError):
        fill_stage(walk, 0.1j, Domain.partial("ab", 1, 1))
    # a walk's partial function cuts back to the ball its levels complete
    assert restrict_to_ball(walk, 2) == C
    with pytest.raises(ParameterError):
        restrict_to_ball(walk, 3)
    with pytest.raises(ParameterError):
        PDFunction._from_stack(2, Domain.ball(1), np.zeros((3, 2, 2), dtype=complex))
    # a shift at a mirrored word lands conjugated on its canonical word
    D = add_to_entries(C, [("A", 1, 2), ("ab", 2, 1)], [0.01j, 0.02])
    assert D.scalar("a", 2, 1) == C.scalar("a", 2, 1) - 0.01j
    assert D.scalar("ab", 2, 1) == C.scalar("ab", 2, 1) + 0.02
    assert l1_distance(D, C) == pytest.approx(2 * 0.03)


def test_add_to_entries_rejects_coordinates_outside_the_matrix():
    # unchecked, j = 0 would wrap to C(w)[d, k] and j = d + 1 raise IndexError
    C = random_nspd(1, 2, seed=0)
    for j, k in ((0, 1), (1, 0), (3, 1), (2, 3)):
        with pytest.raises(ParameterError, match=r"out of range for d=2"):
            add_to_entries(C, [((0,), j, k)], [1.0])
    assert add_to_entries(C, [((0,), 1, 2)], [0.0]) == C


def test_stage_space_is_built_once_per_function():
    stage = restrict_to_stage(random_nspd(2, 1, seed=1), "ab", 1, 1)
    assert build_partial_space(stage) is build_partial_space(stage)


def test_l1_distance_matches_the_row_loop_bit_for_bit():
    for d, seed in ((1, 0), (2, 1), (3, 2)):
        C, D = random_nspd(3, d, seed=seed), random_nspd(3, d, seed=seed + 50)
        stages = (restrict_to_stage(C, "aab", 1, d), restrict_to_stage(D, "aab", 1, d))
        for A, B in ((C, D), stages):
            total = 0.0
            for (_, a), (_, b) in zip(A.canonical_items(), B.canonical_items()):
                total += 2.0 * float(np.nansum(np.abs(a - b)))
            assert l1_distance(A, B) == total
