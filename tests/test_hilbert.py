"""Stage spaces and residual data.

The stage residuals are checked by hand; explicit least-squares projections
and two Cholesky factors of the stage Gram act as independent oracles.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from freepd.errors import (
    DegenerateStageError,
    DomainError,
    NotStrictError,
    ParameterError,
)
from freepd.hilbert import build_partial_space, residual_data, residual_from_gram
from freepd.extend import _open_walk, extend_entry
from freepd.pdcore import (
    Domain,
    PDFunction,
    _gram,
    check_pd,
    delta,
    random_nspd,
    restrict_to_stage,
    stage_pairs,
)
from freepd.words import word_from_str
from helpers import matches_two_factor_residuals

W = word_from_str


def test_build_partial_space_delta_stage():
    sp = build_partial_space(delta(1, Domain.partial("aa", 1, 1)))
    assert stage_pairs("aa", 1, 1, 1)[1] == ((W("a"), 1), (W("aa"), 1), (W("e"), 1))
    assert sp.core_size == 1
    expected = np.eye(3, dtype=complex)
    mask = np.isnan(sp.gram)
    assert mask[1, 2] and mask[2, 1]
    assert mask.sum() == 2
    assert np.array_equal(np.where(mask, 0, sp.gram), np.where(mask, 0, expected))


def test_build_partial_space_d2_stage():
    C = random_nspd(2, 2, seed=0, margin=0.2)
    sp = build_partial_space(restrict_to_stage(C, "aa", 2, 1))
    a, aa, e = W("a"), W("aa"), W("e")
    P, Q = stage_pairs("aa", 2, 2, 1)
    assert P == ((a, 1), (a, 2), (aa, 1))
    assert Q == P + ((aa, 2), (e, 1))
    assert sp.gram.shape == (5, 5)
    mask = np.isnan(sp.gram)
    assert mask[3, 4] and mask[4, 3] and mask.sum() == 2
    # the one-sided restrictions are fully defined and inherit the margin
    m = sp.core_size
    for X in (sp.x_g_gram, sp.x_e_gram, sp.gram[:m, :m]):
        assert not np.isnan(X).any()
        assert np.linalg.eigvalsh(X).min() >= 0.2 - 1e-9
    # spot-check an assembled inner product against the source function
    assert sp.gram[2, 0] == C.scalar(W("a"), 1, 1)  # <Theta(aa)_1, Theta(a)_1>


def test_restrictions_stay_positive_on_random_instances():
    for seed in range(6):
        C = random_nspd(2, 2, seed=100 + seed, margin=0.15)
        for g in ("aa", "ab", "ba", "bb"):
            for j, k in ((1, 1), (2, 1), (2, 2)):
                part = restrict_to_stage(C, g, j, k)
                assert check_pd(part).status == "strict"
                sp = build_partial_space(part)
                assert np.linalg.eigvalsh(sp.x_g_gram).min() >= 0.15 - 1e-9
                assert np.linalg.eigvalsh(sp.x_e_gram).min() >= 0.15 - 1e-9


def test_build_partial_space_rejects_full_domains():
    with pytest.raises(DomainError):
        build_partial_space(delta(1, Domain.ball(1)))


def test_residual_hand_examples():
    rd = residual_data(build_partial_space(delta(1, Domain.partial("aa", 1, 1))))
    assert (rd.n_g, rd.n_e, rd.cross) == (1.0, 1.0, 0.0)

    c = 0.35 - 0.2j
    C = PDFunction(1, Domain.partial("aa", 1, 1), {"a": c, "b": 0.1j})
    rd = residual_data(build_partial_space(C))
    assert rd.n_g == pytest.approx(np.sqrt(1 - abs(c) ** 2), abs=1e-14)
    assert rd.n_e == pytest.approx(np.sqrt(1 - abs(c) ** 2), abs=1e-14)
    assert rd.cross == pytest.approx(c ** 2, abs=1e-14)

    # empty core: K_a = {e, a} has no interior, so p = 0
    sp = build_partial_space(PDFunction(1, Domain.partial("a", 1, 1), {}))
    assert sp.core_size == 0
    rd = residual_data(sp)
    assert (rd.n_g, rd.n_e, rd.cross) == (1.0, 1.0, 0.0)


def test_residual_invariant_under_core_reordering():
    rng = np.random.default_rng(17)
    C = random_nspd(2, 2, seed=23, margin=0.15)
    sp = build_partial_space(restrict_to_stage(C, "bb", 2, 1))
    m = sp.core_size
    rd = residual_data(sp)
    for _ in range(5):
        perm = list(rng.permutation(m))
        order = perm + [m, m + 1]
        Gp = sp.gram[np.ix_(order, order)]
        rd2 = residual_from_gram(Gp, m)
        assert rd2.n_g == pytest.approx(rd.n_g, abs=1e-10)
        assert rd2.n_e == pytest.approx(rd.n_e, abs=1e-10)
        assert rd2.cross == pytest.approx(rd.cross, abs=1e-10)


def test_residual_degeneracy_is_detected():
    C = PDFunction(1, Domain.partial("aa", 1, 1), {"a": 1.0, "b": 0.0})
    with pytest.raises(DegenerateStageError):
        residual_data(build_partial_space(C))


def test_residual_continuity_under_entry_perturbation():
    C = random_nspd(2, 1, seed=3, margin=0.3)
    base = residual_data(build_partial_space(restrict_to_stage(C, "ab", 1, 1)))
    entries = {w: np.array(a) for w, a in C.canonical_items()}
    entries[W("a")] = entries[W("a")] + 1e-8
    D = PDFunction(1, Domain.ball(2), entries)
    moved = residual_data(build_partial_space(restrict_to_stage(D, "ab", 1, 1)))
    assert abs(moved.n_g - base.n_g) < 1e-5
    assert abs(moved.n_e - base.n_e) < 1e-5
    assert abs(moved.cross - base.cross) < 1e-5


def test_residual_from_gram_validates_core_size():
    with pytest.raises(ParameterError):
        residual_from_gram(np.eye(4), 1)


def test_residual_from_gram_rejects_what_is_no_stage_gram():
    G = _stage_gram(np.eye(5, dtype=complex))
    skew, nan_core = np.array(G), np.array(G)
    skew[0, 1] = 0.5  # its mirror stays 0
    nan_core[0, 1] = nan_core[1, 0] = complex("nan")
    for M in (np.zeros((5, 4)), skew, nan_core):
        with pytest.raises(ParameterError):
            residual_from_gram(M, 3)


def _stage_gram(vectors):
    """The stage Gram of explicit vectors (rows), working corner masked."""
    G = vectors @ vectors.conj().T
    G[-2, -1] = G[-1, -2] = complex("nan")
    return G


def test_residual_collapsed_core_is_not_strict():
    rng = np.random.default_rng(41)
    V = rng.normal(size=(6, 8)) + 1j * rng.normal(size=(6, 8))
    V[2] = V[1]  # the core spans fewer dimensions than it has vectors
    indefinite = _stage_gram(rng.normal(size=(5, 7)) + 0j)
    indefinite[1, 1] = -1.0  # a core no vectors can realize
    tiny = _stage_gram(np.diag([1.0, 1e-11, 1.0, 1.0]) + 0j)  # pivot 1e-11 > 0
    for G in (_stage_gram(V), indefinite, tiny):
        with pytest.raises(NotStrictError) as info:
            residual_from_gram(G, G.shape[0] - 2)
        assert not isinstance(info.value, DegenerateStageError)


def test_residual_matches_projection_oracle():
    rng = np.random.default_rng(29)
    for m in range(31):
        n = m + 2
        V = rng.normal(size=(n, 2 * n)) + 1j * rng.normal(size=(n, 2 * n))
        V /= np.sqrt(2 * n)
        rd = residual_from_gram(_stage_gram(V), m)
        core = V[:m].T
        proj = [core @ np.linalg.lstsq(core, v, rcond=None)[0] for v in V[m:]]
        assert rd.n_g == pytest.approx(np.linalg.norm(V[m] - proj[0]), abs=1e-12)
        assert rd.n_e == pytest.approx(np.linalg.norm(V[m + 1] - proj[1]), abs=1e-12)
        assert abs(rd.cross - proj[0] @ proj[1].conj()) <= 1e-12


@settings(derandomize=True, max_examples=60, deadline=None, database=None)
@given(seed=st.integers(0, 2 ** 16), d=st.sampled_from([1, 2, 3]), steps=st.integers(0, 30))
def test_level_kernel_matches_two_factor_oracle(seed, d, steps):
    # stage by stage: small residuals make whole walks drift with any
    # change of rounding
    rng = np.random.default_rng(seed)
    C = _open_walk(random_nspd(2, d, seed=seed))
    for _ in range(steps):
        C = extend_entry(C, 0.5 * rng.uniform() * np.exp(2j * np.pi * rng.uniform()))
    sp = build_partial_space(C)
    Q = stage_pairs(C.domain.g, d, C.domain.j, C.domain.k)[1]
    assert np.array_equal(sp.gram, _gram(C, Q, corner=1), equal_nan=True)
    assert matches_two_factor_residuals(residual_data(sp), sp)


def _copy(C):
    return PDFunction._from_stack(C.d, C.domain, np.array(C._stack))


def test_hand_off_leaves_the_predecessor_space_alone():
    C = restrict_to_stage(random_nspd(2, 2, seed=4, margin=0.2), "ab", 1, 2)
    sp = build_partial_space(C)
    rd = residual_data(sp)
    gram = np.array(sp.gram)
    nxt = extend_entry(C, 0.3 - 0.2j)
    handed = build_partial_space(nxt)
    m = sp.core_size
    assert np.isnan(sp.gram[m, m + 1]) and np.isnan(sp.gram[m + 1, m])
    assert np.array_equal(sp.gram, gram, equal_nan=True)
    assert residual_data(sp) == rd
    assert matches_two_factor_residuals(rd, sp)
    # the successor's space is the one a copy of it builds
    own = build_partial_space(_copy(nxt))
    assert residual_data(handed) == residual_data(own)
    assert matches_two_factor_residuals(residual_data(handed), own)
    assert np.array_equal(handed.gram, own.gram, equal_nan=True)
