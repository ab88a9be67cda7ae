import os
import time

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from freepd.errors import DomainError, NotStrictError, ParameterError
from freepd.extend import central_extension
from freepd.hilbert import residual_from_gram
from freepd.pdcore import (
    DEFAULT_TOL,
    Domain,
    PDFunction,
    delta,
    mix_with_delta,
    random_nspd,
    restrict_to_stage,
    stage_pairs,
)
from freepd.transport import (
    EnergyReport,
    _eigvalsh,
    _energy_report,
    _top_generalized_eig,
    energy_schedule,
    partial_relative_energy,
    perturbation_bound_check,
    relative_energy,
)
from freepd.words import ball, word_from_str
from helpers import letter_weights_function, random_search_energy, reference_gram


def _central_d1(ca, cb, R=2):
    return central_extension(letter_weights_function(ca, cb), R)


def test_identity_pair_has_unit_energy():
    for seed in range(5):
        d = 1 + seed % 2
        C = random_nspd(2, d, seed=seed)
        rep = relative_energy(C, C)
        assert isinstance(rep, EnergyReport)
        assert rep.restriction == "full"
        assert abs(rep.energy - 1.0) <= 1e-10
        assert len(rep.indices) == len(ball(1)) * d


def test_radius_zero_energy_is_one():
    C = random_nspd(2, 2, seed=3)
    D = random_nspd(2, 2, seed=4)
    rep = relative_energy(C, D, r=0)
    assert rep.energy == pytest.approx(1.0, abs=1e-12)
    assert len(rep.indices) == 2


def test_energy_bounds_and_rayleigh_certificate():
    for seed in range(8):
        d = 1 + seed % 2
        C = random_nspd(2, d, seed=10 + seed)
        D = random_nspd(2, d, seed=50 + seed)
        rep = relative_energy(C, D, r=1)
        assert rep.energy >= 1.0 - 1e-10
        x = rep.achieving_vector
        assert np.linalg.norm(x) == pytest.approx(1.0)
        G_C = reference_gram(C, rep.indices)
        G_D = reference_gram(D, rep.indices)
        ray = float(np.real(x.conj() @ G_D @ x) / np.real(x.conj() @ G_C @ x))
        assert abs(ray - rep.energy) <= 1e-8 * max(1.0, rep.energy)


def test_explicit_whitening_agrees_with_pencil_solver():
    # the top eigenvalue of L^-1 G_D L^-* with G_C = L L*, all in NumPy, not
    # through the LAPACK pencil routine the kernel calls
    for seed in range(10):
        d = 1 + seed % 2
        C = random_nspd(2, d, seed=200 + seed)
        D = random_nspd(2, d, seed=300 + seed)
        rep = relative_energy(C, D, r=1)
        G_C = reference_gram(C, rep.indices)
        G_D = reference_gram(D, rep.indices)
        L_inv = np.linalg.inv(np.linalg.cholesky(G_C))
        lam = np.linalg.eigvalsh(L_inv @ G_D @ L_inv.conj().T)[-1]
        assert abs(lam - rep.energy) <= 1e-9 * max(1.0, lam)


def test_pencil_on_an_ill_conditioned_base_matches_closed_form():
    # G_C has condition number 1e9; a rank-one raise u u* on top of it has
    # the single nontrivial generalized eigenvalue 1 + u* G_C^-1 u
    rng = np.random.default_rng(13)
    n = 8
    Q, _ = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    lam = np.ones(n)
    lam[-1] = 1e-9
    G_C = (Q * lam) @ Q.conj().T
    u = rng.normal(size=n) + 1j * rng.normal(size=n)
    G_D = G_C + np.outer(u, u.conj())
    vals, x = _top_generalized_eig(G_C, G_D)
    expected = 1.0 + float(np.sum(np.abs(Q.conj().T @ u) ** 2 / lam))
    assert vals[-1] == pytest.approx(expected, rel=1e-6)
    assert np.real(x.conj() @ G_C @ x) == pytest.approx(1.0, rel=1e-6)


def _random_hpd(rng, n):
    M = rng.normal(size=(n, 2 * n)) + 1j * rng.normal(size=(n, 2 * n))
    return M @ M.conj().T


def test_kernel_matches_scipy_bit_for_bit():
    # the pencil kernel calls zhegvd itself, and the strictness checks read
    # NumPy's eigvalsh behind a finiteness test; orders past LAPACK's block
    # size (32) are where a smaller work array would change the reduction
    rng = np.random.default_rng(29)
    for n in range(1, 41):
        G_C, G_D = _random_hpd(rng, n), _random_hpd(rng, n)
        for G in (G_C, G_D):
            assert np.array_equal(_eigvalsh(G), np.linalg.eigvalsh(G))
        vals, x = _top_generalized_eig(G_C, G_D)
        ref_vals, ref_vecs = scipy.linalg.eigh(G_D - G_C, G_C)
        assert np.array_equal(vals, ref_vals + 1.0)
        y = ref_vecs[:, -1]
        y = y / np.sqrt(np.real(np.conj(y) @ G_C @ y))
        i = int(np.argmax(np.abs(y)))
        assert np.array_equal(x, y * (np.conj(y[i]) / abs(y[i])))


def test_kernel_rejects_non_finite_grams():
    G = np.eye(3, dtype=complex)
    bad = G.copy()
    bad[2, 1] = complex("nan")
    with pytest.raises(ValueError):
        _eigvalsh(bad)
    with pytest.raises(ValueError):
        _top_generalized_eig(bad, G)
    bad[2, 1] = complex("inf")
    with pytest.raises(ValueError):
        _top_generalized_eig(G, bad)


@pytest.mark.parametrize("scale", [1.0, 0.5])
def test_energy_report_rejects_a_base_at_the_strictness_floor(scale):
    # a strict base Gram is the kernel's precondition, which _energy_report
    # checks after the comparison Gram; the stage pencils' own check is
    # tested in test_energysolver
    n = 3
    floor = scale * DEFAULT_TOL * n
    G_C = np.diag([floor, 1.0, 2.0]).astype(complex)
    assert _eigvalsh(G_C)[0] == floor
    with pytest.raises(NotStrictError, match="base Gram"):
        _energy_report(G_C, np.eye(n, dtype=complex), "full", [])
    with pytest.raises(NotStrictError, match="comparison Gram"):
        _energy_report(np.eye(n, dtype=complex), G_C, "full", [])
    with pytest.raises(NotStrictError, match="comparison Gram"):
        _energy_report(G_C, G_C, "full", [])


@pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2,
                    reason="a BLAS worker thread needs a second CPU")
def test_small_kernels_leave_no_blas_thread_spinning():
    # level-3 BLAS calls wake an OpenBLAS worker that then spins for about
    # 0.13 s of CPU; the pencil and residual kernels must not make them
    rng = np.random.default_rng(3)
    A, B, V = (rng.normal(size=(n, 2 * n)) + 1j * rng.normal(size=(n, 2 * n))
               for n in (12, 12, 34))
    G_C, G_D, G = (M @ M.conj().T for M in (A, B, V))
    G[-2, -1] = G[-1, -2] = complex("nan")
    time.sleep(0.3)  # let any worker woken before this test fall idle
    _top_generalized_eig(G_C, G_D)
    residual_from_gram(G, 32)
    start = time.process_time()
    time.sleep(0.3)
    assert time.process_time() - start < 0.03


def test_random_search_oracle_single_letter_example():
    C = _central_d1(0.5, 0.0)
    D = _central_d1(0.1, 0.0)
    rep = relative_energy(C, D, r=1)
    G_C = reference_gram(C, rep.indices)
    G_D = reference_gram(D, rep.indices)
    best = random_search_energy(G_C, G_D, seed=0)
    assert best <= rep.energy + 1e-9
    assert abs(best - rep.energy) <= 1e-3 * rep.energy


def test_partial_energy_symbolic_two_by_two():
    # Delta vs C(a)=c at stage (aa,1,1): both restrictions reduce to the
    # pencil ([[1, c],[conj(c), 1]], I) whose top eigenvalue is 1 + |c|;
    # swapping the roles inverts the spectrum, giving 1 / (1 - |c|).
    for c in (0.6, 0.45 * np.exp(1.1j), -0.3 + 0.2j):
        D = PDFunction(1, Domain.partial("aa", 1, 1), {"a": [[c]], "b": [[0]]})
        Cd = delta(1, Domain.partial("aa", 1, 1))
        fwd = partial_relative_energy(Cd, D)
        assert fwd.energy == pytest.approx(1 + abs(c), abs=1e-12)
        back = partial_relative_energy(D, Cd)
        assert back.energy == pytest.approx(1 / (1 - abs(c)), abs=1e-12)
    same = partial_relative_energy(D, D)
    assert same.energy == pytest.approx(1.0, abs=1e-10)


def test_partial_energy_matches_submatrix_oracle():
    rng = np.random.default_rng(8)
    stages = ["aa", "ab", "ba", "bb", "aB"]
    for seed in range(8):
        d = 1 + seed % 2
        g = word_from_str(stages[seed % len(stages)])
        j = int(rng.integers(1, d + 1))
        k = int(rng.integers(1, d + 1))
        C = restrict_to_stage(random_nspd(2, d, seed=seed), g, j, k)
        D = restrict_to_stage(random_nspd(2, d, seed=77 + seed), g, j, k)
        rep = partial_relative_energy(C, D)
        P, _ = stage_pairs(g, d, j, k)
        best = -np.inf
        for extra in ((g, j), ((), k)):
            pairs = list(P) + [extra]
            G_C = reference_gram(C, pairs)
            G_D = reference_gram(D, pairs)
            best = max(best, scipy.linalg.eigh(G_D, G_C, eigvals_only=True)[-1])
        assert abs(rep.energy - best) <= 1e-10 * max(1.0, best)
        assert rep.restriction in ("X_g", "X_e")


def test_energy_schedule_monotone():
    for seed in range(6):
        d = 1 + seed % 2
        C = random_nspd(4, d, seed=seed)
        D = random_nspd(4, d, seed=400 + seed)
        reps = energy_schedule(C, D, radii=[0, 1, 2])
        vals = [rep.energy for rep in reps]
        assert vals[0] == pytest.approx(1.0, abs=1e-12)
        for a, b in zip(vals, vals[1:]):
            assert b >= a - 1e-10
    same = energy_schedule(C, C, radii=[0, 1, 2])
    assert all(abs(rep.energy - 1) <= 1e-10 for rep in same)


def test_energy_submultiplicative_on_triples():
    for seed in range(5):
        d = 1 + seed % 2
        C = random_nspd(2, d, seed=seed)
        D = random_nspd(2, d, seed=31 + seed)
        E = random_nspd(2, d, seed=62 + seed)
        e_ce = relative_energy(C, E, r=1).energy
        e_cd = relative_energy(C, D, r=1).energy
        e_de = relative_energy(D, E, r=1).energy
        assert e_ce <= e_cd * e_de * (1 + 1e-8), seed


def test_energy_validation_errors():
    C = random_nspd(2, 1, seed=0)
    D = random_nspd(2, 1, seed=1)
    with pytest.raises(ParameterError):
        relative_energy(C, D, r=2)
    with pytest.raises(DomainError):
        relative_energy(C, random_nspd(2, 2, seed=1))
    with pytest.raises(DomainError):
        relative_energy(C, random_nspd(4, 1, seed=1))
    with pytest.raises(DomainError):
        relative_energy(restrict_to_stage(C, "aa", 1, 1), D)
    with pytest.raises(ParameterError):
        energy_schedule(C, D, radii=[1, 1])
    with pytest.raises(ParameterError):
        energy_schedule(C, D, radii=[])
    ones = PDFunction(1, Domain.ball(2), {w: [[1.0]] for w in ["a", "b", "aa", "ab", "aB", "ba", "bb", "Ab"]})
    with pytest.raises(NotStrictError):
        relative_energy(ones, D)
    with pytest.raises(NotStrictError):
        relative_energy(D, ones)
    with pytest.raises(DomainError):
        partial_relative_energy(C, D)


def test_partial_energy_needs_matching_stage():
    C = restrict_to_stage(random_nspd(2, 1, seed=0), "aa", 1, 1)
    D = restrict_to_stage(random_nspd(2, 1, seed=1), "ab", 1, 1)
    with pytest.raises(DomainError):
        partial_relative_energy(C, D)


def test_perturbation_trivial_and_closed_form():
    L = np.eye(2, dtype=complex)
    assert perturbation_bound_check(L, L, 0.3)
    sigma = 0.4
    x = sigma / 4
    M = np.sqrt(1 + x) * np.eye(2, dtype=complex)
    # premise: ||I - (1+x)I||_1 = 2x <= eta = sigma/2, so the check is live
    assert 2 * x <= sigma / 2
    assert perturbation_bound_check(L, M, sigma)
    assert np.linalg.norm(M @ np.linalg.inv(L), 2) <= 1 + sigma


def test_perturbation_property_random_pairs():
    rng = np.random.default_rng(19)
    for trial in range(60):
        sigma = 0.1 if trial % 2 == 0 else 0.5
        n = int(rng.integers(2, 6))
        L = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        L += n * np.eye(n)
        smin = np.linalg.svd(L, compute_uv=False)[-1]
        eta = sigma / (2.0 * (1.0 / smin) ** 2)
        E = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        E = E + E.conj().T
        E *= 0.9 * eta / max(np.abs(E).sum(), 1e-300)
        H = L.conj().T @ L + E
        M = np.linalg.cholesky(H).conj().T
        gap = np.abs(L.conj().T @ L - M.conj().T @ M).sum()
        assert gap <= eta, "premise should be active"
        assert perturbation_bound_check(L, M, sigma), trial


def test_perturbation_vacuous_and_errors():
    L = np.eye(3, dtype=complex)
    M = 5 * np.eye(3, dtype=complex)
    assert perturbation_bound_check(L, M, 0.1)  # premise fails, nothing to check
    with pytest.raises(ParameterError):
        perturbation_bound_check(np.zeros((2, 2)), L[:2, :2], 0.1)
    with pytest.raises(ParameterError):
        perturbation_bound_check(L, M, 0.0)
    with pytest.raises(ParameterError):
        perturbation_bound_check(L[:2], M, 0.1)


def test_perturbation_premise_admits_a_singular_m_once_sigma_reaches_two():
    # eta = sigma / 2 = 1 = ||I - 0||_1, so the premise holds, while the
    # backward operator L M^-1 does not exist: the bound fails
    assert perturbation_bound_check(np.eye(1), np.zeros((1, 1)), 2.0) is False


def test_mixing_toward_delta_lowers_energy_to_one():
    C = random_nspd(2, 1, seed=5)
    D = delta(1, Domain.ball(2))
    e_full = relative_energy(C, D, r=1).energy
    e_half = relative_energy(mix_with_delta(C, 0.5), D, r=1).energy
    assert 1.0 - 1e-12 <= e_half <= e_full + 1e-12


_seeds = st.integers(min_value=0, max_value=2**32 - 1)


@settings(derandomize=True, max_examples=40, deadline=None, database=None)
@given(seeds=st.tuples(_seeds, _seeds, _seeds), d=st.sampled_from([1, 2]))
def test_energy_axioms_hold_on_random_functions(seeds, d):
    A, B, C = (random_nspd(4, d, seed=s) for s in seeds)
    schedule = [rep.energy for rep in energy_schedule(A, C, radii=[0, 1, 2])]
    assert all(e >= 1.0 - 1e-10 for e in schedule)
    assert all(b >= a for a, b in zip(schedule, schedule[1:]))
    assert abs(relative_energy(C, C).energy - 1.0) <= 1e-10
    e_ab = relative_energy(A, B).energy
    e_bc = relative_energy(B, C).energy
    assert min(e_ab, e_bc) >= 1.0 - 1e-10
    assert schedule[-1] <= e_ab * e_bc * (1.0 + 1e-9)
