import hashlib
import json
from collections import Counter
from types import SimpleNamespace

import numpy as np
import pytest

from freepd import energysolver, transport
from freepd.energysolver import (
    Configuration,
    SingularityCertificate,
    configuration_from_dict,
    coordinate_rows,
    encost_report,
    energy_gradient,
    extension_components,
    make_singular,
    solve_configuration,
    solve_cycle_params,
    solve_edge,
    stage_energy,
)
from freepd.errors import (
    BudgetError,
    DegenerateAchieverError,
    DomainError,
    FormatError,
    FreePDError,
    NotStrictError,
    ParameterError,
    SingularizationError,
    SolveError,
)
from freepd.extend import SzegoParameter, _open_walk, central_extension
from freepd.hilbert import build_partial_space, residual_data
from freepd.pdcore import (
    DEFAULT_TOL,
    Domain,
    PDFunction,
    add_to_entries,
    check_pd,
    delta,
    l1_distance,
    random_nspd,
    restrict_to_ball,
    restrict_to_stage,
)
from freepd.transport import (
    _eigvalsh,
    _strict_min_eig,
    _top_generalized_eig,
    partial_relative_energy,
    relative_energy,
)
from freepd.words import ball
from helpers import (
    eta_budget_oracle,
    gram_schmidt_rows,
    mix_functions,
    novel_stages,
    source_loader,
    stage_function,
)


def _singular_pair(seed, eta=0.02):
    fam = [stage_function(seed), stage_function(seed + 50)]
    sing, certs = make_singular(fam, eta=eta, seed=seed)
    return fam, sing, certs[(0, 1)]


def _disk_point(rng, radius=0.6):
    z = rng.standard_normal() + 1j * rng.standard_normal()
    return radius * z / max(1.0, abs(z))


# ---------------------------------------------------------------------------
# coordinate rows
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("d", [1, 2, 3])
def test_coordinate_rows_match_the_gram_schmidt_oracle(d):
    B = random_nspd(3, d, seed=30 + d)
    # (a, 1, 1) has an empty core: K_a = {e, a}
    assert coordinate_rows(restrict_to_stage(B, "a", 1, 1)).shape == (0, 2)
    for g in ("a", "aa", "aB", "abA"):
        for j in range(1, d + 1):
            for k in range(1, d + 1):
                C = restrict_to_stage(B, g, j, k)
                sp = build_partial_space(C)
                m = sp.core_size
                A = coordinate_rows(C)
                assert A.shape == (m, m + 2)
                assert np.abs(A - gram_schmidt_rows(sp.gram, m)).max(initial=0.0) <= 1e-12


# ---------------------------------------------------------------------------
# make_singular
# ---------------------------------------------------------------------------


def test_make_singular_single_function_is_vacuous():
    fam = [stage_function(3)]
    out, certs = make_singular(fam, eta=1e-3, seed=0)
    assert len(out) == 1 and certs == {}
    assert l1_distance(out[0], fam[0]) <= 1e-3 + 1e-12
    assert check_pd(out[0]).status == "strict"


def test_make_singular_pair_obeys_budget_and_separates():
    for seed in (0, 4, 9):
        fam, sing, cert = _singular_pair(seed, eta=1e-3)
        for before, after in zip(fam, sing):
            assert l1_distance(before, after) <= 1e-3 + 1e-12
            assert check_pd(after).status == "strict"
        assert isinstance(cert, SingularityCertificate)
        assert cert.kappa > 0 and cert.theta > 0
        # joint kernel triviality, measured directly on the outputs: no unit
        # vector is simultaneously small for both coordinate-row maps
        A0 = coordinate_rows(sing[0])
        A1 = coordinate_rows(sing[1])
        H = A0.conj().T @ A0 + A1.conj().T @ A1
        ev = np.linalg.eigvalsh(H)
        assert ev[0] > 0.0
        assert ev[0] / ev[-1] >= 1e-8


def test_make_singular_draws_again_when_a_candidate_is_rejected(monkeypatch):
    # in the point mass the working vectors are orthogonal to Theta(a)_1 and
    # Theta(aa)_1, so W' vanishes and its unperturbed candidate is rejected;
    # its first draw, inflated a thousandfold, passes W' but not strictness
    S = stage_function(3)
    fam, eta = [S, delta(1, S.domain)], 0.02
    draws, ratios, inflate = [], [], [1000.0]
    real_draw, real_ratio = energysolver._l1_ball_sample, energysolver._wprime_ratio
    monkeypatch.setattr(energysolver, "_l1_ball_sample", lambda *args: draws.append(
        real_draw(*args) * (inflate.pop() if inflate else 1.0)) or draws[-1])
    monkeypatch.setattr(energysolver, "_wprime_ratio",
                        lambda *args: ratios.append(real_ratio(*args)) or ratios[-1])
    out, certs = make_singular(fam, eta=eta, seed=1)
    # member 0 passes unperturbed; member 1 fails W' unperturbed, then
    # strictness alone on the inflated draw, and passes a later draw
    assert ratios[0] >= energysolver.DET_TOL and ratios[1] == 0.0
    assert ratios[2] >= energysolver.DET_TOL and np.abs(draws[0]).sum() > 1.0
    assert len(draws) == len(ratios) - 2 >= 2 and ratios[-1] >= energysolver.DET_TOL
    assert np.abs(draws[-1]).sum() <= eta / 4
    # the draw shifts four entries of distinct canonical rows, each counted
    # with its mirror, and the mixing toward the point mass only shrinks them
    assert 0 < l1_distance(out[1], fam[1]) <= 2 * np.abs(draws[-1]).sum()
    assert all(check_pd(C).status == "strict" for C in out)
    cert = certs[(0, 1)]
    assert list(certs) == [(0, 1)] and cert.kappa > 0 and cert.theta > 0


@pytest.mark.parametrize("member", [0, 1])
def test_make_singular_names_the_member_no_draw_admits(monkeypatch, member):
    fam = [stage_function(3), stage_function(53)]
    real, tried = energysolver._wprime_ratio, []

    def ratio(C, *args):
        # a candidate lies within eta / 2 of its member in l1, and the two
        # members lie farther apart
        tried.append(l1_distance(C, fam[member]) <= 0.01)
        return 0.0 if tried[-1] else real(C, *args)

    monkeypatch.setattr(energysolver, "_wprime_ratio", ratio)
    message = f"perturbation for member {member} within {energysolver.MAX_TRIES} samples"
    with pytest.raises(SingularizationError, match=message):
        make_singular(fam, eta=0.02, seed=0)
    assert tried.count(True) == energysolver.MAX_TRIES


def test_make_singular_raises_when_no_mixing_offset_separates(monkeypatch):
    offsets = []
    monkeypatch.setattr(energysolver, "_pairs_separated",
                        lambda rows: offsets.append(rows) or False)
    with pytest.raises(SingularizationError, match="no mixing offset separated"):
        make_singular([stage_function(3), stage_function(53)], eta=0.02, seed=0)
    assert len(offsets) == energysolver.S_GRID


def test_pairs_separated_fails_on_a_shared_kernel_vector():
    e = np.eye(3, dtype=complex)
    # e[2] is killed by both e[:1] and e[1:2]; e[1:] moves it
    assert not energysolver._pairs_separated([e[:1], e[1:2]])
    assert energysolver._pairs_separated([e[:1], e[1:]])
    # every pair is checked: only the last one shares a kernel vector
    assert not energysolver._pairs_separated([e[1:], e[:1], e[1:2]])


def test_make_singular_raises_when_a_kernel_separation_collapses(monkeypatch):
    # a zero kernel column is moved by no row matrix: theta reads 0
    monkeypatch.setattr(energysolver._linalg, "null_space",
                        lambda A: np.zeros((A.shape[1], 1), dtype=complex))
    with pytest.raises(SingularizationError,
                       match=r"kernel separation collapsed for the pair \(0, 1\)"):
        make_singular([stage_function(3), stage_function(53)], eta=0.02, seed=0)


def test_make_singular_rejects_short_stages_and_bad_input():
    short = [stage_function(1, gs="aaa"), stage_function(2, gs="aaa")]
    with pytest.raises(ParameterError):
        make_singular(short, eta=1e-3)
    good = [stage_function(1)]
    with pytest.raises(ParameterError):
        make_singular(good, eta=0.0)
    with pytest.raises(ParameterError):
        make_singular(good, eta=-0.5)
    with pytest.raises(ParameterError):
        make_singular([], eta=1e-3)
    with pytest.raises(DomainError, match="different stages"):
        make_singular(good + [stage_function(2, gs="aaaab")], eta=1e-3)
    with pytest.raises(NotStrictError, match="member 1 is not strict"):
        make_singular(good + [add_to_entries(good[0], [("a", 1, 1)], [3.0])], eta=1e-3)


def test_certificate_bound_below_measured_energies():
    rng = np.random.default_rng(42)
    _, sing, cert = _singular_pair(6, eta=0.02)
    for _ in range(20):
        z = _disk_point(rng, radius=0.8)
        mu = _disk_point(rng, radius=0.8)
        e = stage_energy(sing[0], sing[1], z, mu)
        assert e >= cert.bound(z) * (1.0 - 1e-6)


# ---------------------------------------------------------------------------
# gradients and transported scalars
# ---------------------------------------------------------------------------


def test_gradient_vanishes_for_identical_pair_at_equal_parameters():
    C = stage_function(11)
    for z in (0j, 0.3 + 0.2j, -0.5j):
        assert stage_energy(C, C, z, z) == pytest.approx(1.0, abs=1e-10)
        for side in ("zeta", "mu"):
            for s in (1, -1, 1j, -1j):
                assert energy_gradient(C, C, z, z, side, s) == 0.0


def test_gradient_vanishes_orthogonal_to_coupling():
    rng = np.random.default_rng(7)
    for seed in range(4):
        C = stage_function(120 + seed)
        D = stage_function(170 + seed)
        z, mu = _disk_point(rng), _disk_point(rng)
        comp = extension_components(C, D, SzegoParameter(z), SzegoParameter(mu))
        pair = comp.alpha_pair
        assert abs(pair) > 1e-12
        # rotate the direction a quarter turn away from the coupling
        s = 1j * np.conj(pair) / abs(pair)
        d = energy_gradient(C, D, z, mu, "zeta", s)
        assert abs(d) <= 1e-9 * max(1.0, comp.energy)


def test_gradient_matches_central_differences():
    """Both directional-derivative formulas against a frozen FD oracle."""
    rng = np.random.default_rng(13)
    h = 1e-5
    checked = 0
    for seed in (0, 3, 8, 14, 21, 30):
        _, sing, _ = _singular_pair(seed)
        C, D = sing
        z, mu = _disk_point(rng), _disk_point(rng)
        for s in (1.0, 1j):
            an_z = energy_gradient(C, D, z, mu, "zeta", s)
            fd_z = (stage_energy(C, D, z + h * s, mu)
                    - stage_energy(C, D, z - h * s, mu)) / (2 * h)
            assert abs(an_z - fd_z) <= 1e-4 * max(1.0, abs(fd_z))
            an_m = energy_gradient(C, D, z, mu, "mu", s)
            fd_m = (stage_energy(C, D, z, mu + h * s)
                    - stage_energy(C, D, z, mu - h * s)) / (2 * h)
            assert abs(an_m - fd_m) <= 1e-4 * max(1.0, abs(fd_m))
            checked += 2
    assert checked == 24


def test_transport_scalars_match_measured_derivatives():
    """The target-side coupling recovered from finite differences.

    The two axis derivatives on the mu side determine beta conj(beta')
    completely, so this pins the transported scalars (and the residual-norm
    rescaling behind them) against plain energy evaluations.
    """
    rng = np.random.default_rng(9)
    h = 1e-5
    from freepd.extend import extend_ball
    from helpers import seeded_rim_policy

    for t in range(6):
        A2 = random_nspd(2, 1, seed=500 + t)
        B2 = random_nspd(2, 1, seed=600 + t)
        pol = seeded_rim_policy(77 + t)
        C = restrict_to_stage(extend_ball(A2, 5, policy=pol), "aaaaa", 1, 1)
        pol = seeded_rim_policy(77 + t)
        D = restrict_to_stage(
            extend_ball(mix_functions(A2, B2, 0.2), 5, policy=pol),
            "aaaaa", 1, 1)
        z, mu = _disk_point(rng, 0.4), _disk_point(rng, 0.4)
        comp = extension_components(C, D, SzegoParameter(z), SzegoParameter(mu))
        d_re = (stage_energy(C, D, z, mu + h)
                - stage_energy(C, D, z, mu - h)) / (2 * h)
        d_im = (stage_energy(C, D, z, mu + 1j * h)
                - stage_energy(C, D, z, mu - 1j * h)) / (2 * h)
        measured = complex(d_re / 2.0, -d_im / 2.0)
        assert abs(measured - comp.beta_pair) <= 1e-6 * abs(comp.beta_pair)


# ---------------------------------------------------------------------------
# per-edge and cycle solves
# ---------------------------------------------------------------------------


def test_solve_edge_identical_functions_reaches_unit_energy():
    C = stage_function(17)
    for mu in (0j, 0.3 + 0.1j):
        zeta = solve_edge(C, C, mu)
        e = stage_energy(C, C, zeta.value, mu)
        assert e <= 1.0 + 1e-6


def test_solve_edge_singular_pairs_converge_fast_and_stationary():
    rng = np.random.default_rng(31)
    for seed in (2, 12, 33):
        _, sing, _ = _singular_pair(seed)
        C, D = sing
        mu = _disk_point(rng, 0.5)
        base = partial_relative_energy(C, D).energy
        # the iteration cap doubles as the convergence-speed assertion
        zeta = solve_edge(C, D, mu, max_iter=1000)
        e = stage_energy(C, D, zeta.value, mu)
        assert e <= base + 1e-6
        for s in (1, -1, 1j, -1j):
            assert abs(energy_gradient(C, D, zeta.value, mu, "zeta", s)) <= 1e-6


def _completed(space, rd, zeta):
    """A stage Gram with its working corner filled, built independently."""
    G = np.array(space.gram)
    m = space.core_size
    G[m, m + 1] = zeta * (rd.n_g * rd.n_e) + rd.cross
    G[m + 1, m] = np.conj(G[m, m + 1])
    return G


def test_stage_pencil_keeps_its_last_success_and_no_failure(monkeypatch):
    C, D = stage_function(3), stage_function(53)
    pencil = energysolver._StagePencil(C, D)
    real = energysolver._top_generalized_eig
    solved = []

    def flaky(G_C, G_D):
        solved.append(G_C.tobytes() + G_D.tobytes())
        if len(solved) in (1, 3):
            raise NotStrictError("the base Gram matrix is not strictly positive")
        return real(G_C, G_D)

    monkeypatch.setattr(energysolver, "_top_generalized_eig", flaky)
    p, q = (0.3 - 0.1j, 0.2j), (-0.25 + 0j, 0.1 + 0.1j)
    with pytest.raises(NotStrictError):
        pencil.solve(*p)
    # the failure was not kept: the same point is solved again, for real
    vals, x = pencil.solve(*p)
    assert len(solved) == 2 and solved[0] == solved[1]
    spC, spD = build_partial_space(C), build_partial_space(D)
    want_vals, want_x = real(_completed(spC, residual_data(spC), p[0]),
                             _completed(spD, residual_data(spD), p[1]))
    assert vals.tobytes() == want_vals.tobytes() and x.tobytes() == want_x.tobytes()
    # a success is solved once
    assert pencil.solve(*p)[0] is vals
    assert len(solved) == 2
    # a failure elsewhere keeps the last success; one entry, so q replaces p
    with pytest.raises(NotStrictError):
        pencil.solve(*q)
    assert pencil.solve(*p)[0] is vals and len(solved) == 3
    pencil.solve(*q)
    pencil.solve(*q)
    assert len(solved) == 4
    assert pencil.solve(*p)[0].tobytes() == want_vals.tobytes() and len(solved) == 5


def test_stage_pencil_reads_energy_value_and_coupling(monkeypatch):
    C, D = stage_function(3), stage_function(53)
    with pytest.raises(DomainError, match="different stages"):
        energysolver._StagePencil(C, stage_function(4, gs="aaaab"))
    with pytest.raises(DomainError, match="different dimensions"):
        energysolver._StagePencil(C, stage_function(4, d=2))
    z, mu = 0.3 - 0.1j, 0.2j
    comp = extension_components(C, D, z, mu)
    pencil = energysolver._StagePencil(C, D)
    top, pair = pencil.coupling(z, mu)
    assert top == pencil.value(z, mu) == pencil.energy(SzegoParameter(z), mu) == comp.energy
    assert pair * pencil.scale_C == pytest.approx(comp.alpha_pair, rel=1e-12)
    # equal Grams collapse the spectrum: every vector achieves, no coupling
    same = energysolver._StagePencil(C, C)
    assert same.coupling(z, z) == (pytest.approx(1.0, abs=1e-10), 0j)

    def failing(G_C, G_D):
        raise NotStrictError("the base Gram matrix is not strictly positive")

    monkeypatch.setattr(energysolver, "_top_generalized_eig", failing)
    assert pencil.value(0.1, mu) == np.inf
    with pytest.raises(NotStrictError):
        pencil.coupling(0.1, mu)


def _counting_checks(monkeypatch):
    """The base Grams stage pencils hand to _strict_min_eig, as bytes."""
    real, checked = energysolver._strict_min_eig, []

    def counting(G, name):
        if name == "the base Gram matrix":
            checked.append(G.tobytes())
        return real(G, name)

    monkeypatch.setattr(energysolver, "_strict_min_eig", counting)
    return checked


def _checked_solve(spC, rdC, spD, rdD, zeta_c, zeta_d):
    """A stage pencil's solve as it was before the certificate: every base
    Gram checked by _strict_min_eig, then the kernel."""
    G_C = _completed(spC, rdC, zeta_c)
    _strict_min_eig(G_C, "the base Gram matrix")
    return _top_generalized_eig(G_C, _completed(spD, rdD, zeta_d))


def _outcome(solve, *point):
    try:
        vals, x = solve(*point)
    except (FreePDError, ValueError, np.linalg.LinAlgError) as exc:
        return type(exc), str(exc)
    return vals.tobytes(), x.tobytes()


def _corner_walk(rng, steps=60):
    """Source parameters: small steps, jumps, returns to earlier points and
    points on both sides of the rim, where the base Gram turns singular."""
    walk = [_disk_point(rng)]
    for _ in range(steps):
        move = rng.choice(4, p=[0.6, 0.15, 0.15, 0.1])
        if move == 0:
            z = walk[-1] + 1e-3 * (rng.standard_normal() + 1j * rng.standard_normal())
        elif move == 1:
            z = _disk_point(rng, radius=0.95)
        elif move == 2:
            z = walk[rng.integers(len(walk))]
        else:
            phase = np.exp(2j * np.pi * rng.random())
            z = phase * (1.0 - rng.choice([1e-2, 1e-5, 1e-8, 1e-9, 1e-10, 1e-11, 0.0, -1e-9]))
        walk.append(complex(z))
    return walk


@pytest.mark.parametrize("seed", [3, 11, 19])
def test_stage_pencil_certificate_keeps_every_solve_bit_for_bit(seed, monkeypatch):
    C, D = stage_function(seed), stage_function(seed + 50)
    spC, spD = build_partial_space(C), build_partial_space(D)
    rdC, rdD = residual_data(spC), residual_data(spD)
    pencil = energysolver._StagePencil(C, D)
    checked = _counting_checks(monkeypatch)
    rng = np.random.default_rng(seed)
    walk = _corner_walk(rng)
    outcomes = Counter()
    for zeta_c in walk:
        zeta_d = _disk_point(rng) if rng.random() < 0.5 else 0.2j
        want = _outcome(lambda *p: _checked_solve(spC, rdC, spD, rdD, *p), zeta_c, zeta_d)
        before = len(checked)
        assert _outcome(pencil.solve, zeta_c, zeta_d) == want
        outcomes[want[0] is NotStrictError, len(checked) == before] += 1
    # the walk fails the check, passes it, and is certified without it
    assert outcomes[True, False] and outcomes[False, False] and outcomes[False, True]
    assert outcomes[True, True] == 0
    for bad in (complex("nan"), complex(0.1, float("nan")), complex("inf")):
        with pytest.raises(ValueError):
            pencil.solve(bad, 0.2j)


def test_stage_pencil_certifies_no_corner_at_or_below_the_floor(monkeypatch):
    C, D = stage_function(7, gs="aaa"), stage_function(57, gs="aaa")
    spC = build_partial_space(C)
    rdC = residual_data(spC)
    pencil = energysolver._StagePencil(C, D)
    checked = _counting_checks(monkeypatch)
    floor = DEFAULT_TOL * len(spC.gram)

    def least(zeta):
        return _eigvalsh(_completed(spC, rdC, zeta))[0]

    # the base Gram's least eigenvalue falls through the floor near zeta = 1
    lo, hi = 0.5, 1.0
    assert least(lo) > floor >= least(hi)
    for _ in range(60):
        mid = (lo + hi) / 2
        lo, hi = (mid, hi) if least(mid) > floor else (lo, mid)
    # close in on the crossing a quarter of the remaining way at a time, then
    # step past it
    walk = [lo - 0.25 * 0.75 ** k for k in range(80)] + [hi, hi + 1e-12, 1.0]
    certified = 0
    for zeta in walk:
        before = len(checked)
        strict = least(zeta) > floor
        if strict:  # the kernel may still fail its Rayleigh certificate here
            pencil.value(zeta, 0j)
        else:
            with pytest.raises(NotStrictError, match="base Gram"):
                pencil.solve(zeta, 0j)
        if len(checked) == before:
            certified += 1
            assert strict
    assert certified > 10 and len(checked) > 1
    # at a fresh reference, a corner whose Weyl bound clears the floor by
    # less than the slack is checked, and one that clears it by more is not
    pencil.solve(0.5, 0j)
    c_ref, lam_ref = pencil._ref
    assert c_ref == 0.5 * pencil.scale_C + pencil._cross_C and lam_ref == least(0.5)
    for margin, checks in ((0.5, 1), (2.0, 0)):
        before = len(checked)
        c = c_ref + (lam_ref - floor - margin * pencil._slack)
        pencil.solve((c - pencil._cross_C) / pencil.scale_C, 0j)
        assert len(checked) - before == checks
        pencil.solve(0.5, 0j)


@pytest.mark.parametrize("scale", [1.0, 0.5])
def test_stage_pencil_rejects_a_base_at_the_strictness_floor(scale, monkeypatch):
    # the floor moved onto the least eigenvalue of a completed base Gram of
    # order 4, where scale * tol * n is exact
    C, D = stage_function(3, gs="aaa"), stage_function(53, gs="aaa")
    spC = build_partial_space(C)
    rdC = residual_data(spC)
    G_C = _completed(spC, rdC, 0.9)
    n = len(G_C)
    lam = _eigvalsh(G_C)[0]
    tol = lam / (scale * n)
    assert n == 4 and scale * tol * n == lam
    assert _eigvalsh(_completed(spC, rdC, 0j))[0] > lam / scale  # the reference clears it
    pencil = energysolver._StagePencil(C, D)
    pencil.solve(0j, 0j)
    for module in (transport, energysolver):
        monkeypatch.setattr(module, "DEFAULT_TOL", tol)
    with pytest.raises(NotStrictError, match="base Gram"):
        pencil.solve(0.9, 0j)
    assert pencil.value(0.9, 0j) == np.inf


def test_solve_edge_raises_with_best_iterate_on_tiny_cap():
    _, sing, _ = _singular_pair(2)
    with pytest.raises(SolveError) as info:
        solve_edge(sing[0], sing[1], 0.4 + 0.1j, max_iter=2)
    assert info.value.best is not None
    assert info.value.value is not None


# ---------------------------------------------------------------------------
# the descents' recovery branches, on scripted pencils
# ---------------------------------------------------------------------------


class _ScriptedPencil:
    """A stand-in stage pencil with top energy floor + 5 |z - centre|^2.

    z is the source parameter; the target parameter is ignored, so scale_D
    is 0, and the coupling is the one that makes the descents' gradients
    exact.  Every request goes to the shared log as (kind, z).  script maps
    a request's number, counted from 1 over the log, to an exception to
    raise or to the answer to give in place of the model's.
    """

    scale_C, scale_D = 1.0, 0.0

    def __init__(self, centre, floor, script=(), log=None):
        self.centre, self.floor = centre, floor
        self.script = dict(script)
        self.log = [] if log is None else log

    def _request(self, kind, z):
        self.log.append((kind, z))
        out = self.script.get(len(self.log))
        if isinstance(out, Exception):
            raise out
        return out

    def _energy(self, z):
        return self.floor + 5.0 * abs(z - self.centre) ** 2

    def value(self, zeta_c, zeta_d):
        out = self._request("value", zeta_c)
        return self._energy(zeta_c) if out is None else out

    def coupling(self, zeta_c, zeta_d):
        out = self._request("coupling", zeta_c)
        if out is not None:
            return out
        e = self._energy(zeta_c)
        return e, -np.conj(10.0 * (zeta_c - self.centre)) / (2.0 * e)


def _log_digest(log):
    points = np.array([z for _, z in log], dtype=complex)
    return hashlib.sha256(points.tobytes()).hexdigest()[:16]


def _log_kinds(log):
    return "".join(kind[0] for kind, _ in log)


_BASE = 1.5  # the partial energy; the edge target is _BASE + TOL_EDGE
_DEGENERATE = DegenerateAchieverError("top eigenvalues too close")
_UNCERTIFIED = NotStrictError("the base Gram matrix is not strictly positive")

# name: (centre, floor, script, request kinds, outcome, iterations, digest).
# Requests are numbered from 1; the outcome is the returned zeta, or the
# SolveError's (best, value).  From zeta = 0 with centre 1e-4 the energy
# target is met at once and the Newton candidate (requests 2-5 probe, 6
# evaluates) lands on the centre; from centre 0.5 one Armijo step does.
EDGE_RECOVERY = {
    # the unscripted path, for reference
    "newton": (1e-4, _BASE, {}, "c" * 7, 9.999999999999973e-05, 2, "6a23781591746400"),
    # an iterate the descent cannot use, with the best point at the target:
    # the best point (zeta = 0), not the iterate, is returned
    "degenerate at target": (1e-4, _BASE, {7: _DEGENERATE}, "c" * 7, 0j, 2,
                             "6a23781591746400"),
    "uncertified at target": (1e-4, _BASE, {7: _UNCERTIFIED}, "c" * 7, 0j, 2,
                              "6a23781591746400"),
    # ... above the target: a degenerate point is bumped aside, an
    # uncertifiable one (request 3, at 0.5) moved inward to 0.495
    "degenerate above target": (0.5, _BASE, {1: _DEGENERATE}, "ccvc", 0.5 + 0j, 3,
                                "ddfea04c24d552ef"),
    "uncertified above target": (0.5, _BASE, {3: _UNCERTIFIED}, "cvccvc", 0.5 + 0j, 4,
                                 "e2531a1fd81e9391"),
    # a flat spot above an unreachable target: 8 bumps, then the cap on them
    "flat": (0j, _BASE + 1.0, {}, "c" + "cvc" * 8, (0j, _BASE + 1.0), 17,
             "0c5460364cbd30e2"),
    # every point unusable: 8 bumps (aside / inward, and 0.99 * 0 = 0)
    "degenerate throughout": (0.5, _BASE, {n: _DEGENERATE for n in range(1, 10)},
                              "c" * 9, (0j, np.inf), 9, "ef6ef3c291f60ced"),
    "uncertified throughout": (0.5, _BASE, {n: _UNCERTIFIED for n in range(1, 10)},
                               "c" * 9, (0j, np.inf), 9, "81c611f35bff7949"),
    # an Armijo search that runs out of steps (0.1 halved down to 1e-18, 57
    # trial points): at the target the current point is returned, above it
    # the point is bumped aside
    "armijo exhausted at target": (
        1e-4, _BASE, {6: _UNCERTIFIED, **{n: np.inf for n in range(7, 64)}},
        "c" * 6 + "v" * 57, 0j, 1, "6ababbc42c836d54"),
    "armijo exhausted above target": (
        0.5, _BASE, {n: np.inf for n in range(2, 59)},
        "c" + "v" * 57 + "cvc", 0.5 + 0j, 3, "c2c4de418de64a14"),
    # the Newton candidate fails three ways, and one Armijo step follows
    "newton probe raises": (1e-4, _BASE, {2: _UNCERTIFIED}, "ccvc", 1e-4 + 0j, 2,
                            "54ba290bd8cb5956"),
    "newton jacobian singular": (1e-4, _BASE, {n: (_BASE, 0j) for n in range(2, 6)},
                                 "c" * 5 + "vc", 1e-4 + 0j, 2, "affa57a700930114"),
    "newton candidate uncertified": (1e-4, _BASE, {6: _UNCERTIFIED}, "c" * 6 + "vc",
                                     1e-4 + 0j, 2, "8e4d4672a8416f60"),
}


def _scripted_edge(monkeypatch, centre, floor, script, max_iter):
    pencil = _ScriptedPencil(centre, floor, script)
    monkeypatch.setattr(energysolver, "_StagePencil", lambda C, D: pencil)
    monkeypatch.setattr(energysolver, "partial_relative_energy",
                        lambda C, D: SimpleNamespace(energy=_BASE))
    try:
        outcome = solve_edge(None, None, 0.25j, max_iter=max_iter, seed=7).value
    except SolveError as exc:
        outcome = exc
    return outcome, pencil.log


@pytest.mark.parametrize("name", sorted(EDGE_RECOVERY))
def test_edge_descent_recovery_branches_keep_their_trajectories(name, monkeypatch):
    centre, floor, script, kinds, want, iterations, digest = EDGE_RECOVERY[name]
    got, log = _scripted_edge(monkeypatch, centre, floor, script, max_iter=100)
    assert _log_kinds(log) == kinds
    assert _log_digest(log) == digest
    if isinstance(want, tuple):
        assert (got.best.value, got.value) == want
        assert str(got).endswith(f"after {iterations} iterations")
        return
    assert got == want
    # the point is returned at iteration `iterations`: one fewer runs out
    short, _ = _scripted_edge(monkeypatch, centre, floor, script, max_iter=iterations - 1)
    assert isinstance(short, SolveError)
    assert str(short).endswith(f"after {iterations - 1} iterations")


_CYCLE_BASE = (1.5, 1.25)


def _scripted_cycle(monkeypatch, centres, script):
    log = []
    pencils = [_ScriptedPencil(c, b, script, log) for c, b in zip(centres, _CYCLE_BASE)]
    monkeypatch.setattr(energysolver, "_cycle_pencils", lambda family: pencils)
    params = solve_cycle_params([None, None], _CYCLE_BASE, seed=7)
    return [p.value for p in params], log


# The first draw of the descents' seed-7 bumps, 1e-7 * _unit(rng).
_BUMP = 4.1176947405490066e-10 + 9.999915222590758e-08j


@pytest.mark.parametrize("edge", [0, 1])
def test_cycle_descent_nudges_the_degenerate_edge(edge, monkeypatch):
    # at zeta = 0 both energies sit at their bases, so the chain phase has
    # nothing to do (requests 1-2); the first residual pass finds edge `edge`
    # degenerate, and that edge's source parameter alone is bumped aside
    params, log = _scripted_cycle(monkeypatch, (0j, 0j), {3 + edge: _DEGENERATE})
    assert params == [_BUMP if i == edge else 0j for i in range(2)]
    assert log[:3 + edge] == [("value", 0j), ("value", 0j)] + [("coupling", 0j)] * (1 + edge)
    # the bumped point is satisfied with couplings below PAIR_STOP
    assert log[3 + edge:] == [("coupling", z) for z in params]


def test_cycle_descent_nudges_every_parameter_when_no_damping_moves(monkeypatch):
    # requests 1-2 read the bases, so the chain phase is skipped; the first
    # residual pass (3-4) is off target, and all 40 damped trial points
    # (5-44) read an infinite objective, so every parameter is bumped; the
    # bumped point (45-46) is scripted onto the target with no coupling
    script = {1: _CYCLE_BASE[0], 2: _CYCLE_BASE[1],
              **{n: np.inf for n in range(5, 45)},
              45: (_CYCLE_BASE[0], 0j), 46: (_CYCLE_BASE[1], 0j)}
    params, log = _scripted_cycle(monkeypatch, (0.3, -0.2j), script)
    assert _log_kinds(log) == "vvcc" + "v" * 40 + "cc"
    assert [z for _, z in log[:4]] == [0j] * 4
    # a trial reads edge 0 only: an infinite energy ends the objective's sum
    assert len({z for _, z in log[4:44]}) == 40
    assert [z for _, z in log[44:]] == params
    assert params[0] == _BUMP and 0.0 < abs(params[1]) <= 1e-7 + 1e-20
    assert _log_digest(log) == "bf5ca170205a3611"


def test_solve_cycle_identical_pair_zero_objective():
    C = stage_function(23)
    params = solve_cycle_params([C, C])
    f = sum(
        (stage_energy(C, C, params[i].value, params[(i + 1) % 2].value) - 1.0) ** 2
        for i in range(2)
    )
    assert f <= 1e-12


def test_solve_cycle_singular_triple_couplings_collapse():
    fam = [stage_function(20 + i) for i in range(3)]
    sing, _ = make_singular(fam, eta=0.05, seed=3)
    bases = [
        partial_relative_energy(sing[i], sing[(i + 1) % 3]).energy
        for i in range(3)
    ]
    assert all(b > 1.01 for b in bases)
    params = solve_cycle_params(sing, bases)
    for i in range(3):
        z, mu = params[i].value, params[(i + 1) % 3].value
        e = stage_energy(sing[i], sing[(i + 1) % 3], z, mu)
        assert e <= bases[i] + 1e-5
        comp = extension_components(
            sing[i], sing[(i + 1) % 3], params[i], params[(i + 1) % 3])
        # a joint minimum of the cycle objective with every base energy
        # above one forces all the couplings to die
        assert abs(comp.alpha_pair) <= 1e-5


def test_solve_cycle_needs_at_least_two_functions():
    C = stage_function(23)
    with pytest.raises(ParameterError):
        solve_cycle_params([C])
    with pytest.raises(ParameterError):
        solve_cycle_params([C, C], base_energies=[1.0])


# ---------------------------------------------------------------------------
# configurations and the driver
# ---------------------------------------------------------------------------


def _ball2_family(weight=0.008, d=1, seeds=(100, 101, 102, 103)):
    base = random_nspd(2, d, seed=seeds[0])
    return [
        mix_functions(base, random_nspd(2, d, seed=s), weight)
        for s in seeds[1:]
    ]


def _path_config(fns, r=1):
    return Configuration(
        shape="tree", r=r, d=1, vertices=("a", "b", "c"),
        edges=(("a", "b"), ("b", "c")),
        functions=dict(zip("abc", fns)), root="c",
    )


def _cycle_config(fns, r=1):
    return Configuration(
        shape="cycle", r=r, d=1, vertices=("a", "b", "c"),
        edges=(("a", "b"), ("b", "c"), ("c", "a")),
        functions=dict(zip("abc", fns)),
    )


def test_configuration_validation():
    fns = _ball2_family()
    with pytest.raises((ParameterError, DomainError)):
        _cycle_config(fns[:2] + [random_nspd(2, 2, seed=1)])  # d mismatch
    with pytest.raises(ParameterError):
        Configuration(shape="ring", r=1, d=1, vertices=("a", "b"),
                      edges=(("a", "b"), ("b", "a")),
                      functions={"a": fns[0], "b": fns[1]})
    with pytest.raises(ParameterError):
        # tree without a root
        Configuration(shape="tree", r=1, d=1, vertices=("a", "b"),
                      edges=(("a", "b"),),
                      functions={"a": fns[0], "b": fns[1]})
    with pytest.raises(ParameterError):
        # root may not carry an outgoing edge
        Configuration(shape="tree", r=1, d=1, vertices=("a", "b"),
                      edges=(("a", "b"),),
                      functions={"a": fns[0], "b": fns[1]}, root="a")
    with pytest.raises(ParameterError):
        # self-loop
        Configuration(shape="cycle", r=1, d=1, vertices=("a",),
                      edges=(("a", "a"),), functions={"a": fns[0]})
    with pytest.raises(ParameterError):
        # cycle must visit every vertex once
        Configuration(shape="cycle", r=1, d=1, vertices=("a", "b", "c"),
                      edges=(("a", "b"), ("b", "a"), ("c", "c")),
                      functions=dict(zip("abc", fns)))
    with pytest.raises((ParameterError, DomainError)):
        # functions on the wrong ball
        small = {v: random_nspd(1, 1, seed=i) for i, v in enumerate("abc")}
        _cycle_config([small["a"], small["b"], small["c"]])


def test_configuration_from_dict_round_trip_and_errors():
    fns = _ball2_family()
    load = source_loader({f"{v}.json": fn for v, fn in zip("abc", fns)})
    obj = {
        "shape": "cycle", "r": 1, "d": 1,
        "vertices": {"a": "a.json", "b": "b.json", "c": "c.json"},
        "edges": [["a", "b"], ["b", "c"], ["c", "a"]],
    }
    cfg = configuration_from_dict(obj, load)
    assert cfg.shape == "cycle" and cfg.vertices == ("a", "b", "c")

    for missing in ("shape", "r", "d", "vertices", "edges"):
        bad = {k: v for k, v in obj.items() if k != missing}
        with pytest.raises(FormatError) as info:
            configuration_from_dict(bad, load)
        assert info.value.key == missing
    with pytest.raises(FormatError):
        configuration_from_dict({**obj, "weird": 1}, load)
    with pytest.raises(FormatError):
        configuration_from_dict({**obj, "edges": [["a"]]}, load)
    with pytest.raises(FormatError):
        configuration_from_dict([1, 2], load)
    for key, value in (("shape", "star"), ("shape", ["tree"]), ("r", "1"),
                       ("r", True), ("r", -1), ("d", "1")):
        with pytest.raises(FormatError) as info:
            configuration_from_dict({**obj, key: value}, load)
        assert info.value.key == key


def _fields(fns, **fields):
    """Configuration keywords of the path a -> b -> c over fns, fields replaced."""
    return {"shape": "tree", "r": 1, "d": 1, "vertices": ("a", "b", "c"),
            "edges": (("a", "b"), ("b", "c")), "functions": dict(zip("abc", fns)), "root": "c",
            **fields}


def _cycle_fields(fns, vertices="abc", edges=(("a", "b"), ("b", "c"), ("c", "a")), root=None):
    return _fields(fns, shape="cycle", vertices=tuple(vertices), edges=edges,
                   functions=dict(zip(vertices, fns * 2)), root=root)


def _not_strict():
    # positive definite but singular: every entry is one
    return PDFunction(1, Domain.ball(2), {w: 1.0 for w in ball(2)})


# the error class, a fragment of its message, and a call that raises it
_VALIDATION_CASES = {
    "stage-of-a-ball": (DomainError, "partial-domain",
                        lambda fns: stage_energy(fns[0], fns[0], 0, 0)),
    "gradient-side": (ParameterError, "side must be",
                      lambda fns: energy_gradient(fns[0], fns[0], 0, 0, "eta", 1)),
    "gradient-direction": (ParameterError, "unit complex",
                           lambda fns: energy_gradient(fns[0], fns[0], 0, 0, "zeta", 0.5)),
    "no-vertices": (ParameterError, "at least one vertex", lambda fns: Configuration(
        **_fields(fns, vertices=(), edges=(), functions={}))),
    "duplicate-vertices": (ParameterError, "distinct", lambda fns: Configuration(
        **_fields(fns, vertices=("a", "a", "c")))),
    "functions-off-the-vertices": (ParameterError, "exactly on the vertices",
                                   lambda fns: Configuration(**_fields(fns[:2]))),
    "not-strict": (NotStrictError, "vertex 'b' is not strict", lambda fns: Configuration(
        **_fields([fns[0], _not_strict(), fns[2]]))),
    "d-bool": (ParameterError, "d must be an integer",
               lambda fns: Configuration(**_fields(fns, d=True))),
    "d-text": (ParameterError, "d must be an integer",
               lambda fns: Configuration(**_fields(fns, d="1"))),
    "two-outgoing-edges": (ParameterError, "two outgoing edges", lambda fns: Configuration(
        **_fields(fns, edges=(("a", "b"), ("a", "c"))))),
    "not-a-tree": (ParameterError, "do not form a tree", lambda fns: Configuration(
        **_fields(fns, edges=(("a", "b"), ("b", "a"))))),
    "cycle-with-root": (ParameterError, "takes no root",
                        lambda fns: Configuration(**_cycle_fields(fns, root="c"))),
    "one-vertex-cycle": (ParameterError, "at least two vertices", lambda fns: Configuration(
        **_cycle_fields(fns, vertices="a", edges=()))),
    "two-cycles": (ParameterError, "single cycle", lambda fns: Configuration(
        **_cycle_fields(fns, vertices="abcd",
                        edges=(("a", "b"), ("b", "a"), ("c", "d"), ("d", "c"))))),
    "solve-not-a-configuration": (ParameterError, "needs a Configuration",
                                  lambda fns: solve_configuration(_fields(fns), 3, 0.01)),
    "solve-eps": (ParameterError, "eps must be",
                  lambda fns: solve_configuration(_path_config(fns), 3, 0.0)),
    "solve-sigma": (ParameterError, "positive throughout", lambda fns: solve_configuration(
        _path_config(fns), 3, 0.01, sigma_schedule=[0.01, -1.0])),
    "encost-not-a-configuration": (ParameterError, "needs a Configuration",
                                   lambda fns: encost_report(_fields(fns), {}, 0.01)),
    "encost-keys": (ParameterError, "keyed exactly",
                    lambda fns: encost_report(_path_config(fns), {"a": fns[0]}, 0.01)),
    "encost-two-balls": (DomainError, "one common ball", lambda fns: encost_report(
        _path_config(fns), {"a": fns[0], "b": fns[1], "c": restrict_to_ball(fns[2], 1)}, 0.01)),
    "encost-short-of-the-data-ball": (DomainError, r"cover the data ball Ball\(2\)",
                                      lambda fns: encost_report(_path_config(fns), {
                                          v: restrict_to_ball(C, 1) for v, C in zip("abc", fns)
                                      }, 0.01)),
}


@pytest.mark.parametrize("case", sorted(_VALIDATION_CASES))
def test_validation_branches_raise_their_error(case):
    error, message, call = _VALIDATION_CASES[case]
    with pytest.raises(error, match=message):
        call(_ball2_family())


@pytest.mark.parametrize("fields, key", [
    ({"d": True}, "d"),
    ({"d": 1.0}, "d"),
    ({"edges": [["a", "b"], ["a", "c"]]}, "edges"),
    ({"edges": [["a", "b"], ["b", "a"]]}, "edges"),
    ({"shape": "cycle", "edges": [["a", "b"], ["b", "c"], ["c", "a"]]}, "root"),
    ({"shape": "cycle", "root": None, "vertices": {"a": "a.json"}, "edges": []}, "vertices"),
    ({"shape": "cycle", "root": None, "vertices": {v: f"{v}.json" for v in "abcd"},
      "edges": [["a", "b"], ["b", "a"], ["c", "d"], ["d", "c"]]}, "edges"),
], ids=["d-bool", "d-float", "two-outgoing-edges", "not-a-tree", "cycle-with-root",
        "one-vertex-cycle", "two-cycles"])
def test_configuration_from_dict_names_the_field_a_configuration_refuses(fields, key):
    fns = _ball2_family()
    load = source_loader({f"{v}.json": fn for v, fn in zip("abcd", fns * 2)})
    obj = {"shape": "tree", "r": 1, "d": 1, "root": "c",
           "vertices": {v: f"{v}.json" for v in "abc"}, "edges": [["a", "b"], ["b", "c"]],
           **fields}
    with pytest.raises(FormatError) as info:
        configuration_from_dict({k: v for k, v in obj.items() if v is not None}, load)
    assert info.value.key == key


def test_configuration_from_dict_checks_every_source_before_loading():
    loaded = []
    obj = {"shape": "tree", "r": 1, "d": 1, "root": "b",
           "vertices": {"a": "a.json", "b": 3}, "edges": [["a", "b"]]}
    with pytest.raises(FormatError) as info:
        configuration_from_dict(obj, loaded.append)
    assert info.value.key == "vertices" and str(info.value) == "vertex 'b' must name a file"
    assert loaded == []


def test_solve_configuration_walks_the_novel_stages_in_order():
    fns = _ball2_family()
    cfg = Configuration(
        shape="tree", r=1, d=1, vertices=("a", "b"), edges=(("a", "b"),),
        functions={"a": fns[0], "b": fns[1]}, root="b",
    )
    _, report = solve_configuration(cfg, R=3, eps=1e-3, seed=0)
    assert [rec["stage"] for rec in report.stage_records] == novel_stages(2, 3, 1)


def test_solve_configuration_identical_functions_fixed_point():
    C = _ball2_family()[0]
    cfg = _path_config([C, C, C])
    ext, report = solve_configuration(cfg, R=3, eps=1e-3, seed=0)
    sigma_sum = sum(report.sigma_consumed)
    for e in report.energies_before:
        assert report.energies_before[e] == pytest.approx(1.0, abs=1e-10)
        assert report.energies_after[e] <= 1.0 + sigma_sum
    assert report.encost == 1.0
    for v in cfg.vertices:
        assert report.restriction_drift[v] <= 1e-12
        assert ext[v].domain.r == 3


def _assert_driver_report(cfg, report, eps):
    # the final guarantee
    for e in report.energies_before:
        assert report.energies_after[e] <= report.energies_before[e] + eps
    # stage-by-stage energy ledger against the consumed budget
    consumed = 0.0
    for rec in report.stage_records:
        consumed += rec["sigma"]
        for e, val in rec["after"].items():
            assert val <= report.energies_before[e] + consumed + 1e-8
            assert val <= rec["before"][e] + max(1e-6, rec["sigma"] / 4.0) + 1e-8
    for v in cfg.vertices:
        assert report.restriction_drift[v] == 0.0
        assert report.restriction_energy[v] <= 1.0 + 1e-9


def test_solve_configuration_path_controls_edge_energies():
    fns = _ball2_family()
    cfg = _path_config(fns)
    ext, report = solve_configuration(cfg, R=3, eps=1e-3, seed=0)
    assert all(1.0 < v <= 1.2 for v in report.energies_before.values())
    _assert_driver_report(cfg, report, 1e-3)
    assert report.encost <= 1.01
    assert encost_report(cfg, ext, 1e-3) == pytest.approx(report.encost)
    # the report serializes to plain JSON
    blob = json.dumps(report.to_dict())
    parsed = json.loads(blob)
    assert len(parsed["stages"]) == len(report.stage_records)


def test_solve_configuration_cycle_controls_edge_energies():
    fns = _ball2_family()
    cfg = _cycle_config(fns)
    ext, report = solve_configuration(cfg, R=3, eps=1e-3, seed=0)
    _assert_driver_report(cfg, report, 1e-3)
    assert report.encost <= 1.01
    assert encost_report(cfg, ext, 1e-3) == pytest.approx(report.encost)


# Iteration counts and energies of one seeded family solved r=1 -> R=3, as
# the solver computed them when these pins were taken; any change to the
# descent, its thresholds or its random draws moves the counts.
SOLVE_PINS = {
    "path": (
        _path_config, 463,
        [39, 13, 9, 15, 20, 54, 98, 27, 41, 22, 15, 9, 12, 20, 16, 20, 8, 25],
        {("a", "b"): 1.0768805473723242, ("b", "c"): 1.0764566578334553},
    ),
    "cycle": (
        _cycle_config, 4461,
        [224, 424, 122, 140, 260, 338, 913, 270, 149, 163, 186, 152, 123, 227,
         185, 170, 195, 220],
        {("a", "b"): 1.0768805473723242, ("b", "c"): 1.0764566578334553,
         ("c", "a"): 1.066110818983475},
    ),
}


# Pencil-kernel calls of the same two solves.  Each stage pair's _StagePencil
# answers a request for its last solved point without a kernel call, so these
# count distinct consecutive points; they move with the descent's iterates
# (as SOLVE_PINS do) and with what a stage pencil keeps.
SOLVE_PENCILS = {"path": 1888, "cycle": 14074}

# Eigenvalue checks of the base Gram among those kernel calls: a stage pencil
# certifies a corner by Weyl's inequality from its last check, so each of the
# path's 36 pencils (2 edges x 18 stages) checks once, and the cycle's 54
# check 60 times.
SOLVE_BASE_CHECKS = {"path": 36, "cycle": 60}


@pytest.mark.parametrize("shape", sorted(SOLVE_PINS))
def test_solve_configuration_solves_no_pencil_twice_in_a_row(shape, monkeypatch):
    real = energysolver._top_generalized_eig
    last = {}
    counts = {"calls": 0, "repeats": 0}

    def recording(G_C, G_D):
        # a stage pair is known by its two Grams with the working corners blanked
        n = G_C.shape[0]
        blank = [np.array(G) for G in (G_C, G_D)]
        for G in blank:
            G[n - 2, n - 1] = G[n - 1, n - 2] = 0
        pair = blank[0].tobytes() + blank[1].tobytes()
        point = G_C.tobytes() + G_D.tobytes()
        counts["calls"] += 1
        counts["repeats"] += last.get(pair) == point
        out = real(G_C, G_D)
        last[pair] = point  # a failed solve is not kept, so it may be asked again
        return out

    monkeypatch.setattr(energysolver, "_top_generalized_eig", recording)
    checked = _counting_checks(monkeypatch)
    make, total, _, _ = SOLVE_PINS[shape]
    cfg = make(_ball2_family(seeds=(200, 201, 202, 203)))
    _, report = solve_configuration(cfg, R=3, eps=1e-3, seed=0)
    assert report.iterations_total == total
    assert counts == {"calls": SOLVE_PENCILS[shape], "repeats": 0}
    assert len(checked) == SOLVE_BASE_CHECKS[shape]


@pytest.mark.parametrize("shape", sorted(SOLVE_PINS))
def test_solve_configuration_pinned_iterations_and_energies(shape):
    make, total, per_stage, energies = SOLVE_PINS[shape]
    cfg = make(_ball2_family(seeds=(200, 201, 202, 203)))
    _, report = solve_configuration(cfg, R=3, eps=1e-3, seed=0)
    assert report.iterations_total == total
    assert [rec["iterations"] for rec in report.stage_records] == per_stage
    assert report.energies_after.keys() == energies.keys()
    for e, x in energies.items():
        assert abs(report.energies_after[e] - x) <= 1e-12
    assert abs(report.encost - 1.0) <= 1e-12


def test_solve_configuration_budget_error():
    fns = _ball2_family()
    cfg = _path_config(fns)
    with pytest.raises(BudgetError):
        solve_configuration(cfg, R=3, eps=1e-3, sigma_schedule=[1e-4], seed=0)


# The SOLVE_PINS family with MAX_ITER capped at 3, so that every descent is
# cut short.  Under a generous schedule (sigma 0.5 per stage) each stage
# absorbs its capped solves into its slack: the per-stage iterations and
# the slack each stage used, as the solver computed them when pinned.
SLACK_PINS = {
    "path": (6, [
        0.0009619897899519891, 0.00010615050757967204, 1.125303327853544e-06,
        0.0005801194625458805, 0.0001602442692905104, 0.0006217684717615413,
        0.0002513687957237387, 0.0002029695998420067, 0.0003581548037210336,
        0.00033702444884631255, 2.098585991738844e-05, 3.130593924094427e-07,
        0.00022902946738168062, 5.104887530094082e-05, 5.085833034268461e-06,
        9.556516568665074e-05, 1.077244967673252e-06, 0.0020979750088119253,
    ]),
    "cycle": (3, [
        0.005929955383146446, 0.0029907500950272503, 0.000709046699009841,
        0.004106814626224864, 0.0014828929004142566, 0.0003142420798873946,
        0.005337642522170949, 0.0009172062032813955, 0.003199799744885601,
        0.005380497315702115, 0.002800652031672568, 0.0010146789185485616,
        0.0023777904947934747, 0.0015592163257831526, 0.00030724936523718327,
        0.005837510581790273, 0.0007911390204253799, 0.00785547405614806,
    ]),
}


@pytest.mark.parametrize("shape", sorted(SLACK_PINS))
def test_capped_descents_are_absorbed_into_the_stage_slack(shape, monkeypatch):
    monkeypatch.setattr(energysolver, "MAX_ITER", 3)
    per_stage, slacks = SLACK_PINS[shape]
    cfg = SOLVE_PINS[shape][0](_ball2_family(seeds=(200, 201, 202, 203)))
    _, report = solve_configuration(cfg, R=3, eps=0.5, sigma_schedule=[0.5] * 18)
    assert [rec["iterations"] for rec in report.stage_records] == [per_stage] * 18
    assert report.iterations_total == 18 * per_stage
    assert [rec["slack"] for rec in report.stage_records] == slacks
    allowance = 0.5 / (4.0 * len(cfg.edges))
    assert all(0.0 < x <= allowance for x in slacks)


@pytest.mark.parametrize("shape, stage, message", [
    ("path", ("abA", 1, 1), "edge a->b: edge solve stalled"),
    ("cycle", ("aba", 1, 1), "cycle solve stalled"),
])
def test_a_capped_descent_over_its_slack_stops_the_stage(shape, stage, message,
                                                          monkeypatch):
    # the default schedule halves sigma each stage, so the slack runs out
    monkeypatch.setattr(energysolver, "MAX_ITER", 3)
    cfg = SOLVE_PINS[shape][0](_ball2_family(seeds=(200, 201, 202, 203)))
    with pytest.raises(SolveError) as info:
        solve_configuration(cfg, R=3, eps=0.5)
    assert info.value.stage == stage
    assert message in str(info.value)


def _ball4_family():
    return [
        mix_functions(random_nspd(4, 1, seed=100), random_nspd(4, 1, seed=s), 0.008)
        for s in (101, 102, 103)
    ]


@pytest.mark.parametrize("shape", ["path", "cycle"])
def test_solve_configuration_completes_a_singular_stage(shape, monkeypatch):
    # r = 2 data on Ball(4): the first stage beyond it, (aaaaa, 1, 1), is
    # long enough for the eta budget, make_singular, the overshoot check and
    # the certified descent; a one-entry schedule then stops the next stage
    calls = []
    real = energysolver.make_singular
    monkeypatch.setattr(energysolver, "make_singular",
                        lambda *a, **kw: calls.append(1) or real(*a, **kw))
    make = {"path": _path_config, "cycle": _cycle_config}[shape]
    cfg = make(_ball4_family(), r=2)
    with pytest.raises(BudgetError) as info:
        solve_configuration(cfg, R=5, eps=1e-3, sigma_schedule=[1e-4])
    assert info.value.stage == ("aaaab", 1, 1)
    assert len(calls) == 1


@pytest.mark.parametrize("overshoots", [1, 6], ids=["first-draw", "every-draw"])
def test_an_overshooting_singular_family_is_retried_with_a_quarter_of_its_eta(
        overshoots, monkeypatch):
    # the first `overshoots` draws hand back the family rotated by one
    # member, whose stage energies against the originals are far above the
    # two-sided allowance 1 + eta' (eta' about 5e-5 here)
    etas = []
    real = energysolver.make_singular

    def rotated(fam, eta, **kw):
        etas.append(eta)
        out, certs = real(fam, eta, **kw)
        return (out[1:] + out[:1] if len(etas) <= overshoots else out), certs

    monkeypatch.setattr(energysolver, "make_singular", rotated)
    cfg = _path_config(_ball4_family(), r=2)
    error = BudgetError if overshoots == 1 else SolveError
    with pytest.raises(error) as info:
        solve_configuration(cfg, R=5, eps=1e-3, sigma_schedule=[1e-4])
    if overshoots == 1:
        assert info.value.stage == ("aaaab", 1, 1)
        assert len(etas) == 2
    else:
        assert info.value.stage == ("aaaaa", 1, 1)
        assert "kept overshooting" in str(info.value)
        assert len(etas) == 6
    assert all(b == a / 4.0 for a, b in zip(etas, etas[1:]))


def test_eta_budget_matches_the_stage_index_oracle():
    families = [[_open_walk(C) for C in _ball4_family()]]
    B = random_nspd(3, 2, seed=9)
    for stage in (("aaa", 1, 2), ("aBa", 2, 1), ("abA", 2, 2), ("aab", 1, 1)):
        families.append([restrict_to_stage(B, *stage)])
    families.append([stage_function(s, d=2) for s in (3, 4)])
    for fam in families:
        for eta_prime in (1e-4, 1e-2, 0.3):
            assert energysolver._eta_budget(fam, eta_prime) == eta_budget_oracle(fam, eta_prime)


def test_eta_budget_does_not_cancel_for_tiny_allowances():
    # sqrt(1 + 1e-20) - 1 is 0.0 in floating point; the budget is linear
    # in eta' for small eta', and stays so
    fam = [stage_function(s) for s in (3, 4)]
    tiny, small = energysolver._eta_budget(fam, 1e-20), energysolver._eta_budget(fam, 1e-10)
    assert tiny > 0
    assert tiny / small == pytest.approx(1e-10, rel=1e-9)


def test_solve_configuration_rejects_bad_radius():
    fns = _ball2_family()
    cfg = _path_config(fns)
    with pytest.raises(ParameterError):
        solve_configuration(cfg, R=1, eps=1e-3)


# ---------------------------------------------------------------------------
# encost conventions
# ---------------------------------------------------------------------------


def test_encost_identity_is_one():
    C = _ball2_family()[0]
    cfg = _path_config([C, C, C])
    ext = {v: central_extension(C, 4) for v in cfg.vertices}
    assert encost_report(cfg, ext, 1e-6) == 1.0


def test_encost_matches_direct_recomputation():
    fns = _ball2_family(weight=0.3)
    cfg = _path_config(fns)
    ext = {v: central_extension(cfg.functions[v], 4) for v in cfg.vertices}
    M = encost_report(cfg, ext, 1e-6)
    assert np.isfinite(M) and M > 1.0
    expected = max(
        (relative_energy(ext[v], ext[w], r=2).energy - 1.0)
        / (relative_energy(cfg.functions[v], cfg.functions[w], r=1).energy - 1.0)
        for v, w in cfg.edges
    )
    assert M == pytest.approx(expected, rel=1e-12)


def test_encost_rejects_unfaithful_extensions():
    fns = _ball2_family(weight=0.3)
    cfg = _path_config(fns)
    # swap two extensions so the restrictions no longer match the originals
    ext = {
        "a": central_extension(cfg.functions["b"], 4),
        "b": central_extension(cfg.functions["a"], 4),
        "c": central_extension(cfg.functions["c"], 4),
    }
    with pytest.raises(ParameterError) as info:
        encost_report(cfg, ext, 1e-8)
    assert "a" in str(info.value) or "b" in str(info.value)
