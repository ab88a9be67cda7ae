"""Desk-scale acceptance checks, one test per numbered criterion.

Every test here pins a headline guarantee of the package against an
independent computation (brute-force clique enumeration, raw eigenvalue
spectra, central finite differences, closed-form bounds) at a scale a
laptop handles in seconds.  Each test enforces its own wall-clock budget
and, when green, prints one line

    criterion NN: PASS (elapsed) detail

so a ``pytest -v -s tests/test_acceptance.py`` run reads as a checklist.
Shared expensive fixtures (the singularized stage pairs, the radius-4
pools) are memoized at module level; whichever test runs first pays for
them inside its own budget.
"""

import itertools
import time

import numpy as np
import pytest

from freepd.energysolver import (
    Configuration,
    encost_report,
    energy_gradient,
    make_singular,
    solve_configuration,
    stage_energy,
)
from freepd.errors import DegenerateAchieverError
from freepd.extend import (
    central_extension,
    extend_ball,
    extend_entry,
    legal_disk,
    toeplitz_step,
)
from freepd.pdcore import Domain, PDFunction, check_pd, random_nspd, restrict_to_stage
from freepd.surgery import perform_surgery, verify_conditions
from freepd.transport import perturbation_bound_check, relative_energy
from freepd.words import (
    ball,
    clique,
    inverse,
    is_novel,
    mul,
    next_novel,
    shortlex_key,
    word_to_str,
)
from helpers import (
    brute_force_verdict,
    embed_toeplitz,
    index_set,
    maximal_cliques,
    mix_functions,
    random_labeled_graph,
    seeded_rim_policy,
    stage_function,
)


def _verdict(num, t0, limit, detail):
    elapsed = time.perf_counter() - t0
    assert elapsed < limit, f"criterion {num} overran its {limit:.0f}s budget: {elapsed:.1f}s"
    print(f"criterion {num:02d}: PASS ({elapsed:.1f}s) {detail}")


def _disk_point(rng, radius=0.6):
    z = rng.standard_normal() + 1j * rng.standard_normal()
    return radius * z / max(1.0, abs(z))


def _cliques_through_top_edge(g):
    """All maximal cliques containing both e and g, by plain Bron-Kerbosch."""
    iset = index_set(g)
    return [c for c in maximal_cliques(iset.members, iset) if () in c and g in c]


# ---------------------------------------------------------------------------
# 1. the closed-form clique against exhaustive enumeration
# ---------------------------------------------------------------------------


def test_criterion_01_unique_maximal_cliques_in_ball_three():
    t0 = time.perf_counter()
    checked = 0
    for g in ball(3):
        if g == () or not is_novel(g):
            continue
        hits = _cliques_through_top_edge(g)
        assert len(hits) == 1, (
            f"edge (e, {word_to_str(g)}) lies in {len(hits)} maximal cliques"
        )
        assert set(clique(g).vertices) == set(hits[0]), word_to_str(g)
        checked += 1
    assert checked >= 25
    _verdict(1, t0, 5.0, f"{checked} levels of B_3 against Bron-Kerbosch")


# ---------------------------------------------------------------------------
# 2. fast positivity verdicts against the all-cliques sweep
# ---------------------------------------------------------------------------


def test_criterion_02_check_pd_agrees_with_exhaustive_cliques():
    t0 = time.perf_counter()
    rng = np.random.default_rng(202)
    seen = set()
    for trial in range(100):
        r = 1 + trial % 2
        d = 1 + (trial // 2) % 2
        C = random_nspd(r, d, seed=trial, margin=float(rng.uniform(0.02, 0.4)))
        if trial % 2:
            # inflate one stored matrix well past any safe bound so roughly
            # half the corpus is genuinely broken, not borderline
            entries = dict(C.canonical_items())
            keys = sorted(entries, key=len)
            w = keys[trial % len(keys)]
            entries[w] = np.asarray(entries[w], dtype=complex) * (1.6 + 0.4 * (trial % 4))
            C = PDFunction(d, C.domain, entries)
        quick = check_pd(C)
        slow = brute_force_verdict(C)
        assert quick.status == slow, (trial, quick.status, slow)
        seen.add(quick.status)
    assert {"strict", "not_pd"} <= seen
    _verdict(2, t0, 60.0, f"100 instances at r <= 2, d <= 2; statuses seen {sorted(seen)}")


# ---------------------------------------------------------------------------
# 3. the one-step value disk against raw spectra
# ---------------------------------------------------------------------------


def _inject_stage_value(stage, g, value):
    """Fill the working slot with an arbitrary number, bypassing the library
    parameterization so points outside the unit disk are reachable too."""
    entries = dict(stage.canonical_items())
    entries[g] = np.array([[value]], dtype=complex)
    return PDFunction(1, Domain.partial(next_novel(g), 1, 1), entries)


def test_criterion_03_legal_disk_boundary_against_spectra():
    t0 = time.perf_counter()
    rng = np.random.default_rng(303)
    for trial in range(50):
        length = 2 + trial % 4
        pool = [w for w in ball(length) if len(w) == length and is_novel(w)]
        g = pool[(trial * 7) % len(pool)]
        base = random_nspd(2, 1, seed=300 + trial)
        if length <= 2:
            full = base
        else:
            full = extend_ball(base, length, policy=seeded_rim_policy(700 + trial))
        stage = restrict_to_stage(full, g, 1, 1)
        center, radius = legal_disk(stage)
        assert radius > 1e-8
        hits = _cliques_through_top_edge(g)
        assert len(hits) == 1
        verts = sorted(hits[0], key=shortlex_key)
        phase = np.exp(2j * np.pi * rng.uniform())
        for rho, want_strict in ((0.999, True), (1.001, False)):
            cand = _inject_stage_value(stage, g, center + rho * radius * phase)
            gram = np.array(
                [[cand.scalar(mul(inverse(l), h), 1, 1) for l in verts] for h in verts]
            )
            lam = float(np.linalg.eigvalsh(gram)[0])
            if want_strict:
                assert lam > 0.0, (trial, word_to_str(g), lam)
                assert check_pd(cand).status == "strict"
            else:
                assert lam <= 0.0, (trial, word_to_str(g), lam)
                assert check_pd(cand).status != "strict"
    _verdict(3, t0, 60.0, "50 stages at |g| = 2..5, both sides of the rim")


# ---------------------------------------------------------------------------
# 4. the scalar Toeplitz recursion against the group machinery on <a>
# ---------------------------------------------------------------------------


def test_criterion_04_toeplitz_and_free_group_steps_agree():
    t0 = time.perf_counter()
    rng = np.random.default_rng(404)
    for trial in range(20):
        n = 1 + trial % 4
        seq = [1.0 + 0j]
        for _ in range(n - 1):
            seq.append(toeplitz_step(seq, _disk_point(rng, 0.8)))
        zeta = _disk_point(rng, 0.9)
        via_line = toeplitz_step(seq, zeta)
        via_tree = extend_entry(embed_toeplitz(seq, n), zeta).scalar((0,) * n, 1, 1)
        assert abs(via_line - via_tree) <= 1e-10, (trial, n, via_line, via_tree)
    _verdict(4, t0, 10.0, "20 sequences, next value at a^n for n = 1..4")


# ---------------------------------------------------------------------------
# 5. energy axioms on random radius-4 families
# ---------------------------------------------------------------------------

_BALL4_POOL = {}


def _ball4_pool():
    if not _BALL4_POOL:
        for d in (1, 2):
            fam = []
            for s in range(6):
                base = random_nspd(2, d, seed=40 * d + s)
                fam.append(
                    extend_ball(base, 4, policy=seeded_rim_policy(900 + 40 * d + s))
                )
            _BALL4_POOL[d] = fam
    return _BALL4_POOL


def test_criterion_05_energy_axioms_hold_on_random_families():
    t0 = time.perf_counter()
    pool = _ball4_pool()
    rng = np.random.default_rng(505)
    pairs = triples = 0
    for case in range(100):
        d = 1 + case % 2
        fam = pool[d]
        i, j, k = (int(x) for x in rng.choice(len(fam), size=3, replace=False))
        A = fam[i]
        if case % 3 == 0:
            D = fam[j]
        else:
            D = mix_functions(fam[i], fam[j], float(rng.uniform(0.05, 0.5)))
        e1 = relative_energy(A, D, r=1).energy
        e2 = relative_energy(A, D, r=2).energy
        assert e1 >= 1.0 - 1e-10 and e2 >= 1.0 - 1e-10, (case, e1, e2)
        assert e1 <= e2 * (1.0 + 1e-10), (case, e1, e2)
        pairs += 1
        if case % 5 == 0:
            assert abs(relative_energy(A, A, r=2).energy - 1.0) <= 1e-10
        if case % 2 == 1:
            E = mix_functions(D, fam[k], float(rng.uniform(0.1, 0.4)))
            e_AE = relative_energy(A, E, r=2).energy
            e_DE = relative_energy(D, E, r=2).energy
            assert e_AE <= e2 * e_DE * (1.0 + 1e-8), (case, e_AE, e2, e_DE)
            triples += 1
    assert pairs == 100 and triples == 50
    _verdict(5, t0, 120.0, f"{pairs} pairs / {triples} triples, r <= 2, d <= 2")


# ---------------------------------------------------------------------------
# 6. the l1 perturbation premise forces the transport-norm bound
# ---------------------------------------------------------------------------


def test_criterion_06_perturbation_premise_forces_transport_norms():
    t0 = time.perf_counter()
    rng = np.random.default_rng(606)
    checked = 0
    for sigma in (0.1, 0.5):
        for trial in range(250):
            n = 2 + trial % 7
            while True:
                L = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
                smin = float(np.linalg.svd(L, compute_uv=False)[-1])
                if smin >= 1e-2:
                    break
            eta = sigma * smin * smin / 2.0
            H = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            H = (H + H.conj().T) / 2.0
            H *= 0.9 * eta * float(rng.uniform(0.2, 1.0)) / np.abs(H).sum()
            vals, vecs = np.linalg.eigh(L.conj().T @ L + H)
            assert vals[0] > 0.0
            root = (vecs * np.sqrt(vals)) @ vecs.conj().T
            q, _ = np.linalg.qr(
                rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            )
            M = q @ root
            gap = float(np.abs(L.conj().T @ L - M.conj().T @ M).sum())
            assert gap <= eta, "premise lost to rounding"
            forward = float(np.linalg.norm(M @ np.linalg.inv(L), 2))
            backward = float(np.linalg.norm(L @ np.linalg.inv(M), 2))
            assert max(forward, backward) <= 1.0 + sigma, (sigma, trial, forward, backward)
            assert perturbation_bound_check(L, M, sigma)
            checked += 1
    assert checked == 500
    _verdict(6, t0, 30.0, "500 premise-satisfying pairs, sizes 2-8, sigma in {0.1, 0.5}")


# ---------------------------------------------------------------------------
# 7 and 8 share a corpus of singularized stage pairs
# ---------------------------------------------------------------------------

_SINGULAR_POOL = []


def _singular_pairs():
    if not _SINGULAR_POOL:
        stages = [stage_function(seed) for seed in range(16)]
        for i, j in list(itertools.combinations(range(16), 2))[:50]:
            sing, certs = make_singular(
                [stages[i], stages[j]], eta=0.02, seed=31 * i + j
            )
            _SINGULAR_POOL.append((sing[0], sing[1], certs[(0, 1)]))
    return _SINGULAR_POOL


def test_criterion_07_gradients_match_finite_differences():
    t0 = time.perf_counter()
    pairs = _singular_pairs()
    assert len(pairs) >= 50
    rng = np.random.default_rng(707)
    h = 1e-5
    checked = 0
    for C, D, _ in pairs:
        for _ in range(8):
            z, mu = _disk_point(rng), _disk_point(rng)
            try:
                for side in ("zeta", "mu"):
                    for s in (1.0, 1j):
                        an = energy_gradient(C, D, z, mu, side, s)
                        if side == "zeta":
                            plus = stage_energy(C, D, z + h * s, mu)
                            minus = stage_energy(C, D, z - h * s, mu)
                        else:
                            plus = stage_energy(C, D, z, mu + h * s)
                            minus = stage_energy(C, D, z, mu - h * s)
                        fd = (plus - minus) / (2.0 * h)
                        assert abs(an - fd) <= 1e-4 * max(1.0, abs(fd)), (side, s, an, fd)
            except DegenerateAchieverError:
                continue
            break
        else:
            pytest.fail("no non-degenerate sample point found for a pair")
        checked += 1
    assert checked >= 50
    _verdict(7, t0, 120.0, f"{checked} pairs, both parameters, two axes, step {h:g}")


def test_criterion_08_certificates_bound_measured_energies():
    t0 = time.perf_counter()
    pairs = _singular_pairs()[:10]
    rng = np.random.default_rng(808)
    checked = 0
    for C, D, cert in pairs:
        assert cert.kappa > 0 and cert.theta > 0
        for _ in range(20):
            z, mu = _disk_point(rng, 0.8), _disk_point(rng, 0.8)
            floor = cert.kappa ** 2 * cert.theta ** 2 / (2.0 - 2.0 * abs(z) ** 2)
            e = stage_energy(C, D, z, mu)
            assert e >= floor * (1.0 - 1e-6), (checked, z, mu, e, floor)
            checked += 1
    assert checked == 200
    _verdict(8, t0, 120.0, "10 pairs x 20 sampled parameter points")


# ---------------------------------------------------------------------------
# 9. end-to-end extension over a path and a cycle
# ---------------------------------------------------------------------------


def test_criterion_09_path_and_cycle_extensions_keep_energies():
    """Solves at R = 3 and R = 4.  At R = 3 the energies after are taken over
    B_1, whose Grams read the data ball alone, so any extension that keeps
    its data passes; at R = 4 they read extended entries over B_2.  The
    plain central extensions of the family are the negative control: encost
    1.0 at R = 3, and over the 1.01 bound at R = 4."""
    t0 = time.perf_counter()
    base = random_nspd(2, 1, seed=100)
    named = {
        name: mix_functions(base, random_nspd(2, 1, seed=s), 0.008)
        for name, s in zip("abc", (101, 102, 103))
    }
    configs = (
        Configuration(
            shape="tree", r=1, d=1, vertices=("a", "b", "c"),
            edges=(("a", "b"), ("b", "c")), functions=named, root="c",
        ),
        Configuration(
            shape="cycle", r=1, d=1, vertices=("a", "b", "c"),
            edges=(("a", "b"), ("b", "c"), ("c", "a")), functions=named,
        ),
    )
    eps = 1e-3
    for config, R in itertools.product(configs, (3, 4)):
        before = {
            (u, v): relative_energy(named[u], named[v], r=1).energy
            for u, v in config.edges
        }
        assert max(before.values()) <= 1.1
        extensions, report = solve_configuration(config, R=R, eps=eps, seed=0)
        for u, v in config.edges:
            after = relative_energy(extensions[u], extensions[v], r=1).energy
            assert after <= before[(u, v)] + 1e-3, (config.shape, u, v, before[(u, v)], after)
            over = relative_energy(extensions[u], extensions[v], r=R // 2).energy
            assert abs(report.energies_after[(u, v)] - over) <= 1e-8
        cost = encost_report(config, extensions, eps=eps)
        assert cost <= 1.01, (config.shape, R, cost)
        central = {v: central_extension(named[v], R) for v in config.vertices}
        control = encost_report(config, central, eps=eps)
        assert (control <= 1.01) == (R == 3), (config.shape, R, control)
    _verdict(9, t0, 600.0, "3-vertex path and 3-cycle, d = 1, r = 1, R = 3 and 4")


# ---------------------------------------------------------------------------
# 10. graph surgery output under the condition verifier
# ---------------------------------------------------------------------------


def test_criterion_10_surgery_output_passes_verifier():
    t0 = time.perf_counter()
    rng = np.random.default_rng(1010)
    for trial in range(20):
        R = 2 + trial % 2
        n = int(rng.integers(200, 2001))
        g = random_labeled_graph(n, R, seed=5000 + trial)
        result = perform_surgery(g, R, 1)
        inserted = result.graph.n - g.n
        assert inserted <= 9 * g.n / R, (trial, n, R, inserted)
        conditions = verify_conditions(g, result, 1, R, samples=100, seed=trial)
        for key in ("G-2", "G-6", "G-7"):
            assert conditions[key]["pass"], (trial, key, conditions[key])
        assert conditions["G-6"]["measured"] == 0
        for key in ("G-3", "G-4", "G-5"):
            entry = conditions[key]
            assert entry["pass"] and entry["measured"] <= entry["bound"], (trial, key, entry)
    _verdict(10, t0, 60.0, "20 graphs, n in [200, 2000], R in {2, 3}")
