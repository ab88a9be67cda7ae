import hashlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from freepd.errors import (
    DegenerateStageError,
    DomainError,
    FreePDError,
    NotStrictError,
    ParameterError,
)
from freepd.extend import (
    DELTA_MIN,
    ParameterPolicy,
    SzegoParameter,
    central_extension,
    central_policy,
    constant_policy,
    extend_ball,
    extend_entry,
    legal_disk,
    toeplitz_step,
)
from freepd.pdcore import (
    Domain,
    PDFunction,
    check_pd,
    delta,
    mix_with_delta,
    random_nspd,
    restrict_to_ball,
    restrict_to_stage,
    stage_pairs,
)
import freepd
from freepd import words
from freepd.words import is_novel, next_novel, word_from_str
from helpers import (
    brute_force_verdict,
    embed_toeplitz,
    letter_weights_function,
    novel_stages,
    reference_gram,
    representation_function,
    seeded_rim_policy,
)


def test_szego_parameter_validation():
    assert SzegoParameter(0).value == 0j
    assert SzegoParameter(0.5 - 0.2j).value == 0.5 - 0.2j
    assert abs(SzegoParameter((1 - DELTA_MIN) * 1j).value) <= 1 - DELTA_MIN
    for bad in (1.0, -1.0, 1 - 1e-7, np.nan, complex("inf"), "zeta"):
        with pytest.raises(ParameterError):
            SzegoParameter(bad)


def test_legal_disk_at_delta_stages():
    for d in (1, 2):
        c, r = legal_disk(delta(d, Domain.partial("a", 1, 1)))
        assert c == 0 and r == 1.0
    part = restrict_to_stage(delta(1, Domain.ball(2)), "aa", 1, 1)
    c, r = legal_disk(part)
    assert abs(c) < 1e-14 and abs(r - 1.0) < 1e-14


def test_legal_disk_single_letter_value():
    # With C(a) = c the stage at aa has center c^2 and radius 1 - |c|^2.
    val = 0.5 + 0.2j
    C = PDFunction(1, Domain.partial("aa", 1, 1), {"a": [[val]], "b": [[0.0]]})
    center, radius = legal_disk(C)
    assert abs(center - val**2) < 1e-12
    assert abs(radius - (1 - abs(val) ** 2)) < 1e-12


def test_extend_entry_value_and_advance_d1():
    C = delta(1, Domain.partial("a", 1, 1))
    z = 0.3 + 0.1j
    out = extend_entry(C, z)
    assert out.domain == Domain.partial("b", 1, 1)
    assert out.scalar("a", 1, 1) == pytest.approx(z)
    assert restrict_to_stage(out, "a", 1, 1) == C


def test_extend_entry_walks_the_coordinate_grid_d2():
    C = delta(2, Domain.partial("a", 1, 1))
    zs = [0.1, 0.2j, -0.15, 0.05 - 0.05j]
    stages = [("a", 1, 2), ("a", 2, 1), ("a", 2, 2), ("b", 1, 1)]
    for z, (g, j, k) in zip(zs, stages):
        C = extend_entry(C, z)
        assert C.domain == Domain.partial(word_from_str(g), j, k)
    A = C.entry("a")
    assert A.shape == (2, 2) and np.isfinite(A).all()


def test_extend_entry_skips_mirrored_levels():
    base = central_extension(letter_weights_function(0.5, 0.3), 2)
    C = restrict_to_stage(base, "bb", 1, 1)
    out = extend_entry(C, 0.2)
    # bA is the shortlex successor of bb but mirrors aB, so the walk jumps to Ab.
    assert next_novel(word_from_str("bb")) == word_from_str("Ab")
    assert out.domain == Domain.partial("Ab", 1, 1)
    assert out.scalar("bA", 1, 1) == pytest.approx(np.conj(out.scalar("aB", 1, 1)))


def test_extend_entry_rejects_bad_inputs():
    with pytest.raises(DomainError):
        extend_entry(delta(1, Domain.ball(1)), 0)
    C = delta(1, Domain.partial("a", 1, 1))
    for bad in (1.0, 1 - 1e-9, float("nan")):
        with pytest.raises(ParameterError):
            extend_entry(C, bad)


def test_central_extension_of_delta_is_delta():
    for d in (1, 2):
        out = central_extension(delta(d, Domain.ball(1)), 3)
        assert out == delta(d, Domain.ball(3))


def test_central_extension_letter_weights():
    C = central_extension(letter_weights_function(0.5, 0.3), 2)
    want = {"aa": 0.25, "ab": 0.15, "aB": 0.15, "ba": 0.15, "bb": 0.09}
    for w, v in want.items():
        assert C.scalar(w, 1, 1) == pytest.approx(v, abs=1e-12)
    deep = central_extension(letter_weights_function(0.5, 0.3), 3)
    # Central values multiply along reduced words, conjugating at inverses.
    vals = {0: 0.5, 1: 0.3, 2: 0.5, 3: 0.3}
    for w in ("aba", "aab", "bab", "aBa", "Abb"):
        word = word_from_str(w)
        expect = np.prod([vals[x] for x in word])
        assert deep.scalar(w, 1, 1) == pytest.approx(expect, abs=1e-10)
    verdict = check_pd(deep)
    assert verdict.status == "strict"


def test_extend_ball_matches_central_and_is_deterministic():
    C = random_nspd(1, 2, seed=5)
    a = extend_ball(C, 3)
    b = extend_ball(C, 3, policy=central_policy())
    c = extend_ball(C, 3, policy=constant_policy(0))
    d = central_extension(C, 3)
    assert b == c and a == d  # the walks bit for bit, and the recurrence
    assert np.abs(a._stack - b._stack).max() <= 1e-14
    assert extend_ball(C, 3, policy=constant_policy(0.2 + 0.1j)) != a
    assert restrict_to_ball(a, 1) == C


def test_extend_ball_same_radius_and_errors():
    C = random_nspd(1, 1, seed=2)
    assert extend_ball(C, 1) == C
    with pytest.raises(ParameterError):
        extend_ball(C, 0)
    with pytest.raises(DomainError):
        extend_ball(delta(1, Domain.partial("a", 1, 1)), 2)


def test_policy_failures_name_the_stage():
    C = delta(1, Domain.ball(1))

    def explode(stage, current, context):
        if stage[0] == word_from_str("ab"):
            raise ValueError("no idea")
        return 0j

    with pytest.raises(ParameterError, match=r"\(ab, 1, 1\)"):
        extend_ball(C, 2, policy=ParameterPolicy(explode, name="flaky"))

    def off_disk(stage, current, context):
        return 1.5

    with pytest.raises(ParameterError, match="degenerate rim"):
        extend_ball(C, 2, policy=ParameterPolicy(off_disk))


def test_stage_failures_keep_their_class_and_name_the_stage():
    semi = PDFunction(1, Domain.ball(1), {"a": 1.0, "b": 0.2})
    with pytest.raises(DegenerateStageError, match=r"\(aa, 1, 1\)") as info:
        central_extension(semi, 2)
    assert info.value.stage == ("aa", 1, 1)
    # a core that is not strict: C(a) = 1 makes Theta(bA) = Theta(b), and
    # both lie in the interior of K_ba
    entries = {w: 0.2 for w in ("b", "ab", "aB", "ba", "bb", "Ab")}
    C = PDFunction(1, Domain.ball(2), {**entries, "a": 1.0, "aa": 1.0})
    with pytest.raises(NotStrictError, match=r"\(ba, 1, 1\)") as info:
        extend_entry(restrict_to_stage(C, "ba", 1, 1), 0.0)
    assert not isinstance(info.value, DegenerateStageError)
    assert info.value.stage == ("ba", 1, 1)


@settings(derandomize=True, max_examples=30, deadline=None, database=None)
@given(seed=st.integers(0, 2 ** 16), d=st.sampled_from([1, 2, 3]), r=st.integers(0, 2),
       grow=st.integers(0, 3), letters=st.booleans())
def test_central_extension_a_level_at_a_time_is_the_central_stage_walk(seed, d, r, grow,
                                                                       letters):
    """The order-r recurrence against the zeta = 0 stage walk: equal to
    1e-14, with no NaN left in its stack."""
    if letters:  # the d = 1, Ball(1) letter weights, |C(a)|, |C(b)| < 0.9
        rng = np.random.default_rng(seed)
        C = letter_weights_function(*(0.9 * rng.uniform(size=2)
                                      * np.exp(2j * np.pi * rng.uniform(size=2))))
    else:
        C = random_nspd(r, d, seed=seed)
    R = min(C.domain.r + grow, 5 if C.d == 1 else 4)  # a Ball(5), d = 3 walk takes seconds
    level_path = central_extension(C, R)
    walk = extend_ball(C, R, central_policy())
    assert level_path.domain == walk.domain == Domain.ball(R)
    assert not np.isnan(level_path._stack).any()
    assert np.abs(level_path._stack - walk._stack).max(initial=0.0) <= 1e-14
    assert check_pd(level_path).status == "strict"


@pytest.mark.parametrize("ca, cb", [(-0.5, 0.0), (0.5, 0.0), (0.0, -0.5), (0.0, 0.0)])
def test_central_extension_writes_the_walks_zeros(ca, cb):
    # a zero letter puts exact zeros, -0.0 among them, in the levels' P;
    # the walk's sums write 0.0, and files must not read -0.0 instead
    C = letter_weights_function(ca, cb)
    level_path = central_extension(C, 4)
    assert level_path._stack.tobytes() == extend_ball(C, 4, central_policy())._stack.tobytes()


def _with_a_unit_slot(d, unit, k):
    """The Ball(1) function with C(a) = 0.3 I and C(b) = 0.2 I, but 1 at slot
    (k, k) of C(unit): the direct sum of a strict function and the
    one-dimensional representation unit -> 1, so Theta(unit)_k is
    Theta(e)_k.  At the level aa, S's g and e blocks both lose pivot k; at
    ab, where the interior is a, only the g block does (it reads C(b))."""
    letters = {"a": 0.3 * np.eye(d), "b": 0.2 * np.eye(d)}
    letters[unit][k - 1, k - 1] = 1.0
    return PDFunction(d, Domain.ball(1), letters)


# the interior of aaa, {a, aa}, has Theta(a) = Theta(aa) once C(a) = C(aa) = 1
_COLLAPSED_INTERIOR = PDFunction(1, Domain.ball(2), {
    **{w: 0.2 for w in ("b", "ab", "aB", "ba", "bb", "Ab")}, "a": 1.0, "aa": 1.0})


@pytest.mark.parametrize("C, R, error, stage", [
    (PDFunction(1, Domain.ball(1), {"a": 1.0, "b": 0.2}), 2, DegenerateStageError,
     ("aa", 1, 1)),
    (_with_a_unit_slot(2, "a", 2), 3, DegenerateStageError, ("aa", 1, 2)),
    (_with_a_unit_slot(3, "a", 3), 3, DegenerateStageError, ("aa", 1, 3)),
    (_with_a_unit_slot(2, "b", 2), 3, DegenerateStageError, ("ab", 2, 1)),
    (_with_a_unit_slot(3, "b", 2), 3, DegenerateStageError, ("ab", 2, 1)),
    (_with_a_unit_slot(3, "b", 3), 3, DegenerateStageError, ("ab", 3, 1)),
    (_COLLAPSED_INTERIOR, 3, NotStrictError, ("aaa", 1, 1)),
], ids=["semi", "d2-e-pivot", "d3-e-pivot", "d2-g-pivot", "d3-g-pivot-2", "d3-g-pivot-3",
        "interior"])
def test_central_extension_fails_where_the_stage_walk_fails(C, R, error, stage):
    for extend in (central_extension, lambda C, R: extend_ball(C, R, central_policy())):
        with pytest.raises(FreePDError) as info:
            extend(C, R)
        assert type(info.value) is error and info.value.stage == stage
        assert str(info.value).startswith("residuals failed at stage ({}, {}, {}): ".format(*stage))


# sha256 of central_extension(random_nspd(2, d, seed=1), R)._stack.tobytes(), pinned
# where the walk parity test above stops (R = 5 at d = 1, 4 at d >= 2); at r = 2 a
# window's Gram has at most 5d rows, far below the sizes from which LAPACK's bits
# depend on the BLAS thread count
_CENTRAL_BYTES = {
    (1, 6): "51abf0bcc142f7ce56730e355aa2881a3f24b29a123e15848e53cf44d4045032",
    (2, 5): "f2f608c90f5b879e899411184bd919366e787bc17d3e5cf0a4dc80c3c0a4deb8",
    (3, 4): "562cd5ee9573da2a3cd555a6e97edb7741b57bc0418349661bda6c8c3e92dc34",
}


@pytest.mark.parametrize("d, R", list(_CENTRAL_BYTES))
def test_central_extension_keeps_its_bytes_past_the_walk_parity_sizes(d, R):
    out = central_extension(random_nspd(2, d, seed=1), R)
    assert hashlib.sha256(out._stack.tobytes()).hexdigest() == _CENTRAL_BYTES[d, R]


def _outcome(extend, C, R):
    """extend(C, R), or the class, message and stage of the error it raises."""
    try:
        return extend(C, R)
    except FreePDError as exc:
        return type(exc), str(exc), exc.stage


@pytest.mark.parametrize("mixed", [False, True])
def test_central_extension_of_rank_deficient_data_ends_as_the_walk_does(mixed):
    """Data from a representation of dimension m <= 6 is semidefinite on
    Grams of more than m rows, which either path may meet; mixed toward the
    point mass by s in [1e-14, 1e-6], it is strict with pivots near sqrt(s),
    about the window screen sqrt(DEFAULT_TOL).  On each of 150 draws the
    recurrence and the central walk end alike: the same failure (class,
    message, stage), or values within 1e-12."""
    rng = np.random.default_rng(31 + mixed)
    for seed in range(150):
        m, r, d, grow = (int(x) for x in rng.integers([1, 0, 1, 1], [7, 3, 3, 3]))
        C = representation_function(m, r, min(d, m), seed)
        if mixed:
            C = mix_with_delta(C, 10.0 ** rng.uniform(-14, -6))
        R = r + grow
        got = _outcome(central_extension, C, R)
        want = _outcome(lambda C, R: extend_ball(C, R, central_policy()), C, R)
        if isinstance(want, PDFunction):
            assert isinstance(got, PDFunction) and not np.isnan(got._stack).any(), seed
            assert np.abs(got._stack - want._stack).max(initial=0.0) <= 1e-12, seed
        else:
            assert got == want, seed


# prints the sha256 of central extensions' stacks, one a line
_THREAD_PROBE = """
import hashlib
from freepd.extend import central_extension
from freepd.pdcore import random_nspd
for r, d, R in ((2, 1, 7), (2, 3, 5), (3, 2, 5)):
    out = central_extension(random_nspd(r, d, seed=1), R)
    print(hashlib.sha256(out._stack.tobytes()).hexdigest())
"""


@pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="one CPU runs one BLAS thread")
def test_central_extension_bytes_do_not_depend_on_the_blas_thread_count():
    # zpotrf of 64 rows and more hands work to a second BLAS thread, which
    # moves bits; the recurrence factors windows of at most 14d rows (r = 3)
    src = str(Path(freepd.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    out = [subprocess.run([sys.executable, "-c", _THREAD_PROBE], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=path, OPENBLAS_NUM_THREADS=str(k)),
                          timeout=120, check=True).stdout for k in (1, 2)]
    assert out[0] == out[1] and len(out[0].split()) == 3


def test_central_extension_owns_a_read_only_stack():
    C = random_nspd(2, 2, seed=4)
    before = C._stack.tobytes()
    out, again = central_extension(C, 4), central_extension(C, 4)
    assert not out._stack.flags.writeable
    assert not np.shares_memory(out._stack, C._stack)
    assert not np.shares_memory(out._stack, again._stack)
    assert C._stack.tobytes() == before
    same = central_extension(C, C.domain.r)
    assert same == C and same._stack.tobytes() == before


def test_central_extension_grows_its_stack_a_word_length_at_a_time(monkeypatch):
    # the stack takes the rows of one length at a time, so a radius far too
    # large to size fails where its windows run out of memory, not up front
    C, quotients, lengths = random_nspd(1, 2, seed=2), words._canonical_quotients, []

    def short_of_memory(tree, a, b):  # the windows of one word length
        lengths.append(n := int(tree.length[b].max()))
        if n >= C.domain.r + 2:
            raise MemoryError(f"no windows of length {n}")
        return quotients(tree, a, b)

    monkeypatch.setattr(words, "_canonical_quotients", short_of_memory)
    with pytest.raises(MemoryError, match="length 3$"):
        central_extension(C, 4)
    # only once the patch is shown on the recurrence's path may the radius be huge
    assert lengths[-2:] == [2, 3]
    with pytest.raises(MemoryError, match="length 3$"):
        central_extension(C, 10 ** 6)


def test_policy_context_carries_the_disk():
    seen = {}

    def peek(stage, current, context):
        seen[stage] = context["disk"]
        return 0j

    C = letter_weights_function(0.5, 0.3)
    extend_ball(C, 2, policy=ParameterPolicy(peek))
    center, radius = seen[(word_from_str("aa"), 1, 1)]
    assert center == pytest.approx(0.25)
    assert radius == pytest.approx(0.75)


def test_extend_ball_visits_the_novel_stages_in_order():
    visited = []

    def record(stage, current, context):
        visited.append(stage)
        return 0j

    extend_ball(random_nspd(1, 2, seed=4), 3, policy=ParameterPolicy(record))
    assert visited == novel_stages(1, 3, 2)


def test_random_walks_stay_strict():
    rng = np.random.default_rng(77)
    for seed in range(6):
        d = 1 + seed % 2
        C = random_nspd(1, d, seed=seed)
        zetas = 0.85 * rng.uniform(0, 1, size=64) * np.exp(
            2j * np.pi * rng.uniform(0, 1, size=64)
        )
        counter = {"i": 0}

        def pick(stage, current, context):
            z = zetas[counter["i"] % zetas.size]
            counter["i"] += 1
            return z

        out = extend_ball(C, 3, policy=ParameterPolicy(pick, name="rng"))
        verdict = check_pd(out)
        assert verdict.status == "strict", (seed, verdict.min_eigenvalue)
        if d == 1:
            assert brute_force_verdict(restrict_to_ball(out, 2)) == "strict"


@settings(derandomize=True, max_examples=40, deadline=None, database=None)
@given(seed=st.integers(0, 2 ** 16), d=st.sampled_from([1, 2]), r=st.integers(0, 2),
       grow=st.integers(0, 2), per_stage=st.booleans())
def test_extend_ball_restricts_back_and_stays_strict(seed, d, r, grow, per_stage):
    rng = np.random.default_rng(seed)
    C = random_nspd(r, d, seed=seed)
    z = 0.5 * rng.uniform() * np.exp(2j * np.pi * rng.uniform())
    policy = seeded_rim_policy(seed, spread=0.3, cap=0.5) if per_stage else constant_policy(z)
    out = extend_ball(C, r + grow, policy=policy)
    assert out.domain == Domain.ball(r + grow)
    assert restrict_to_ball(out, r) == C
    assert out._stack[:len(C._stack)].tobytes() == C._stack.tobytes()
    assert check_pd(out).status == "strict"


@settings(derandomize=True, max_examples=12, deadline=None, database=None)
@given(seed=st.integers(0, 2 ** 16), d=st.sampled_from([1, 2, 3]),
       margin=st.sampled_from([1e-3, 1e-2, 0.1, 0.5]), R=st.integers(2, 5))
def test_central_extension_of_radius_one_data_is_the_reversed_product(seed, d, margin, R):
    """For radius-1 data the central extension is C(x1...xn) = C(xn)...C(x1).

    Why: the central choice (zero Szego parameter) makes the two new
    residuals of every stage orthogonal, so the realizing vectors are Markov
    along the Cayley tree: Phi(x1...xn) projects onto everything placed
    before it through Phi(x1...x(n-1)) alone.  As C(e) = I, the vectors
    Phi(h)_m are orthonormal, and the coefficients of that projection are
    <Phi(x1...xn)_j, Phi(x1...x(n-1))_m> = C(xn)_{j,m}; reading the inner
    product against Phi(e)_k then gives C(x1...xn) = C(xn) C(x1...x(n-1)).
    The products here use numpy alone, so the identity checks the whole
    walk (level Gram, interior factor, Schur block, hand-off) against code
    it shares nothing with.
    """
    R = min(R, 4) if d == 3 else R
    rng = np.random.default_rng(seed)
    letter = {}
    for x in "ab":
        M = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        letter[x] = (1 - margin) * M / np.linalg.norm(M, 2)  # strict contractions
        letter[x.upper()] = letter[x].conj().T
    C = central_extension(PDFunction(d, Domain.ball(1), {x: letter[x] for x in "ab"}), R)
    sphere = [""]  # the reduced words of one length, as text
    for _ in range(R):
        sphere = [w + x for w in sphere for x in "abAB" if not w or w[-1] != x.swapcase()]
        for w in sphere:
            want = np.eye(d)
            for x in w:  # C(x1...xn) = C(xn) C(x1...x(n-1))
                want = letter[x] @ want
            assert np.abs(C.entry(w) - want).max() < 1e-12, (w, d, margin)


def _successor_stage_function(C, g, j, k, value):
    """Plug a candidate value into the working slot, bypassing extend_entry."""
    d = C.d
    top = np.array(
        [
            [C.scalar(g, l, m) if C.defined(g, l, m) else np.nan for m in range(1, d + 1)]
            for l in range(1, d + 1)
        ],
        dtype=complex,
    )
    top[j - 1, k - 1] = value
    entries = dict(C.canonical_items())
    entries[g] = top
    if (j, k) == (d, d):
        dom = Domain.partial(next_novel(g), 1, 1)
    elif k < d:
        dom = Domain.partial(g, j, k + 1)
    else:
        dom = Domain.partial(g, j + 1, 1)
    return PDFunction(d, dom, entries)


def test_disk_membership_decides_positivity():
    # Independent check of the disk against full Gram spectra: points at
    # 0.999 of the radius extend strictly, points at 1.001 fail.
    rng = np.random.default_rng(41)
    level2 = [w for w in (("a", "a"), ("a", "b"), ("a", "B"), ("b", "a"), ("b", "b"))]
    for seed in range(10):
        d = 1 + seed % 2
        C2 = random_nspd(2, d, seed=100 + seed)
        gs = word_from_str("".join(level2[seed % len(level2)]))
        assert is_novel(gs)
        j = int(rng.integers(1, d + 1))
        k = int(rng.integers(1, d + 1))
        stage = restrict_to_stage(C2, gs, j, k)
        center, radius = legal_disk(stage)
        assert abs(center) <= 1 + 1e-12 and 0 <= radius <= 1 + 1e-12
        phi = rng.uniform(0, 2 * np.pi)
        _, q_pairs = stage_pairs(gs, d, j, k)
        for rho, should_pass in ((0.5, True), (0.999, True), (1.001, False)):
            v = center + rho * radius * np.exp(1j * phi)
            cand = _successor_stage_function(stage, gs, j, k, v)
            gq = reference_gram(cand, q_pairs)
            min_eig = scipy.linalg.eigvalsh(gq)[0]
            verdict = check_pd(cand)
            if should_pass:
                assert min_eig > 0, (seed, rho, min_eig)
                assert verdict.status == "strict"
            else:
                assert min_eig < 0, (seed, rho, min_eig)
                assert verdict.status == "not_pd"
                alpha = verdict.witness_vector
                g_w = reference_gram(cand, verdict.witness_indices)
                quad = alpha.conj() @ g_w @ alpha
                assert quad.real < 0
        # extend_entry with the matching zeta lands on the same point.
        z = 0.999 * np.exp(1j * phi)
        via_zeta = extend_entry(stage, z).scalar(gs, j, k)
        assert abs(via_zeta - (center + 0.999 * radius * np.exp(1j * phi))) < 1e-12


def test_toeplitz_step_examples():
    assert toeplitz_step([1], 0.4 - 0.1j) == pytest.approx(0.4 - 0.1j)
    assert toeplitz_step([1, 0.5], 0) == pytest.approx(0.25, abs=1e-14)
    c2 = toeplitz_step([1, 0.5], 1 - DELTA_MIN)
    T = scipy.linalg.toeplitz(np.array([1, 0.5, c2]))
    lam = scipy.linalg.eigvalsh(T)[0]
    assert 0 <= lam <= 1e-5
    with pytest.raises(ParameterError):
        toeplitz_step([2.0, 0.5], 0)
    with pytest.raises(ParameterError):
        toeplitz_step([], 0)
    with pytest.raises(NotStrictError):
        toeplitz_step([1.0, 1.0], 0)
    with pytest.raises(ParameterError):
        toeplitz_step([1, 0.5], 1.0)
    for bad in ([1, np.nan], [1, np.inf], [np.nan]):
        with pytest.raises(ParameterError, match="finite"):
            toeplitz_step(bad, 0)


def test_toeplitz_step_keeps_sequences_positive():
    rng = np.random.default_rng(3)
    for trial in range(8):
        c = [1.0 + 0j]
        for _ in range(5):
            z = 0.9 * rng.uniform(0, 1) * np.exp(2j * np.pi * rng.uniform())
            c.append(toeplitz_step(c, z))
            lam = scipy.linalg.eigvalsh(scipy.linalg.toeplitz(np.array(c)))[0]
            assert lam > 0, (trial, len(c), lam)


def test_group_walk_agrees_with_toeplitz_on_letter_powers():
    rng = np.random.default_rng(11)
    for trial in range(6):
        z_geo = 0.45 * np.exp(2j * np.pi * rng.uniform())
        c = [1.0 + 0j]
        for n in range(1, 5):
            zeta = 0.8 * rng.uniform(0, 1) * np.exp(2j * np.pi * rng.uniform())
            group_fn = embed_toeplitz(c, n)
            v_group = extend_entry(group_fn, zeta).scalar((0,) * n, 1, 1)
            v_circle = toeplitz_step(c, zeta)
            assert abs(v_group - v_circle) < 1e-10, (trial, n)
            c.append(v_circle)
        del z_geo


def test_group_walk_agrees_on_geometric_sequences():
    for z in (0.4 + 0.2j, -0.3 + 0.35j, 0.55):
        for n in range(1, 5):
            c = [z**k for k in range(n)]
            c[0] = 1.0 + 0j
            zeta = 0.3 + 0.25j
            v_group = extend_entry(embed_toeplitz(c, n), zeta).scalar((0,) * n, 1, 1)
            v_circle = toeplitz_step(c, zeta)
            assert abs(v_group - v_circle) < 1e-10
