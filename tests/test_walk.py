"""The stage walk's steps against fresh builds.

Each walk step builds its successor through the one validator
(pdcore._next_stage, PDFunction._from_stack) and hands it nothing else:
the successor's residuals come from its own stage Gram alone.  The
oracles here are the constructor's validator on a copy of each stage
function, the stage Gram of a space built afresh on that copy, and
residuals from two Cholesky factors of that Gram.  A fresh
space computes the same residuals from the same Gram, so they must match
bit for bit.
"""

import gc
import hashlib
import struct
import weakref

import numpy as np
import pytest

from freepd import hilbert
from freepd.errors import DegenerateStageError, MissingEntryError, NotStrictError
from freepd.extend import (
    ParameterPolicy,
    SzegoParameter,
    _open_walk,
    _write_and_advance,
    central_policy,
    constant_policy,
    extend_ball,
    extend_entry,
)
from freepd.hilbert import ResidualData, build_partial_space, residual_data, residual_from_gram
from freepd.pdcore import Domain, PDFunction, _next_stage, random_nspd, restrict_to_stage
from freepd.words import next_novel
from helpers import fill_stage, library_caches, matches_two_factor_residuals, seeded_rim_policy


def _copy(C):
    return PDFunction._from_stack(C.d, C.domain, np.array(C._stack))


def _recording(policy, seen):
    def rule(stage, current, context):
        seen.append(current)
        return policy.rule(stage, current, context)

    return ParameterPolicy(rule, name=policy.name)


def _walk(d, policy):
    """Every stage function of a Ball(2) -> Ball(3) walk, 18 levels."""
    seen = []
    extend_ball(random_nspd(2, d, seed=d), 3, _recording(policy, seen))
    assert len(seen) == 18 * d * d
    return seen


@pytest.mark.parametrize("d", [1, 2, 3, 4])
@pytest.mark.parametrize("central", [True, False])
def test_every_stage_function_matches_the_validator_and_a_fresh_space(d, central):
    seen = _walk(d, central_policy() if central else seeded_rim_policy(40 + d))
    for C in seen:
        assert not C._stack.flags.writeable
        assert C == _copy(C)
        sp = C._stage_space
        fresh = build_partial_space(_copy(C))
        assert np.array_equal(sp.gram, fresh.gram, equal_nan=True)
        assert residual_data(sp) == residual_from_gram(sp.gram, sp.core_size)
        assert matches_two_factor_residuals(residual_data(sp), fresh)


# sha256 of the packed (n_g, n_e, cross.real, cross.imag) of the 72 stages of a
# d = 1 Ball(2) -> Ball(4) walk, as the solver's iteration counts depend on
# their last bits
PINNED = {
    "central": "f2f293d044200daff61c711699f7f6c34b1cb4929dbcceb8e730c04f17a1055a",
    "constant": "5ac56f25e07b1d8692f857ad2e17de5affea8b37d8b484d1836d758cc1e465d0",
}


@pytest.mark.parametrize("name", sorted(PINNED))
def test_the_d1_stage_numbers_keep_their_bits(name):
    policy = central_policy() if name == "central" else constant_policy(0.4 - 0.3j)
    digest, count = hashlib.sha256(), []

    def rule(stage, current, context):
        rd = context["residuals"]
        digest.update(struct.pack("<4d", rd.n_g, rd.n_e, rd.cross.real, rd.cross.imag))
        count.append(stage)
        return policy.rule(stage, current, context)

    extend_ball(random_nspd(2, 1, seed=9), 4, ParameterPolicy(rule, name=policy.name))
    assert len(count) == 72 and digest.hexdigest() == PINNED[name]


@pytest.mark.parametrize("d", [1, 2, 3])
def test_a_copy_gets_the_handed_on_residuals_bit_for_bit(d):
    for C in _walk(d, seeded_rim_policy(60 + d)):
        handed, fresh = C._stage_space, build_partial_space(_copy(C))
        assert residual_data(fresh) == residual_data(handed)


def test_two_successors_of_one_stage_grow_independently():
    d = 3
    stage = _open_walk(random_nspd(2, d, seed=11))
    for _ in range(d + 1):  # to (g, 2, 2), mid-level
        stage = extend_entry(stage, 0.2 + 0.1j)
    kept = np.array(stage._stack)
    walks = [extend_entry(stage, z) for z in (0.6j, -0.5)]
    rng = np.random.default_rng(3)
    # interleaved, so that state shared between the two would show
    while walks[0].domain.g == stage.domain.g:
        for i, C in enumerate(walks):
            fresh = build_partial_space(_copy(C))
            assert matches_two_factor_residuals(residual_data(build_partial_space(C)), fresh)
            walks[i] = extend_entry(C, 0.7 * rng.uniform() * np.exp(2j * np.pi * rng.uniform()))
    assert walks[0].domain == walks[1].domain == Domain.partial(next_novel(stage.domain.g), 1, 1)
    assert not np.array_equal(walks[0]._stack, walks[1]._stack)
    assert stage._stack.tobytes() == kept.tobytes()


def test_a_walk_leaves_kept_stages_alone_and_frees_the_others():
    kept, copies, early = [], [], []

    def rule(stage, current, context):
        if len(early) < 4:
            early.append(weakref.ref(current))
        elif len(kept) < 4:
            kept.append(current)
            copies.append((current.domain, current._stack.tobytes()))
        return 0.3 - 0.4j

    out = extend_ball(random_nspd(2, 2, seed=5), 3, ParameterPolicy(rule))
    gc.collect()
    assert all(ref() is None for ref in early)
    for C, (dom, data) in zip(kept, copies):
        assert C.domain == dom and C._stack.tobytes() == data
    assert out.domain == Domain.ball(3)


def test_a_collapsing_pivot_on_a_handed_on_walk_raises_as_a_fresh_build(monkeypatch):
    # a near-rim value at (g, 1, 1) pins (e, 1) almost onto (g, 1), so the
    # pivot (e, 1) brings into the core at (g, 2, 2) is small, while the
    # interior's and (g, 1)'s stay large
    C = extend_entry(_open_walk(random_nspd(2, 2, seed=7)), 0.99999)
    C = extend_entry(extend_entry(C, 0.0), 0.0)
    assert (C.domain.j, C.domain.k) == (2, 2)
    # the pivots of the stage core, interior then (g, 1), then (e, 1)
    sp = build_partial_space(C)
    at = sp.core_size - 1
    pivots = hilbert._factor(sp.gram[:sp.core_size, :sp.core_size])[1]
    entering, others = pivots[at], pivots[:at].min()
    assert hilbert.DEFAULT_TOL < entering < others / 10
    monkeypatch.setattr(hilbert, "DEFAULT_TOL", float(np.sqrt(entering * others)))
    with pytest.raises(NotStrictError) as handed:
        extend_entry(C, 0.0)
    with pytest.raises(NotStrictError) as fresh:
        extend_entry(_copy(C), 0.0)
    assert type(handed.value) is NotStrictError
    assert not isinstance(handed.value, DegenerateStageError)
    assert str(handed.value) == str(fresh.value)
    assert handed.value.stage == fresh.value.stage == ("aaa", 2, 2)
    assert f"position {at}" in str(handed.value)


def test_a_non_finite_write_still_goes_through_the_validator():
    C = _open_walk(random_nspd(2, 2, seed=2))
    nxt = Domain.partial(C.domain.g, 1, 2)
    with pytest.raises(MissingEntryError):
        _next_stage(C, complex("nan"), nxt)
    with pytest.raises(MissingEntryError):
        _write_and_advance(C, ResidualData(1.0, 1.0, complex("nan")), SzegoParameter(0))
    # an infinite value is no NaN, so the validator lets it through as before
    assert _next_stage(C, complex("inf"), nxt) == fill_stage(C, complex("inf"), nxt)
    # a finite one is the validated step, for a same-level and a new-level successor
    assert _next_stage(C, 0.25j, nxt) == fill_stage(C, 0.25j, nxt)
    last = restrict_to_stage(random_nspd(3, 2, seed=2), "aaa", 2, 2)
    opened = Domain.partial(next_novel(last.domain.g), 1, 1)
    assert _next_stage(last, 0.5, opened) == fill_stage(last, 0.5, opened)


def test_the_walk_does_no_tuple_word_work_per_level(monkeypatch):
    # a stage and a level are ranks inside the walk: the tuple-word calls a
    # walk makes do not grow with the number of levels it visits
    import sys

    from freepd import pdcore, words

    counted = {name: getattr(words, name) for name in ("shortlex_key", "inverse", "mul")}
    counted["canonical_rep"] = pdcore.canonical_rep
    calls = []

    def counting(fn):
        return lambda *args: calls.append(fn) or fn(*args)

    for name, module in list(sys.modules.items()):
        if module is not None and name.startswith("freepd"):
            for attr, fn in counted.items():
                if getattr(module, attr, None) is fn:
                    monkeypatch.setattr(module, attr, counting(fn))
    C = random_nspd(2, 2, seed=3)
    counts = []
    for R in (3, 4):  # 6 levels beyond Ball(2), then 24
        for cache in library_caches():
            cache.cache_clear()
        calls.clear()
        extend_ball(C, R, central_policy())
        counts.append(len(calls))
    assert counts[0] == counts[1]
