"""Mutation fuzz of the three JSON loaders: whatever a file holds, a loader
raises nothing but FormatError (the CLI's exit 2), except for the documented
unfit-function errors of a well-formed configuration; and the function
reader gives what its per-entry oracle gives, stack or error."""

import math

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from freepd.energysolver import configuration_from_dict
from freepd.errors import DomainError, FormatError, ParameterError
from freepd.pdcore import function_from_dict, random_nspd, restrict_to_stage
from freepd.surgery import LabeledGraph
from helpers import function_to_dict, per_entry_function_from_dict, source_loader

FUZZ = settings(derandomize=True, max_examples=120, deadline=None, database=None,
                suppress_health_check=[HealthCheck.too_slow])

# numbers a JSON reader may hand over: huge integers, non-finite floats
NUMBERS = st.integers() | st.floats() | st.sampled_from([10 ** 20, -10 ** 400, 2 ** 63])
KEYS = st.text(alphabet="abABex", max_size=4)
LEAVES = st.none() | st.booleans() | NUMBERS | st.text(max_size=3)
JSON = st.recursive(
    LEAVES,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(KEYS, inner, max_size=3),
    max_leaves=6,
)


def mutate(data, value):
    """A copy of a JSON value with one edit somewhere inside it: a node
    replaced (a number mostly by another number), or a key or item dropped,
    added or duplicated."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return data.draw(NUMBERS | JSON)
    if not isinstance(value, (dict, list)) or not value or data.draw(st.integers(0, 5)) == 0:
        return data.draw(JSON)
    op = data.draw(st.sampled_from(["edit", "edit", "drop", "add"]))
    if isinstance(value, dict):
        out = dict(value)
        key = data.draw(st.sampled_from(sorted(out)))
        if op == "drop":
            del out[key]
        elif op == "add":
            out[data.draw(KEYS)] = data.draw(JSON)
        else:
            out[key] = mutate(data, out[key])
        return out
    out = list(value)
    i = data.draw(st.integers(0, len(out) - 1))
    if op == "drop":
        del out[i]
    elif op == "add":
        out.insert(i, out[i])
    else:
        out[i] = mutate(data, out[i])
    return out


def _base_functions():
    C = random_nspd(2, 2, seed=3)
    return [function_to_dict(random_nspd(1, 2, seed=1)),
            function_to_dict(restrict_to_stage(C, "ab", 2, 1))]


def _both_ways():
    """A Ball(3), d = 2 file in reversed key order that gives both g and
    g^-1 for a few g, conjugate transposed, with integer cells and signed
    zeros."""
    obj = function_to_dict(random_nspd(3, 2, seed=5))
    ent = obj["entries"]
    ent["a"] = [[[0, -0.0], [1, 0]], [[-0.0, 2], [0.25, -0.0]]]
    ent["ab"][0][1] = [-0.0, -0.0]
    ent["bbb"][1][0] = [-3, 0.0]
    for w in ("a", "ab", "aB", "ba", "bbb"):
        m = ent[w]
        ent[w[::-1].swapcase()] = [[[m[k][j][0], -m[k][j][1]] for k in range(2)] for j in range(2)]
    obj["entries"] = dict(reversed(ent.items()))
    return obj


BASE_FUNCTIONS = _base_functions()
BASE_GRAPH = {"n": 5, "perm_a": [1, 2, 3, 4, 0], "perm_b": [2, 0, 4, 1, 3]}
LOAD_VERTEX = source_loader({f"{v}.json": random_nspd(2, 1, seed=i)
                             for i, v in enumerate("abc")})
BASE_CONFIGS = [
    {"shape": "tree", "r": 1, "d": 1, "vertices": {v: f"{v}.json" for v in "abc"},
     "edges": [["a", "b"], ["b", "c"]], "root": "c"},
    {"shape": "cycle", "r": 1, "d": 1, "vertices": {v: f"{v}.json" for v in "abc"},
     "edges": [["a", "b"], ["b", "c"], ["c", "a"]]},
]


def test_unmutated_bases_load():
    for obj in BASE_FUNCTIONS:
        function_from_dict(obj)
    LabeledGraph.from_dict(BASE_GRAPH)
    for obj in BASE_CONFIGS:
        configuration_from_dict(obj, LOAD_VERTEX)


@FUZZ
@given(st.data())
def test_function_loader_raises_only_format_errors(data):
    obj = mutate(data, data.draw(st.sampled_from(BASE_FUNCTIONS)))
    try:
        function_from_dict(obj)
    except FormatError:
        pass


@FUZZ
@given(st.data())
def test_graph_loader_raises_only_format_errors(data):
    obj = mutate(data, BASE_GRAPH)
    try:
        LabeledGraph.from_dict(obj)
    except FormatError:
        pass


@FUZZ
@given(st.data())
def test_configuration_loader_raises_only_format_errors(data):
    obj = mutate(data, data.draw(st.sampled_from(BASE_CONFIGS)))
    try:
        configuration_from_dict(obj, LOAD_VERTEX)
    except FormatError:
        pass
    except (ParameterError, DomainError):
        # a well-formed file whose d or r the Ball(2), d = 1 functions do not fit
        assert (obj["r"], obj["d"]) != (1, 1)


@FUZZ
@given(st.data())
def test_function_loader_matches_the_per_entry_oracle(data):
    # the file-at-once reader gives the per-entry reader's stack bit for bit,
    # or its error with the same key and message
    obj = data.draw(st.sampled_from(BASE_FUNCTIONS + [_both_ways()]))
    if data.draw(st.booleans()):  # the whole object, or its entries only
        obj = mutate(data, obj)
    else:
        obj = dict(obj, entries=mutate(data, obj["entries"]))
    try:
        d, domain, stack = per_entry_function_from_dict(obj)
    except FormatError as want:
        with pytest.raises(FormatError) as got:
            function_from_dict(obj)
        assert (got.value.key, str(got.value)) == (want.key, str(want))
    else:
        C = function_from_dict(obj)
        assert (C.d, C.domain) == (d, domain) and C._stack.tobytes() == stack.tobytes()


def test_the_both_ways_base_reads_as_the_oracle_reads_it():
    obj = _both_ways()
    d, domain, stack = per_entry_function_from_dict(obj)
    C = function_from_dict(obj)
    assert C._stack.tobytes() == stack.tobytes()
    # read from "A", conjugate transposed, with the signs of its zeros kept
    assert list(obj["entries"]).index("A") < list(obj["entries"]).index("a")
    z, w = C.scalar("a", 2, 1), C.scalar("a", 1, 1)
    assert (z, w) == (2j, 0) and math.copysign(1, z.real) == math.copysign(1, w.imag) == -1


@pytest.mark.parametrize("cell", [[10 ** 20, 0.0], [0.0, 10 ** 400], [float("nan"), 0.0]])
def test_function_loader_refuses_unreadable_numbers(cell):
    obj = function_to_dict(random_nspd(1, 1, seed=0))
    obj["entries"]["b"] = [[cell]]
    with pytest.raises(FormatError) as info:
        function_from_dict(obj)
    assert info.value.key == "entries.b"
