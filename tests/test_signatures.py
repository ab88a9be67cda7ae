"""The package's knobs: one tolerance a caller sets, and no unused solver parameters.

Every numerical check reads pdcore.DEFAULT_TOL where it runs; check_pd's tol
is the only threshold a caller passes (freepd check --tol sets it).  Solver
and search limits that no caller sets are module constants.
"""

import ast
import importlib
import inspect
import pkgutil
from pathlib import Path

import freepd
import freepd.words
from helpers import index_set

RETIRED = {"tol", "tol_edge", "certificate", "inits", "max_tries", "cap", "brute_force"}
ALLOWED = {("freepd.pdcore", "check_pd", "tol")}


def _public_callables():
    for info in pkgutil.iter_modules(freepd.__path__):
        module = importlib.import_module(f"freepd.{info.name}")
        for name, obj in vars(module).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(obj):
                yield module.__name__, name, obj
            elif inspect.isclass(obj):
                for attr, member in vars(obj).items():
                    member = getattr(member, "__func__", member)
                    if inspect.isfunction(member) and (attr == "__init__"
                                                       or not attr.startswith("_")):
                        yield module.__name__, f"{name}.{attr}", member


def test_no_public_signature_keeps_a_retired_knob():
    seen = set()
    found = []
    for module, name, fn in _public_callables():
        seen.add((module, name))
        for param in inspect.signature(fn).parameters:
            if param in RETIRED and (module, name, param) not in ALLOWED:
                found.append(f"{module}.{name}({param})")
    assert not found, found
    # the walk reaches the solver, the walk and the one tolerance that stays
    assert {("freepd.energysolver", "solve_configuration"), ("freepd.extend", "extend_entry"),
            ("freepd.pdcore", "check_pd"), ("freepd.pdcore", "PDFunction.__init__")} <= seen
    assert "tol" in inspect.signature(freepd.pdcore.check_pd).parameters


# the wrapped functions that left freepd, whose bench layers read absent: the
# index set is a test oracle (helpers.index_set), stage residuals come from
# hilbert._bordered, and stage pencils from energysolver._StagePencil
ABSENT = {"freepd.words.index_set", "freepd.hilbert.ortho_matrices", "freepd.energysolver._pencil"}


def _bench_targets():
    """(module, attribute) of every Target(...) in perfbench/layers.py, read as text."""
    tree = ast.parse((Path(__file__).parents[1] / "perfbench" / "layers.py").read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "Target":
            yield node.args[1].value, node.args[2].value


def test_the_word_layers_the_bench_wraps_stay_public():
    # perfbench/layers.py wraps freepd functions by module and attribute; a
    # rename or a fold would leave its traced layer silently absent
    targets = list(_bench_targets())
    assert len(targets) >= 20
    missing = set()
    for module, attr in targets:
        obj = importlib.import_module(module)
        for part in attr.split("."):
            obj = getattr(obj, part, None)
        if not callable(obj):
            missing.add(f"{module}.{attr}")
    assert missing <= ABSENT, sorted(missing - ABSENT)
    # words.clique is keyed by its first argument, the level
    words = freepd.words
    assert list(inspect.signature(words.clique).parameters) == ["g"]
    assert words.clique((0, 1)).level == (0, 1) == index_set((0, 1)).origin
