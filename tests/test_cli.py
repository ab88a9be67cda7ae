import dataclasses
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import freepd
from freepd import cli, energysolver, hilbert
from freepd.cli import dispatch, main
from freepd.errors import (
    DegenerateStageError,
    FormatError,
    ParameterError,
    SingularizationError,
    SurgeryError,
)
from freepd.extend import _stage_error, toeplitz_step
from freepd.pdcore import (
    Domain,
    PDFunction,
    canonical_words,
    load_function,
    random_nspd,
    restrict_to_stage,
    save_function,
)
from freepd.words import ball
from helpers import random_labeled_graph


def run(*argv):
    return dispatch([str(x) for x in argv])


def test_random_then_check(tmp_path):
    fn = tmp_path / "fn.json"
    res = run("random", "--r", 2, "--d", 2, "--seed", 3, "--out", fn)
    assert res.code == 0
    res = run("check", fn)
    assert res.code == 0
    assert "strict" in res.summary
    report = json.loads((tmp_path / "fn.report.json").read_text())
    assert report["status"] == "strict"
    assert report["min_eigenvalue"] > 0


def test_extend_then_check(tmp_path):
    fn = tmp_path / "fn.json"
    big = tmp_path / "big.json"
    run("random", "--r", 1, "--d", 2, "--seed", 7, "--out", fn)
    res = run("extend", fn, "--radius", 4, "--out", big)
    assert res.code == 0
    assert run("check", big).code == 0
    assert load_function(big).domain.r == 4


def test_check_rejects_non_pd(tmp_path):
    fn = tmp_path / "bad.json"
    fn.write_text(json.dumps({
        "d": 1,
        "domain": {"kind": "ball", "r": 1},
        "entries": {"a": [[[1.7, 0.0]]], "b": [[[0.0, 0.0]]]},
    }))
    res = run("check", fn)
    assert res.code == 1
    report = json.loads((tmp_path / "bad.report.json").read_text())
    assert report["status"] == "not_pd"
    assert report["witness"]


@pytest.mark.parametrize("tol", ["nan", "inf", "-1"])
def test_check_rejects_a_tolerance_that_is_not_finite_and_nonnegative(tmp_path, tol):
    fn = tmp_path / "bad.json"
    fn.write_text(json.dumps({
        "d": 1,
        "domain": {"kind": "ball", "r": 1},
        "entries": {"a": [[[2.0, 0.0]]], "b": [[[0.0, 0.0]]]},
    }))
    res = run("check", fn, "--tol", tol)
    assert res.code == 2
    assert "'tol'" in res.summary
    assert not (tmp_path / "bad.report.json").exists()


def test_energy_identity_prints_ones(tmp_path):
    fn = tmp_path / "fn.json"
    big = tmp_path / "big.json"
    run("random", "--r", 1, "--d", 1, "--seed", 1, "--out", fn)
    run("extend", fn, "--radius", 4, "--out", big)
    res = run("energy", big, big)
    assert res.code == 0
    lines = res.summary.splitlines()
    assert len(lines) == 2
    for line in lines:
        assert line.endswith("1.00000000000")
    report = json.loads((tmp_path / "big.report.json").read_text())
    assert set(report["energies"]) == {"1", "2"}


def test_energy_explicit_radii(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    run("random", "--r", 2, "--d", 1, "--seed", 2, "--out", a)
    run("random", "--r", 2, "--d", 1, "--seed", 5, "--out", b)
    res = run("energy", a, b, "--radii", "1")
    assert res.code == 0
    assert res.summary.startswith("r=1: ")
    value = float(res.summary.split()[-1])
    assert value >= 1.0
    assert run("energy", a, b, "--radii", "one").code == 2


@pytest.mark.parametrize("radii", [" ", ",", " , "])
def test_energy_radii_without_an_integer_exit_2(tmp_path, radii):
    # the library refuses an empty radius list; only the empty default means all
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    run("random", "--r", 2, "--d", 1, "--seed", 2, "--out", a)
    run("random", "--r", 2, "--d", 1, "--seed", 5, "--out", b)
    res = run("energy", a, b, "--radii", radii)
    assert res.code == 2 and "'radii'" in res.summary
    assert not (tmp_path / "a.report.json").exists()


@pytest.mark.parametrize("radii", ["1,1", "1,0", "2,1"])
def test_energy_radii_not_increasing_exit_2_with_a_report(tmp_path, radii):
    # the order rule is energy_schedule's, refused as malformed input
    a = tmp_path / "a.json"
    run("random", "--r", 2, "--d", 1, "--seed", 2, "--out", a)
    res = run("energy", a, a, "--radii", radii)
    assert res.code == 2 and "'radii'" in res.summary
    assert res.report_path == str(tmp_path / "a.report.json")
    report = json.loads((tmp_path / "a.report.json").read_text())
    assert report["type"] == "FormatError" and "strictly increasing" in report["error"]
    assert "energies" not in report


@pytest.mark.parametrize("case, error", [
    ("singular", "NotStrictError"),
    ("domains", "DomainError"),
    ("radius", "ParameterError"),
])
def test_energy_failure_still_writes_a_report(tmp_path, case, error):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    run("random", "--r", 4 if case == "radius" else 2, "--d", 1, "--seed", 2, "--out", a)
    extra = ()
    if case == "singular":
        # the all-ones function is positive definite but singular
        save_function(PDFunction(1, Domain.ball(2), {w: [[1.0]] for w in ball(2)}), b)
    else:
        run("random", "--r", 4, "--d", 1, "--seed", 5, "--out", b)
    if case == "radius":
        extra = ("--radii", "3")
    res = run("energy", a, b, *extra)
    assert res.code == 1
    assert res.report_path == str(tmp_path / "a.report.json")
    report = json.loads((tmp_path / "a.report.json").read_text())
    assert report["a"] == str(a) and report["b"] == str(b)
    assert report["type"] == error
    assert report["error"] and "energies" not in report


def _stage_file(tmp_path, kind):
    """A Ball(3) function cut to the stage (aab, 1, 1) or the prefix up to aab."""
    B = random_nspd(3, 1)
    if kind == "partial":
        C = restrict_to_stage(B, "aab", 1, 1)
    else:
        keep = set(canonical_words(Domain.prefix("aab")))
        C = PDFunction(1, Domain.prefix("aab"),
                       {w: x for w, x in B.canonical_items() if w in keep})
    path = tmp_path / f"{kind}.json"
    save_function(C, path)
    return path


@pytest.mark.parametrize("kind", ["partial", "prefix"])
@pytest.mark.parametrize("radii", [(), ("--radii", "1")], ids=["default", "listed"])
def test_energy_off_a_ball_exits_1_with_a_report(tmp_path, kind, radii):
    p = _stage_file(tmp_path, kind)
    res = run("energy", p, p, *radii)
    assert res.code == 1
    assert res.report_path == str(tmp_path / f"{kind}.report.json")
    report = json.loads((tmp_path / f"{kind}.report.json").read_text())
    assert sorted(report) == ["a", "b", "error", "type"]
    assert report["type"] == "DomainError" and "one ball" in report["error"]


def test_extend_failure_names_the_stage_in_a_report(tmp_path):
    # C(a) = 1 makes Theta(a) = Theta(e), so the first stage's residuals vanish
    fn = tmp_path / "semi.json"
    save_function(PDFunction(1, Domain.ball(1), {"a": 1.0, "b": 0.2}), fn)
    out = tmp_path / "big.json"
    res = run("extend", fn, "--radius", 3, "--out", out)
    assert res.code == 1 and not out.exists()
    assert res.report_path == str(tmp_path / "semi.report.json")
    report = json.loads((tmp_path / "semi.report.json").read_text())
    assert report["input"] == str(fn)
    assert report["type"] == "DegenerateStageError"
    assert report["stage"] == {"g": "aa", "j": 1, "k": 1}
    assert "(aa, 1, 1)" in report["error"] and "collapsed" in report["error"]
    # a failure outside the walk has no stage
    res = run("extend", fn, "--radius", 0, "--out", out)
    assert res.code == 1
    report = json.loads((tmp_path / "semi.report.json").read_text())
    assert report["type"] == "ParameterError" and report["stage"] is None


def _fresh_python(code, *args):
    """Run code in a new interpreter that imports freepd from these sources."""
    src = str(Path(freepd.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-c", code, *map(str, args)],
                          env=dict(os.environ, PYTHONPATH=path), capture_output=True,
                          text=True, timeout=120)


# runs one command through main, then prints the SciPy modules it loaded
_COMMAND_PROBE = """
import json, sys
from freepd.cli import main
code = main(sys.argv[1:])
print(json.dumps(sorted(m for m in sys.modules if m.split(".")[0] == "scipy")))
sys.exit(code)
"""


def _fresh_command(*argv):
    """(exit code, summary lines, SciPy modules loaded) of one command in a new interpreter."""
    proc = _fresh_python(_COMMAND_PROBE, *argv)
    *summary, modules = proc.stdout.splitlines()
    return proc.returncode, summary, json.loads(modules)


@pytest.mark.parametrize("package", ["scipy.stats", "scipy"])
def test_cli_import_leaves_scipy_unloaded(package):
    out = _fresh_python("import json, sys, freepd.cli; print(json.dumps(list(sys.modules)))")
    assert out.returncode == 0, out.stderr
    loaded = json.loads(out.stdout)
    assert [m for m in loaded if m == package or m.startswith(package + ".")] == []


def test_check_and_surgery_never_load_scipy(tmp_path):
    fn = tmp_path / "fn.json"
    save_function(random_nspd(3, 1, seed=4), fn)
    code, summary, modules = _fresh_command("check", fn)
    assert code == 0 and ": strict (" in summary[0]
    assert modules == []
    graph = tmp_path / "graph.json"
    graph.write_text(json.dumps(random_labeled_graph(240, 2, seed=5).to_dict()))
    code, summary, modules = _fresh_command("surgery", graph, "--R", 2, "--r", 1,
                                            "--out", tmp_path / "surgery.json", "--verify")
    assert code == 0 and "all conditions pass" in summary[0]
    assert modules == []


@pytest.mark.parametrize("r, d, seed, digest", [
    (3, 2, 7, "6f863c8b65e8a45e402c9f96232c2be0ac7c0d1f04dba81db11a235a17685c47"),
    (2, 3, 11, "d39ae0ccac4acb187f2cf9b1d900d0f2ff2282dcd78e38839520be58110d59a7"),
])
def test_random_loads_no_scipy_and_keeps_its_seeded_files(tmp_path, r, d, seed, digest):
    # the digests are of files written when random_nspd drew its unitaries
    # with scipy.stats.unitary_group (SciPy 1.17.1)
    out = tmp_path / "fn.json"
    code, summary, modules = _fresh_command("random", "--r", r, "--d", d, "--seed", seed,
                                            "--out", out)
    assert code == 0 and summary == [f"wrote a d={d} function on Ball({r}) to {out}"]
    assert modules == []
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


def test_energy_names_a_malformed_second_file(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    run("random", "--r", 2, "--d", 1, "--seed", 2, "--out", a)
    b.write_text(json.dumps({"d": 1, "domain": {"kind": "ball", "r": 2}}))
    res = run("energy", a, b)
    assert res.code == 2
    assert res.summary == f"malformed input at 'entries': {b}: missing required key 'entries'"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["a.json", "b.json"]


def test_energy_loads_scipy_at_its_first_pencil(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    save_function(random_nspd(3, 1, seed=4), a)
    save_function(random_nspd(3, 1, seed=5), b)
    code, summary, modules = _fresh_command("energy", a, b)
    assert code == 0 and "scipy.linalg" in modules
    assert summary == run("energy", a, b).summary.splitlines()


def test_toeplitz_matches_library():
    res = run("toeplitz", "--seq", "1,0.5,0.25", "--zeta", "0.3,0.1")
    assert res.code == 0
    expected = toeplitz_step([1, 0.5, 0.25], complex(0.3, 0.1))
    text = res.summary.split("=")[1].strip()
    re_part, rest = text.split("+") if "+" in text[1:] else (text, None)
    assert abs(float(text.split("+")[0]) - expected.real) < 1e-11


def test_toeplitz_rejects_bad_input():
    assert run("toeplitz", "--seq", "1,2", "--zeta", "0,0").code == 1
    assert run("toeplitz", "--seq", "1,0.5", "--zeta", "7").code == 2
    assert run("toeplitz", "--seq", "x", "--zeta", "0,0").code == 2
    for seq in ("1,nan", "1,inf", "nan"):
        res = run("toeplitz", "--seq", seq, "--zeta", "0,0")
        assert res.code == 2 and "'seq'" in res.summary


@pytest.mark.parametrize("number", ["nan", "inf", "-inf", "x"])
def test_float_flags_reject_what_is_not_a_finite_number(tmp_path, number):
    # --flag=value, since argparse would read a bare -inf as a flag
    for zeta in (f"{number},0", f"0,{number}"):
        res = run("toeplitz", "--seq", "1,0.5", f"--zeta={zeta}")
        assert res.code == 2 and "'zeta'" in res.summary
    res = run("random", "--r", 1, "--d", 1, f"--margin={number}", "--out", tmp_path / "fn.json")
    assert res.code == 2 and "'margin'" in res.summary
    assert not (tmp_path / "fn.json").exists()
    cfg = _tree_config(tmp_path)
    res = run("solve", "--config", cfg, "--radius", 3, f"--epsilon={number}",
              "--out", tmp_path / "out")
    assert res.code == 2 and "'epsilon'" in res.summary
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("seed", ["-1", "1.5", "x"])
def test_seed_flags_reject_what_is_not_a_nonnegative_integer(tmp_path, seed):
    res = run("random", "--r", 1, "--d", 1, "--seed", seed, "--out", tmp_path / "fn.json")
    assert res.code == 2 and "'seed'" in res.summary
    assert not (tmp_path / "fn.json").exists()
    cfg = _tree_config(tmp_path)
    res = run("solve", "--config", cfg, "--radius", 3, "--epsilon", 0.01,
              "--seed", seed, "--out", tmp_path / "out")
    assert res.code == 2 and "'seed'" in res.summary
    assert not (tmp_path / "out").exists()


def test_negative_seed_exits_2_through_main(tmp_path, capsys):
    cfg = _tree_config(tmp_path)
    capsys.readouterr()
    for argv in (["random", "--r", "1", "--d", "1", "--seed", "-1",
                  "--out", str(tmp_path / "fn.json")],
                 ["solve", "--config", str(cfg), "--radius", "3", "--epsilon", "0.01",
                  "--seed", "-1", "--out", str(tmp_path / "out")]):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "'seed'" in err and "Traceback" not in err


def _tree_config(tmp_path):
    run("random", "--r", 2, "--d", 1, "--seed", 9, "--out", tmp_path / "vfn.json")
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "shape": "tree", "r": 1, "d": 1, "root": "c",
        "vertices": {"a": "vfn.json", "b": "vfn.json", "c": "vfn.json"},
        "edges": [["a", "b"], ["b", "c"]],
    }))
    return cfg


def test_solve_tree_round_trip(tmp_path):
    cfg = _tree_config(tmp_path)
    out = tmp_path / "solved"
    res = run("solve", "--config", cfg, "--radius", 3, "--epsilon", 0.01, "--out", out)
    assert res.code == 0
    report = json.loads((out / "report.json").read_text())
    assert report["encost"] == pytest.approx(1.0, abs=1e-9)
    assert set(report["restriction_energy"]) == {"a", "b", "c"}
    assert all(x <= 1.0 + 0.01 for x in report["restriction_energy"].values())
    for name in ("a", "b", "c"):
        ext = load_function(out / f"{name}.json")
        assert ext.domain.r == 3


def test_solve_restriction_failure_still_writes_report(tmp_path, monkeypatch):
    real = cli.solve_configuration

    def over_budget(config, R, eps, seed=0):
        extensions, report = real(config, R, eps, seed=seed)
        worse = {v: 1.0 + 10 * eps for v in report.restriction_energy}
        worse["c"] = report.restriction_energy["c"]
        return extensions, dataclasses.replace(report, restriction_energy=worse)

    monkeypatch.setattr(cli, "solve_configuration", over_budget)
    cfg = _tree_config(tmp_path)
    out = tmp_path / "solved"
    res = run("solve", "--config", cfg, "--radius", 3, "--epsilon", 0.01, "--out", out)
    assert res.code == 1
    assert res.report_path == str(out / "report.json")
    assert "'a'" in res.summary and "'b'" in res.summary and "'c'" not in res.summary
    report = json.loads((out / "report.json").read_text())
    assert report["restriction_energy"]["a"] == pytest.approx(1.1)
    for name in ("a", "b", "c"):
        assert (out / f"{name}.json").exists()


def _failing_edge_solve(*args, **kwargs):
    raise ParameterError("eta must be a positive real number")


def _failing_stage_write(C, zeta):
    dom = C.domain
    raise _stage_error(DegenerateStageError("collapsed"), "residuals failed", dom.g, dom.j, dom.k)


@pytest.mark.parametrize("name, fake, kind, error", [
    ("_solve_edge_impl", _failing_edge_solve, "ParameterError",
     "stopped at stage (aaa, 1, 1): eta must be a positive real number"),
    ("extend_entry", _failing_stage_write, "DegenerateStageError",
     "residuals failed at stage (aaa, 1, 1): collapsed"),
], ids=["plain", "already-staged"])
def test_solve_failure_names_the_stage_in_a_report(tmp_path, monkeypatch, name, fake,
                                                   kind, error):
    monkeypatch.setattr(energysolver, name, fake)
    cfg = _tree_config(tmp_path)
    out = tmp_path / "solved"
    res = run("solve", "--config", cfg, "--radius", 3, "--epsilon", 0.01, "--out", out)
    assert res.code == 1
    assert res.summary == f"solve failed: {error}"
    report = json.loads((out / "report.json").read_text())
    assert list(report) == ["config", "error", "type", "stage"]
    assert report["error"] == error
    assert report["type"] == kind
    assert report["stage"] == {"g": "aaa", "j": 1, "k": 1}


def _no_descent(*args, **kwargs):
    raise AssertionError("the edge descent ran on a degenerate stage")


def test_solve_stops_before_descent_on_a_residual_at_the_threshold(tmp_path, monkeypatch):
    # a residual norm of 1e-11 is below DEFAULT_TOL, the one residual threshold
    residuals = hilbert.PartialHilbertSpace.residuals
    monkeypatch.setattr(hilbert.PartialHilbertSpace, "residuals",
                        lambda self: (1e-11, *residuals(self)[1:]))
    monkeypatch.setattr(energysolver, "_solve_edge_impl", _no_descent)
    cfg = _tree_config(tmp_path)
    out = tmp_path / "solved"
    res = run("solve", "--config", cfg, "--radius", 3, "--epsilon", 0.01, "--out", out)
    assert res.code == 1
    report = json.loads((out / "report.json").read_text())
    assert report["type"] == "DegenerateStageError"
    assert report["stage"] == {"g": "aaa", "j": 1, "k": 1}
    assert report["error"].startswith(
        "stopped at stage (aaa, 1, 1): residual norm collapsed (n_g=1.000e-11")


def test_solve_same_seed_gives_identical_files(tmp_path):
    cfg = _tree_config(tmp_path)
    outs = [tmp_path / "one", tmp_path / "two"]
    for out in outs:
        res = run("solve", "--config", cfg, "--radius", 3, "--epsilon", 0.01,
                  "--seed", 4, "--out", out)
        assert res.code == 0
    for name in ("report.json", "a.json", "b.json", "c.json"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


@pytest.mark.parametrize("command", ["extend", "check", "energy", "surgery"])
def test_other_commands_give_identical_files(tmp_path, command):
    fn, other = tmp_path / "fn.json", tmp_path / "other.json"
    run("random", "--r", 2, "--d", 1, "--seed", 3, "--out", fn)
    run("random", "--r", 2, "--d", 1, "--seed", 8, "--out", other)
    graph = tmp_path / "graph.json"
    graph.write_text(json.dumps(random_labeled_graph(240, 2, seed=5).to_dict()))
    argv = {
        "extend": lambda out: ("extend", fn, "--radius", 4, "--out", out),
        "check": lambda out: ("check", fn),
        "energy": lambda out: ("energy", fn, other),
        "surgery": lambda out: ("surgery", graph, "--R", 2, "--r", 1,
                                "--out", out, "--verify"),
    }[command]
    outputs = []
    for tag in ("one", "two"):
        res = run(*argv(tmp_path / f"{tag}.json"))
        assert res.code == 0
        outputs.append(Path(res.report_path).read_bytes())
    assert outputs[0] == outputs[1]


def _write_config(tmp_path, **fields):
    """A path configuration over vfn.json; a field given as None is left out."""
    obj = {
        "shape": "tree", "r": 1, "d": 1, "root": "c",
        "vertices": {"a": "vfn.json", "b": "vfn.json", "c": "vfn.json"},
        "edges": [["a", "b"], ["b", "c"]], **fields,
    }
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({k: v for k, v in obj.items() if v is not None}))
    return cfg


@pytest.mark.parametrize("fields, key", [
    ({"root": None}, "root"),
    ({"edges": [["a", "b"], ["b", "z"]]}, "edges"),
], ids=["rootless-tree", "unknown-endpoint"])
def test_solve_misshapen_config_names_the_field(tmp_path, fields, key):
    run("random", "--r", 2, "--d", 1, "--seed", 9, "--out", tmp_path / "vfn.json")
    cfg = _write_config(tmp_path, **fields)
    out = tmp_path / "x"
    res = run("solve", "--config", cfg, "--radius", 3, "--epsilon", 0.01, "--out", out)
    assert res.code == 2
    assert res.summary.startswith(f"malformed input at {key!r}")
    assert not out.exists()


def test_solve_wrong_data_ball_still_writes_report(tmp_path):
    run("random", "--r", 1, "--d", 1, "--seed", 9, "--out", tmp_path / "vfn.json")
    cfg = _write_config(tmp_path)
    out = tmp_path / "x"
    res = run("solve", "--config", cfg, "--radius", 3, "--epsilon", 0.01, "--out", out)
    assert res.code == 1
    assert res.report_path == str(out / "report.json")
    report = json.loads((out / "report.json").read_text())
    assert report["type"] == "DomainError" and "Ball(2)" in report["error"]


def test_solve_malformed_config(tmp_path):
    fn = tmp_path / "vfn.json"
    run("random", "--r", 2, "--d", 1, "--seed", 9, "--out", fn)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "shape": "tree", "r": 1, "d": 1,
        "vertices": {"a": "vfn.json"},
    }))
    res = run("solve", "--config", cfg, "--radius", 3, "--epsilon", 0.01,
              "--out", tmp_path / "x")
    assert res.code == 2
    assert "edges" in res.summary


@pytest.mark.parametrize("content, key", [
    ("[1, 2]", "configuration"),
    ('{"vertices": {}}', "vertices"),
    ('{"vertices": ["vfn.json"]}', "vertices"),
    ('{"vertices": {"a": 3}}', "vertices"),
    ("{not json", None),
    (None, None),
], ids=["not-an-object", "no-vertices", "vertex-list", "vertex-number", "not-json",
        "unreadable"])
def test_solve_unusable_config_exits_2_naming_the_key(tmp_path, content, key):
    # a config that cannot be read or parsed is named by its path
    cfg = tmp_path / "cfg.json"
    if content is not None:
        cfg.write_text(content)
    out = tmp_path / "x"
    res = run("solve", "--config", cfg, "--radius", 3, "--epsilon", 0.01, "--out", out)
    assert res.code == 2
    assert res.summary.startswith(f"malformed input at {key or str(cfg)!r}")
    assert not out.exists()


def test_solve_missing_vertex_file(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "shape": "tree", "r": 1, "d": 1,
        "vertices": {"a": "nowhere.json"},
        "edges": [],
    }))
    res = run("solve", "--config", cfg, "--radius", 3, "--epsilon", 0.01,
              "--out", tmp_path / "x")
    assert res.code == 2


def test_solve_names_a_malformed_vertex_file(tmp_path):
    fn = tmp_path / "vfn.json"
    fn.write_text(json.dumps({"d": 1, "domain": {"kind": "ball", "r": 2}}))
    cfg = _write_config(tmp_path)
    out = tmp_path / "x"
    res = run("solve", "--config", cfg, "--radius", 3, "--epsilon", 0.01, "--out", out)
    assert res.code == 2
    assert res.summary == f"malformed input at 'entries': {fn}: missing required key 'entries'"
    assert not out.exists()


def test_surgery_cli_with_verify(tmp_path):
    g = random_labeled_graph(240, 2, seed=5)
    graph = tmp_path / "graph.json"
    graph.write_text(json.dumps(g.to_dict()))
    out = tmp_path / "surgery.json"
    res = run("surgery", graph, "--R", 2, "--r", 1, "--out", out, "--verify")
    assert res.code == 0
    payload = json.loads(out.read_text())
    assert all(entry["pass"] for entry in payload["conditions"].values())
    assert payload["graph"]["n"] - g.n == len(
        [v for vs in payload["inserted"].values() for v in vs]
    )


def test_surgery_cli_verify_failure_exits_1_and_still_writes(tmp_path, monkeypatch):
    real = cli.verify_conditions

    def failing(*args):
        report = real(*args)
        report["G-3"] = {**report["G-3"], "pass": False}
        return report

    monkeypatch.setattr(cli, "verify_conditions", failing)
    graph = tmp_path / "graph.json"
    graph.write_text(json.dumps(random_labeled_graph(240, 2, seed=5).to_dict()))
    out = tmp_path / "surgery.json"
    res = run("surgery", graph, "--R", 2, "--r", 1, "--out", out, "--verify")
    assert res.code == 1 and res.summary.endswith("; FAILED G-3")
    assert res.report_path == str(out)
    payload = json.loads(out.read_text())
    assert not payload["conditions"]["G-3"]["pass"] and "graph" in payload


def test_surgery_cli_malformed_graph(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"n": 3, "perm_a": [0, 1, 2]}))
    res = run("surgery", bad, "--R", 2, "--r", 1, "--out", tmp_path / "x.json")
    assert res.code == 2
    assert "perm_b" in res.summary


def test_surgery_cli_precondition_failure(tmp_path):
    small = tmp_path / "small.json"
    small.write_text(json.dumps({
        "n": 8,
        "perm_a": list(range(1, 8)) + [0],
        "perm_b": list(range(1, 8)) + [0],
    }))
    res = run("surgery", small, "--R", 2, "--r", 1, "--out", tmp_path / "x.json")
    assert res.code == 1
    assert json.loads((tmp_path / "x.json").read_text())["type"] == "SurgeryError"


def test_surgery_failure_still_writes_a_report(tmp_path):
    # two a-cycles of length 4, below the max(4R, 8) = 8 that R = 2 needs
    graph = tmp_path / "short.json"
    graph.write_text(json.dumps({
        "n": 8,
        "perm_a": [1, 2, 3, 0, 5, 6, 7, 4],
        "perm_b": list(range(1, 8)) + [0],
    }))
    out = tmp_path / "result.json"
    res = run("surgery", graph, "--R", 2, "--r", 1, "--out", out, "--verify")
    assert res.code == 1
    assert res.report_path == str(out)
    report = json.loads(out.read_text())
    assert sorted(report) == ["error", "graph", "type"]
    assert report["graph"] == str(graph)
    assert report["type"] == "SurgeryError"
    assert "length 4" in report["error"]


@pytest.mark.parametrize("number", ["100000000000000000000", "1" + "0" * 400])
def test_check_huge_integer_cell_exits_2_naming_the_entry(tmp_path, number):
    # 10**20 is no int64 and 10**400 no float; both once escaped as TypeError
    fn = tmp_path / "huge.json"
    fn.write_text('{"d": 1, "domain": {"kind": "ball", "r": 1}, "entries": '
                  '{"a": [[[0.1, 0.0]]], "b": [[[' + number + ', 0.0]]]}}')
    res = run("check", fn)
    assert res.code == 2
    assert "'entries.b'" in res.summary
    assert not (tmp_path / "huge.report.json").exists()


@pytest.mark.parametrize("d", [10 ** 12, 2 ** 70])
def test_check_huge_d_exits_2_naming_the_first_missing_entry(tmp_path, d):
    # once an uncaught "array is too big" and exit 1
    fn = tmp_path / "huge.json"
    fn.write_text(json.dumps({"d": d, "domain": {"kind": "ball", "r": 1}, "entries": {}}))
    res = run("check", fn)
    assert res.code == 2
    assert "malformed input at 'entries.a'" in res.summary
    assert not (tmp_path / "huge.report.json").exists()


@pytest.mark.parametrize("d", [10 ** 12, 2 ** 70])
def test_check_huge_d_on_ball_0_exits_2_naming_d(tmp_path, d):
    # Ball(0) needs no entry, so the (0, d, d) stack was allocated and
    # NumPy's "array is too big" ended the command with exit 1
    fn = tmp_path / "huge.json"
    fn.write_text(json.dumps({"d": d, "domain": {"kind": "ball", "r": 0}, "entries": {}}))
    res = run("check", fn)
    assert res.code == 2
    assert "malformed input at 'd'" in res.summary
    assert not (tmp_path / "huge.report.json").exists()


def test_check_too_large_to_check_exits_1_and_still_writes(tmp_path, monkeypatch):
    # d = 10**6 on Ball(0) is a valid file (its stack holds no bytes), but
    # check_pd's d x d blocks do not fit in memory; the allocation failure is
    # stood in for here, so no such block is ever requested
    message = "Unable to allocate 7.28 TiB for an array with shape (1000000, 1000000)"

    def too_large(C, tol):
        assert C.d == 10 ** 6
        raise MemoryError(message)

    monkeypatch.setattr(cli, "check_pd", too_large)
    fn = tmp_path / "big.json"
    fn.write_text(json.dumps({"d": 10 ** 6, "domain": {"kind": "ball", "r": 0}, "entries": {}}))
    res = run("check", fn)
    assert res.code == 1 and res.summary.startswith("check failed: Unable to allocate 7.28 TiB")
    assert res.report_path == str(tmp_path / "big.report.json")
    report = json.loads((tmp_path / "big.report.json").read_text())
    assert report == {"input": str(fn), "error": message, "type": "MemoryError"}


def _loaded_run(tmp_path, command):
    """argv of command on valid inputs, the library call it makes once they
    load, the path of its failure report and the input fields it repeats.
    solve and surgery write into a directory that does not exist yet."""
    fn, graph, out = tmp_path / "fn.json", tmp_path / "graph.json", tmp_path / "out"
    run("random", "--r", 2, "--d", 1, "--seed", 3, "--out", fn)
    cfg = _tree_config(tmp_path)
    graph.write_text(json.dumps(random_labeled_graph(240, 2, seed=5).to_dict()))
    return {
        "check": (("check", fn), "check_pd", tmp_path / "fn.report.json", {"input": str(fn)}),
        "extend": (("extend", fn, "--radius", 3, "--out", tmp_path / "big.json"),
                   "central_extension", tmp_path / "fn.report.json", {"input": str(fn)}),
        "energy": (("energy", fn, fn), "energy_schedule", tmp_path / "fn.report.json",
                   {"a": str(fn), "b": str(fn)}),
        "solve": (("solve", "--config", cfg, "--radius", 3, "--epsilon", 0.01, "--out", out),
                  "solve_configuration", out / "report.json", {"config": str(cfg)}),
        "surgery": (("surgery", graph, "--R", 2, "--r", 1, "--out", out / "s.json", "--verify"),
                    "perform_surgery", out / "s.json", {"graph": str(graph)}),
    }[command]


class _ArrayMemoryError(MemoryError):
    """Stands in for NumPy's own MemoryError subclass."""


_COMMANDS = ["check", "extend", "energy", "solve", "surgery"]


@pytest.mark.parametrize("error", [SingularizationError("injected"),
                                   _ArrayMemoryError("injected")], ids=["library", "memory"])
@pytest.mark.parametrize("command", _COMMANDS)
def test_a_failure_after_the_inputs_load_exits_1_with_a_report(tmp_path, monkeypatch, command,
                                                               error):
    argv, target, path, inputs = _loaded_run(tmp_path, command)

    def failing(*args, **kwargs):
        raise error

    monkeypatch.setattr(cli, target, failing)
    res = run(*argv)
    assert (res.code, res.report_path) == (1, str(path))
    assert res.summary == f"{command} failed: injected"
    kind = "MemoryError" if isinstance(error, MemoryError) else "SingularizationError"
    staged = {"stage": None} if command in ("extend", "solve") else {}
    assert json.loads(path.read_text()) == {**inputs, "error": "injected", "type": kind, **staged}


@pytest.mark.parametrize("command", _COMMANDS)
def test_a_format_error_after_the_inputs_load_exits_2_without_a_report(tmp_path, monkeypatch,
                                                                       command):
    argv, target, path, _ = _loaded_run(tmp_path, command)

    def malformed(*args, **kwargs):
        raise FormatError("injected", "injected")

    monkeypatch.setattr(cli, target, malformed)
    res = run(*argv)
    assert (res.code, res.report_path) == (2, "")
    assert res.summary == "malformed input at 'injected': injected"
    assert not path.exists()


def test_surgery_verify_raising_exits_1_with_a_report(tmp_path, monkeypatch):
    # once exit 1 with no report: only perform_surgery's failures were caught
    def raising(*args):
        raise SurgeryError("a G-check could not run")

    monkeypatch.setattr(cli, "verify_conditions", raising)
    graph = tmp_path / "graph.json"
    graph.write_text(json.dumps(random_labeled_graph(240, 2, seed=5).to_dict()))
    out = tmp_path / "surgery.json"
    res = run("surgery", graph, "--R", 2, "--r", 1, "--out", out, "--verify")
    assert res.code == 1 and res.summary == "surgery failed: a G-check could not run"
    assert json.loads(out.read_text()) == {
        "graph": str(graph), "error": "a G-check could not run", "type": "SurgeryError"}


def test_missing_file_exits_2(tmp_path):
    assert run("check", tmp_path / "missing.json").code == 2


def test_unwritable_output_exits_2_naming_it(tmp_path):
    fn = tmp_path / "fn.json"
    save_function(random_nspd(2, 1, seed=1), fn)
    # a missing output directory is made
    out = tmp_path / "missing" / "big.json"
    res = run("extend", fn, "--radius", 3, "--out", out)
    assert res.code == 0 and load_function(out).domain == Domain.ball(3)
    # an output that is a directory, and an output directory that is a file
    (tmp_path / "dir").mkdir()
    res = run("extend", fn, "--radius", 3, "--out", tmp_path / "dir")
    assert res.code == 2 and res.summary.startswith(f"cannot write {tmp_path / 'dir'}: ")
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({
        "shape": "tree", "r": 1, "d": 1, "root": "u", "vertices": {"u": "fn.json"}, "edges": [],
    }))
    res = run("solve", "--config", config, "--radius", 2, "--epsilon", 0.1, "--out", fn)
    assert res.code == 2 and res.summary.startswith(f"cannot write {fn}: ")
    # no temp file is left behind
    assert sorted(p.name for p in tmp_path.rglob("*")) == [
        "big.json", "cfg.json", "dir", "fn.json", "missing"]


def test_a_result_into_a_missing_directory_is_written(tmp_path):
    graph = tmp_path / "graph.json"
    graph.write_text(json.dumps(random_labeled_graph(240, 2, seed=5).to_dict()))
    here, there = tmp_path / "s.json", tmp_path / "od" / "missing" / "s.json"
    for out in (here, there):
        res = run("surgery", graph, "--R", 2, "--r", 1, "--out", out)
        assert (res.code, res.report_path) == (0, str(out))
    assert there.read_bytes() == here.read_bytes()
    assert sorted(p.name for p in (tmp_path / "od").rglob("*")) == ["missing", "s.json"]


def test_bad_arguments_exit_2(capsys):
    extend = ["extend", "x.json", "--radius", "3", "--out", "y.json"]
    # check --brute-force and extend --policy are retired: argparse must not know them
    for argv in (["check"], extend + ["--policy", "fanciful"], extend + ["--policy", "central"],
                 ["check", "x.json", "--brute-force"]):
        with pytest.raises(SystemExit) as info:
            dispatch(argv)
        assert info.value.code == 2
    err = capsys.readouterr().err
    assert "unrecognized arguments: --policy central" in err
    assert "unrecognized arguments: --brute-force" in err


def test_main_prints_and_returns(tmp_path, capsys):
    fn = tmp_path / "fn.json"
    assert main(["random", "--r", "1", "--d", "1", "--seed", "0",
                 "--out", str(fn)]) == 0
    assert str(fn) in capsys.readouterr().out
    assert main(["check", str(tmp_path / "none.json")]) == 2
    assert "cannot load" in capsys.readouterr().err
