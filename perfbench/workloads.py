"""The four benchmark workloads: their inputs, CLI commands and oracles.

A workload generates instances into directories; ``k`` numbers the
instances of a run, and is -1 for the canary.  An instance holds the
argument lists of the ``freepd`` commands one round runs, the files those
commands write, and how many work items (stages, Gram blocks, vertices) a
round processes.  ``check`` is the untimed oracle of one finished round; it
returns ``(command index, message)`` pairs for every rejected output.
``digest`` condenses the outputs for comparison with ``reference``, the
stored canary reference from ``golden.json``, and ``counters`` reads
per-layer counts the program writes into its outputs.  ``golden.json``
holds each workload's full-size canary; a reduced (``quick``) canary is
checked against the matching restriction of it, except surgery's, whose
reduced graph is a different graph with a reference of its own.
"""

import hashlib
import json
import shutil
from pathlib import Path

import numpy as np

import inputs
import oracle

MARGIN = 0.1  # random functions are (1 - MARGIN) * unit-vector data + MARGIN * delta


def _load(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def novel_levels(r_from, r_to):
    """Number of canonical words with length in (r_from, r_to]."""
    return sum(1 for w in inputs.ball_words(r_to)[1:]
               if len(w) > r_from and inputs.is_canonical(w))


class Instance:
    def __init__(self, directory, commands, outputs, items, **data):
        self.dir = directory
        self.commands = commands
        self.outputs = outputs
        self.items = items
        self.data = data

    def clear_outputs(self):
        """Remove the files (and their own directories) a round writes."""
        for path in self.outputs:
            Path(path).unlink(missing_ok=True)
        for parent in {Path(path).parent for path in self.outputs} - {Path(self.dir)}:
            shutil.rmtree(parent, ignore_errors=True)

    def output_digest(self):
        h = hashlib.sha256()
        for path in self.outputs:
            with open(path, "rb") as fh:
                h.update(fh.read())
        return h.hexdigest()


def _write_function(rng, directory, name, r, d):
    path = directory / name
    inputs.write_json(inputs.function_dict(inputs.random_function(rng, r, d, MARGIN), r, d), path)
    return str(path)


class Extend:
    """``freepd extend`` of a strict d=2 function on Ball(2): the stage-write path."""

    name = "extend"
    instances = 4
    float_tol = 1e-12
    golden_sizes = ("full",)

    def __init__(self, quick):
        self.quick = quick
        self.r, self.d, self.R = 2, 2, (3 if quick else 4)

    def generate(self, rng, directory, k):
        src = _write_function(rng, directory, "in.json", self.r, self.d)
        out = str(directory / "out.json")
        cmd = ["extend", src, "--radius", str(self.R), "--out", out]
        return Instance(directory, [cmd], [out],
                        novel_levels(self.r, self.R) * self.d ** 2, src=src, out=out)

    def check(self, inst):
        bad = []
        src, out = _load(inst.data["src"]), _load(inst.data["out"])
        if out["domain"] != {"kind": "ball", "r": self.R} or out["d"] != self.d:
            return [(0, f"output domain {out['domain']} d={out['d']}")]
        for w, cells in src["entries"].items():
            if out["entries"].get(w) != cells:
                bad.append((0, f"output does not restrict to the input at {w}"))
                break
        d, _, entries = oracle.load_entries(inst.data["out"])
        lam = oracle.min_eigenvalue(entries, d, self.R // 2)
        if not lam > 1e-9:
            bad.append((0, f"Gram over Ball({self.R // 2}) is not strict: {lam!r}"))
        return bad

    def digest(self, inst):
        return {"entries": _load(inst.data["out"])["entries"]}

    def reference(self, golden):
        entries = golden["extend/full"]["entries"]
        return {"entries": {w: c for w, c in entries.items() if len(w) <= self.R}}

    def counters(self, inst):
        return {}


class Check:
    """``freepd check`` of a d=1 Ball(5) function, then ``freepd energy`` of two more."""

    name = "check"
    instances = 4
    float_tol = 1e-12
    golden_sizes = ("full",)

    def __init__(self, quick):
        self.r, self.d = (3 if quick else 5), 1

    def generate(self, rng, directory, k):
        p, q, s = (_write_function(rng, directory, f"{x}.json", self.r, self.d) for x in "pqs")
        report_p = str(directory / "p.report.json")
        report_q = str(directory / "q.report.json")
        blocks = 1 + novel_levels(0, self.r)
        return Instance(directory, [["check", p], ["energy", q, s]], [report_p, report_q],
                        blocks, q=q, s=s, report_p=report_p, report_q=report_q)

    def check(self, inst):
        bad = []
        rep = _load(inst.data["report_p"])
        lam = rep["min_eigenvalue"]
        # Cliques larger than the representation dimension make the unit-vector
        # part singular, so the minimum is exactly MARGIN.
        if rep["status"] != "strict" or lam < MARGIN / 2 or not abs(lam - MARGIN) <= 1e-12:
            bad.append((0, f"verdict {rep['status']} with minimum eigenvalue {lam!r}"))
        energies = _load(inst.data["report_q"])["energies"]
        radii = [str(r) for r in range(1, self.r // 2 + 1)]
        if sorted(energies) != radii:
            return bad + [(1, f"energies at radii {sorted(energies)}, expected {radii}")]
        d, _, a = oracle.load_entries(inst.data["q"])
        _, _, b = oracle.load_entries(inst.data["s"])
        prev = 1.0
        for r in radii:
            e = energies[r]
            ref = oracle.energy(a, b, d, int(r))
            if e < prev - 1e-12 or not oracle.close(e, ref, 1e-9):
                bad.append((1, f"energy at r={r} is {e!r}; reference {ref!r}, previous {prev!r}"))
            prev = e
        return bad

    def digest(self, inst):
        rep = _load(inst.data["report_p"])
        return {"status": rep["status"], "min_eigenvalue": rep["min_eigenvalue"],
                "energies": _load(inst.data["report_q"])["energies"]}

    def reference(self, golden):
        full = golden["check/full"]
        return {**full, "energies": {r: e for r, e in full["energies"].items()
                                     if int(r) <= self.r // 2}}

    def counters(self, inst):
        return {}


# Family seeds of the solve workload.  Family 14 is left out: on its path
# the first edge descent runs to the solver's 10 000-iteration cap and ends
# through the stage's slack fallback after about a minute on a 2-vCPU
# x86-64 VM, longer than a whole run.  About one random family in ten does this; timing that path
# needs a workload with runs of its own.
SOLVE_FAMILIES = tuple(s for s in range(24) if s != 14)


class Solve:
    """``freepd solve`` r=1 -> R=3 on a 3-vertex path of near-equal functions.

    A family is a base function and three 0.008-mixtures of it, drawn from
    a seed in SOLVE_FAMILIES.  A run has one instance per family, in an
    order drawn from the run seed, so every run measures nearly the same
    mix of families (their descents take 270 to 620 iterations); the
    canary's family is drawn from its own seed.  The canary also solves the
    3-cycle of its family, whose descent takes five times the path's; a
    timed 3-cycle round would leave a run too few rounds for a steady
    median.
    """

    name = "solve"
    instances = len(SOLVE_FAMILIES)
    float_tol = 1e-9
    golden_sizes = ("full",)
    eps = 1e-3
    mix_weight = 0.008
    R = 3

    def __init__(self, quick):
        self.quick = quick

    def generate(self, rng, directory, k):
        if k < 0:
            pick = int(rng.integers(len(SOLVE_FAMILIES)))
        else:
            if k == 0:
                self._order = rng.permutation(len(SOLVE_FAMILIES))
            pick = int(self._order[k])
        family = np.random.default_rng(SOLVE_FAMILIES[pick])
        shapes = ("path", "cycle") if k < 0 and not self.quick else ("path",)
        base = inputs.random_function(family, 2, 1, MARGIN)
        for v in "abc":
            other = inputs.random_function(family, 2, 1, MARGIN)
            inputs.write_json(inputs.function_dict(inputs.mix(base, other, self.mix_weight), 2, 1),
                              directory / f"{v}.json")
        commands, outputs, outdirs = [], [], []
        for shape in shapes:
            cfg = {"shape": "tree" if shape == "path" else "cycle", "r": 1, "d": 1,
                   "vertices": {v: f"{v}.json" for v in "abc"}}
            if shape == "path":
                cfg["edges"], cfg["root"] = [["a", "b"], ["b", "c"]], "c"
            else:
                cfg["edges"] = [["a", "b"], ["b", "c"], ["c", "a"]]
            path = inputs.write_json(cfg, directory / f"{shape}.json")
            outdir = directory / f"out_{shape}"
            commands.append(["solve", "--config", path, "--radius", str(self.R),
                             "--epsilon", repr(self.eps), "--out", str(outdir)])
            outdirs.append((shape, outdir, cfg["edges"]))
            outputs += [str(outdir / f) for f in ("a.json", "b.json", "c.json", "report.json")]
        stages = novel_levels(2, self.R) * len(shapes)
        return Instance(directory, commands, outputs, stages, outdirs=outdirs)

    def check(self, inst):
        bad = []
        originals = {v: oracle.load_entries(inst.dir / f"{v}.json")[2] for v in "abc"}
        for i, (shape, outdir, edges) in enumerate(inst.data["outdirs"]):
            report_path = outdir / "report.json"
            if not report_path.exists():
                bad.append((i, f"{shape}: no report written"))
                continue
            rep = _load(report_path)
            if "error" in rep or "encost" not in rep:
                bad.append((i, f"{shape}: solve reported {rep.get('error')!r}"))
                continue
            outs = {v: oracle.load_entries(outdir / f"{v}.json")[2] for v in "abc"}
            for u, v in edges:
                before = oracle.energy(originals[u], originals[v], 1, 1)
                after = oracle.energy(outs[u], outs[v], 1, self.R // 2)
                listed = rep["energies_after"][f"{u}->{v}"]
                if after > before + self.eps or not oracle.close(after, listed, 1e-8):
                    bad.append((i, f"{shape} edge {u}->{v}: before {before!r}, after {after!r}, "
                                   f"reported {listed!r}"))
            for v in "abc":
                cut = {w: m for w, m in outs[v].items() if len(w) <= 2}
                worst = max(oracle.energy(originals[v], cut, 1, 1),
                            oracle.energy(cut, originals[v], 1, 1))
                if worst > 1.0 + self.eps:
                    bad.append((i, f"{shape} vertex {v}: restriction energy {worst!r}"))
            if not rep["encost"] <= 1.01:
                bad.append((i, f"{shape}: encost {rep['encost']!r}"))
        return bad

    def _reports(self, inst):
        for shape, outdir, _ in inst.data["outdirs"]:
            yield shape, _load(outdir / "report.json")

    def digest(self, inst):
        return {
            shape: {"iterations_total": rep["iterations_total"],
                    "stage_iterations": [s["iterations"] for s in rep["stages"]],
                    "energies_after": rep["energies_after"],
                    "encost": rep["encost"]}
            for shape, rep in self._reports(inst)
        }

    def reference(self, golden):
        full = golden["solve/full"]
        return {"path": full["path"]} if self.quick else full

    def counters(self, inst):
        reps = [rep for _, rep in self._reports(inst)]
        return {"energysolver.iterations": sum(r["iterations_total"] for r in reps),
                "energysolver.encost": max(r["encost"] for r in reps)}


class Surgery:
    """``freepd surgery --R 3 --r 1 --verify`` on a long-cycle labeled graph."""

    name = "surgery"
    instances = 3
    float_tol = 0.0
    golden_sizes = ("full", "quick")
    R, r = 3, 1

    def __init__(self, quick):
        self.quick = quick
        self.n = 2000 if quick else 5000

    def generate(self, rng, directory, k):
        path = inputs.write_json(inputs.random_graph(rng, self.n, 4 * self.R), directory / "graph.json")
        out = str(directory / "result.json")
        cmd = ["surgery", path, "--R", str(self.R), "--r", str(self.r), "--verify", "--out", out]
        return Instance(directory, [cmd], [out], self.n, out=out)

    def check(self, inst):
        res = _load(inst.data["out"])
        graph = res["graph"]
        conditions = res.get("conditions", {})
        failed = sorted(k for k in (f"G-{i}" for i in range(1, 8))
                        if not conditions.get(k, {}).get("pass"))
        bad = [(0, f"conditions not passed: {failed}")] if failed else []
        n = graph["n"]
        inserted = sum(len(v) for v in res["inserted"].values())
        perms = [np.asarray(graph[k]) for k in ("perm_a", "perm_b")]
        if n != self.n + inserted or res["original"] != list(range(self.n)):
            bad.append((0, f"{n} vertices for {self.n} originals and {inserted} inserted"))
        if any(sorted(p.tolist()) != list(range(n)) for p in perms):
            return bad + [(0, "an edge map is not a permutation")]
        lengths = [oracle.cycle_lengths(p) for p in perms]
        if min(min(x) for x in lengths) < 4:
            bad.append((0, "a letter cycle is shorter than 4"))
        ring = res["B"]
        v, walk = ring[0], []
        while True:
            walk.append(v)
            v = int(perms[1][v])
            if v == ring[0] or len(walk) > len(ring):
                break
        if sorted(walk) != sorted(ring):
            bad.append((0, "the ring B is not one b-cycle"))
        return bad

    def digest(self, inst):
        res = _load(inst.data["out"])
        text = json.dumps(res["graph"], sort_keys=True, separators=(",", ":"))
        return {"graph_sha256": hashlib.sha256(text.encode()).hexdigest(),
                "n": res["graph"]["n"],
                "inserted": {k: len(v) for k, v in sorted(res["inserted"].items())},
                "B": res["B"]}

    def reference(self, golden):
        return golden["surgery/quick" if self.quick else "surgery/full"]

    def counters(self, inst):
        return {"surgery.inserted_vertices": _load(inst.data["out"])["graph"]["n"] - self.n}


WORKLOADS = {w.name: w for w in (Extend, Check, Solve, Surgery)}


def compare(got, want, tol, where="$"):
    """Messages for every place where ``got`` departs from the reference ``want``."""
    if isinstance(want, dict):
        if not isinstance(got, dict) or sorted(got) != sorted(want):
            return [f"{where}: keys differ"]
        return [m for k in want for m in compare(got[k], want[k], tol, f"{where}.{k}")]
    if isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            return [f"{where}: lengths differ"]
        return [m for i, (g, w) in enumerate(zip(got, want))
                for m in compare(g, w, tol, f"{where}[{i}]")]
    if isinstance(want, float) and isinstance(got, (int, float)):
        return [] if oracle.close(got, want, tol) else [f"{where}: {got!r} != {want!r}"]
    return [] if got == want else [f"{where}: {got!r} != {want!r}"]


def prepare(directory):
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    return directory
