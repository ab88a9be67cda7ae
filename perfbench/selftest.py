"""Self-test of the benchmark at reduced sizes.

    python3 perfbench/selftest.py

Checks BENCHMARK.json against the benchmark's file contract, then runs every
workload with ``--quick`` through the untimed (``--trace 0``) and the traced
(``--trace 1``) path and checks that each run is correct, prints exactly the
metrics BENCHMARK.json declares with their units, and that each per-layer
metric reads non-zero where the workload exercises the layer and 0 where it
bypasses it, unless the layer's target is reported absent.  Last, it checks
that the runner refuses to run without the freepd sources.
"""

import json
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

# Per-layer metrics each workload must move, and metric prefixes it must leave at 0.
NONZERO = {
    "extend": ["words.clique.calls", "pdcore.PDFunction.calls", "hilbert.build_partial_space.calls",
               "hilbert.ortho_matrices.calls", "extend.stages", "extend.central_extension.self_s"],
    "check": ["words.clique.calls", "pdcore.gram_indexed.calls", "pdcore.check_pd.calls",
              "transport.relative_energy.calls", "transport.pencil.calls"],
    "solve": ["energysolver.pencil.calls", "energysolver.iterations", "extend.extend_entry.calls",
              "transport.partial_relative_energy.calls", "hilbert.build_partial_space.calls"],
    "surgery": ["surgery.perform_surgery.self_s", "surgery.verify_conditions.self_s",
                "surgery.LabeledGraph.from_dict.self_s", "surgery.inserted_vertices"],
}
ZERO = {
    "extend": ["transport.", "energysolver.", "surgery."],
    "check": ["hilbert.", "extend.", "energysolver.", "surgery.",
              "transport.partial_relative_energy."],
    "solve": ["surgery.", "extend.central_extension.", "energysolver.make_singular."],
    "surgery": ["words.", "pdcore.PDFunction.", "pdcore.gram_indexed.", "pdcore.check_pd.",
                "hilbert.", "extend.", "transport.", "energysolver."],
}


def check_spec(spec):
    problems = []
    keys = {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    if set(spec) != keys:
        problems.append(f"top-level keys {sorted(spec)}")
    names = [w["name"] for w in spec["workloads"]]
    names += [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    problems += [f"bad or repeated name {n!r}" for n in names
                 if not NAME.match(n) or names.count(n) > 1]
    for w in spec["workloads"]:
        if set(w) != {"name", "why"} or len(w["why"]) > 200 or "\n" in w["why"]:
            problems.append(f"workload {w['name']}: keys or why")
    for m in spec["end_to_end"]:
        if set(m) != {"name", "unit", "better", "bound"} or not 0 < m["bound"] <= 0.25:
            problems.append(f"end-to-end {m['name']}: keys or bound")
    for m in spec["end_to_end"] + spec["per_layer"]:
        if not UNIT.match(m["unit"]) or m["better"] not in ("lower", "higher"):
            problems.append(f"{m['name']}: unit or direction")
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    if not setup or (setup[0]["unit"], setup[0]["better"]) != ("s", "lower"):
        problems.append("setup_s must be an end-to-end metric in s, lower is better")
    if spec["paths"] != ["perfbench"] or not 1 <= spec["run_seconds"] <= 60:
        problems.append("paths or run_seconds")
    return problems


def run(workload, trace, cwd=ROOT):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "7",
           "--seconds", "1", "--trace", str(trace), "--quick"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


def check_run(spec, workload, trace):
    proc = run(workload, trace)
    if proc.returncode != 0:
        return [f"exit {proc.returncode}: {proc.stderr[-500:]}"]
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    problems = []
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        problems.append(f"result keys {sorted(result)}")
    if not (result["correct"] and result["failed"] == 0 and result["attempted"] >= 1):
        problems.append(f"correct={result['correct']} attempted={result['attempted']} "
                        f"failed={result['failed']}: {proc.stderr[-500:]}")
    declared = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != declared:
        problems.append(f"metrics differ from BENCHMARK.json: {sorted(set(got) ^ set(declared))}")
    values = {k: v["value"] for k, v in result["metrics"].items()}
    if not trace:
        problems += [f"{k} is {v!r}" for k, v in values.items() if not v > 0]
        return problems
    absent = json.loads(next(x for x in lines if x.startswith("absent "))[len("absent "):])
    absent_layers = {a.split(":")[0] for a in absent}
    for name in NONZERO[workload]:
        if not values.get(name) and not any(name.startswith(a) for a in absent_layers):
            problems.append(f"{name} reads 0 but its layer is present")
    for name, value in values.items():
        if value and any(name.startswith(p) for p in ZERO[workload]):
            problems.append(f"{name} reads {value!r} on a workload that bypasses it")
    return problems


def check_refuses_without_sources():
    with tempfile.TemporaryDirectory(dir=ROOT / ".perfbench_work") as tmp:
        shutil.copy(ROOT / "BENCHMARK.json", tmp)
        shutil.copytree(HERE, Path(tmp) / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "extend",
                               "--seed", "0", "--seconds", "1", "--trace", "0"],
                              cwd=tmp, capture_output=True, text=True, timeout=180)
    if proc.returncode == 0 or proc.stdout.strip():
        return [f"ran without sources: exit {proc.returncode}, stdout {proc.stdout[-200:]!r}"]
    return []


def main():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    failures = [f"BENCHMARK.json: {p}" for p in check_spec(spec)]
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace in (0, 1):
            problems = check_run(spec, workload, trace)
            print(f"{workload} trace={trace}: {'ok' if not problems else 'FAILED'}", flush=True)
            failures += [f"{workload} trace={trace}: {p}" for p in problems]
    (ROOT / ".perfbench_work").mkdir(exist_ok=True)
    failures += [f"without sources: {p}" for p in check_refuses_without_sources()]
    for failure in failures:
        print(failure)
    print("selftest " + ("passed" if not failures else f"failed ({len(failures)})"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
