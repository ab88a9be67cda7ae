"""Seeded end-to-end and per-layer benchmark of the freepd command line.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload {extend,check,solve,surgery} \\
        --seed N --seconds S --trace {0,1} [--quick]

The runner imports freepd from the checkout's ``src`` directory, generates
the workload's inputs from ``--seed`` (see ``inputs.py``), and drives
``freepd.cli.dispatch`` in this one process.  A round is the workload's
command sequence on one instance; rounds cycle over the instances until
``--seconds`` have passed.  Every round starts from cold library caches,
a collected heap and without the previous round's output files, as a fresh
``freepd`` process would, and is followed by its untimed oracle.  One extra round on a fixed
canary instance runs first: it warms the interpreter and its outputs are
compared with the stored reference in ``golden.json``.

``--trace 0`` reports the end-to-end metrics: the median round wall and CPU
time and the work items per second; the set-up time, the median over
SETUP_REPEATS repetitions of a freepd import in a fresh interpreter plus
the input generation; and peak RSS.  Every time is normalized by a
reference kernel timed between the rounds and between the set-up
repetitions (see ``calibrate.py``), so that the slow and fast phases of a
shared machine cancel.  The raw medians and every round's and repetition's
times are printed above the result.
``--trace 1`` alternates untraced and
traced rounds on the same instance, requires byte-identical outputs from
the two, and reports per-layer calls, self times and counts per traced
round, plus the tracing overhead.  The spans of the traced rounds are
written to ``.perfbench_work/trace-<workload>-seed<N>.tsv``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  An operation is one
CLI command; it fails when its exit code is not 0 or its oracle rejects its
output.  ``--quick`` shrinks every workload for the self-test.
"""

import argparse
import ctypes
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import calibrate

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
CANARY_SEED = 20200309
SETUP_REPEATS = 7
NOMINAL_KERNEL_S = 0.030
_IMPORT_PROBE = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
                 "t = time.perf_counter(); import freepd.cli; print(time.perf_counter() - t)")


def import_freepd():
    """Import freepd from this checkout's sources; seconds taken."""
    if not (SRC / "freepd" / "__init__.py").is_file():
        sys.exit(f"perfbench: no freepd sources under {SRC}")
    sys.path.insert(0, str(SRC))
    start = time.perf_counter()
    import freepd.cli
    elapsed = time.perf_counter() - start
    if Path(freepd.__file__).resolve().parent != SRC / "freepd":
        sys.exit(f"perfbench: imported freepd from {freepd.__file__}, not {SRC}")
    return freepd.cli, elapsed


def fresh_import_seconds():
    """Import time of freepd.cli in a new interpreter."""
    proc = subprocess.run([sys.executable, "-c", _IMPORT_PROBE, str(SRC)],
                          capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        sys.exit(f"perfbench: importing freepd failed: {proc.stderr[-500:]}")
    return float(proc.stdout)


def blas_threads():
    """Thread count reported by the OpenBLAS library NumPy loaded, if any."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def git_commit():
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def environment(args):
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "thread_env": {k: os.environ.get(k) for k in
                       ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "commit": git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "quick": args.quick,
    }


def library_caches():
    """The functools caches of every loaded freepd module."""
    found = {}
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "freepd" or name.startswith("freepd.")):
            continue
        for value in vars(module).values():
            if callable(getattr(value, "cache_clear", None)) and hasattr(value, "cache_info"):
                found[id(value)] = value
    return list(found.values())


class Tally:
    """Attempted and failed operations, with the first few failure messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages = []

    def problem(self, message):
        self.messages.append(message)

    def add(self, label, codes, rejected):
        bad_commands = {i for i, _ in rejected}
        for i, code in enumerate(codes):
            self.attempted += 1
            if code != 0 or i in bad_commands:
                self.failed += 1
            if code != 0:
                self.problem(f"{label}: command {i} exited {code}")
        self.messages += [f"{label}: {msg}" for _, msg in rejected]


def run_round(cli, inst, caches):
    """Run one instance's commands; (wall s, CPU s, exit codes)."""
    inst.clear_outputs()
    for cache in caches:
        cache.cache_clear()
    gc.collect()
    calibrate.settle()
    codes = []
    wall0, cpu0 = time.perf_counter(), time.process_time()
    for argv in inst.commands:
        try:
            codes.append(cli.dispatch(argv).code)
        except Exception:  # an escaped error is a failed operation, not a crash
            traceback.print_exc(file=sys.stderr)
            codes.append(-1)
    return time.perf_counter() - wall0, time.process_time() - cpu0, codes


def check_round(wl, inst, codes):
    """Untimed check of a round; rejected (command, message) pairs."""
    if any(code != 0 for code in codes):
        return []
    try:
        return wl.check(inst)
    except Exception as exc:  # an unreadable output is a rejected output
        return [(0, f"oracle could not read the outputs: {exc!r}")]


def setup(wl, seed, directory, np, workloads):
    """Import freepd in a fresh interpreter and generate the inputs, SETUP_REPEATS times.

    Returns the set-up times, the reference kernel's times before the first
    and after every repetition, the instances, the canary, and whether every
    repetition wrote byte-identical files.
    """
    times, digests = [], set()
    kernels = [calibrate.kernel()]
    for _ in range(SETUP_REPEATS):
        calibrate.settle()
        import_s = fresh_import_seconds()
        start = time.perf_counter()
        rng = np.random.default_rng(seed)
        instances = [wl.generate(rng, workloads.prepare(directory / f"i{k}"), k)
                     for k in range(wl.instances)]
        canary = wl.generate(np.random.default_rng(CANARY_SEED),
                             workloads.prepare(directory / "canary"), -1)
        times.append(import_s + time.perf_counter() - start)
        digests.add(tuple(sorted(
            (str(p.relative_to(directory)), p.read_bytes())
            for p in directory.rglob("*.json"))))
        kernels.append(calibrate.kernel())
    return times, kernels, instances, canary, len(digests) == 1


def canary_round(cli, wl, canary, caches, tally, workloads):
    """The canary's round; its outputs must also match the stored reference."""
    _, _, codes = run_round(cli, canary, caches)
    rejected = check_round(wl, canary, codes)
    if not any(codes):
        with open(HERE / "golden.json", encoding="utf-8") as fh:
            golden = json.load(fh)
        try:
            reference = wl.reference(golden)
        except KeyError as exc:
            diffs = [f"no stored reference {exc}"]
        else:
            diffs = workloads.compare(wl.digest(canary), reference, wl.float_tol)
        # The reference covers the outputs of every command of the round.
        rejected += [(i, f"differs from golden.json at {msg}")
                     for msg in diffs[:5] for i in range(len(codes))]
    tally.add("canary", codes, rejected)


def timed_rounds(cli, wl, instances, seconds, caches, tally):
    """Untraced rounds until the deadline; per-round wall, CPU and kernel times.

    The kernel runs after each round's oracle, so it measures the machine
    between two rounds.
    """
    walls, cpus, first = [], [], {}
    kernels = [calibrate.kernel()]
    deadline = time.perf_counter() + seconds
    k = 0
    while not walls or time.perf_counter() < deadline:
        inst = instances[k % len(instances)]
        wall, cpu, codes = run_round(cli, inst, caches)
        walls.append(wall)
        cpus.append(cpu)
        rejected = check_round(wl, inst, codes)
        if not any(codes) and not rejected:
            seen = first.setdefault(k % len(instances), inst.output_digest())
            if seen != inst.output_digest():
                rejected = [(0, "a repeated round changed its outputs")]
        tally.add(f"round {k}", codes, rejected)
        kernels.append(calibrate.kernel())
        k += 1
    return walls, cpus, kernels


def normalized(times, kernels):
    """``times`` read as seconds on a machine where the kernel takes NOMINAL_KERNEL_S.

    ``kernels`` holds the reference kernel's time before the first interval
    and after every interval; each interval is scaled by NOMINAL_KERNEL_S
    over the mean of the two kernel times around it.
    """
    return [t * 2.0 * NOMINAL_KERNEL_S / (a + b) for t, a, b in zip(times, kernels, kernels[1:])]


def end_to_end(instances, walls, cpus, kernels, setup_s):
    """The end-to-end metrics of a run, every time speed-normalized."""
    wall = statistics.median(normalized(walls, kernels))
    items = statistics.median(inst.items for inst in instances)
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {
        "wall_norm_s": (wall, "s"),
        "cpu_norm_s": (statistics.median(normalized(cpus, kernels)), "s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (rss, "MB"),
        "items_per_norm_s": (items / wall, "1/s"),
    }


def traced_rounds(cli, wl, instances, seconds, caches, tally, tracer_mod, layers):
    """Untraced/traced round pairs until the deadline."""
    tracer = tracer_mod.Tracer(layers.TARGETS)
    plain, traced, counters = [], [], {}
    deadline = time.perf_counter() + seconds
    k = 0
    while not traced or time.perf_counter() < deadline:
        inst = instances[k % len(instances)]
        wall, _, codes = run_round(cli, inst, caches)
        plain.append(wall)
        rejected = check_round(wl, inst, codes)
        tally.add(f"round {k} untraced", codes, rejected)
        reference = inst.output_digest() if not any(codes) else None
        with tracer:
            wall, _, codes = run_round(cli, inst, caches)
        traced.append(wall)
        rejected = check_round(wl, inst, codes)
        if not any(codes) and not rejected:
            if inst.output_digest() != reference:
                rejected = [(0, "traced outputs differ from untraced outputs")]
            for key, value in wl.counters(inst).items():
                counters.setdefault(key, []).append(value)
        tally.add(f"round {k} traced", codes, rejected)
        k += 1
    overhead = statistics.median(traced) - statistics.median(plain)
    return tracer, layers.per_layer(tracer, len(traced), counters, overhead), len(traced)


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=["extend", "check", "solve", "surgery"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--quick", action="store_true", help="reduced sizes, for the self-test")
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    cli, import_s = import_freepd()
    import numpy as np

    import layers
    import tracer as tracer_mod
    import workloads

    wl = workloads.WORKLOADS[args.workload](args.quick)
    directory = WORK / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    shutil.rmtree(directory, ignore_errors=True)
    try:
        setup_times, setup_kernels, instances, canary, repeatable = setup(
            wl, args.seed, directory, np, workloads)
        setup_s = statistics.median(normalized(setup_times, setup_kernels))
        print("setup " + json.dumps({"import_in_process_s": import_s, "setup_s": setup_times,
                                     "kernel_s": setup_kernels}))
        caches = library_caches()
        tally = Tally()
        if not repeatable:
            tally.problem("setup: one seed gave different input files")
        canary_round(cli, wl, canary, caches, tally, workloads)
        if args.trace:
            tracer, metrics, rounds = traced_rounds(cli, wl, instances, args.seconds, caches,
                                                    tally, tracer_mod, layers)
            tracer.write_spans(WORK / f"trace-{args.workload}-seed{args.seed}.tsv")
            print("absent " + json.dumps(tracer.absent))
            label = f"per traced round, {rounds} rounds"
        else:
            walls, cpus, kernels = timed_rounds(cli, wl, instances, args.seconds, caches, tally)
            metrics = end_to_end(instances, walls, cpus, kernels, setup_s)
            rounds = len(walls)
            print("rounds " + json.dumps({"wall_s": walls, "cpu_s": cpus, "kernel_s": kernels}))
            print(f"raw wall_s = {statistics.median(walls)!r} s, cpu_s = "
                  f"{statistics.median(cpus)!r} s, kernel = {statistics.median(kernels)!r} s")
            label = f"median of {rounds} rounds"
    finally:
        shutil.rmtree(directory, ignore_errors=True)
    print("env " + json.dumps(environment(args), sort_keys=True))
    for name, (value, unit) in metrics.items():
        print(f"metric {name} = {value!r} {unit} ({label})")
    for msg in tally.messages[:20]:
        print("failure " + msg, file=sys.stderr)
    correct = tally.failed == 0 and not tally.messages
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
