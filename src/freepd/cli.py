"""Command line surface tying the library to files.

One binary, seven subcommands: ``check`` validates a stored function,
``random`` emits one, ``extend`` pushes a function out to a larger ball,
``energy`` prints relative energies, ``solve`` runs the configuration
driver, ``surgery`` rewires a labeled graph, and ``toeplitz`` runs the
scalar one-step extension.  Every command is a pure function of its input
files and flags; all randomness sits behind an explicit ``--seed``.

Exit codes: 0 when every requested check or solve succeeded, 1 when a
verdict, tolerance or solve failed (a JSON report is still written), 2
when an input file is malformed (the file and its first offending key are
named) or cannot be read, or an output cannot be written (its path is named);
an output's missing directory is made first.
Once its inputs load, a command names its report in ``args.failure`` (path,
input fields, stage walk or not); dispatch turns any later library error but
a FormatError, and any MemoryError, into that report and exit 1.
Numbers are printed with 12 significant digits and machine-readable JSON
reports are written next to the inputs they describe.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import dataclass
from pathlib import Path

from .energysolver import configuration_from_dict, solve_configuration
from .errors import FormatError, FreePDError, OutputError, ParameterError
from .extend import central_extension, toeplitz_step
from .pdcore import (
    DEFAULT_TOL,
    check_pd,
    load_function,
    random_nspd,
    read_json,
    save_function,
    write_json_atomic,
)
from .surgery import LabeledGraph, perform_surgery, verify_conditions
from .transport import _increasing_radii, energy_schedule
from .words import word_to_str

__all__ = ["CommandResult", "dispatch", "main"]


@dataclass(frozen=True)
class CommandResult:
    """Exit code, one-line summary, and the JSON report path (if any)."""

    code: int
    summary: str
    report_path: str = ""


def _fmt(x) -> str:
    return f"{float(x):#.12g}"


def _fmt_complex(z) -> str:
    z = complex(z)
    return f"{z.real:#.12g}{z.imag:+#.12g}i"


def _report_path(input_path) -> Path:
    p = Path(input_path)
    stem = p.name[: -len(".json")] if p.name.endswith(".json") else p.name
    return p.with_name(stem + ".report.json")


def _finite(flag, text) -> float:
    """The value of a float flag, which must be a finite number; otherwise
    FormatError naming the flag."""
    try:
        x = float(text)
    except ValueError:
        x = math.nan
    if not math.isfinite(x):
        raise FormatError(flag, f"--{flag} must be a finite number, got {text!r}")
    return x


def _seed(text) -> int:
    """The value of --seed, which must be a nonnegative integer; otherwise
    FormatError naming the flag."""
    try:
        seed = int(text)
    except ValueError:
        seed = -1
    if seed < 0:
        raise FormatError("seed", f"--seed must be a nonnegative integer, got {text!r}")
    return seed


def _make_dir(path: Path) -> None:
    """Create the output directory path; OutputError naming it on failure."""
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise OutputError(exc.errno, exc.strerror or str(exc), str(path)) from exc


def _failed(verb, exc, path, inputs, staged=False) -> CommandResult:
    """Write the report of a failed command; exit 2 on a FormatError, else 1.

    The report holds the ``inputs`` fields, the error and its type, then for
    a stage walk the failing stage (null when none is named).
    """
    report = {**inputs, "error": str(exc), "type": type(exc).__name__}
    if staged:
        stage = getattr(exc, "stage", None)
        report["stage"] = None if stage is None else dict(zip("gjk", stage))
    write_json_atomic(report, path)
    if isinstance(exc, FormatError):
        return CommandResult(2, f"malformed input at {exc.key!r}: {exc}", str(path))
    return CommandResult(1, f"{verb} failed: {exc}", str(path))


def _cmd_check(args) -> CommandResult:
    if not 0 <= args.tol < float("inf"):  # NaN fails too
        raise FormatError("tol", f"--tol must be a finite number >= 0, got {args.tol!r}")
    C = load_function(args.pdf)
    path = _report_path(args.pdf)
    args.failure = (path, {"input": str(args.pdf)})
    verdict = check_pd(C, tol=args.tol)
    report = {
        "input": str(args.pdf),
        "status": verdict.status,
        "min_eigenvalue": float(verdict.min_eigenvalue),
        "tol": args.tol,
    }
    if verdict.status != "strict" and verdict.witness_indices:
        report["witness"] = [[word_to_str(w), j] for w, j in verdict.witness_indices]
    write_json_atomic(report, path)
    summary = (
        f"{args.pdf}: {verdict.status}"
        f" (min eigenvalue {_fmt(verdict.min_eigenvalue)})"
    )
    return CommandResult(0 if verdict.status == "strict" else 1, summary, str(path))


def _cmd_random(args) -> CommandResult:
    margin = _finite("margin", args.margin)
    C = random_nspd(args.r, args.d, seed=_seed(args.seed), margin=margin)
    save_function(C, args.out)
    summary = f"wrote a d={args.d} function on Ball({args.r}) to {args.out}"
    return CommandResult(0, summary, str(args.out))


def _cmd_extend(args) -> CommandResult:
    C = load_function(args.pdf)
    args.failure = (_report_path(args.pdf), {"input": str(args.pdf)}, True)
    out = central_extension(C, args.radius)
    save_function(out, args.out)
    summary = f"extended {args.pdf} to Ball({args.radius}) at {args.out}"
    return CommandResult(0, summary, str(args.out))


def _cmd_energy(args) -> CommandResult:
    A = load_function(args.a)
    B = load_function(args.b)
    if args.radii:
        try:
            radii = [int(x) for x in args.radii.split(",") if x.strip()]
        except ValueError:
            radii = []
        if not radii:
            raise FormatError("radii", f"--radii must be integers, got {args.radii!r}")
    elif A.domain.kind == B.domain.kind == "ball":
        radii = list(range(1, min(A.domain.r, B.domain.r) // 2 + 1)) or [0]
    else:  # no default off a ball: energy_schedule refuses the domains
        radii = [0]
    path, inputs = args.failure = _report_path(args.a), {"a": str(args.a), "b": str(args.b)}
    try:
        _increasing_radii(radii)
    except ParameterError as exc:
        return _failed("energy", FormatError("radii", f"{exc}, got {args.radii!r}"), path, inputs)
    values = {str(r): rep.energy for r, rep in zip(radii, energy_schedule(A, B, radii))}
    write_json_atomic({**inputs, "energies": values}, path)
    return CommandResult(0, "\n".join(f"r={r}: {_fmt(e)}" for r, e in values.items()), str(path))


def _cmd_solve(args) -> CommandResult:
    epsilon = _finite("epsilon", args.epsilon)
    seed = _seed(args.seed)
    cfg_path, outdir = Path(args.config), Path(args.out)
    args.failure = (outdir / "report.json", {"config": str(cfg_path)}, True)
    config = configuration_from_dict(read_json(cfg_path),
                                     lambda src: load_function(cfg_path.parent / src))
    _make_dir(outdir)
    extensions, report = solve_configuration(config, args.radius, epsilon, seed=seed)
    for name, fn in extensions.items():
        save_function(fn, outdir / f"{name}.json")
    payload = report.to_dict()
    payload["config"] = str(cfg_path)
    write_json_atomic(payload, outdir / "report.json")
    bad = report.over_budget(epsilon)
    if bad:
        return CommandResult(
            1, f"solve failed: restriction energies exceed 1 + eps for: {bad}",
            str(outdir / "report.json"),
        )
    summary = (
        f"solved {cfg_path} to Ball({args.radius}): encost {_fmt(report.encost)}"
        f" over {len(extensions)} vertices"
    )
    return CommandResult(0, summary, str(outdir / "report.json"))


def _cmd_surgery(args) -> CommandResult:
    g = LabeledGraph.from_dict(read_json(args.graph))
    args.failure = (args.out, {"graph": str(args.graph)})
    result = perform_surgery(g, args.R, args.r)
    payload = result.to_dict()
    code = 0
    inserted = result.graph.n - g.n
    summary = f"rewired {args.graph}: {inserted} vertices inserted, |B|={len(result.B)}"
    if args.verify:
        report = verify_conditions(g, result, args.r, args.R)
        payload["conditions"] = report
        failed = sorted(k for k, v in report.items() if not v["pass"])
        if failed:
            code = 1
            summary += "; FAILED " + ", ".join(failed)
        else:
            summary += "; all conditions pass"
    write_json_atomic(payload, args.out)
    return CommandResult(code, summary, str(args.out))


def _cmd_toeplitz(args) -> CommandResult:
    try:
        seq = [complex(x) for x in args.seq.split(",") if x.strip()]
    except ValueError:
        seq = None
    if seq is None or not all(abs(z) < float("inf") for z in seq):  # NaN fails too
        raise FormatError("seq", f"--seq must be comma-separated finite numbers, got {args.seq!r}")
    parts = args.zeta.split(",")
    if len(parts) != 2:
        raise FormatError("zeta", "--zeta takes re,im")
    zeta = complex(_finite("zeta", parts[0]), _finite("zeta", parts[1]))
    value = toeplitz_step(seq, zeta)
    return CommandResult(0, f"c_{len(seq)} = {_fmt_complex(value)}", "")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="freepd",
        description="matrix-valued positive definite functions on the free group",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="verify positive definiteness of a stored function")
    p.add_argument("pdf", help="function JSON file")
    p.add_argument("--tol", type=float, default=DEFAULT_TOL)
    p.set_defaults(run=_cmd_check)

    p = sub.add_parser("random", help="emit a random strictly positive definite function")
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--seed", default="0")
    p.add_argument("--margin", default="0.1")
    p.add_argument("--out", required=True)
    p.set_defaults(run=_cmd_random)

    p = sub.add_parser("extend", help="extend a function to a larger ball")
    p.add_argument("pdf", help="function JSON file")
    p.add_argument("--radius", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(run=_cmd_extend)

    p = sub.add_parser("energy", help="relative energies of two stored functions")
    p.add_argument("a")
    p.add_argument("b")
    p.add_argument("--radii", default="", help="comma-separated radii (default: all)")
    p.set_defaults(run=_cmd_energy)

    p = sub.add_parser("solve", help="extend a configuration with controlled energies")
    p.add_argument("--config", required=True)
    p.add_argument("--radius", type=int, required=True)
    p.add_argument("--epsilon", required=True)
    p.add_argument("--seed", default="0")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(run=_cmd_solve)

    p = sub.add_parser("surgery", help="three-stage rewiring of a labeled graph")
    p.add_argument("graph", help="graph JSON file")
    p.add_argument("--R", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--verify", action="store_true")
    p.set_defaults(run=_cmd_surgery)

    p = sub.add_parser("toeplitz", help="one scalar extension step")
    p.add_argument("--seq", required=True, help="c_0,c_1,... with c_0 = 1")
    p.add_argument("--zeta", required=True, help="re,im inside the unit disk")
    p.set_defaults(run=_cmd_toeplitz)

    return parser


def dispatch(argv=None) -> CommandResult:
    """Parse arguments and run one subcommand, catching library errors.

    Once the command has named its report (args.failure), a library error
    other than a FormatError, or a MemoryError (written as plain
    MemoryError), becomes that report, whose write may fail as any other.
    """
    args = _build_parser().parse_args(argv)
    args.failure = None
    try:
        try:
            return args.run(args)
        except (FreePDError, MemoryError) as exc:
            if args.failure is None or isinstance(exc, FormatError):
                raise
            exc = MemoryError(str(exc)) if isinstance(exc, MemoryError) else exc
            return _failed(args.command, exc, *args.failure)
    except FormatError as exc:
        return CommandResult(2, f"malformed input at {exc.key!r}: {exc}", "")
    except OutputError as exc:
        return CommandResult(2, f"cannot write {exc.filename}: {exc.strerror}", "")
    except FreePDError as exc:
        return CommandResult(1, f"{type(exc).__name__}: {exc}", "")


def main(argv=None) -> int:
    result = dispatch(argv)
    stream = sys.stdout if result.code == 0 else sys.stderr
    print(result.summary, file=stream)
    return result.code


if __name__ == "__main__":
    sys.exit(main())
