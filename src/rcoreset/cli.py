"""Command-line front end: datasets in, coresets and reports out.

Subcommands: ``generate`` (synthetic instance families), ``build``
(write a weighted coreset as CSV), ``eval`` (empirical error of one
builder over trials), ``sweep`` (size–error table across builders),
``bench`` (build/solve timings against the full-data solve), and
``check-assumptions`` (structural diagnostics at an approximate
solution).  Every output echoes the seed in use; omitting ``--seed``
draws one from system entropy and prints it.  Exit codes: 0 success,
2 invalid input, 3 assumption violation, 4 I/O error.
"""

from __future__ import annotations

import argparse
import secrets
import sys
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from rcoreset import instances
from rcoreset.core import AssumptionViolationError, WeightedSet, as_points
from rcoreset.coreset1d import build_robust_1d
from rcoreset.coreset_nd import check_assumptions
from rcoreset.evaluation import (
    BuilderFn,
    default_builders,
    empirical_error,
    reports_to_csv,
    speedup_report,
    sweep_size_error,
)
from rcoreset.solver import lloyd_with_outliers

__all__ = [
    "EXIT_ASSUMPTION",
    "EXIT_INVALID",
    "EXIT_IO",
    "EXIT_OK",
    "DataFormatError",
    "RunConfig",
    "main",
    "parse_dataset",
    "parse_weighted_set",
    "run",
    "write_coreset_csv",
    "write_points_csv",
]

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_ASSUMPTION = 3
EXIT_IO = 4

_BUILDERS = ("ours1d", "oursnd", "hjlw23", "hllw25", "uniform")


class DataFormatError(ValueError):
    """A data file exists but its content is not a valid point table."""


@dataclass(frozen=True)
class RunConfig:
    """Validated parameters of one CLI invocation: each flag's default and check."""

    command: str
    input: str | None = None
    output: str | None = None
    n: int | None = None
    m: int = 0
    d: int = 1
    k: int = 1
    z: int = 1
    eps: float | None = None
    builders: tuple[str, ...] = ()
    size: int | None = None
    sizes: tuple[int, ...] = ()
    trials: int = 1
    seed: int = 0
    centers: int = 100
    allow_small_n: bool = False
    family: str | None = None
    contaminate: float = 0.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "builders", tuple(self.builders))
        object.__setattr__(self, "sizes", tuple(self.sizes))
        if self.n is not None and self.n < 1:
            raise ValueError(f"--n must be >= 1, got {self.n}")
        if self.m < 0:
            raise ValueError(f"--m must be >= 0, got {self.m}")
        if self.d < 1:
            raise ValueError(f"--d must be >= 1, got {self.d}")
        if self.k < 1:
            raise ValueError(f"--k must be >= 1, got {self.k}")
        if self.z not in (1, 2):
            raise ValueError(f"--z must be 1 or 2, got {self.z}")
        if self.eps is not None and not 0.0 < self.eps < 1.0:
            raise ValueError(f"--eps must lie in (0, 1), got {self.eps}")
        if self.size is not None and self.size < 1:
            raise ValueError(f"--size must be >= 1, got {self.size}")
        if any(s < 1 for s in self.sizes):
            raise ValueError(f"--sizes entries must be >= 1, got {list(self.sizes)}")
        if self.trials < 1:
            raise ValueError(f"--trials must be >= 1, got {self.trials}")
        if self.centers < 1:
            raise ValueError(f"--centers must be >= 1, got {self.centers}")
        if not 0.0 <= self.contaminate < 1.0:
            raise ValueError(f"--contaminate must lie in [0, 1), got {self.contaminate}")
        for tag in self.builders:
            if tag not in _BUILDERS:
                raise ValueError(f"unknown builder {tag!r}; choose from {_BUILDERS}")


def parse_dataset(path: str) -> np.ndarray:
    """Read a CSV of real-valued points: one point per row.

    Lines starting with ``#`` and blank lines are skipped.  A first
    data row with any non-numeric cell is treated as a header.  Ragged
    rows, non-numeric cells, and non-finite values are rejected with
    their line number.  The file is UTF-8, with or without a byte-order
    mark.
    """
    with open(path, "r", encoding="utf-8-sig") as fh:
        raw = fh.read()
    lines = [t for t in map(str.strip, raw.splitlines()) if t and not t.startswith("#")]
    if lines and not _all_float(lines[0]):
        del lines[0]  # header row: skipped
    if lines:
        # comments=None: with "#" loadtxt would accept "1,2#x".
        try:
            arr = np.loadtxt(lines, delimiter=",", comments=None, ndmin=2)
        except ValueError:
            pass
        else:
            if arr.shape[0] == len(lines) and np.isfinite(arr).all():
                return arr
    # loadtxt rejects spellings float() takes (1_0, non-ASCII digits), and
    # only the line loop names the line at fault.
    return _parse_lines(path, raw)


def _all_float(text: str) -> bool:
    """Whether every comma-separated cell of a data line passes float()."""
    try:
        for cell in text.split(","):
            float(cell.strip())
    except ValueError:
        return False
    return True


def _parse_lines(path: str, raw: str) -> np.ndarray:
    """``parse_dataset``'s rules applied one line at a time.

    The reference for what the CSV format accepts, and the only source
    of its error messages.
    """
    rows: list[list[float]] = []
    width: int | None = None
    saw_header = False
    for lineno, line in enumerate(raw.splitlines(), start=1):
        text = line.strip()
        if not text or text.startswith("#"):
            continue
        cells = [c.strip() for c in text.split(",")]
        values = []
        bad_cell = None
        for cell in cells:
            try:
                values.append(float(cell))
            except ValueError:
                bad_cell = cell
                break
        if bad_cell is not None:
            if not rows and not saw_header:
                saw_header = True  # header row: skipped
                continue
            raise DataFormatError(
                f"{path}:{lineno}: non-numeric cell {bad_cell!r}"
            )
        if width is None:
            width = len(values)
        elif len(values) != width:
            raise DataFormatError(
                f"{path}:{lineno}: row has {len(values)} cells, expected {width}"
            )
        if not all(np.isfinite(values)):
            raise DataFormatError(f"{path}:{lineno}: non-finite value")
        rows.append(values)
    if not rows:
        raise DataFormatError(f"{path}: no data rows")
    return np.array(rows, dtype=np.float64)


def parse_weighted_set(path: str) -> WeightedSet:
    """Read a coreset CSV: coordinate columns followed by a weight column."""
    arr = parse_dataset(path)
    if arr.shape[1] < 2:
        raise DataFormatError(
            f"{path}: a coreset file needs coordinate columns plus a weight column"
        )
    try:
        return WeightedSet(arr[:, :-1], arr[:, -1])
    except ValueError as exc:
        raise DataFormatError(f"{path}: {exc}") from exc


def write_points_csv(path: str, points: np.ndarray, seed: int) -> None:
    """Dataset CSV: a seed comment, then one %.17g row per point."""
    pts = as_points(points)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# seed={seed}\n")
        _write_rows(fh, pts)


def write_coreset_csv(path: str, S: WeightedSet, seed: int) -> None:
    """Coreset CSV: seed comment, header, then coordinates plus weight."""
    header = ",".join(f"x{i}" for i in range(S.dim)) + ",weight"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# seed={seed}\n")
        fh.write(header + "\n")
        _write_rows(fh, np.column_stack([S.points, S.weights]))


def _write_rows(fh, rows: np.ndarray) -> None:
    """One comma-separated line of %.17g values per row of a 2-d array."""
    fmt = ",".join(["%.17g"] * rows.shape[1]) + "\n"
    fh.writelines(fmt % tuple(row) for row in rows.tolist())


def _resolve_seed(seed: int | None, out) -> int:
    if seed is None:
        seed = secrets.randbits(63)
    print(f"seed: {seed}", file=out)
    return seed


def _approx_centers(P: np.ndarray, cfg: RunConfig):
    """Approximate robust centers: the best of three seeded solver restarts."""
    best = None
    for restart in range(3):
        solve = lloyd_with_outliers(
            P, cfg.k, cfg.m, cfg.z, max_iters=20, seed=(cfg.seed, 11, restart)
        )
        if best is None or solve.cost < best.cost:
            best = solve
    return best.centers


def _size_builders(tags, C_star) -> dict[str, BuilderFn]:
    """The registry's size-targeted builders under their CLI tags."""
    registry = default_builders(C_star)
    return {tag: registry["ours" if tag == "oursnd" else tag] for tag in tags}


def _one_builder(cfg: RunConfig) -> str:
    """The one builder tag of ``build`` and ``eval``, checked against the flags.

    ``ours1d`` reads --eps and --allow-small-n, the nd builders --size; a
    flag the chosen builder does not read is rejected.
    """
    if len(cfg.builders) != 1:
        raise ValueError(f"{cfg.command} needs exactly one --builder")
    tag = cfg.builders[0]
    if tag == "ours1d":
        unread = {"size": cfg.size is not None}
    else:
        unread = {"eps": cfg.eps is not None, "allow-small-n": cfg.allow_small_n}
    for flag, given in unread.items():
        if given:
            raise ValueError(f"{tag} does not read --{flag}")
    return tag


def _coreset_builder(P: np.ndarray, cfg: RunConfig, tag: str):
    """The coreset the build flags ask for, as a function of the seed.

    Builders that need approximate centers get them solved here, once,
    and every seed reuses them.
    """
    if tag == "ours1d":
        if P.shape[1] != 1:
            raise ValueError(f"ours1d needs 1-d data, got d={P.shape[1]}")
        if cfg.eps is None:
            raise ValueError("ours1d needs --eps (its size is not a row target)")
        pts = np.sort(P[:, 0])
        return lambda seed: build_robust_1d(
            pts, cfg.m, cfg.eps, allow_small_n=cfg.allow_small_n
        )
    if cfg.size is None:
        raise ValueError(f"{tag} needs --size")
    C_star = None if tag == "uniform" else _approx_centers(P, cfg)
    build = _size_builders([tag], C_star)[tag]
    return lambda seed: build(P, cfg.m, cfg.k, cfg.z, cfg.size, seed)


def _cmd_generate(cfg: RunConfig, out) -> int:
    spec = instances.InstanceSpec(
        family=cfg.family,
        n=cfg.n,
        m=cfg.m,
        d=cfg.d,
        k=cfg.k,
        eps=cfg.eps,
        seed=cfg.seed,
        contamination_fraction=cfg.contaminate,
    )
    points = instances.generate_instance(spec)
    write_points_csv(cfg.output, points, cfg.seed)
    print(
        f"generated {cfg.family}: {len(points)} points, d={points.shape[1]} "
        f"-> {cfg.output}",
        file=out,
    )
    return EXIT_OK


def _cmd_build(cfg: RunConfig, out) -> int:
    tag = _one_builder(cfg)
    P = parse_dataset(cfg.input)
    S = _coreset_builder(P, cfg, tag)((cfg.seed, 0))
    write_coreset_csv(cfg.output, S, cfg.seed)
    print(
        f"built {tag}: {len(S)} rows, total weight {S.total_weight:.17g} "
        f"-> {cfg.output}",
        file=out,
    )
    return EXIT_OK


def _cmd_eval(cfg: RunConfig, out) -> int:
    tag = _one_builder(cfg)
    P = parse_dataset(cfg.input)
    build = _coreset_builder(P, cfg, tag)
    lines = ["builder,trial,coreset_rows,error,skipped_centers,seed"]
    errors = []
    for trial in range(cfg.trials):
        S = build((cfg.seed, trial, 0))
        rep = empirical_error(
            P, S, cfg.m, cfg.k, cfg.z,
            num_centers=cfg.centers, seed=(cfg.seed, trial, 1), builder=tag,
        )
        errors.append(rep.empirical_error)
        lines.append(
            f"{tag},{trial},{rep.coreset_rows},{rep.empirical_error:.17g},"
            f"{rep.skipped_centers},{cfg.seed}"
        )
    table = "\n".join(lines) + "\n"
    print(table, end="", file=out)
    print(f"mean error over {cfg.trials} trials: {float(np.mean(errors)):.6g}", file=out)
    if cfg.output is not None:
        with open(cfg.output, "w", encoding="utf-8") as fh:
            fh.write(table)
    return EXIT_OK


def _cmd_sweep(cfg: RunConfig, out) -> int:
    tags = cfg.builders or ("oursnd", "hjlw23", "hllw25", "uniform")
    if "ours1d" in tags:
        raise ValueError("ours1d has no size target; sweep supports the nd builders")
    P = parse_dataset(cfg.input)
    builders = _size_builders(tags, _approx_centers(P, cfg))
    result = sweep_size_error(
        P, cfg.m, cfg.k, cfg.z, list(cfg.sizes), builders,
        trials=cfg.trials, seed=cfg.seed, num_centers=cfg.centers,
    )
    print(result.summary_json(), file=out)
    if cfg.output is not None:
        with open(cfg.output, "w", encoding="utf-8") as fh:
            fh.write(result.to_csv())
        print(f"{len(result.rows)} rows -> {cfg.output}", file=out)
    return EXIT_OK


def _cmd_bench(cfg: RunConfig, out) -> int:
    tags = cfg.builders or ("oursnd", "hllw25")
    if "ours1d" in tags:
        raise ValueError("ours1d has no size target; bench supports the nd builders")
    P = parse_dataset(cfg.input)
    builders = _size_builders(tags, _approx_centers(P, cfg))
    jobs = [(tag, build, cfg.size) for tag, build in builders.items()]
    reports = speedup_report(P, cfg.m, cfg.k, cfg.z, jobs, seed=cfg.seed)
    table = reports_to_csv(reports)
    print(table, end="", file=out)
    if cfg.output is not None:
        with open(cfg.output, "w", encoding="utf-8") as fh:
            fh.write(table)
    return EXIT_OK


def _cmd_check_assumptions(cfg: RunConfig, out) -> int:
    P = parse_dataset(cfg.input)
    report = check_assumptions(P, _approx_centers(P, cfg), cfg.m, cfg.k, cfg.z)
    print(f"cluster_sizes: {list(report.cluster_sizes)}", file=out)
    print(f"r_max: {report.r_max:.6g}  r_bar: {report.r_bar:.6g}", file=out)
    print(
        f"cond1 (every cluster >= 4m near points): {'pass' if report.cond1 else 'FAIL'}",
        file=out,
    )
    print(
        f"cond2 ((r_max/r_bar)^z <= 4k): {'pass' if report.cond2 else 'FAIL'}",
        file=out,
    )
    print(f"pairwise separation (informational): {report.separation_ok}", file=out)
    if not (report.cond1 and report.cond2):
        failed = []
        if not report.cond1:
            failed.append("cond1: a cluster holds fewer than 4m near points")
        if not report.cond2:
            failed.append("cond2: inlier radius ratio exceeds (4k)^(1/z)")
        print("assumption violation: " + "; ".join(failed), file=out)
        return EXIT_ASSUMPTION
    return EXIT_OK


def _int_list(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(",") if part.strip())
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"not a comma-separated int list: {text!r}") from exc


# Each flag once: how argparse reads it.  Defaults and value checks live
# in RunConfig, and a flag's namespace name is its RunConfig field.
_FLAGS = {
    "input": dict(help="input dataset CSV"),
    "output": dict(help="output file path"),
    "n": dict(type=int, help="number of points to generate"),
    "m": dict(type=int, help="number of outliers"),
    "d": dict(type=int, help="dimension"),
    "k": dict(type=int, help="number of centers"),
    "z": dict(type=int, help="cost exponent: 1 or 2"),
    "eps": dict(type=float, help="ours1d's target relative error, lb1d's parameter; in (0, 1)"),
    "size": dict(type=int, help="coreset row target"),
    "sizes": dict(type=_int_list, help="comma-separated row targets"),
    "builder": dict(action="append", dest="builders", metavar="TAG", help="builder tag, one of "
                    f"{', '.join(_BUILDERS)}; repeatable where several apply"),
    "trials": dict(type=int, help="independent trials"),
    "seed": dict(type=int, help="64-bit seed; omitted = system entropy"),
    "centers": dict(type=int, help="candidate centers per trial"),
    "allow-small-n": dict(action="store_true", help="build even when n < 4m (guarantees void)"),
    "family": dict(help=f"instance family, one of {', '.join(instances._FAMILIES)}"),
    "contaminate": dict(type=float, metavar="FRACTION",
                        help="replace this fraction with heavy-tailed noise"),
}


class _Command(NamedTuple):
    handler: Callable[[RunConfig, object], int]
    help: str
    flags: str  # _FLAGS keys
    needs: str  # RunConfig fields that must be given


_BUILD_FLAGS = "input output m k z eps size builder seed allow-small-n"
_COMMANDS = {
    "generate": _Command(_cmd_generate, "write a synthetic instance as CSV",
                         "family n m d k eps seed contaminate output", "family n output"),
    "build": _Command(_cmd_build, "build a coreset and write it as CSV",
                      _BUILD_FLAGS, "input output"),
    "eval": _Command(_cmd_eval, "empirical error of one builder over trials",
                     _BUILD_FLAGS + " trials centers", "input"),
    "sweep": _Command(_cmd_sweep, "size-error table across builders and sizes",
                      "input output m k z sizes builder trials centers seed", "input sizes"),
    "bench": _Command(_cmd_bench, "build/solve timings against the full-data solve",
                      "input output m k z size builder seed", "input size"),
    "check-assumptions": _Command(_cmd_check_assumptions,
                                  "structural diagnostics at an approximate solution",
                                  "input m k z seed", "input"),
}


def run(cfg: RunConfig, out=None) -> int:
    """Dispatch a validated config; returns the process exit code."""
    out = sys.stdout if out is None else out
    command = _COMMANDS[cfg.command]
    try:
        for field in command.needs.split():
            if getattr(cfg, field) in (None, ()):
                raise ValueError(f"{cfg.command} needs --{field}")
        return command.handler(cfg, out)
    except AssumptionViolationError as exc:
        print(f"assumption violation: {exc}", file=out)
        return EXIT_ASSUMPTION
    except (DataFormatError, ValueError) as exc:
        print(f"invalid input: {exc}", file=out)
        return EXIT_INVALID
    except OSError as exc:
        print(f"i/o error: {exc}", file=out)
        return EXIT_IO


def _build_parser() -> argparse.ArgumentParser:
    """One subparser per command, with only its flags and no defaults.

    A flag not given stays out of the namespace, so RunConfig supplies
    its default.  No abbreviations: ``sweep --size`` is not ``--sizes``.
    """
    parser = argparse.ArgumentParser(
        prog="rcoreset",
        description="Coresets for robust geometric median and (k,z)-clustering.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in _COMMANDS.items():
        p = sub.add_parser(
            name, help=command.help, argument_default=argparse.SUPPRESS, allow_abbrev=False
        )
        for flag in command.flags.split():
            p.add_argument(f"--{flag}", **_FLAGS[flag])
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = vars(_build_parser().parse_args(argv))
    except SystemExit as exc:  # argparse reports its own usage errors
        return EXIT_INVALID if exc.code not in (0, None) else EXIT_OK
    args["seed"] = _resolve_seed(args.get("seed"), sys.stdout)
    try:
        cfg = RunConfig(**args)
    except ValueError as exc:
        print(f"invalid input: {exc}")
        return EXIT_INVALID
    return run(cfg)


if __name__ == "__main__":
    sys.exit(main())
