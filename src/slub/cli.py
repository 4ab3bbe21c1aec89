"""Command-line front end: single runs, convergence tables, comparisons.

Subcommands
-----------
run            one scheme on one problem; dumps solution/sigma snapshots,
               the TV trace, final errors, and a manifest that fully
               resolves every defaulted parameter.
convergence    refinement ladder for one scheme; aligned text table plus
               a CSV twin.
compare        all requested schemes at one resolution; co-sampled
               solution columns and a side-by-side error file.
list-problems  registry with presets.

All output is plain CSV/text, written deterministically: the same
resolved configuration produces byte-identical files.
"""

from __future__ import annotations

import argparse
import functools
import sys
from dataclasses import dataclass, replace
from pathlib import Path
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .coupled import project_to_nodes
from .grids import Alignment
from .harness import SCHEMES, convergence_table, run_scheme, time_ladder
# unused here, but benchmarks/tests/test_bench.py asserts it is harness's
from .harness import resolve_grid
from .problems import REGISTRY, get_problem, problem_names

__all__ = [
    "RunConfig",
    "OutputBundle",
    "cmd_run",
    "cmd_convergence",
    "cmd_compare",
    "parse_manifest",
    "format_manifest",
    "build_parser",
    "main",
]


@dataclass(frozen=True)
class RunConfig:
    """One run request; None fields fall back to the problem preset."""

    problem: str
    scheme: str
    m: int
    nu: Optional[float] = None
    T: Optional[float] = None
    domain: Optional[tuple] = None
    delta: Optional[float] = None
    epsilon: Optional[float] = None
    snapshots: Optional[tuple] = None
    out: str = "runs"


class OutputBundle(NamedTuple):
    """File paths written by one run."""

    solution_files: tuple
    sigma_files: tuple
    tv_file: Path
    error_file: Path
    manifest_file: Path


# The one format of every number in the CSV files; like the `{:d}` of a
# 0/1 column, it prints an integer below 1e12 as str() does.
_NUM = "{:.12g}"
_fmt = _NUM.format


def _row_template(lead, *fields: str) -> str:
    """The rows of one CSV layout, one per line: each value of the
    leading column `lead` formatted once by _NUM, then "," and one of
    `fields` per remaining column. `_rows` fills in those columns.
    Numbers print no braces, so the template escapes none."""
    tail = "".join("," + f for f in fields)
    return (tail + "\n").join(map(_fmt, np.asarray(lead).tolist())) + tail


def _rows(template: str, *columns) -> str:
    """`template` filled with `columns`, passed row-major. They take one
    dtype (np.column_stack), so a `{:d}` field needs integer or boolean
    columns only."""
    return template.format(*np.column_stack(columns).ravel().tolist())


def _write(path: Path, lines) -> None:
    path.write_text("\n".join(lines) + "\n", encoding="ascii", newline="\n")


def format_manifest(config: RunConfig) -> str:
    """key=value text, one pair per line; floats keep full precision so
    parsing the manifest reproduces the config exactly."""
    a, b = config.domain
    pairs = [
        ("problem", config.problem),
        ("scheme", config.scheme),
        ("m", str(config.m)),
        ("nu", repr(float(config.nu))),
        ("T", repr(float(config.T))),
        ("a", repr(float(a))),
        ("b", repr(float(b))),
        ("delta", repr(float(config.delta))),
        ("epsilon", repr(float(config.epsilon))),
        ("snapshots", ",".join(str(k) for k in config.snapshots)),
        ("out", config.out),
    ]
    return "\n".join(f"{k}={v}" for k, v in pairs) + "\n"


def parse_manifest(text: str) -> RunConfig:
    """Inverse of format_manifest."""
    kv = {}
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        key, _, value = line.partition("=")
        kv[key] = value
    snaps = tuple(int(s) for s in kv["snapshots"].split(",")) if kv["snapshots"] else ()
    return RunConfig(
        problem=kv["problem"],
        scheme=kv["scheme"],
        m=int(kv["m"]),
        nu=float(kv["nu"]),
        T=float(kv["T"]),
        domain=(float(kv["a"]), float(kv["b"])),
        delta=float(kv["delta"]),
        epsilon=float(kv["epsilon"]),
        snapshots=snaps,
        out=kv["out"],
    )


def _apply_overrides(problem_name: str, nu=None, T=None, domain=None):
    prob = get_problem(problem_name)
    updates = {}
    if nu is not None:
        updates["nu"] = float(nu)
    if T is not None:
        updates["T"] = float(T)
    if domain is not None:
        updates["a"], updates["b"] = map(float, domain)
    return replace(prob, **updates) if updates else prob


def cmd_run(config: RunConfig) -> OutputBundle:
    """Execute one run and write its artifact files.

    The manifest snapshot of the configuration has every default
    resolved (preset nu/T/domain, absolute indicator thresholds, the
    actual snapshot step list), so re-running from the manifest yields
    byte-identical files.
    """
    prob = _apply_overrides(config.problem, config.nu, config.T, config.domain)
    snapshots = config.snapshots
    if snapshots is None:
        snapshots = (0, time_ladder(prob, config.m)[1])
    result = run_scheme(
        prob,
        config.scheme,
        config.m,
        delta=config.delta,
        epsilon=config.epsilon,
        snapshot_steps=snapshots,
    )
    prob, params = result.problem, result.params
    resolved = replace(
        config,
        nu=prob.nu,
        T=prob.T,
        domain=(prob.a, prob.b),
        delta=params.delta,
        epsilon=params.flat_tol,
        snapshots=tuple(snapshots),
    )

    out = Path(config.out)
    out.mkdir(parents=True, exist_ok=True)
    snaps = sorted(result.snapshots)
    sol_files = []
    template = _row_template(result.x, _NUM)
    for k in snaps:
        path = out / f"sol_{config.scheme}_step{k}.csv"
        _write(path, ["x,value", _rows(template, result.snapshots[k])])
        sol_files.append(path)
    sigma_files = []
    if config.scheme == "coupled":
        template = _row_template(result.grid.nodes, "{:d}")
        for k in snaps:
            path = out / f"sigma_step{k}.csv"
            _write(path, ["x,sigma", _rows(template, result.sigma_history[k])])
            sigma_files.append(path)
    tv_file = out / "tv_trace.csv"
    tv = result.tv
    template = _row_template(range(tv.values.size), _NUM, _NUM)
    _write(tv_file, ["step,tv,bound", _rows(template, tv.values, tv.envelope)])
    error_file = out / "errors.csv"
    e = result.errors
    _write(
        error_file,
        [
            "norm,value",
            f"l1,{_fmt(e.l1)}",
            f"l2,{_fmt(e.l2)}",
            f"linf,{_fmt(e.linf)}",
            f"linf_reg,{_fmt(e.linf_reg)}",
        ],
    )
    manifest_file = out / "manifest.txt"
    manifest_file.write_text(format_manifest(resolved), encoding="ascii", newline="\n")
    return OutputBundle(
        solution_files=tuple(sol_files),
        sigma_files=tuple(sigma_files),
        tv_file=tv_file,
        error_file=error_file,
        manifest_file=manifest_file,
    )


def _parse_ints(text: Optional[str], what: str, items: str) -> Optional[tuple]:
    """The ints of a comma list (None for None); `what` and `items` name
    the list in the error."""
    if text is None:
        return None
    try:
        return tuple(int(s) for s in text.split(","))
    except ValueError:
        raise ValueError(f"bad {what} {text!r}: expected comma-separated {items}") from None


def cmd_convergence(
    problem_name: str,
    scheme: str,
    ladder: Optional[tuple] = None,
    nu: Optional[float] = None,
    T: Optional[float] = None,
    out: str = "runs",
) -> tuple:
    """Run a refinement ladder (the problem's own when None); write text
    + CSV tables, return paths."""
    table = convergence_table(_apply_overrides(problem_name, nu, T), scheme, ladder)
    out_dir = Path(out)
    out_dir.mkdir(parents=True, exist_ok=True)
    stem = f"conv_{problem_name}_{scheme}"
    txt_path = out_dir / f"{stem}.txt"
    txt_path.write_text(table.format_text() + "\n", encoding="ascii", newline="\n")
    csv_path = out_dir / f"{stem}.csv"
    headers, rows = table.columns()
    # _fmt prints an integer m as str(m) does
    lines = [",".join("" if v is None else _fmt(v) for v in row) for row in rows]
    _write(csv_path, [",".join(headers)] + lines)
    return table, txt_path, csv_path


def cmd_compare(
    problem_name: str,
    m: int,
    schemes: Sequence[str],
    nu: Optional[float] = None,
    T: Optional[float] = None,
    out: str = "runs",
) -> tuple:
    """Run several schemes at one resolution; write co-sampled solution
    columns (x, exact, then one column per scheme, node-sampled) and a
    per-scheme error table."""
    prob = _apply_overrides(problem_name, nu, T)
    results = [run_scheme(prob, s, m) for s in schemes]
    grid = results[0].grid
    exact = np.asarray(prob.exact(grid.nodes, results[0].t_final), dtype=float)
    columns = [exact]
    for res in results:
        vals = res.values if res.alignment is Alignment.NODE else project_to_nodes(res.values)
        columns.append(vals)
    out_dir = Path(out)
    out_dir.mkdir(parents=True, exist_ok=True)
    sol_path = out_dir / f"compare_{problem_name}_m{m}.csv"
    header = ",".join(["x", "exact"] + list(schemes))
    template = _row_template(grid.nodes, *[_NUM] * len(columns))
    _write(sol_path, [header, _rows(template, *columns)])
    err_path = out_dir / f"compare_{problem_name}_m{m}_errors.csv"
    lines = ["scheme,l1,l2,linf,linf_reg"]
    for s, res in zip(schemes, results):
        e = res.errors
        lines.append(f"{s},{_fmt(e.l1)},{_fmt(e.l2)},{_fmt(e.linf)},{_fmt(e.linf_reg)}")
    _write(err_path, lines)
    return results, sol_path, err_path


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="slub",
        description="Coupled semi-Lagrangian / anti-dissipative transport runs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run one scheme on one problem")
    run_p.add_argument("--problem", required=True)
    run_p.add_argument("--scheme", required=True)
    run_p.add_argument("--m", type=int, default=None, help="cell count (default: preset)")
    run_p.add_argument("--nu", type=float, default=None)
    run_p.add_argument("--T", type=float, default=None)
    run_p.add_argument("--delta", type=float, default=None,
                       help="absolute slope threshold for the indicator")
    run_p.add_argument("--epsilon", type=float, default=None,
                       help="absolute flat-slope tolerance for the indicator")
    run_p.add_argument("--snapshots", default=None,
                       help="comma-separated step indices (default: 0 and final)")
    run_p.add_argument("--out", default="runs")

    conv_p = sub.add_parser("convergence", help="refinement ladder for one scheme")
    conv_p.add_argument("--problem", required=True)
    conv_p.add_argument("--scheme", required=True)
    conv_p.add_argument("--ladder", default=None,
                        help="comma-separated m list (default: the problem's own ladder)")
    conv_p.add_argument("--nu", type=float, default=None)
    conv_p.add_argument("--T", type=float, default=None)
    conv_p.add_argument("--out", default="runs")

    cmp_p = sub.add_parser("compare", help="schemes side by side at one resolution")
    cmp_p.add_argument("--problem", required=True)
    cmp_p.add_argument("--m", type=int, default=None)
    cmp_p.add_argument("--scheme", default="sl,ub,coupled",
                       help="comma-separated scheme list")
    cmp_p.add_argument("--nu", type=float, default=None)
    cmp_p.add_argument("--T", type=float, default=None)
    cmp_p.add_argument("--out", default="runs")

    sub.add_parser("list-problems", help="show the problem registry")
    return parser


_parser = functools.cache(build_parser)  # the one parser of `main`, built on its first call


def _default_m(problem_name: str) -> int:
    ladder = get_problem(problem_name).m_ladder
    return int(ladder[min(2, len(ladder) - 1)])


def _run_command(args: argparse.Namespace) -> int:
    if args.command == "list-problems":
        rows = [("name", "kind", "domain", "T", "nu", "ladder")]
        for name in problem_names():
            p = REGISTRY[name]
            rows.append(
                (
                    name,
                    p.kind,
                    f"[{p.a:g}, {p.b:g}]",
                    f"{p.T:g}",
                    f"{p.nu:g}",
                    ",".join(str(m) for m in p.m_ladder),
                )
            )
        widths = [max(len(r[j]) for r in rows) for j in range(len(rows[0]))]
        for r in rows:
            print("  ".join(c.ljust(w) for c, w in zip(r, widths)).rstrip())
        return 0

    if args.command == "run":
        m = args.m if args.m is not None else _default_m(args.problem)
        config = RunConfig(
            problem=args.problem,
            scheme=args.scheme,
            m=m,
            nu=args.nu,
            T=args.T,
            delta=args.delta,
            epsilon=args.epsilon,
            snapshots=_parse_ints(args.snapshots, "snapshot list", "step indices"),
            out=args.out,
        )
        bundle = cmd_run(config)
        written = (
            list(bundle.solution_files)
            + list(bundle.sigma_files)
            + [bundle.tv_file, bundle.error_file, bundle.manifest_file]
        )
        for path in written:
            print(path)
        return 0

    if args.command == "convergence":
        ladder = _parse_ints(args.ladder, "ladder", "m values")
        table, txt_path, csv_path = cmd_convergence(
            args.problem, args.scheme, ladder, nu=args.nu, T=args.T, out=args.out
        )
        print(table.format_text())
        print(txt_path)
        print(csv_path)
        return 0

    if args.command == "compare":
        schemes = tuple(s.strip() for s in args.scheme.split(",") if s.strip())
        if not schemes:
            raise ValueError("empty scheme list")
        for s in schemes:
            if s not in SCHEMES:
                raise ValueError(f"unknown scheme {s!r}; choose from {SCHEMES}")
        m = args.m if args.m is not None else _default_m(args.problem)
        results, sol_path, err_path = cmd_compare(
            args.problem, m, schemes, nu=args.nu, T=args.T, out=args.out
        )
        for s, res in zip(schemes, results):
            e = res.errors
            print(
                f"{s}: l1={e.l1:.3E}  l2={e.l2:.3E}  "
                f"linf={e.linf:.3E}  linf_reg={e.linf_reg:.3E}"
            )
        print(sol_path)
        print(err_path)
        return 0

    raise ValueError(f"unknown command {args.command!r}")


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return _run_command(args)
    except (ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
