"""Command-line surface: sweep tables as CSV/JSON plus self-validation.

Commands
--------
spectrum    eigenvalue table of one (N, M) model
probmap     window-averaged transfer probabilities over all (M, target)
jmap        truncation errors over all (M, target) plus per-M averages
threshold   minimal accurate truncation radius per chain length, with audit
fit         decay-curve parameters per chain length, plus their drift
            across lengths (table `trend`) for three or more lengths
validate    the `oracle` checks of the closed form; nonzero exit on failure

Values are written with 15 significant digits in both formats, so CSV and
JSON parse back to identical numbers.  Exit codes: 0 success, 1 validation
failure, 2 bad configuration.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .chain import ChainSpec, CouplingProfile, dipolar_ratios, max_neighbors
from .fitting import FitSeries, fit_decay, fit_trends
from .metrics import (
    TimeWindow,
    accuracy_threshold,
    error_map,
    independent_targets,
    probability_map,
)
from .oracle import validation_checks
from .spectral import spectrum

__all__ = ["entry", "main"]


def _fmt(value) -> str:
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return format(float(value), ".15g")


def _round_trip(value):
    """Value as it will parse back from either output format."""
    if isinstance(value, (int, np.integer)):
        return int(value)
    return float(_fmt(value))


@dataclass
class Table:
    name: str
    columns: list[str]
    rows: list[list]


def _emit(tables: list[Table], fmt: str, out: str | None) -> None:
    if fmt == "json":
        payload = {
            t.name: {
                "columns": t.columns,
                "rows": [[_round_trip(v) for v in row] for row in t.rows],
            }
            for t in tables
        }
        text = json.dumps(payload, indent=2, allow_nan=False)
        if out:
            Path(out).write_text(text + "\n")
        else:
            print(text)
        return
    # csv: primary table to `out`, companions to <stem>_<name><suffix>
    if out:
        primary = Path(out)
        for i, t in enumerate(tables):
            path = primary if i == 0 else primary.with_name(
                f"{primary.stem}_{t.name}{primary.suffix or '.csv'}"
            )
            with open(path, "w", newline="") as fh:
                w = csv.writer(fh)
                w.writerow(t.columns)
                w.writerows([[_fmt(v) for v in row] for row in t.rows])
            if i > 0:
                print(f"wrote companion table {t.name!r} to {path}", file=sys.stderr)
    else:
        w = csv.writer(sys.stdout)
        for t in tables:
            if len(tables) > 1:
                print(f"# table: {t.name}")
            w.writerow(t.columns)
            w.writerows([[_fmt(v) for v in row] for row in t.rows])


def _parse_profile(text: str, nodes: int) -> CouplingProfile:
    if text == "dipolar":
        return dipolar_ratios(nodes)
    if text.startswith("custom:"):
        path = Path(text[len("custom:"):])
        lines = [ln.strip() for ln in path.read_text().splitlines()]
        ratios = [float(ln) for ln in lines if ln]
        profile = CouplingProfile(tuple(ratios), kind="custom")
        if len(profile) < max_neighbors(nodes):
            raise ValueError(
                f"profile file lists {len(profile)} couplings; "
                f"{nodes} nodes need {max_neighbors(nodes)}"
            )
        return profile
    raise ValueError(f"profile must be 'dipolar' or 'custom:<path>', got {text!r}")


def _parse_n_list(args) -> list[int]:
    if args.n_list:
        return [int(tok) for tok in args.n_list.split(",") if tok.strip()]
    if args.n:
        return [args.n]
    raise ValueError("provide --n or --n-list")


def _window(args, nodes: int) -> TimeWindow:
    return TimeWindow(args.t_max) if args.t_max else TimeWindow.matched(nodes)


def cmd_spectrum(args) -> list[Table]:
    nodes = args.n
    m = args.m or max_neighbors(nodes)
    spec = ChainSpec(nodes, m)
    profile = _parse_profile(args.profile, nodes)
    sp = spectrum(spec, profile)
    rows = [
        [mode, pm, lam, int(mult)]
        for mode, (pm, lam, mult) in enumerate(
            zip(sp.wave_numbers, sp.mode_values, sp.multiplicities), start=1
        )
    ]
    return [Table("spectrum", ["mode", "wave_number", "eigenvalue", "multiplicity"], rows)]


def _map_rows(nodes: int, surface) -> list[list]:
    """(M, target, value) rows of an (M, target) map, in lexicographic order."""
    targets = independent_targets(nodes)
    return [[m, t, v] for m, row in enumerate(surface, start=1) for t, v in zip(targets, row)]


def cmd_probmap(args) -> list[Table]:
    probs = probability_map(args.n, _parse_profile(args.profile, args.n), _window(args, args.n))
    return [Table("probability", ["neighbors", "target", "avg_probability"],
                  _map_rows(args.n, probs))]


def cmd_jmap(args) -> list[Table]:
    errors, means = error_map(args.n, _parse_profile(args.profile, args.n), _window(args, args.n))
    return [
        Table("error", ["neighbors", "target", "error"], _map_rows(args.n, errors)),
        Table("error_avg", ["neighbors", "mean_error"], [[m, v] for m, v in enumerate(means, 1)]),
    ]


def cmd_threshold(args) -> list[Table]:
    rows, audit = [], []
    for nodes in _parse_n_list(args):
        profile = _parse_profile(args.profile, nodes)
        window = _window(args, nodes)
        result = accuracy_threshold(nodes, profile, args.epsilon, window)
        rows.append([nodes, result.min_neighbors])
        audit.extend(
            [nodes, m, err]
            for m, err in enumerate(result.max_error_per_m, start=1)
        )
    return [
        Table("threshold", ["nodes", "min_neighbors"], rows),
        Table("audit", ["nodes", "neighbors", "max_error"], audit),
    ]


def cmd_fit(args) -> list[Table]:
    rows, fits = [], {}
    for nodes in _parse_n_list(args):
        nf = max_neighbors(nodes)
        if nf - 2 < 5:
            raise ValueError(f"chain of {nodes} nodes is too short to fit (need >= 5 points)")
        profile = _parse_profile(args.profile, nodes)
        window = _window(args, nodes)
        _, means = error_map(nodes, profile, window)
        points = [(m, means[m - 1]) for m in range(2, nf)]
        fp = fit_decay(points)
        if not fp.converged:
            print(f"warning: fit for N={nodes} did not converge", file=sys.stderr)
        rows.append([nodes, fp.a, fp.b, fp.c, fp.d, fp.rms])
        fits[nodes] = fp
    tables = [Table("fit", ["nodes", "a", "b", "c", "d", "rms"], rows)]
    if len(fits) >= 3:
        trend = fit_trends(FitSeries(tuple(sorted(fits.items()))))
        tables.append(Table(
            "trend",
            [f"slope_{p}" for p in trend.slopes] + [f"sign_ok_{p}" for p in trend.slopes],
            [[*trend.slopes.values(), *map(int, trend.matches_expected.values())]],
        ))
    return tables


def cmd_validate(args) -> int:
    checks = validation_checks(args.quad_step)
    for c in checks:
        print(f"{'PASS' if c.passed else 'FAIL'}  {c.name}: "
              f"max deviation {c.deviation:.3e} (tol {c.tolerance:g})")
    return 0 if all(c.passed for c in checks) else 1


# --- argument parsing ------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ringspin",
        description="One-excitation dynamics on closed homogeneous spin chains "
        "under the M-neighbor approximation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--profile", default="dipolar",
                        help="coupling profile: dipolar | custom:<path>")
    common.add_argument("--format", choices=("csv", "json"), default="csv")
    common.add_argument("--out", default=None, help="output path (stdout if omitted)")

    single = argparse.ArgumentParser(add_help=False)
    single.add_argument("--n", type=int, required=True, help="ring size")

    multi = argparse.ArgumentParser(add_help=False)
    multi.add_argument("--n", type=int, default=None, help="single ring size")
    multi.add_argument("--n-list", default=None, help="comma-separated ring sizes")

    windowed = argparse.ArgumentParser(add_help=False)
    windowed.add_argument("--t-max", type=float, default=None,
                          help="averaging window (default: T = N)")

    p = sub.add_parser("spectrum", parents=[common, single],
                       help="eigenvalue table for one model")
    p.add_argument("--m", type=int, default=None,
                   help="interacting-neighbor count (default: all-node)")
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("probmap", parents=[common, single, windowed],
                       help="averaged transfer probabilities over (M, target)")
    p.set_defaults(func=cmd_probmap)

    p = sub.add_parser("jmap", parents=[common, single, windowed],
                       help="truncation errors over (M, target) plus averages")
    p.set_defaults(func=cmd_jmap)

    p = sub.add_parser("threshold", parents=[common, multi, windowed],
                       help="minimal accurate truncation radius per chain length")
    p.add_argument("--epsilon", type=float, default=0.1)
    p.set_defaults(func=cmd_threshold)

    p = sub.add_parser("fit", parents=[common, multi, windowed],
                       help="decay-curve parameters per chain length")
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("validate", help="closed form vs brute-force oracles")
    p.add_argument("--quad-step", type=float, default=1e-3,
                   help="Simpson step for the quadrature cross-check")
    p.set_defaults(func=cmd_validate)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        result = args.func(args)
        if isinstance(result, int):
            return result
        _emit(result, args.format, args.out)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
