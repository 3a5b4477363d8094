"""Command-line surface: sweep tables as CSV/JSON plus self-validation.

Commands
--------
spectrum    eigenvalue table of one (N, M) model
probmap     window-averaged transfer probabilities over all (M, target)
jmap        truncation errors over all (M, target) plus per-M averages
threshold   minimal accurate truncation radius per chain length, with audit
fit         per chain length, the scale kappa of the mean error curve
            against the exact state-level error E(M) over radii
            2..max_neighbors-1, and the rms of its residuals
validate    the `oracle` checks of the closed form; nonzero exit on failure

A table is a name and its columns, one 1-D array or sequence each, and it
is formatted straight from them.  Values are written with 15 significant
digits in both formats, so CSV and JSON parse back to identical numbers;
JSON writes one row per line, and a float column stays a JSON float even
where its value is integral.  A value that is not finite is refused in both
formats.  Exit codes: 0 success, 1 validation failure, 2 bad configuration.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from collections.abc import Sequence
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .chain import ChainSpec, CouplingProfile, dipolar_ratios, max_neighbors
from .fitting import fit_scale
from .metrics import (
    TimeWindow,
    accuracy_threshold,
    error_map,
    independent_targets,
    probability_map,
    state_error,
)
from .oracle import validation_checks
from .spectral import eigenvalue_shifts, mode_multiplicities, wave_numbers

__all__ = ["entry", "main"]


_LARGEST_FINITE_TEXT = 1.797693134862315e308  # larger floats print as 1.79769313486232e+308 = inf


@dataclass
class Table:
    """A named table: column name -> 1-D array or sequence of its values."""

    name: str
    columns: dict[str, Sequence]


def _body(t: Table, fmt: str) -> str:
    """All rows as text from one `%` over a row template: `%d` for an integer
    column, `%.15g` for a float column.  Both formats refuse a non-finite
    float.  In JSON, a float whose text reads as an integer gets ".0", so it
    parses back as a float."""
    columns = [np.asarray(c) for c in t.columns.values()]
    specs = ["%d" if c.dtype.kind in "biu" else "%.15g" for c in columns]
    rows = len(columns[0])
    cells, integral = [None] * (rows * len(columns)), {}
    for j, (name, c, spec) in enumerate(zip(t.columns, columns, specs)):
        cells[j::len(columns)] = c.tolist()
        if spec == "%d":
            continue
        if not (np.abs(c) <= _LARGEST_FINITE_TEXT).all():
            raise ValueError(f"table {t.name!r}, column {name!r}: value is not finite")
        # a superset of the values whose 15-digit text has no "." or "e"
        near_integer = np.abs(c - np.rint(c)) <= 1e-14 * np.abs(c)
        for i in np.flatnonzero(near_integer).tolist() if fmt == "json" else ():
            if ("%.15g" % c[i]).lstrip("-").isdigit():
                integral.setdefault(i, list(specs))[j] = "%.15g.0"
    head, sep, tail = ("", ",", "\r\n") if fmt == "csv" else ("[", ", ", "]")
    templates = [head + sep.join(specs) + tail] * rows
    for i, row_specs in integral.items():
        templates[i] = head + sep.join(row_specs) + tail
    return ("" if fmt == "csv" else ",\n").join(templates) % tuple(cells)


def _emit(tables: list[Table], fmt: str, out: str | None) -> None:
    bodies = [_body(t, fmt) for t in tables]
    if fmt == "json":  # the object json.dumps would give, one row per line
        texts = ["{" + ",\n".join(
            f'{json.dumps(t.name)}: {{"columns": {json.dumps([*t.columns])}, '
            f'"rows": [\n{body}\n]}}'
            for t, body in zip(tables, bodies)) + "}\n"]
    else:  # csv: primary table to `out`, companions to <stem>_<name><suffix>
        texts = [",".join(t.columns) + "\r\n" + body for t, body in zip(tables, bodies)]
    for i, (t, text) in enumerate(zip(tables, texts)):
        if out:
            path = Path(out) if i == 0 else Path(out).with_name(
                f"{Path(out).stem}_{t.name}{Path(out).suffix or '.csv'}")
            path.write_text(text, newline="")
            if i > 0:
                print(f"wrote companion table {t.name!r} to {path}", file=sys.stderr)
        else:
            if len(texts) > 1:  # csv only: json is one text
                sys.stdout.write(f"# table: {t.name}\r\n")
            sys.stdout.write(text)


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
    if args.n_list is not None:
        lengths = [int(tok) for tok in args.n_list.split(",") if tok.strip()]
        if not lengths:
            raise ValueError(f"--n-list names no ring size: {args.n_list!r}")
        return lengths
    if args.n is not None:
        return [args.n]
    raise ValueError("provide --n or --n-list")


def _window(args, nodes: int) -> TimeWindow:
    return TimeWindow.matched(nodes) if args.t_max is None else TimeWindow(args.t_max)


def cmd_spectrum(args) -> list[Table]:
    nodes = args.n
    spec = ChainSpec(nodes, max_neighbors(nodes) if args.m is None else args.m)
    profile = _parse_profile(args.profile, nodes)
    mult = mode_multiplicities(nodes)
    return [Table("spectrum", {"mode": np.arange(1, mult.size + 1),
                               "wave_number": wave_numbers(nodes),
                               "eigenvalue": eigenvalue_shifts(spec, profile)[0],
                               "multiplicity": mult})]


def _map_columns(nodes: int, surface: np.ndarray, name: str) -> dict:
    """neighbors, target and `name` columns of an (M, target) map, rows in order."""
    targets = independent_targets(nodes)
    return {"neighbors": np.repeat(np.arange(1, len(surface) + 1), len(targets)),
            "target": np.tile(targets, len(surface)), name: surface.ravel()}


def cmd_probmap(args) -> list[Table]:
    probs = probability_map(args.n, _parse_profile(args.profile, args.n), _window(args, args.n))
    return [Table("probability", _map_columns(args.n, probs, "avg_probability"))]


def cmd_jmap(args) -> list[Table]:
    errors, means = error_map(args.n, _parse_profile(args.profile, args.n), _window(args, args.n))
    return [Table("error", _map_columns(args.n, errors, "error")),
            Table("error_avg", {"neighbors": np.arange(1, len(means) + 1), "mean_error": means})]


def cmd_threshold(args) -> list[Table]:
    lengths, results = _parse_n_list(args), []
    for nodes in lengths:
        profile = _parse_profile(args.profile, nodes)
        window = _window(args, nodes)
        results.append(accuracy_threshold(nodes, profile, args.epsilon, window))
    worst = [r.max_error_per_m for r in results]
    return [
        Table("threshold", {"nodes": lengths,
                            "min_neighbors": [r.min_neighbors for r in results]}),
        Table("audit", {"nodes": np.repeat(lengths, [w.size for w in worst]),
                        "neighbors": np.concatenate([np.arange(1, w.size + 1) for w in worst]),
                        "max_error": np.concatenate(worst)}),
    ]


def cmd_fit(args) -> list[Table]:
    rows = []
    for nodes in _parse_n_list(args):
        nf = max_neighbors(nodes)
        if nf - 2 < 5:
            raise ValueError(f"chain of {nodes} nodes is too short to fit (need >= 5 points)")
        profile = _parse_profile(args.profile, nodes)
        window = _window(args, nodes)
        _, means = error_map(nodes, profile, window)
        # radii 2..nf-1: the last radius is the reference, with zero error
        fit = fit_scale(means[1 : nf - 1], state_error(nodes, profile, window)[1 : nf - 1])
        rows.append((nodes, window.t_max, 2, nf - 1, fit.kappa, fit.rms))
    names = ("nodes", "t_max", "first_neighbors", "last_neighbors", "kappa", "rms")
    return [Table("fit", dict(zip(names, zip(*rows))))]


def cmd_validate(args) -> int:
    checks = validation_checks(args.quad_step)
    for c in checks:
        print(f"{'PASS' if c.passed else 'FAIL'}  {c.name}: "
              f"max deviation {c.deviation:.3e} (tol {c.tolerance:g})")
    return 0 if all(c.passed for c in checks) else 1


# --- argument parsing ------------------------------------------------------

@functools.cache  # parse_args leaves the parser as it was, so one tree serves every call
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
    lengths = multi.add_mutually_exclusive_group()
    lengths.add_argument("--n", type=int, default=None, help="single ring size")
    lengths.add_argument("--n-list", default=None, help="comma-separated ring sizes")

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
                       help="scale of the mean error curve against E(M) per chain length")
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
