"""Command-line surface: sweep tables as CSV/JSON plus self-validation.

Commands
--------
spectrum    eigenvalue table of one (N, M) model
probmap     window-averaged transfer probabilities over all (M, target)
jmap        truncation errors over all (M, target) plus per-M averages
threshold   minimal accurate truncation radius per chain length, with audit
fit         decay-curve parameters per chain length
validate    closed form vs brute-force oracles; nonzero exit on failure

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

from .chain import ChainSpec, CouplingProfile, build_matrix, dipolar_ratios, max_neighbors
from .fitting import fit_decay
from .metrics import (
    TimeWindow,
    accuracy_threshold,
    error_map,
    independent_targets,
    probability_map,
)
from .oracle import dense_eigen, expm_propagate, simpson_integral
from .spectral import amplitude, eigenvalues, eigenvectors, evolve, spectrum

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


def cmd_probmap(args) -> list[Table]:
    nodes = args.n
    profile = _parse_profile(args.profile, nodes)
    window = _window(args, nodes)
    probs = probability_map(nodes, profile, window)
    targets = independent_targets(nodes)
    rows = [
        [m, t, probs[m - 1][i]]
        for m in range(1, max_neighbors(nodes) + 1)
        for i, t in enumerate(targets)
    ]
    return [Table("probability", ["neighbors", "target", "avg_probability"], rows)]


def cmd_jmap(args) -> list[Table]:
    nodes = args.n
    profile = _parse_profile(args.profile, nodes)
    window = _window(args, nodes)
    errors, means = error_map(nodes, profile, window)
    targets = independent_targets(nodes)
    rows = [
        [m, t, errors[m - 1][i]]
        for m in range(1, max_neighbors(nodes) + 1)
        for i, t in enumerate(targets)
    ]
    avg_rows = [[m, means[m - 1]] for m in range(1, max_neighbors(nodes) + 1)]
    return [
        Table("error", ["neighbors", "target", "error"], rows),
        Table("error_avg", ["neighbors", "mean_error"], avg_rows),
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
    rows = []
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
    return [Table("fit", ["nodes", "a", "b", "c", "d", "rms"], rows)]


# --- validation suites -----------------------------------------------------

def _grouped_projectors(values, vectors, group_tol=1e-6):
    order = np.argsort(values)
    vals = np.asarray(values)[order]
    vecs = np.asarray(vectors)[:, order]
    groups = []
    start = 0
    for i in range(1, vals.size + 1):
        if i == vals.size or vals[i] - vals[start] > group_tol:
            block = vecs[:, start:i]
            groups.append((float(vals[start:i].mean()), i - start, block @ block.T))
            start = i
    return groups


def _check_eigen_agreement(max_nodes=16):
    """Closed-form spectrum vs dense solver: sorted eigenvalues and
    degenerate-subspace projectors."""
    worst_val, worst_proj = 0.0, 0.0
    for nodes in range(3, max_nodes + 1):
        profile = dipolar_ratios(nodes)
        U = eigenvectors(nodes)
        for m in range(1, max_neighbors(nodes) + 1):
            spec = ChainSpec(nodes, m)
            lam = eigenvalues(spec, profile)
            oracle = dense_eigen(build_matrix(spec, profile))
            worst_val = max(
                worst_val, float(np.abs(np.sort(lam) - oracle.values).max())
            )
            closed = _grouped_projectors(lam, U)
            brute = _grouped_projectors(oracle.values, oracle.vectors)
            if len(closed) != len(brute):
                return np.inf, np.inf
            for (_, size_c, proj_c), (_, size_b, proj_b) in zip(closed, brute):
                if size_c != size_b:
                    return np.inf, np.inf
                worst_proj = max(worst_proj, float(np.abs(proj_c - proj_b).max()))
    return worst_val, worst_proj


def _check_propagator(sizes=(4, 5, 8, 11, 12), states=20, seed=20260810):
    rng = np.random.default_rng(seed)
    worst = 0.0
    for nodes in sizes:
        profile = dipolar_ratios(nodes)
        for m in (1, max_neighbors(nodes)):
            spec = ChainSpec(nodes, m)
            G = build_matrix(spec, profile)
            for tau in (0.1, 1.0, float(nodes)):
                for _ in range(states):
                    v = rng.normal(size=nodes) + 1j * rng.normal(size=nodes)
                    v /= np.linalg.norm(v)
                    dev = np.abs(
                        evolve(spec, profile, v, tau) - expm_propagate(G, v, tau)
                    ).max()
                    worst = max(worst, float(dev))
    return worst


def _check_quadrature(step, sizes=(10, 13)):
    """Closed-form window integrals vs composite Simpson on a uniform grid."""
    worst = 0.0
    for nodes in sizes:
        profile = dipolar_ratios(nodes)
        t_max = float(nodes)
        window = TimeWindow(t_max)
        samples = int(round(t_max / step))
        if samples % 2 == 1:
            samples += 1  # Simpson needs an even interval count
        grid = np.linspace(0.0, t_max, samples + 1)
        targets = independent_targets(nodes)
        spec_full = ChainSpec.all_neighbors(nodes)
        ref = {t: amplitude(spec_full, profile, 1, t, grid) for t in targets}
        errors, _ = error_map(nodes, profile, window)
        probs = probability_map(nodes, profile, window)
        for m in range(1, max_neighbors(nodes) + 1):
            spec = ChainSpec(nodes, m)
            for i, t in enumerate(targets):
                p = amplitude(spec, profile, 1, t, grid)
                quad_prob = simpson_integral(np.abs(p) ** 2, t_max) / t_max
                worst = max(worst, abs(quad_prob - probs[m - 1][i]))
                num = simpson_integral(np.abs(p - ref[t]) ** 2, t_max)
                den = simpson_integral(np.abs(ref[t]) ** 2, t_max)
                worst = max(worst, abs(np.sqrt(num / den) - errors[m - 1][i]))
    return worst


def _check_perfect_transfer():
    p = amplitude(ChainSpec(4, 1), dipolar_ratios(4), 1, 3, np.pi / 2)
    return abs(abs(p) ** 2 - 1.0)


def cmd_validate(args) -> int:
    step = args.quad_step
    checks = []
    val_dev, proj_dev = _check_eigen_agreement()
    checks.append(("eigenvalues closed form vs dense solver", val_dev, 1e-10))
    checks.append(("degenerate projectors closed form vs dense solver", proj_dev, 1e-8))
    checks.append(("propagator closed form vs matrix exponential", _check_propagator(), 1e-8))
    checks.append((f"window integrals vs Simpson (step {step:g})", _check_quadrature(step), 1e-6))
    checks.append(("perfect transfer across the 4-ring", _check_perfect_transfer(), 1e-12))
    failed = False
    for name, dev, tol in checks:
        ok = dev <= tol
        failed |= not ok
        print(f"{'PASS' if ok else 'FAIL'}  {name}: max deviation {dev:.3e} (tol {tol:g})")
    return 1 if failed else 0


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
