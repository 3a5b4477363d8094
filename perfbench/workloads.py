"""The three benchmark workloads: inputs from a seed, per-op checks, references.

A workload turns `--seed` into a fixed list of CLI commands (one op runs all
of them once) plus the files they read.  Seed 0 gives the canonical inputs;
other seeds perturb them without changing the amount of work, so op times
stay comparable across seeds:

  paper-sweep  the averaging window of the four maps (T = f N, f in
               [0.8, 1.25]) and the rate r in [1.8, 2.2] of the steep custom
               profile d_k = exp(-r (k-1)); the threshold tables and the fit
               keep the paper's lengths because their values are frozen.
  large-map    N in 279..281 (both parities) and the window factor f.
  validate     the Simpson step, within 1% of its default 1e-3.

Checks run in two stages.  `check_op` runs after every op on that op's
outputs: exit codes, frozen tables, sum rule, zero error at M = N/2, fit rms,
and agreement with the first op.  `check_reference` runs once after the
timed loop on the first op's outputs: every map against the independent
quadrature reference (`reference.py`) and, at seed 0, against the stored
values in `expected_seed0.json`, all at 1e-7 absolute.  That tolerance sits
above the ~1e-8 cancellation floor of the closed-form error, so a
cancellation-free evaluation passes too.
"""

from __future__ import annotations

import functools
import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from reference import RingReference, dipolar_couplings

EXPECTED_FILE = Path(__file__).resolve().parent / "expected_seed0.json"


@functools.cache
def _expected(workload: str) -> dict:
    return json.loads(EXPECTED_FILE.read_text())[workload]

# minimal accurate radius at epsilon 0.1, T = N (acceptance criterion 6)
PAPER_TABLE = {20: 8, 26: 10, 30: 10, 36: 10, 40: 11, 46: 10, 50: 10, 60: 10, 70: 11}
PAPER_LENGTHS = tuple(PAPER_TABLE)
FIT_RMS_BOUNDS = {20: 8e-3, 36: 1.4e-2, 70: 4e-2}  # acceptance criterion 9
STEEP_EPSILON = 1e-3
MAP_TOL = 1e-7          # outputs vs reference and stored values
SUM_RULE_TOL = 1e-9     # sum over all sites of the averaged probability
REPEAT_TOL = 1e-12      # every op vs the first op of the run
LARGE_MAP_RADII = 6     # radii per large map checked against the reference


@dataclass
class Command:
    """One CLI call of an op.  `label` names its output for the checks;
    `out` is the file the call writes, or None when it prints to stdout."""

    label: str
    argv: list[str]
    out: Path | None = None


@dataclass
class MapInput:
    """What the reference needs to recompute one map."""

    nodes: int
    couplings: np.ndarray
    t_max: float


@dataclass
class Plan:
    workload: str
    seed: int
    commands: list[Command]
    maps: dict[str, MapInput] = field(default_factory=dict)  # map label -> input
    params: dict = field(default_factory=dict)
    # scale op timings by the speed probe (probe.py); off where the probe
    # was measured not to track the workload's drift
    speed_probe: bool = True


def _window_arg(nodes: int, factor: float | None) -> list[str]:
    return [] if factor is None else ["--t-max", repr(nodes * factor)]


def _multiplicities(nodes: int) -> np.ndarray:
    mult = np.full(nodes // 2 + 1, 2.0)
    mult[0] = 1.0
    if nodes % 2 == 0:
        mult[-1] = 1.0
    return mult


def _plan_paper_sweep(seed: int, work: Path) -> Plan:
    rng = random.Random(seed)
    factors = {70: None, 71: None} if seed == 0 else {
        n: 0.8 + 0.45 * rng.random() for n in (70, 71)
    }
    rate = 2.0 if seed == 0 else 1.8 + 0.4 * rng.random()
    steep = np.exp(-rate * np.arange(70 // 2))
    steep_file = work / "steep_profile.txt"
    steep_file.write_text("".join(f"{v!r}\n" for v in steep.tolist()))
    profile = ["--profile", f"custom:{steep_file}"]
    js = ["--format", "json"]
    commands = [Command("threshold_T=N", ["threshold", "--n-list",
                                          ",".join(map(str, PAPER_LENGTHS)), *js])]
    commands += [
        Command(f"threshold_T=2N/{n}", ["threshold", "--n", str(n), "--t-max", str(2 * n), *js])
        for n in PAPER_LENGTHS
    ]
    commands.append(Command("fit", ["fit", "--n-list", "20,36,70", *js]))
    maps = {}
    for n, f in factors.items():
        win = _window_arg(n, f)
        for kind in ("jmap", "probmap"):
            commands.append(Command(f"{kind}/{n}", [kind, "--n", str(n), *win, *js]))
        maps[str(n)] = MapInput(n, dipolar_couplings(n), n * (f or 1.0))
    commands.append(Command("steep_threshold", ["threshold", "--n", "70", "--epsilon",
                                                repr(STEEP_EPSILON), *profile, *js]))
    commands.append(Command("jmap/steep", ["jmap", "--n", "70", *profile, *js]))
    maps["steep"] = MapInput(70, steep, 70.0)
    params = {"map_window_factors": factors, "steep_rate": rate, "steep_profile": str(steep_file)}
    return Plan("paper-sweep", seed, commands, maps, params)


def _plan_large_map(seed: int, work: Path) -> Plan:
    rng = random.Random(seed)
    nodes = 280 if seed == 0 else 279 + int(3 * rng.random())
    factor = None if seed == 0 else 0.8 + 0.45 * rng.random()
    win = _window_arg(nodes, factor)
    commands = [
        Command(f"{kind}/{nodes}",
                [kind, "--n", str(nodes), *win, "--format", "json",
                 "--out", str(work / f"{kind}.json")],
                out=work / f"{kind}.json")
        for kind in ("jmap", "probmap")
    ]
    maps = {str(nodes): MapInput(nodes, dipolar_couplings(nodes), nodes * (factor or 1.0))}
    return Plan("large-map", seed, commands, maps, {"nodes": nodes, "window_factor": factor},
                speed_probe=False)


def _plan_validate(seed: int, work: Path) -> Plan:
    rng = random.Random(seed)
    argv = ["validate"]
    step = None
    if seed != 0:
        step = 1e-3 * (0.99 + 0.02 * rng.random())
        argv += ["--quad-step", repr(step)]
    return Plan("validate", seed, [Command("validate", argv)], {}, {"quad_step": step})


PLANNERS = {
    "paper-sweep": _plan_paper_sweep,
    "large-map": _plan_large_map,
    "validate": _plan_validate,
}


def make_plan(workload: str, seed: int, work: Path) -> Plan:
    work.mkdir(parents=True, exist_ok=True)
    return PLANNERS[workload](seed, work)


# --- outputs -----------------------------------------------------------------

def _surface(table: dict, nodes: int) -> np.ndarray:
    """(neighbors, target, value) rows -> array [M-1, target-1]."""
    rows = np.asarray(table["rows"], dtype=float)
    shape = (nodes // 2, nodes // 2 + 1)
    if rows.shape != (shape[0] * shape[1], 3):
        raise ValueError(f"map has {rows.shape[0]} rows, expected {shape[0] * shape[1]}")
    m, t = rows[:, 0].astype(int), rows[:, 1].astype(int)
    if not (np.array_equal(m, np.repeat(np.arange(1, shape[0] + 1), shape[1]))
            and np.array_equal(t, np.tile(np.arange(1, shape[1] + 1), shape[0]))):
        raise ValueError("map rows are not in (neighbors, target) order")
    return rows[:, 2].reshape(shape)


@dataclass
class OpResult:
    """Compact, comparable outputs of one op."""

    thresholds: dict[str, dict[int, int]] = field(default_factory=dict)
    audits: dict[str, np.ndarray] = field(default_factory=dict)
    fit_rms: dict[int, float] = field(default_factory=dict)
    errors: dict[str, np.ndarray] = field(default_factory=dict)
    means: dict[str, np.ndarray] = field(default_factory=dict)
    probs: dict[str, np.ndarray] = field(default_factory=dict)
    validate_lines: list[str] = field(default_factory=list)

    def clipped_errors(self) -> int:
        """Error entries that are exactly zero below the full radius."""
        return int(sum(np.count_nonzero(e[:-1] == 0.0) for e in self.errors.values()))

    def arrays(self) -> dict[tuple[str, str], np.ndarray]:
        return {(group, key): value
                for group in ("audits", "errors", "means", "probs")
                for key, value in getattr(self, group).items()}


def parse_outputs(plan: Plan, texts: dict[str, str]) -> OpResult:
    """Parse each command's output text into an OpResult."""
    res = OpResult()
    for cmd in plan.commands:
        text = texts[cmd.label]
        if cmd.label == "validate":
            res.validate_lines = text.splitlines()
            continue
        payload = json.loads(text)
        kind, _, key = cmd.label.partition("/")
        if "threshold" in kind:
            table = res.thresholds.setdefault(kind, {})
            table.update({int(n): int(m) for n, m in payload["threshold"]["rows"]})
            if kind == "steep_threshold":
                res.audits["steep"] = np.asarray(payload["audit"]["rows"], float)[:, 2]
        elif kind == "fit":
            res.fit_rms = {int(r[0]): float(r[5]) for r in payload["fit"]["rows"]}
        elif kind == "jmap":
            res.errors[key] = _surface(payload["error"], plan.maps[key].nodes)
            res.means[key] = np.asarray(payload["error_avg"]["rows"], float)[:, 1]
        elif kind == "probmap":
            res.probs[key] = _surface(payload["probability"], plan.maps[key].nodes)
    return res


# --- checks ------------------------------------------------------------------

def check_op(plan: Plan, res: OpResult, first: OpResult | None) -> list[str]:
    """Problems with one op's outputs; empty when the op is correct."""
    problems = []
    if plan.workload == "paper-sweep":
        frozen = _expected("paper-sweep")["threshold_T=2N"]
        tables = {"threshold_T=N": PAPER_TABLE,
                  "threshold_T=2N": {int(n): m for n, m in frozen.items()}}
        for group, want in tables.items():
            if res.thresholds.get(group) != want:
                problems.append(f"{group} table {res.thresholds.get(group)} != {want}")
        for n, bound in FIT_RMS_BOUNDS.items():
            rms = res.fit_rms.get(n, math.inf)
            if not rms < bound:
                problems.append(f"fit rms at N={n} is {rms:.3e}, bound {bound:g}")
        audit = res.audits["steep"]
        failing = np.nonzero(audit > STEEP_EPSILON)[0]
        m_star = int(failing.max()) + 2 if failing.size else 1
        if res.thresholds["steep_threshold"].get(70) != m_star:
            problems.append("steep threshold disagrees with its own audit")
    for key, probs in res.probs.items():
        nodes = plan.maps[key].nodes
        total = probs @ _multiplicities(nodes)
        if np.abs(total - 1.0).max() > SUM_RULE_TOL:
            problems.append(f"sum rule broken for N={nodes}: {np.abs(total - 1).max():.2e}")
    for key, errors in res.errors.items():
        nodes = plan.maps[key].nodes
        if np.any(errors[-1] != 0.0):
            problems.append(f"nonzero error at M = N/2 for map {key}")
        if np.abs(errors @ _multiplicities(nodes) / nodes - res.means[key]).max() > REPEAT_TOL:
            problems.append(f"mean error table inconsistent for map {key}")
    if plan.workload == "validate":
        if len(res.validate_lines) != 5 or not all(
                ln.startswith("PASS") for ln in res.validate_lines):
            problems.append(f"validate reported {res.validate_lines}")
    if first is not None:
        if res.thresholds != first.thresholds or res.fit_rms != first.fit_rms:
            problems.append("tables differ from the first op")
        mine, theirs = res.arrays(), first.arrays()
        if mine.keys() != theirs.keys():
            problems.append("outputs differ from the first op")
        for key, value in mine.items():
            ref = theirs.get(key)
            if ref is not None and (value.shape != ref.shape
                                    or np.abs(value - ref).max() > REPEAT_TOL):
                problems.append(f"{key} differs from the first op")
    return problems


def _reference_radii(plan: Plan, nodes: int) -> list[int]:
    full = nodes // 2
    if plan.workload != "large-map":
        return list(range(1, full + 1))
    rng = random.Random(plan.seed)
    picks = {1, full - 1, full}
    while len(picks) < LARGE_MAP_RADII:
        picks.add(1 + int(rng.random() * full))
    return sorted(picks)


def check_reference(plan: Plan, res: OpResult) -> list[str]:
    """Compare one op's maps with the quadrature reference and, at seed 0,
    with the stored values."""
    problems = []
    for key, inp in plan.maps.items():
        ref = RingReference(inp.nodes, inp.couplings, inp.t_max)
        for m in _reference_radii(plan, inp.nodes):
            probs, errors = ref.row(m)
            if key in res.errors:
                dev = np.abs(res.errors[key][m - 1] - errors).max()
                if dev > MAP_TOL:
                    problems.append(f"error map {key} M={m} off reference by {dev:.2e}")
            if key in res.probs:
                dev = np.abs(res.probs[key][m - 1] - probs).max()
                if dev > MAP_TOL:
                    problems.append(f"probability map {key} M={m} off reference by {dev:.2e}")
            if key == "steep":
                dev = abs(res.audits["steep"][m - 1] - errors.max())
                if dev > MAP_TOL:
                    problems.append(f"steep audit M={m} off reference by {dev:.2e}")
    if plan.seed == 0 and plan.maps:
        stored = _expected(plan.workload)
        if plan.workload == "paper-sweep":
            got = res.thresholds["steep_threshold"].get(70)
            if got != stored["steep_min_neighbors"]:
                problems.append(f"steep threshold {got} != {stored['steep_min_neighbors']}")
        for name, entry in stored.get("maps", {}).items():
            kind, key = name.split("/")
            surface = (res.errors if kind == "error" else res.probs)[key]
            radii = np.asarray(entry["radii"])
            dev = np.abs(surface[radii - 1] - np.asarray(entry["values"])).max()
            if dev > MAP_TOL:
                problems.append(f"{name} off stored seed-0 values by {dev:.2e}")
    return problems


def stored_values(plan: Plan, res: OpResult) -> dict:
    """The seed-0 values `expected_seed0.json` keeps for this workload."""
    out = {}
    if plan.workload == "paper-sweep":
        if res.thresholds["threshold_T=N"] != PAPER_TABLE:
            raise ValueError(f"T=N table {res.thresholds['threshold_T=N']} is not the paper's")
        out["threshold_T=2N"] = res.thresholds["threshold_T=2N"]
        out["steep_min_neighbors"] = res.thresholds["steep_threshold"][70]
    maps = {}
    for kind, group in (("error", res.errors), ("probability", res.probs)):
        for key, surface in group.items():
            full = surface.shape[0]
            radii = sorted({m for m in (1, 2, 5, 13, 34, 89) if m < full} | {full - 1, full})
            maps[f"{kind}/{key}"] = {
                "radii": radii,
                "values": [[float(f"{v:.10g}") for v in surface[m - 1]] for m in radii],
            }
    if maps:
        out["maps"] = maps
    return out
