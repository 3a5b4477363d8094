"""Acceptance suite: every exit criterion at its stated tolerance.

Each test prints one [acceptance] PASS/FAIL line (visible with pytest -s or
on failure).  Frozen expectations: closed-form hand values, brute-force
oracle routes, and the reference threshold table for dipolar rings.
Criteria 1, 2, 4 and 5 run the `oracle` checks that `ringspin validate`
prints, at the tolerances those checks carry.
"""

import numpy as np

from ringspin.chain import ChainSpec, dipolar_ratios, max_neighbors
from ringspin.fitting import fit_scale
from ringspin.metrics import (
    TimeWindow,
    accuracy_threshold,
    error_map,
    probability_map,
    state_error,
)
from ringspin.oracle import (
    check_eigen,
    check_perfect_transfer,
    check_propagator,
    check_quadrature,
)
from ringspin.spectral import evolve

# regression targets: minimal accurate truncation radii for dipolar rings
# at epsilon = 0.1, T = N
THRESHOLD_TABLE = {20: 8, 26: 10, 30: 10, 36: 10, 40: 11, 46: 10, 50: 10, 60: 10, 70: 11}

# decay-fit rms bounds calibrated on the generated error curves (observed
# rms: 5.7e-3, 9.7e-3, 2.7e-2) before freezing this suite; the scale fit
# against the state-level error reads 1.1e-3, 2.0e-3 and 5.3e-4
FIT_RMS_BOUNDS = {20: 8e-3, 36: 1.4e-2, 70: 4e-2}


def report(num, ok, detail):
    print(f"[acceptance] criterion {num}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num} failed: {detail}"


def test_criterion_1_spectral_oracle_equivalence():
    values, projectors = check_eigen()
    report(
        1,
        values.passed and projectors.passed,
        f"eigenvalue dev {values.deviation:.2e} <= {values.tolerance:g}, "
        f"projector dev {projectors.deviation:.2e} <= {projectors.tolerance:g}",
    )


def test_criterion_2_propagator_equivalence():
    check = check_propagator()
    report(2, check.passed, f"max amplitude dev {check.deviation:.2e} <= {check.tolerance:g}")


def site_amplitudes(spec, profile, j, grid):
    """p_jk on the time grid (rows) for every site k (columns): `evolve` on
    the site state e_j."""
    return evolve(spec, profile, np.eye(spec.nodes)[j - 1], grid)


def test_criterion_3_unitarity_and_symmetry():
    worst_unitarity = 0.0
    for nodes in (4, 7, 21, 70):
        profile = dipolar_ratios(nodes)
        grid = np.linspace(0.0, float(nodes), 1000)
        for m in {1, min(10, max_neighbors(nodes)), max_neighbors(nodes)}:
            spec = ChainSpec(nodes, m)
            total = np.sum(np.abs(site_amplitudes(spec, profile, 1, grid)) ** 2, axis=1)
            worst_unitarity = max(worst_unitarity, float(np.abs(total - 1.0).max()))

    # reflection and translation invariance on the largest ring
    nodes = 70
    profile = dipolar_ratios(nodes)
    spec = ChainSpec(nodes, 10)
    grid = np.linspace(0.0, 70.0, 200)
    worst_sym = 0.0
    from_1 = site_amplitudes(spec, profile, 1, grid)
    for k in (2, 6, 18, 35):
        mirror = nodes + 2 - k
        dev = np.abs(from_1[:, k - 1] - from_1[:, mirror - 1])
        worst_sym = max(worst_sym, float(dev.max()))
    for (j, k), shift in (((1, 18), 7), ((3, 40), 33), ((12, 69), 55)):
        js = (j - 1 + shift) % nodes + 1
        ks = (k - 1 + shift) % nodes + 1
        dev = np.abs(site_amplitudes(spec, profile, j, grid)[:, k - 1]
                     - site_amplitudes(spec, profile, js, grid)[:, ks - 1])
        worst_sym = max(worst_sym, float(dev.max()))
    report(
        3,
        worst_unitarity <= 1e-12 and worst_sym <= 1e-12,
        f"unitarity dev {worst_unitarity:.2e}, symmetry dev {worst_sym:.2e}, tol 1e-12",
    )


def test_criterion_4_perfect_transfer_witness():
    check = check_perfect_transfer()
    report(4, check.passed, f"|p_13(pi/2)|^2 off by {check.deviation:.2e} <= {check.tolerance:g}")


def test_criterion_5_exact_vs_quadrature():
    check = check_quadrature(1e-3, (10, 20, 40))
    report(
        5,
        check.passed,
        f"probabilities and errors vs Simpson(step 1e-3) dev {check.deviation:.2e} "
        f"<= {check.tolerance:g}",
    )


def test_criterion_6_threshold_table_reproduction():
    mismatches = []
    doubled = {}
    for nodes, published in THRESHOLD_TABLE.items():
        profile = dipolar_ratios(nodes)
        got = accuracy_threshold(nodes, profile, 0.1, TimeWindow.matched(nodes)).min_neighbors
        doubled[nodes] = accuracy_threshold(
            nodes, profile, 0.1, TimeWindow(2.0 * nodes)
        ).min_neighbors
        if abs(got - published) > 1:
            mismatches.append((nodes, got, published))
    print(f"[acceptance] criterion 6 report: thresholds at T=2N: {doubled}")
    report(
        6,
        not mismatches,
        "all thresholds within +-1 of the reference table (T=N)"
        if not mismatches
        else f"mismatches {mismatches}",
    )


def test_criterion_7_probability_surface_shape():
    nodes = 70
    probs = probability_map(nodes, dipolar_ratios(nodes), TimeWindow.matched(nodes))
    p = probs[-1]  # full interaction range
    endpoints_peak = p[0] > p[1] and p[35] > p[34]
    window_means = [float(p[1:9].mean()), float(p[9:19].mean()), float(p[19:29].mean())]
    decreasing = window_means[0] > window_means[1] > window_means[2]
    report(
        7,
        endpoints_peak and decreasing,
        f"P_1={p[0]:.4f} and P_36={p[35]:.4f} are local maxima; "
        f"window means {[round(v, 5) for v in window_means]} decrease",
    )


def test_criterion_8_error_surface_shape():
    nodes = 70
    errors, _ = error_map(nodes, dipolar_ratios(nodes), TimeWindow.matched(nodes))
    worst = errors.max(axis=1)
    low_m_fails = bool(np.all(worst[:7] > 0.1))
    high_m_ok = bool(np.all(worst[11:] <= 0.1))
    spread = errors[:-1].std(axis=1) / errors[:-1].mean(axis=1)
    print(
        "[acceptance] criterion 8 report: relative spread of the error over "
        f"targets: median {np.median(spread):.3f}, max {spread.max():.3f}"
    )
    report(
        8,
        low_m_fails and high_m_ok,
        f"max error > 0.1 for M <= 7 and <= 0.1 for M >= 12 "
        f"(worst at M=7: {worst[6]:.3f}, at M=12: {worst[11]:.3f})",
    )


def test_criterion_9_fit_pipeline():
    curve = 0.3 / np.arange(2.0, 21.0) ** 2
    synthetic = fit_scale(1.25 * curve, curve)
    synthetic_ok = abs(synthetic.kappa - 1.25) <= 1e-15 and synthetic.rms < 1e-10

    rms_ok = kappa_ok = True
    details = [f"synthetic kappa {synthetic.kappa!r}, rms {synthetic.rms:.1e}"]
    for nodes, bound in FIT_RMS_BOUNDS.items():
        nf = max_neighbors(nodes)
        profile, window = dipolar_ratios(nodes), TimeWindow.matched(nodes)
        _, means = error_map(nodes, profile, window)
        fit = fit_scale(means[1 : nf - 1], state_error(nodes, profile, window)[1 : nf - 1])
        details.append(f"N={nodes} kappa {fit.kappa:.4f}, rms {fit.rms:.2e} (bound {bound:g})")
        rms_ok &= fit.rms < bound
        kappa_ok &= abs(fit.kappa - 1.0) <= 0.01
    report(9, synthetic_ok and rms_ok and kappa_ok, "; ".join(details))
