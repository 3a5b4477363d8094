import decimal
import json
import math

import numpy as np
import pytest
from hypothesis import assume, event, given, settings, strategies as st

from ringspin import metrics
from ringspin.chain import ChainSpec, CouplingProfile, dipolar_ratios, max_neighbors
from ringspin.cli import main
from ringspin.metrics import (
    MIN_T_MAX,
    TimeWindow,
    accuracy_threshold,
    error_map,
    independent_targets,
    probability_map,
    state_error,
)
from ringspin.metrics import (GL_SPAN, _mode_errors, _one_minus_cos, _one_minus_sinc,
                              _PairKernels, _plain_kernel)
from ringspin.spectral import (eigenvalue_shifts, evolve, mode_count, mode_multiplicities,
                               pair_mode_weights, wave_numbers)
from simpson import simpson_integral

# (1/T) int_0^T cos^4 tau dtau at T = 4, by the antiderivative
# 3 tau/8 + sin(2 tau)/4 + sin(4 tau)/32
COS4_AVG_T4 = 3.0 / 8.0 + math.sin(8.0) / 16.0 + math.sin(16.0) / 128.0


class TestTimeWindow:
    def test_positive_only(self):
        TimeWindow(0.5)
        with pytest.raises(ValueError):
            TimeWindow(0.0)
        with pytest.raises(ValueError):
            TimeWindow(-3.0)
        for bad in (math.inf, math.nan, 1e-300, 5e-324):
            with pytest.raises(ValueError):
                TimeWindow(bad)
        TimeWindow(MIN_T_MAX)

    def test_matched_default(self):
        assert TimeWindow.matched(70).t_max == 70.0

    @pytest.mark.parametrize("nodes", [9, 10, 36])
    def test_integer_and_float32_windows_match_the_float_window(self, nodes):
        # an integer t_max once truncated the diagonal error kernel to integers
        # (0.145 off at N = 9, T = 9) and a float32 one rounded it
        profile = dipolar_ratios(nodes)
        for t_max in (nodes, 2 * nodes, 3, np.int64(nodes), np.float32(nodes)):
            window = TimeWindow(t_max)
            assert type(window.t_max) is float
            reference = TimeWindow(float(t_max))
            for left, right in zip(error_map(nodes, profile, window),
                                   error_map(nodes, profile, reference)):
                assert np.array_equal(left, right)
            assert np.array_equal(probability_map(nodes, profile, window),
                                  probability_map(nodes, profile, reference))


def mirror_columns(nodes: int) -> np.ndarray:
    """Map column of every target 1..N: target n and its mirror N+2-n share one."""
    n = np.arange(1, nodes + 1)
    return np.minimum(n, nodes + 2 - n) - 1


class TestAvgProbability:
    def test_square_ring_return_probability(self):
        # |p_11|^2 = cos^4 tau on the nearest-neighbor 4-ring
        value = probability_map(4, dipolar_ratios(4), TimeWindow(4.0))[0, 0]
        assert value == pytest.approx(COS4_AVG_T4, abs=1e-13)

    def test_short_window_limit(self):
        # continuity: P_1 -> 1 as the window shrinks
        value = probability_map(6, dipolar_ratios(6), TimeWindow(1e-9))[-1, 0]
        assert value == pytest.approx(1.0, abs=1e-9)

    @given(nodes=st.integers(min_value=3, max_value=30))
    @settings(max_examples=30)
    def test_mirror_weighted_sum_is_one(self, nodes):
        """Time averaging preserves unitarity: at every radius the
        probabilities over the independent targets, counted with mirror
        multiplicity, sum to 1."""
        probs = probability_map(nodes, dipolar_ratios(nodes), TimeWindow.matched(nodes))
        mult = mode_multiplicities(nodes)
        assert int(mult.sum()) == nodes
        np.testing.assert_allclose(probs @ mult, 1.0, rtol=0.0, atol=1e-12)


class TestTruncationError:
    def test_zero_at_full_range(self):
        """The kernel itself gives exactly 0 at the untruncated radius, where
        every shift is 0, and so does the map's last row."""
        for nodes in (10, 11):
            profile = dipolar_ratios(nodes)
            lam_ref, shifts = eigenvalue_shifts(ChainSpec.all_neighbors(nodes), profile)
            assert np.all(shifts[-1] == 0.0)
            assert np.all(_mode_errors(nodes, lam_ref, shifts[-1:], float(nodes)) == 0.0)
            assert np.all(error_map(nodes, profile, TimeWindow.matched(nodes))[0][-1] == 0.0)

    def test_reflection_invariance(self):
        """Targets k and N+2-k have equal errors, checked on Simpson integrals
        of the amplitudes, independently of the maps' one column per pair."""
        nodes, t_max, step = 12, 12.0, 1e-3
        grid = np.linspace(0.0, t_max, int(round(t_max / step)) + 1)
        profile = dipolar_ratios(nodes)
        spec, full = ChainSpec(nodes, 3), ChainSpec.all_neighbors(nodes)
        site_1 = np.eye(nodes)[0]
        from_1, ref_from_1 = (evolve(s, profile, site_1, grid) for s in (spec, full))

        def simpson_error(target):
            p, p_ref = from_1[:, target - 1], ref_from_1[:, target - 1]
            return math.sqrt(simpson_integral(np.abs(p - p_ref) ** 2, t_max)
                             / simpson_integral(np.abs(p_ref) ** 2, t_max))

        for k in (2, 3, 5):
            assert simpson_error(k) == pytest.approx(simpson_error(nodes + 2 - k), abs=1e-12)

    def test_agrees_with_simpson_quadrature(self):
        """Rows M = 1, 2, 4 of the error map against Simpson integrals of the
        amplitudes to every site 1..N, mirrors included."""
        nodes, t_max, step = 10, 10.0, 1e-3
        grid = np.linspace(0.0, t_max, int(round(t_max / step)) + 1)
        profile = dipolar_ratios(nodes)
        full = ChainSpec.all_neighbors(nodes)
        errors, _ = error_map(nodes, profile, TimeWindow(t_max))
        columns = mirror_columns(nodes)
        site_1 = np.eye(nodes)[0]
        ref_from_1 = evolve(full, profile, site_1, grid)
        from_1 = {m: evolve(ChainSpec(nodes, m), profile, site_1, grid) for m in (1, 2, 4)}
        for target in range(1, nodes + 1):
            p_ref = ref_from_1[:, target - 1]
            den = simpson_integral(np.abs(p_ref) ** 2, t_max)
            for m in (1, 2, 4):
                p = from_1[m][:, target - 1]
                num = simpson_integral(np.abs(p - p_ref) ** 2, t_max)
                exact = errors[m - 1, columns[target - 1]]
                assert exact == pytest.approx(math.sqrt(num / den), abs=1e-6)

    def test_time_rescaling_invariance(self):
        """Scaling every coupling by c and the window by 1/c leaves the
        relative error unchanged; checked at the mode level because the
        public profile type pins d_1 = 1."""
        nodes, m = 11, 2
        lam_ref, shifts = eigenvalue_shifts(ChainSpec.all_neighbors(nodes), dipolar_ratios(nodes))
        shift = shifts[m - 1 : m]
        base = _mode_errors(nodes, lam_ref, shift, 11.0)
        assert np.all(base > 1e-3)
        for c in (0.25, 3.0, 17.0):
            scaled = _mode_errors(nodes, c * lam_ref, c * shift, 11.0 / c)
            np.testing.assert_allclose(scaled, base, rtol=1e-12, atol=0.0)


class TestMeanTruncationError:
    def test_zero_at_full_range(self):
        _, means = error_map(9, dipolar_ratios(9), TimeWindow(9.0))
        assert means[-1] == 0.0

    @pytest.mark.parametrize("nodes", [8, 9])
    def test_matches_weighted_sum(self, nodes):
        """The per-radius mean is the plain mean over all N targets, each
        read from its mirror column."""
        errors, means = error_map(nodes, dipolar_ratios(nodes), TimeWindow.matched(nodes))
        np.testing.assert_allclose(means, errors[:, mirror_columns(nodes)].mean(axis=1),
                                   rtol=1e-14, atol=0.0)


def steep_profile(nodes: int, rate: float = 2.0) -> CouplingProfile:
    """d_k = e^{-rate (k-1)}: far couplings so weak that truncation errors
    fall far below the cancellation floor (about 1e-8) of a four-term
    numerator such as `eigenvector_forms`."""
    return CouplingProfile(tuple(np.exp(-rate * np.arange(max_neighbors(nodes)))))


def eigenvector_forms(nodes: int, profile: CouplingProfile, t_max: float, targets=None):
    """Reference maps from one explicit quadratic form per (M, target):
    eigenvector weights of the (1, n) element, eigenvalues summed directly
    from their cosine formula, and the joined spectrum (+w on lam, -w on
    lam_ref) for the error numerator.  A form is not clipped: a numerator
    that rounds below zero gives a negative error, sign kept.  Columns are
    `targets`, by default the independent ones."""

    def power(w, lam):
        """int_0^T |sum_a w_a e^{-i lam_a tau}|^2 dtau."""
        return float(w @ _plain_kernel(lam[:, None] - lam[None, :], t_max) @ w)

    nf = max_neighbors(nodes)
    p = 2.0 * np.pi * np.arange(nf + 1) / nodes
    d = np.asarray(profile.ratios)
    lams = []
    for m in range(1, nf + 1):
        c = 2.0 * d[:m]
        if 2 * m == nodes:
            c[-1] = d[m - 1]  # the opposite node is a single neighbour
        lams.append(np.cos(np.outer(p, np.arange(1, m + 1))) @ c)
    targets = independent_targets(nodes) if targets is None else targets
    weights = [pair_mode_weights(nodes, 1, n) for n in targets]
    probs = np.array([[power(w, lam) / t_max for w in weights] for lam in lams])
    errors = np.zeros_like(probs)
    for row, lam in enumerate(lams[:-1]):
        for i, w in enumerate(weights):
            num = power(np.concatenate([w, -w]), np.concatenate([lam, lams[-1]]))
            errors[row, i] = math.copysign(math.sqrt(abs(num) / power(w, lams[-1])), num)
    return probs, errors


class TestKernelOracle:
    @pytest.mark.parametrize(
        "make_profile, tol", [(dipolar_ratios, 1e-12), (steep_profile, 1e-7)],
        ids=["dipolar", "steep"],
    )
    def test_maps_match_eigenvector_forms(self, make_profile, tol):
        for nodes in range(3, 25):
            profile = make_profile(nodes)
            mult = mode_multiplicities(nodes)
            for factor in (0.5, 1.0, 2.3):
                window = TimeWindow(factor * nodes)
                ref_probs, ref_errors = eigenvector_forms(nodes, profile, window.t_max)
                probs = probability_map(nodes, profile, window)
                errors, means = error_map(nodes, profile, window)
                assert probs.shape == errors.shape == ref_probs.shape
                np.testing.assert_allclose(probs, ref_probs, rtol=0.0, atol=1e-12)
                np.testing.assert_allclose(errors, ref_errors, rtol=0.0, atol=tol)
                np.testing.assert_allclose(
                    means, ref_errors @ mult / nodes, rtol=0.0, atol=tol
                )

    @pytest.mark.parametrize("nodes, m", [(9, 2), (10, 3), (16, 5), (17, 8)])
    def test_scalar_views_match_eigenvector_forms(self, nodes, m):
        """Every target 1..N, mirrors included, read off row M of the maps
        through its mirror column, against forms built for that target."""
        profile = dipolar_ratios(nodes)
        window = TimeWindow(1.3 * nodes)
        ref_probs, ref_errors = eigenvector_forms(nodes, profile, window.t_max,
                                                  targets=range(1, nodes + 1))
        columns = mirror_columns(nodes)
        errors, means = error_map(nodes, profile, window)
        probs = probability_map(nodes, profile, window)
        np.testing.assert_allclose(probs[m - 1, columns], ref_probs[m - 1], rtol=0.0, atol=1e-12)
        np.testing.assert_allclose(errors[m - 1, columns], ref_errors[m - 1], rtol=0.0, atol=1e-12)
        assert means[m - 1] == pytest.approx(ref_errors[m - 1].mean(), abs=1e-12)


class TestSweeps:
    def test_full_range_error_row_is_zero(self):
        errors, means = error_map(8, dipolar_ratios(8), TimeWindow(8.0))
        assert np.all(errors[-1] == 0.0)
        assert means[-1] == 0.0


class TestAccuracyThreshold:
    def test_twenty_ring_needs_eight_neighbors(self):
        result = accuracy_threshold(20, dipolar_ratios(20), 0.1, TimeWindow.matched(20))
        assert result.min_neighbors == 8

    def test_saturates_at_one_when_every_radius_is_accurate(self):
        # profile with negligible far couplings: even M = 1 is accurate
        profile = CouplingProfile((1.0, 1e-9, 1e-9), kind="custom")
        result = accuracy_threshold(7, profile, 0.5, TimeWindow(7.0))
        assert result.min_neighbors == 1

    def test_audit_table_covers_every_radius(self):
        result = accuracy_threshold(14, dipolar_ratios(14), 0.1, TimeWindow.matched(14))
        assert result.max_error_per_m.shape == (max_neighbors(14),)
        # everything from the threshold on satisfies the tolerance
        assert np.all(result.max_error_per_m[result.min_neighbors - 1 :] <= 0.1)
        # and the radius just below it does not (unless the threshold is 1)
        if result.min_neighbors > 1:
            assert result.max_error_per_m[result.min_neighbors - 2] > 0.1

    def test_epsilon_bounds(self):
        with pytest.raises(ValueError):
            accuracy_threshold(8, dipolar_ratios(8), 0.0, TimeWindow(8.0))
        with pytest.raises(ValueError):
            accuracy_threshold(8, dipolar_ratios(8), 1.0, TimeWindow(8.0))


def exact_maps(nodes: int, ratios, t_max: float, targets, digits: int = 50):
    """(probabilities, errors) at every radius for the given targets, with
    `digits` significant digits: mpmath for every sine and cosine, Python's
    decimal for the O(modes^2) pair sums (about ten times faster than mpmath
    numbers).  Eigenvalues are summed from their cosine formula, and the
    error numerator is the plain four-term form: at this precision its
    cancellation costs nothing the test can see.  A target whose reference
    power is exactly zero has no relative error: its entries are NaN."""
    mpmath = pytest.importorskip("mpmath")
    ctx = decimal.Context(prec=digits)

    def dec(x):
        return decimal.Decimal(mpmath.nstr(x, digits + 5))

    with mpmath.workdps(digits + 10), decimal.localcontext(ctx):
        modes, nf = nodes // 2 + 1, max_neighbors(nodes)
        t = mpmath.mpf(t_max)
        p = [2 * mpmath.pi * m / nodes for m in range(modes)]
        lams, lam = [], [mpmath.mpf(0)] * modes
        for j in range(1, nf + 1):
            c = mpmath.mpf(ratios[j - 1]) * (1 if 2 * j == nodes else 2)
            lam = [x + c * mpmath.cos(p[m] * j) for m, x in enumerate(lam)]
            lams.append(lam)
        mult = mode_multiplicities(nodes)
        coef = {s: np.array([dec(mpmath.mpf(int(mult[m])) / nodes * mpmath.cos(p[m] * (s - 1)))
                             for m in range(modes)], dtype=object) for s in targets}
        td = dec(t)

        # sums of exactly degenerate frequencies differ by their rounding,
        # about 1e-51 at 40 digits, which the quotient below would divide
        # by; a gap g this small changes sin(g T) / g = T by nothing seen
        tiny = ctx.power(10, -digits)

        def kernel(x, y, diagonal=None):
            """sin((x_a - y_b) T) / (x_a - y_b), T where they coincide."""
            sx, cx, sy, cy = ([dec(f(v * t)) for v in w] for f, w in
                              ((mpmath.sin, x), (mpmath.cos, x), (mpmath.sin, y), (mpmath.cos, y)))
            out = np.empty((modes, modes), dtype=object)
            for a in range(modes):
                for b in range(modes):
                    gap = dec(x[a]) - dec(y[b])
                    out[a, b] = td if abs(gap) <= tiny else (sx[a] * cy[b] - cx[a] * sy[b]) / gap
            for a, value in (diagonal or {}).items():
                out[a, a] = value
            return out

        # an exactly zero power rounds to either sign, by up to about
        # modes^2 T 10^-digits: read a power that small as 0
        floor = modes * modes * td * ctx.power(10, -digits)

        def power(p):
            return decimal.Decimal(0) if abs(p) <= floor else p

        ref = lams[-1]
        k_ref = kernel(ref, ref)
        den = {s: power(coef[s] @ k_ref @ coef[s]) for s in targets}
        probs, errors = [], []
        for lam in lams:
            k_lam = kernel(lam, lam)
            probs.append([float(coef[s] @ k_lam @ coef[s] / td) for s in targets])
            if lam == ref:  # no coupling beyond this radius: the reference itself
                errors.append([0.0] * len(targets))
                continue
            # the (a, a) entries of K(lam, ref) straight from sin(delta T) / delta
            cross = {a: dec(mpmath.sin(d * t) / d) if d else td
                     for a, d in enumerate(x - y for x, y in zip(lam, ref))}
            k_cross = kernel(lam, ref, cross)
            num = k_lam + k_ref - k_cross - k_cross.T
            powers = [power(coef[s] @ num @ coef[s]) for s in targets]
            errors.append([float((p / den[s]).sqrt()) if den[s] else math.nan
                           for p, s in zip(powers, targets)])
    return np.array(probs), np.array(errors)


class TestHighPrecisionOracle:
    """The maps against a 50-digit evaluation.  The steep N = 70, 71 rings
    reach errors of 1e-29, whose numerator is 1e-58 of the kernel terms, so
    their oracle carries 90 digits."""

    @pytest.mark.parametrize(
        "make_profile, nodes, digits",
        [(dipolar_ratios, 31, 50), (dipolar_ratios, 40, 50), (dipolar_ratios, 70, 50),
         (dipolar_ratios, 71, 50), (steep_profile, 31, 50), (steep_profile, 40, 50),
         (steep_profile, 70, 90), (steep_profile, 71, 90)],
        ids=lambda v: getattr(v, "__name__", str(v)),
    )
    def test_every_radius_matches(self, make_profile, nodes, digits):
        profile = make_profile(nodes)
        window = TimeWindow.matched(nodes)
        targets = (1, 4, nodes // 2 + 1)
        probs, errors = exact_maps(nodes, profile.ratios, window.t_max, targets, digits)
        cols = [t - 1 for t in targets]
        got_errors, _ = error_map(nodes, profile, window)
        np.testing.assert_allclose(got_errors[:-1, cols], errors[:-1], rtol=1e-10, atol=0.0)
        assert np.all(got_errors[-1] == 0.0)
        np.testing.assert_allclose(probability_map(nodes, profile, window)[:, cols], probs,
                                   rtol=0.0, atol=1e-14)

    @pytest.mark.parametrize("nodes", [9, 12, 13, 20])
    @pytest.mark.parametrize("factor", [100.0, 1000.0])
    def test_probabilities_at_long_windows(self, nodes, factor):
        """Windows of 100 N and 1000 N, where the probability kernel rounds
        sines of lam T and the error kernel sines and cosines of u0 T, up to
        T = 20000, on the dipolar and the steep profile; the full radius has
        error exactly 0."""
        window, targets = TimeWindow(factor * nodes), independent_targets(nodes)
        for profile in (dipolar_ratios(nodes), steep_profile(nodes)):
            probs, errors = exact_maps(nodes, profile.ratios, window.t_max, targets)
            np.testing.assert_allclose(probability_map(nodes, profile, window), probs,
                                       rtol=0.0, atol=1e-14)
            got_errors, _ = error_map(nodes, profile, window)
            np.testing.assert_allclose(got_errors[:-1], errors[:-1], rtol=1e-10, atol=0.0)
            assert np.all(got_errors[-1] == 0.0)

    @given(nodes=st.integers(3, 14),
           couplings=st.lists(st.sampled_from([-1.0, -0.5, -0.25, 0.0, 0.25, 0.5, 1.0]),
                              min_size=6, max_size=6),
           factor=st.sampled_from([0.3, 1.0, 2.7]))
    @settings(max_examples=25, deadline=None)
    def test_random_custom_profiles_match(self, nodes, couplings, factor):
        """Couplings from a coarse grid make exactly degenerate reference
        and truncated spectra common, so the pole-free fallback runs."""
        profile = CouplingProfile((1.0, *couplings[: max_neighbors(nodes) - 1]))
        window = TimeWindow(factor * nodes)
        targets = independent_targets(nodes)
        probs, errors = exact_maps(nodes, profile.ratios, window.t_max, targets)
        np.testing.assert_allclose(probability_map(nodes, profile, window), probs,
                                   rtol=0.0, atol=1e-14)
        if np.isnan(errors).any():  # a target the reference spectrum never reaches
            with pytest.raises(ValueError, match="degenerate window"):
                error_map(nodes, profile, window)
            return
        got_errors, _ = error_map(nodes, profile, window)
        np.testing.assert_allclose(got_errors, errors, rtol=1e-10, atol=1e-300)


class TestStateSumRule:
    """Parseval for the state evolved from site 1: the error powers of all
    targets, weighted by multiplicity and reference probability, add up to
    the squared state-level error

        E(M)^2 = sum_n mult_n err_n^2 P_ref,n = (2/N) sum_a mult_a (1 - sinc(delta_a T)),

    delta the eigenvalue shifts of the radius.  The right side needs the
    cancellation-free 1 - sinc: 1 - np.sinc is off by 1.6e-9 at N = 280."""

    @pytest.mark.parametrize(
        "make_profile, nodes",
        [(dipolar_ratios, 20), (dipolar_ratios, 70), (dipolar_ratios, 71),
         (dipolar_ratios, 280), (steep_profile, 40), (steep_profile, 71)],
        ids=lambda v: getattr(v, "__name__", str(v)),
    )
    def test_maps_obey_the_sum_rule(self, make_profile, nodes):
        profile = make_profile(nodes)
        window = TimeWindow.matched(nodes)
        mult = mode_multiplicities(nodes)
        errors, _ = error_map(nodes, profile, window)
        p_ref = probability_map(nodes, profile, window)[-1]
        # every radius but the last, where both sides are exactly zero
        left = (errors[:-1] ** 2 * p_ref) @ mult
        right = state_error(nodes, profile, window)[:-1] ** 2
        np.testing.assert_allclose(left, right, rtol=1e-13, atol=0.0)

    @pytest.mark.parametrize("nodes, neighbors, t_max", [(20, 5, 20.0), (21, 3, 40.0),
                                                        (36, 9, 36.0)])
    def test_state_error_is_the_window_average(self, nodes, neighbors, t_max):
        """E(M)^2 = (1/T) int_0^T ||(U_M - U)|1>||^2 dtau, by composite
        Simpson over `spectral.evolve` on 4001 samples."""
        profile = dipolar_ratios(nodes)
        tau = np.linspace(0.0, t_max, 4001)
        start = np.eye(nodes)[0]
        gap = (evolve(ChainSpec(nodes, neighbors), profile, start, tau)
               - evolve(ChainSpec.all_neighbors(nodes), profile, start, tau))
        power = simpson_integral(np.sum(np.abs(gap) ** 2, axis=-1), t_max) / t_max
        got = state_error(nodes, profile, TimeWindow(t_max))[neighbors - 1]
        np.testing.assert_allclose(got**2, power, rtol=1e-12, atol=0.0)

    def test_state_error_is_zero_only_at_the_full_radius(self):
        errors = state_error(20, dipolar_ratios(20), TimeWindow.matched(20))
        assert errors.shape == (max_neighbors(20),)
        assert errors[-1] == 0.0 and (errors[:-1] > 0.0).all()

    def test_state_error_refuses_an_overflowing_window(self):
        # shifts above 1 make delta * t_max inf, where 1 - sinc would be nan,
        # as the maps refuse it (`test_window_overflowing_the_kernel`)
        with pytest.raises(ValueError, match="not finite"):
            state_error(6, CouplingProfile((1.0, 3.0, 3.0)), TimeWindow(1e308))


def four_term_sum(u0, alpha, beta, t_max):
    """F(u0+alpha+beta) - F(u0+alpha) - F(u0+beta) + F(u0), F(u) = sin(uT)/u,
    summed directly, with the sum of the absolute terms."""
    terms = [t_max * np.sinc(u * t_max / np.pi) for u in
             (u0 + alpha + beta, u0 + alpha, u0 + beta, u0)]
    return terms[0] - terms[1] - terms[2] + terms[3], sum(abs(v) for v in terms)


def pair_kernel(u0, alpha, beta, t_max):
    """The error kernel of one pair as the maps compute it: the product form
    of a two-mode spectrum, or its pole-free evaluation where the tile mask
    flags the pair as near a pole."""
    pairs = _PairKernels(3, t_max, 1, np.array([u0, 0.0]))
    shifts = np.array([[alpha, -beta]])
    with np.errstate(all="ignore"):
        values, near = pairs.error(pairs.tables(shifts, _one_minus_cos), pairs.chunks[0][0])
    if near[0, 0]:
        return pairs.error_near(shifts, np.array([0]), np.array([0]))[0], True
    return values[0, 0] / pairs.weights[0], False


def exact_four_term_sum(u0, alpha, beta, t_max):
    """F(u0+alpha+beta) - F(u0+alpha) - F(u0+beta) + F(u0), F(u) = sin(uT)/u,
    summed with 50 digits from the given doubles."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(50):
        t, u, a, b = (mpmath.mpf(v) for v in (t_max, u0, alpha, beta))

        def f(v):
            return t if v == 0 else mpmath.sin(v * t) / v

        return float(f(u + a + b) - f(u + a) - f(u + b) + f(u))


class TestNearPoleKernel:
    @given(t_max=st.floats(1.0, 1000.0),
           u0=st.floats(-4.0, 4.0),
           alpha=st.floats(-1.0, 1.0),
           beta=st.floats(-1.0, 1.0),
           pole=st.sampled_from(["u0", "u1", "u2", "u3"]),
           gap=st.floats(-20.0, 1.0))
    @settings(max_examples=300, deadline=None)
    def test_kernel_matches_four_term_sum(self, t_max, u0, alpha, beta, pole, gap):
        """One of the four frequencies is put within 10^gap / T of zero;
        where the direct sum is well conditioned, the kernel agrees with it."""
        near_zero = math.copysign(10.0**gap, u0) / t_max
        if pole == "u0":
            u0 = near_zero
        elif pole == "u1":
            alpha = near_zero - u0
        elif pole == "u2":
            beta = near_zero - u0
        else:
            beta = near_zero - u0 - alpha
        value, flagged = pair_kernel(u0, alpha, beta, t_max)
        event("fallback" if flagged else "product form")
        direct, size = four_term_sum(u0, alpha, beta, t_max)
        assume(size <= 1e4 * abs(direct))
        assert value == pytest.approx(direct, rel=1e-9)

    def test_fallback_on_degenerate_reference_and_zero_steps(self):
        t = 50.0
        # u0 = 0: the mixed difference is F(a+b) - F(a) - F(b) + F(0)
        direct, _ = four_term_sum(0.0, 0.3, -0.2, t)
        value, flagged = pair_kernel(0.0, 0.3, -0.2, t)
        assert flagged and value == pytest.approx(direct, rel=1e-12)
        # a zero step gives exactly zero, whatever u0
        assert pair_kernel(1e-9, 0.0, 0.4, t) == (0.0, True)
        # short steps: alpha beta F''(u0) to leading order
        a = b = 1e-9
        expected = a * b * t**3 * (-1.0 / 3.0)
        value, flagged = pair_kernel(0.0, a, b, t)
        assert flagged and value == pytest.approx(expected, rel=1e-6)

    T = 40.0
    SHORT, LONG = 0.999999 * GL_SPAN / T, 1.000001 * GL_SPAN / T  # just below, just above

    @pytest.mark.parametrize("u0, alpha, beta", [
        (0.3 / T, SHORT, -SHORT), (0.0, SHORT, 0.5 / T), (-SHORT, SHORT, 0.7 / T),
        (1e-9 / T, 1e-8 / T, -3e-8 / T), (0.2 / T, -SHORT, -SHORT)],
        ids=["just-below", "u0-zero", "u1-zero", "tiny-steps", "u3-far"])
    def test_both_steps_short(self, u0, alpha, beta):
        """The twelve-node rule on the pole-free integrand, to rounding of
        |alpha beta| T^3."""
        value, flagged = pair_kernel(u0, alpha, beta, self.T)
        assert flagged
        exact = exact_four_term_sum(u0, alpha, beta, self.T)
        assert value == pytest.approx(exact, rel=0.0, abs=4e-16 * abs(alpha * beta) * self.T**3)

    @pytest.mark.parametrize("u0, alpha, beta", [
        (0.5 / T, LONG, 0.3 / T), (0.5 / T, -0.3 / T, -LONG), (3.0 / T - LONG, LONG, -0.4 / T),
        (0.0, 9.0 / T, 1.5 / T), (-0.25 / T, 0.25 / T - 3.0 / T, SHORT)],
        ids=["just-above", "beta-long", "base-at-3/T", "u0-zero", "u1-at-3/T"])
    def test_one_step_long(self, u0, alpha, beta):
        """Two single differences along the short step, to rounding of
        |short step| T^2 times the long step's |step| T."""
        value, flagged = pair_kernel(u0, alpha, beta, self.T)
        assert flagged
        exact = exact_four_term_sum(u0, alpha, beta, self.T)
        short, long = sorted((abs(alpha), abs(beta)))
        assert value == pytest.approx(exact, rel=0.0, abs=4e-16 * short * long * self.T**3)

    @pytest.mark.parametrize("u0, alpha, beta", [
        (0.0, LONG, -LONG), (0.3 / T, -0.3 / T + LONG, -LONG), (0.0, 7.0 / T, 25.0 / T)],
        ids=["just-above", "u1-near", "u0-zero"])
    def test_both_steps_long(self, u0, alpha, beta):
        """The four-term sum, to rounding of T times the steps' |step| T."""
        value, flagged = pair_kernel(u0, alpha, beta, self.T)
        assert flagged
        exact = exact_four_term_sum(u0, alpha, beta, self.T)
        assert value == pytest.approx(exact, rel=0.0,
                                      abs=4e-16 * self.T * (abs(alpha) + abs(beta)) * self.T)

    @pytest.mark.parametrize("alpha, beta", [(0.0, 0.5 / T), (-0.5 / T, 0.0), (0.0, 30.0 / T),
                                             (30.0 / T, 0.0), (0.0, 0.0)])
    def test_zero_step_gives_zero(self, alpha, beta):
        for u0 in (0.0, 0.4 / self.T, -0.9 / self.T):
            assert pair_kernel(u0, alpha, beta, self.T) == (0.0, True)

    def test_rule_is_gauss_legendre(self):
        """The hard-coded twelve-node rule on [0, 1] is numpy's, to the
        rounding of numpy's weights, and integrates x^k exactly for k <= 23."""
        from numpy.polynomial.legendre import leggauss

        x, w = leggauss(12)
        np.testing.assert_allclose(metrics._GL_X, 0.5 + 0.5 * x, rtol=0.0, atol=1e-16)
        np.testing.assert_allclose(metrics._GL_W, 0.5 * w, rtol=0.0, atol=4e-16)
        k = np.arange(24)
        np.testing.assert_allclose(metrics._GL_W @ metrics._GL_X[:, None] ** k, 1.0 / (k + 1),
                                   rtol=0.0, atol=1e-16)


class TestCancellationFree:
    def test_steep_ring_has_no_zero_errors(self):
        """Every radius below the full one has a positive error, down to
        1e-29 on the steep N = 70 ring."""
        errors, _ = error_map(70, steep_profile(70), TimeWindow(70.0))
        assert np.all(errors[:-1] > 0.0)
        assert errors[:-1].min() < 1e-28

    @pytest.mark.parametrize("epsilon, expected", [(1e-6, 9), (1e-8, 12), (1e-10, 14)])
    def test_steep_thresholds(self, epsilon, expected):
        """d_k = e^{-2(k-1)}, N = 40, T = N: the Gauss-Legendre thresholds."""
        result = accuracy_threshold(40, steep_profile(40), epsilon, TimeWindow(40.0))
        assert result.min_neighbors == expected

    def test_shifts_survive_a_tail_below_one_ulp(self):
        """A tail far below one ulp of the eigenvalues vanishes from the
        difference of two table rows, but not from the shifts."""
        profile = CouplingProfile((1.0, 0.5, 1e-20))
        spec = ChainSpec.all_neighbors(7)
        lam_ref, shifts = eigenvalue_shifts(spec, profile)
        table = lam_ref + shifts  # lam_m(M) = 2 sum_{j <= M} d_j cos(p_m j)
        terms = 2.0 * np.array([[1.0], [0.5], [1e-20]]) * np.cos(
            np.multiply.outer(np.arange(1, 4), wave_numbers(7)))
        np.testing.assert_allclose(table, np.cumsum(terms, axis=0), rtol=0.0, atol=1e-15)
        assert np.all(table[1] == table[2])
        assert np.all(shifts[1] != 0.0) and np.all(shifts[2] == 0.0)
        errors, _ = error_map(7, profile, TimeWindow(7.0))
        assert np.all(errors[1] > 1e-21) and np.all(errors[1] < 1e-18)

    def test_negative_numerator_is_refused(self, monkeypatch):
        monkeypatch.setattr(_PairKernels, "error_diagonal",
                            lambda self, block: np.full(block.shape, -1.0))
        with pytest.raises(ValueError, match="negative"):
            error_map(8, dipolar_ratios(8), TimeWindow(8.0))

    @pytest.mark.parametrize("t_max", [12.0, 3.6])
    def test_exactly_zero_errors_are_mapped(self, tmp_path, capsys, t_max):
        """Targets 2 and 6 of this ring have exactly zero error at radii 1
        and 2 (50-digit oracle), and their numerators round to +-1.4e-30 at
        T = 12 and to -5.6e-17 at T = 3.6: within the form's rounding bound,
        so `jmap` maps them, as exact zeros, instead of refusing the map."""
        couplings = (1.0, 0.0, -0.5, 0.0, 0.0, 0.0)
        path = tmp_path / "profile.txt"
        path.write_text("".join(f"{c!r}\n" for c in couplings))
        assert main(["jmap", "--n", "12", "--t-max", repr(t_max), "--profile", f"custom:{path}",
                     "--format", "json"]) == 0
        rows = next(iter(json.loads(capsys.readouterr().out).values()))["rows"]
        errors = np.array([row[2] for row in rows]).reshape(6, 7)
        _, exact = exact_maps(12, couplings, t_max, independent_targets(12))
        zero = exact <= 1e-20  # the oracle's own rounding reaches about 1e-25
        assert np.all(zero[2:])  # no coupling beyond radius 3
        assert [np.flatnonzero(row).tolist() for row in zero[:2]] == [[1, 5], [1, 5]]
        assert np.all(errors[zero] == 0.0)
        np.testing.assert_allclose(errors[~zero], exact[~zero], rtol=1e-10, atol=0.0)

    @pytest.mark.parametrize("nodes, couplings", [
        (6, (1.0, 0.0, -1.0)),
        (12, (1.0, -1.0, 0.5, -0.5, 0.0, 1.0)),
        (12, (1.0, 0.0, -0.5, 0.0, 0.0, 0.0)),
    ])
    @pytest.mark.parametrize("factor", [0.3, 1.0, 2.7])
    def test_swapped_frequencies_give_exact_zeros(self, nodes, couplings, factor):
        """On these rings a truncated spectrum swaps frequencies between
        modes of equal coefficients, or shifts a mode by a sum that is 0
        but rounds to 1e-16, so some errors are exactly 0 (50-digit
        oracle).  The product rule leaves residues up to 5e-8 there: the
        maps read exact zeros, and every other error to 1e-10."""
        window = TimeWindow(factor * nodes)
        _, exact = exact_maps(nodes, couplings, window.t_max, independent_targets(nodes))
        errors, _ = error_map(nodes, CouplingProfile(couplings), window)
        zero = exact[:-1] == 0.0
        assert zero.any()
        assert np.all(errors[:-1][zero] == 0.0)
        np.testing.assert_allclose(errors, exact, rtol=1e-10, atol=0.0)

    @pytest.mark.parametrize("t_max", [3.0, 10.0])
    def test_unreachable_target_is_refused(self, t_max):
        """Target 6 of this ring has exactly zero reference power; at T = 10
        its form rounds to 2.2e-16 rather than 0, which gave an error of 1e8."""
        profile = CouplingProfile((1.0, -1.0, -1.0, -1.0, 0.0))
        assert probability_map(10, profile, TimeWindow(t_max))[-1, -1] < 1e-16
        with pytest.raises(ValueError, match="degenerate window"):
            error_map(10, profile, TimeWindow(t_max))


class TestOneMinusSinc:
    def test_matches_fifty_digits(self):
        """1 - sin(x)/x within 4 eps of a 50-digit value for |x| from 1e-12
        to 1e4, on both sides of the switch at |x| = 1 from series to
        quotient, for both signs of x."""
        mpmath = pytest.importorskip("mpmath")
        eps = np.finfo(float).eps
        below, above = np.nextafter(1.0, 0.0), np.nextafter(1.0, 2.0)
        magnitudes = np.concatenate((np.geomspace(1e-12, 1e4, 321),
                                     [0.5, 0.9, 0.99, below, 1.0, above, 1.01, 1.1, 2.0]))
        x = np.concatenate((magnitudes, -magnitudes))
        values = _one_minus_sinc(x)
        with mpmath.workdps(50):
            exact = np.array([float(1 - mpmath.sin(mpmath.mpf(v)) / mpmath.mpf(v))
                              for v in x.tolist()])
        assert np.all(np.abs(values - exact) <= 4.0 * eps * exact)

    def test_zero_is_exact(self):
        assert _one_minus_sinc(np.array([0.0, -0.0])).tolist() == [0.0, 0.0]


def check_row_bounds(nodes: int, couplings, t_max: float) -> int:
    """The error map against the 40-digit oracle, to each row's rounding
    bound B_M = modes eps T min(1, T max|delta(M)|)^2: an exact 0 reads 0,
    every entry is within 1e-10 relative plus sqrt(B_M / den_n), and a
    nonzero entry lies above sqrt(B_M / den_n), so it is not rounding.
    Returns the number of exact zeros."""
    probs, exact = exact_maps(nodes, couplings, t_max, independent_targets(nodes), digits=40)
    profile, window = CouplingProfile(tuple(couplings)), TimeWindow(t_max)
    if np.isnan(exact).any():  # a target the reference spectrum never reaches
        with pytest.raises(ValueError, match="degenerate window"):
            error_map(nodes, profile, window)
        return 0
    errors, _ = error_map(nodes, profile, window)
    assert np.all(errors[-1] == 0.0)
    _, shifts = eigenvalue_shifts(ChainSpec.all_neighbors(nodes), profile)
    reach = np.minimum(1.0, t_max * np.abs(shifts[:-1]).max(axis=1))
    bound = mode_count(nodes) * np.finfo(float).eps * t_max * reach**2
    resolution = np.sqrt(bound[:, None] / (t_max * probs[-1]))
    got, want = errors[:-1], exact[:-1]
    where = f"N = {nodes}, couplings {tuple(couplings)}, T = {t_max}"
    assert np.all(got[want == 0.0] == 0.0), where
    assert np.all(np.abs(got - want) <= 1e-10 * want + resolution), where
    assert np.all((got == 0.0) | (got > resolution)), where
    return int((want == 0.0).sum())


class TestRowRoundingBound:
    @pytest.mark.parametrize("couplings, t_max", [
        ((1.0, 0.0, -0.5, 0.0, 0.0, 1e-9), 3.6),
        ((1.0, 0.0, -0.5, 0.0, 1e-9, 0.0), 3.6),
        ((1.0, 0.0, -0.5, 1e-9, 0.0, 0.0), 3.6),
        ((1.0, 0.0, -0.5, 0.0, 1e-12, 0.0), 12.0),
    ])
    def test_tiny_coupling_on_swapped_modes(self, couplings, t_max):
        """Truncating (1, 0, -0.5, 0, 0, 0) at N = 12 swaps frequencies
        between modes; a tiny coupling on top leaves errors of 1e-11 to
        4e-9.  Under one global bound, modes eps T, they read 0 or up to
        1000 times too large."""
        check_row_bounds(12, couplings, t_max)

    @pytest.mark.parametrize("factor", [0.3, 1.0, 2.7])
    def test_random_custom_rings(self, factor):
        """20 seeded rings per window T = factor N, N = 3..21, with
        couplings on a half-integer grid, about half of them zero, so that
        modes swap frequencies; in every other ring one coupling is moved to
        a decade from 1e-12 to 1e-1."""
        rng = np.random.default_rng(int(10 * factor))
        zeros = 0
        for i in range(20):
            nodes = int(rng.integers(3, 22))
            nf = max_neighbors(nodes)
            couplings = rng.integers(-4, 5, nf) / 2.0
            couplings[rng.random(nf) < 0.5] = 0.0
            couplings[0] = 1.0
            if i % 2 and nf > 1:
                couplings[rng.integers(1, nf)] = 10.0 ** -float(rng.integers(1, 13))
            zeros += check_row_bounds(nodes, couplings.tolist(), factor * nodes)
        assert zeros > 0


# couplings on a coarse grid whose reference spectrum has exactly degenerate
# pairs: near a pole at every radius, so every tile flags entries
DEGENERATE_PROFILE = CouplingProfile((1.0, 1.0, 0.5, 0.0, 0.5, 1.0, 0.0, 0.0))


def tilings(nodes: int) -> tuple[int, ...]:
    """TILE values for `TestTilePartition`: from chunks of one offset row to
    the whole pair list in one chunk, one just below a row of m pairs and,
    for an even number of modes m, one that puts the half row d = m/2 in a
    chunk of its own and one that shares its chunk with full rows."""
    m = mode_count(nodes)
    tiles = (1, 7, 64, 1000, m - 1)
    if m % 2 == 0:
        tiles += ((m // 2 - 1) * m, m // 2 * m)
    return tiles


class TestTilePartition:
    @pytest.mark.parametrize("nodes, profile", [
        *((n, dipolar_ratios(n)) for n in (7, 20, 40, 70, 71)),
        (40, steep_profile(40)),
        (16, DEGENERATE_PROFILE),
    ], ids=["dipolar7", "dipolar20", "dipolar40", "dipolar70", "dipolar71", "steep40",
            "degenerate16"])
    def test_maps_do_not_depend_on_the_tiling(self, monkeypatch, nodes, profile):
        """TILE sets the offset rows per chunk, the rows per block and the
        chunk holding each degenerate pair; from one offset row per tile to the
        whole pair list in one chunk, the maps stay the same."""
        window = TimeWindow.matched(nodes)
        errors, _ = error_map(nodes, profile, window)
        probs = probability_map(nodes, profile, window)
        m = mode_count(nodes)
        half_rows = set()
        for tile in tilings(nodes):
            monkeypatch.setattr(metrics, "TILE", tile)
            last = _PairKernels(nodes, 1.0, 1).chunks[-1][0]
            half_rows.add((last.half, last.pairs.stop - last.pairs.start == m // 2))
            np.testing.assert_allclose(error_map(nodes, profile, window)[0], errors,
                                       rtol=1e-14, atol=0.0)
            np.testing.assert_allclose(probability_map(nodes, profile, window), probs,
                                       rtol=0.0, atol=1e-16)
        if m % 2 == 0:
            assert half_rows == {(True, True), (True, False)}
        else:
            assert half_rows == {(False, False)}

    @pytest.mark.parametrize("nodes", [20, 50, 70, 71, 280, 402])
    @pytest.mark.parametrize("radii", [1, 9, 34, 35])
    def test_blocks_are_even_tiles(self, nodes, radii):
        """A block of radii times a chunk stays within max(TILE, m) entries,
        a map takes no more blocks than tiles of that size need, and its
        blocks are as small as that number allows (34 radii at N = 70: two
        blocks of 17, not 26 and 8)."""
        pairs = _PairKernels(nodes, 1.0, radii)
        width = max(chunk.pairs.stop - chunk.pairs.start for chunk, *_ in pairs.chunks)
        assert pairs.rows * width <= max(metrics.TILE, mode_count(nodes))
        blocks = -(-radii // max(1, metrics.TILE // width))
        assert pairs.rows == -(-radii // blocks)

    def test_degenerate_profile_has_static_pairs(self):
        """Pairs with an exactly degenerate reference are flagged near a
        pole at every radius."""
        lam_ref, shifts = eigenvalue_shifts(ChainSpec.all_neighbors(16), DEGENERATE_PROFILE)
        pairs = _PairKernels(16, 16.0, shifts.shape[0], lam_ref)
        static = pairs.u0 == 0.0
        assert np.any(static) and len(pairs.chunks) == 1
        with np.errstate(all="ignore"):
            _, near = pairs.error(pairs.tables(shifts, _one_minus_cos), pairs.chunks[0][0])
        assert np.all(near[:, static])


class TestPairOrder:
    def test_every_pair_once_with_its_offsets(self):
        """For m = 2..64 modes and both parities of N: the offset rows list
        each unordered pair {a, b}, a != b, exactly once; the histogram bins
        are (a - b) mod N, up to the r <-> N - r symmetry of the real FFT,
        and (a + b) mod N; the chunks cover the list in whole offset rows."""
        for m in range(2, 65):
            for nodes in (2 * m - 2, 2 * m - 1):
                if nodes < 3:
                    continue
                pairs = _PairKernels(nodes, 1.0, 1)
                b = pairs.ib
                a = np.arange(b.size) % m  # pair i, in offset row i // m + 1, has mode a = i % m
                assert mode_count(nodes) == m and a.size == m * (m - 1) // 2
                assert np.all(a != b)
                keys = np.minimum(a, b) * m + np.maximum(a, b)
                assert np.unique(keys).size == keys.size
                diff, total = pairs.bins
                assert np.all((diff == (a - b) % nodes) | (diff == (b - a) % nodes))
                assert np.all(total == (a + b) % nodes)
                stops = [chunk.pairs.stop for chunk, *_ in pairs.chunks]
                assert [chunk.pairs.start for chunk, *_ in pairs.chunks] == [0, *stops[:-1]]
                assert stops[-1] == a.size
                assert all(chunk.pairs.start % m == 0 for chunk, *_ in pairs.chunks)

    @pytest.mark.parametrize("nodes, tile", [(10, 1 << 14), (11, 1 << 14), (40, 1 << 14),
                                             (70, 1 << 14), (40, 64), (70, 100)])
    def test_run_sums_fold_like_a_bincount(self, monkeypatch, nodes, tile):
        """The map's fold of the off-diagonal entries (run sums for the
        offsets a - b) equals a plain `bincount` of the same random values,
        with several rows per block (one chunk) or several chunks per row."""
        monkeypatch.setattr(metrics, "TILE", tile)
        m, radii = mode_count(nodes), 9
        pairs = _PairKernels(nodes, 1.0, radii)
        assert pairs.rows > 1 if len(pairs.chunks) == 1 else pairs.rows == 1
        values = np.random.default_rng(nodes).standard_normal((radii, pairs.ib.size))
        shifts = np.repeat(np.arange(radii, dtype=float)[:, None], m, axis=1)

        def off_diagonal(tables, chunk):
            rows = tables[0, :, 0, 0].astype(int)  # delta of mode 0: the radius
            entries = values[rows, chunk.pairs].copy()
            return entries, np.zeros(entries.shape, dtype=bool)

        forms = pairs.map(0.0, pairs.tables(shifts, np.cos), off_diagonal, None)
        h = np.array([sum(np.bincount(bins, v, nodes) for bins in pairs.bins) for v in values])
        np.testing.assert_allclose(forms, np.fft.rfft(h, axis=1).real, rtol=0.0, atol=1e-12)
