import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ringspin.chain import ChainSpec, CouplingProfile, build_matrix, dipolar_ratios, max_neighbors
from ringspin.cli import _build_parser
from ringspin.oracle import expm_propagate
from ringspin.spectral import (
    _eigenvalue_terms,
    eigenvalue_shifts,
    eigenvalues,
    evolve,
    mode_count,
    mode_multiplicities,
    pair_mode_weights,
    wave_numbers,
)

HALF_SQRT2 = 2.0**-1.5  # dipolar d_2 on the 4-ring


@st.composite
def ring_specs(draw, max_nodes=32):
    nodes = draw(st.integers(min_value=3, max_value=max_nodes))
    neighbors = draw(st.integers(min_value=1, max_value=max_neighbors(nodes)))
    return ChainSpec(nodes, neighbors)


def site_amplitudes(spec, profile, j: int, tau) -> np.ndarray:
    """p_jk(tau) for every site k (last axis) and each tau (leading axes):
    `evolve` on the site state e_j."""
    return evolve(spec, profile, np.eye(spec.nodes)[j - 1], tau)


def projectors(nodes: int) -> np.ndarray:
    """Eigenspace projectors P_m stacked on the last axis, shape (N, N, modes),
    from one broadcast pair_mode_weights call."""
    sites = np.arange(1, nodes + 1)
    return pair_mode_weights(nodes, sites[:, None], sites[None, :])


def assert_diagonalizes(G: np.ndarray, lam: np.ndarray):
    """G P_m = lam_m P_m for every mode, and G = sum_m lam_m P_m."""
    P = projectors(G.shape[0])
    assert np.abs(np.einsum("ij,jkm->ikm", G, P) - P * lam).max() <= 1e-10
    assert np.abs(G - P @ lam).max() <= 1e-10


class TestEigenvectors:
    """The closed form reaches its eigenvectors only through the eigenspace
    projectors P_m, (P_m)_jk = (mult_m / N) cos(p_m (j - k))."""

    def test_uniform_column(self):
        # the uniform vector spans mode 1 alone
        np.testing.assert_allclose(projectors(4)[..., 0], 0.25)

    def test_alternating_column(self):
        # the even-ring mode m = N/2+1 alternates sign site by site
        a = np.array([-0.5, 0.5, -0.5, 0.5])
        np.testing.assert_allclose(projectors(4)[..., -1], np.outer(a, a), atol=1e-15)

    def test_pentagon_sine_column(self):
        k = np.arange(1, 6)
        sine = np.sqrt(2.0 / 5.0) * np.sin(2.0 * np.pi * k / 5.0)
        P = projectors(5)
        np.testing.assert_allclose(P[..., 1] @ sine, sine, atol=1e-15)
        np.testing.assert_allclose(P[..., 2] @ sine, 0.0, atol=1e-15)

    @pytest.mark.parametrize("nodes", [3, 4, 5, 6, 12, 13, 37, 64, 70])
    def test_orthonormal(self, nodes):
        """sum_m P_m = I, P_m P_n = delta_mn P_m, tr P_m = mult_m."""
        P = projectors(nodes)
        assert np.abs(P.sum(axis=-1) - np.eye(nodes)).max() <= 1e-12
        products = np.einsum("ijm,jkn->mnik", P, P)
        expected = np.einsum("mn,ikm->mnik", np.eye(mode_count(nodes)), P)
        assert np.abs(products - expected).max() <= 1e-12
        np.testing.assert_allclose(np.einsum("iim->m", P), mode_multiplicities(nodes),
                                   rtol=0.0, atol=1e-12)

    @given(spec=ring_specs(), j=st.lists(st.integers(1, 32), min_size=1, max_size=5))
    def test_broadcast_weights_match_scalar_calls(self, spec, j):
        n = spec.nodes
        j = np.minimum(np.array(j), n)
        k = np.arange(1, n + 1)
        W = pair_mode_weights(n, j[:, None], k[None, :])
        assert W.shape == (j.size, n, mode_count(n))
        for a, jj in enumerate(j):
            for b, kk in enumerate(k):
                np.testing.assert_array_equal(W[a, b], pair_mode_weights(n, int(jj), int(kk)))

    def test_array_sites_are_bounds_checked(self):
        with pytest.raises(ValueError):
            pair_mode_weights(6, np.array([1, 7]), 1)
        with pytest.raises(ValueError):
            pair_mode_weights(6, 1, np.array([[0, 2]]))

    def test_sites_must_be_integers(self):
        """A half site is refused, not taken as an offset of half a site;
        integral floats are sites like the integers they equal."""
        for j, k in [(1.5, 1), (1, np.array([1.0, 2.5])), (np.array([[2, 3.25]]), 4)]:
            with pytest.raises(ValueError, match="integers"):
                pair_mode_weights(10, j, k)
        np.testing.assert_array_equal(pair_mode_weights(10, np.array([1.0, 3.0]), 2.0),
                                      pair_mode_weights(10, np.array([1, 3]), 2))

    def test_mode_bookkeeping(self):
        assert mode_count(6) == 4
        assert mode_count(5) == 3
        np.testing.assert_array_equal(mode_multiplicities(6), [1, 2, 2, 1])
        np.testing.assert_array_equal(mode_multiplicities(5), [1, 2, 2])
        np.testing.assert_allclose(wave_numbers(4), [0.0, np.pi / 2, np.pi])


class TestEigenvalues:
    def test_square_ring_nearest_neighbor(self):
        lam = eigenvalues(ChainSpec(4, 1), dipolar_ratios(4))
        np.testing.assert_allclose(sorted(lam), [-2.0, 0.0, 0.0, 2.0], atol=1e-12)

    def test_square_ring_all_node(self):
        # even ring at full range picks up the alternating-sign correction
        lam = eigenvalues(ChainSpec(4, 2), dipolar_ratios(4))
        expected = [-2.0 + HALF_SQRT2, -HALF_SQRT2, -HALF_SQRT2, 2.0 + HALF_SQRT2]
        np.testing.assert_allclose(sorted(lam), expected, atol=1e-12)
        np.testing.assert_allclose(lam.sum(), 0.0, atol=1e-12)

    @given(ring_specs())
    def test_uniform_mode_is_the_maximum(self, spec):
        profile = dipolar_ratios(spec.nodes)
        lam = eigenvalue_shifts(spec, profile)[0]
        assert lam[0] == pytest.approx(lam.max())
        ratios = profile.ratios
        if 2 * spec.neighbors == spec.nodes:
            expected = 2.0 * sum(ratios[: spec.neighbors - 1]) + ratios[spec.neighbors - 1]
        else:
            expected = 2.0 * sum(ratios[: spec.neighbors])
        assert lam[0] == pytest.approx(expected, rel=1e-13)

    def test_profile_too_short(self):
        with pytest.raises(ValueError):
            eigenvalues(ChainSpec(8, 4), CouplingProfile((1.0, 0.5)))

    @pytest.mark.parametrize("nodes", [3, 4, 9, 10, 31, 32])
    def test_table_rows_are_radius_eigenvalues(self, nodes):
        """lam_ref plus the shift of radius M is the eigenvalue row of M, to
        rounding: the two add the same terms in different orders."""
        profile = dipolar_ratios(nodes)
        lam_ref, shifts = eigenvalue_shifts(ChainSpec.all_neighbors(nodes), profile)
        assert shifts.shape == (max_neighbors(nodes), mode_count(nodes))
        for m in range(1, max_neighbors(nodes) + 1):
            np.testing.assert_allclose(
                lam_ref + shifts[m - 1], eigenvalue_shifts(ChainSpec(nodes, m), profile)[0],
                rtol=0, atol=1e-14,
            )

    @given(spec=ring_specs(), far=st.lists(st.floats(-2.0, 2.0), min_size=15, max_size=15))
    def test_dft_order(self, spec, far):
        """Entry q is the DFT of the generator's first row at wave number q."""
        for profile in (dipolar_ratios(spec.nodes), CouplingProfile((1.0, *far))):
            np.testing.assert_allclose(
                eigenvalues(spec, profile),
                np.fft.fft(build_matrix(spec, profile)[0]).real, rtol=0.0, atol=1e-12,
            )

    @settings(max_examples=40)
    @given(spec=ring_specs(), far=st.lists(st.floats(-2.0, 2.0), min_size=15, max_size=15))
    def test_spectral_residual(self, spec, far):
        """G P_m = lam_m P_m for the dense generator and the closed form, on
        dipolar and arbitrary custom couplings."""
        for profile in (dipolar_ratios(spec.nodes), CouplingProfile((1.0, *far))):
            assert_diagonalizes(build_matrix(spec, profile), eigenvalue_shifts(spec, profile)[0])

    @pytest.mark.parametrize("nodes", [33, 47, 48, 63, 64])
    def test_spectral_residual_large_rings(self, nodes):
        profile = dipolar_ratios(nodes)
        for m in range(1, max_neighbors(nodes) + 1):
            spec = ChainSpec(nodes, m)
            assert_diagonalizes(build_matrix(spec, profile), eigenvalue_shifts(spec, profile)[0])


class TestSpectrumAccuracy:
    """Every eigenvalue of `spectrum` is the sum of its float terms
    2 d_j cos(p_m j) to within 2 eps sum_j |terms|, against a 50-digit
    mpmath sum of the same terms.  The tail-first sum stays within
    0.97 eps sum_j |terms| on these rings; a forward sum reaches 8.4."""

    @staticmethod
    def spectrum_column(*argv) -> np.ndarray:
        args = _build_parser().parse_args(["spectrum", *argv])
        return np.asarray(args.func(args)["spectrum"]["eigenvalue"])

    @pytest.mark.parametrize("nodes", [10, 13, 20, 36, 70, 71, 140, 280])
    def test_every_radius_within_two_eps_of_exact_sum(self, nodes):
        mpmath = pytest.importorskip("mpmath")
        # the terms of radius M < N/2 are the first M rows of the full
        # radius's; only the even ring's opposite-node row differs
        terms = _eigenvalue_terms(ChainSpec.all_neighbors(nodes), dipolar_ratios(nodes))
        with mpmath.workdps(50):
            exact = np.array([[float(s) for s in np.cumsum([mpmath.mpf(x) for x in column])]
                              for column in terms.T]).T
        bound = 2.0 * np.finfo(float).eps * np.cumsum(np.abs(terms), axis=0)
        for m in range(1, max_neighbors(nodes) + 1):
            lam = self.spectrum_column("--n", str(nodes), "--m", str(m))
            assert np.all(np.abs(lam - exact[m - 1]) <= bound[m - 1]), (nodes, m)

    @pytest.mark.parametrize("nodes", [10, 13, 70, 71, 280])
    def test_full_radius_is_the_maps_reference(self, nodes):
        profile = dipolar_ratios(nodes)
        lam_ref, _ = eigenvalue_shifts(ChainSpec.all_neighbors(nodes), profile)
        np.testing.assert_array_equal(self.spectrum_column("--n", str(nodes)), lam_ref)


class TestAmplitude:
    """Transfer amplitudes p_jk(tau), read from `evolve` on site states."""

    def test_identity_at_time_zero(self):
        spec = ChainSpec(7, 2)
        profile = dipolar_ratios(7)
        for j, k in ((1, 1), (3, 3), (1, 4)):
            expected = 1.0 if j == k else 0.0
            assert site_amplitudes(spec, profile, j, 0.0)[k - 1] == pytest.approx(expected,
                                                                                abs=1e-14)

    def test_square_ring_return_amplitude(self):
        # p_11(tau) = cos^2 tau on the nearest-neighbor 4-ring
        spec = ChainSpec(4, 1)
        profile = dipolar_ratios(4)
        taus = np.linspace(0.0, 3.0, 7)
        p = site_amplitudes(spec, profile, 1, taus)[:, 0]
        np.testing.assert_allclose(p, np.cos(taus) ** 2, atol=1e-12)

    def test_square_ring_transfer_amplitude(self):
        # p_13(tau) = -sin^2 tau: perfect transfer to the opposite node
        spec = ChainSpec(4, 1)
        profile = dipolar_ratios(4)
        taus = np.linspace(0.0, 3.0, 7)
        p = site_amplitudes(spec, profile, 1, taus)[:, 2]
        np.testing.assert_allclose(p, -np.sin(taus) ** 2, atol=1e-12)
        row = site_amplitudes(spec, profile, 1, np.pi / 2)
        assert abs(row[2]) ** 2 == pytest.approx(1.0, abs=1e-12)
        assert abs(row[0]) == pytest.approx(0.0, abs=1e-12)

    def test_symmetry_in_sites(self):
        spec = ChainSpec(9, 3)
        profile = dipolar_ratios(9)
        p27 = site_amplitudes(spec, profile, 2, 1.3)[6]
        assert abs(p27 - site_amplitudes(spec, profile, 7, 1.3)[1]) <= 1e-15

    @given(
        spec=ring_specs(max_nodes=24),
        tau=st.floats(min_value=-40.0, max_value=40.0),
        shift=st.integers(min_value=1, max_value=23),
    )
    def test_translation_invariance(self, spec, tau, shift):
        """p_{j+s,k+s} = p_{jk} with cyclic site arithmetic."""
        profile = dipolar_ratios(spec.nodes)
        n = spec.nodes
        j, k = 1, 1 + n // 3
        js = (j - 1 + shift) % n + 1
        ks = (k - 1 + shift) % n + 1
        p0 = site_amplitudes(spec, profile, j, tau)[k - 1]
        p1 = site_amplitudes(spec, profile, js, tau)[ks - 1]
        assert abs(p0 - p1) <= 1e-12

    @given(spec=ring_specs(max_nodes=24), tau=st.floats(min_value=-40.0, max_value=40.0))
    def test_reflection_invariance(self, spec, tau):
        """Targets k and N+2-k are mirror images of each other."""
        profile = dipolar_ratios(spec.nodes)
        n = spec.nodes
        row = site_amplitudes(spec, profile, 1, tau)
        for k in range(2, n // 2 + 2):
            mirror = (n - (k - 1)) % n + 1
            assert abs(row[k - 1] - row[mirror - 1]) <= 1e-12

    @given(spec=ring_specs(max_nodes=24), tau=st.floats(min_value=-50.0, max_value=50.0))
    def test_unitarity(self, spec, tau):
        profile = dipolar_ratios(spec.nodes)
        total = np.sum(np.abs(site_amplitudes(spec, profile, 1, tau)) ** 2)
        assert total == pytest.approx(1.0, abs=1e-12)


class TestEvolve:
    def test_time_zero_identity(self):
        spec = ChainSpec(6, 3)
        profile = dipolar_ratios(6)
        rng = np.random.default_rng(5)
        v = rng.normal(size=6) + 1j * rng.normal(size=6)
        v /= np.linalg.norm(v)
        np.testing.assert_allclose(evolve(spec, profile, v, 0.0), v, atol=1e-14)

    def test_matches_amplitude_row(self):
        """The FFT route against the mode sum p_1k = sum_m w_m exp(-i lam_m tau)."""
        spec = ChainSpec(8, 2)
        profile = dipolar_ratios(8)
        basis_state = np.zeros(8, dtype=complex)
        basis_state[0] = 1.0
        out = evolve(spec, profile, basis_state, 2.7)
        lam = eigenvalue_shifts(spec, profile)[0]
        row = pair_mode_weights(8, 1, np.arange(1, 9)) @ np.exp(-1j * lam * 2.7)
        np.testing.assert_allclose(out, row, atol=1e-13)

    def test_eigenstate_picks_up_global_phase(self):
        spec = ChainSpec(10, 3)
        profile = dipolar_ratios(10)
        uniform = np.full(10, 1.0 / np.sqrt(10), dtype=complex)
        lam_top = eigenvalue_shifts(spec, profile)[0][0]
        out = evolve(spec, profile, uniform, 1.9)
        np.testing.assert_allclose(out, np.exp(-1j * lam_top * 1.9) * uniform, atol=1e-13)

    def test_rejects_unnormalized(self):
        spec = ChainSpec(5, 2)
        profile = dipolar_ratios(5)
        with pytest.raises(ValueError):
            evolve(spec, profile, np.ones(5, dtype=complex), 1.0)
        with pytest.raises(ValueError):
            evolve(spec, profile, np.zeros(3, dtype=complex), 1.0)

    def test_stack_matches_row_by_row(self):
        spec = ChainSpec(9, 3)
        profile = dipolar_ratios(9)
        rng = np.random.default_rng(23)
        stack = rng.normal(size=(2, 3, 9)) + 1j * rng.normal(size=(2, 3, 9))
        stack /= np.linalg.norm(stack, axis=-1, keepdims=True)
        out = evolve(spec, profile, stack, 4.2)
        assert out.shape == stack.shape
        for index in np.ndindex(stack.shape[:-1]):
            np.testing.assert_allclose(out[index], evolve(spec, profile, stack[index], 4.2),
                                       rtol=0, atol=1e-15)

    def test_stack_refuses_one_bad_state(self):
        spec = ChainSpec(6, 2)
        profile = dipolar_ratios(6)
        stack = np.tile(np.full(6, 1.0 / np.sqrt(6), dtype=complex), (4, 1))
        stack[2] *= 1.1
        with pytest.raises(ValueError, match="state 2 of 4 is not normalized"):
            evolve(spec, profile, stack, 1.0)
        stack[2, :] = np.nan
        with pytest.raises(ValueError, match="state 2 of 4"):
            evolve(spec, profile, stack, 1.0)
        with pytest.raises(ValueError, match="shape"):
            evolve(spec, profile, np.full((4, 5), 1.0 / np.sqrt(5)), 1.0)

    def test_array_tau_matches_tau_by_tau(self):
        spec = ChainSpec(11, 4)
        profile = dipolar_ratios(11)
        rng = np.random.default_rng(31)
        stack = rng.normal(size=(3, 4, 11)) + 1j * rng.normal(size=(3, 4, 11))
        stack /= np.linalg.norm(stack, axis=-1, keepdims=True)
        taus = np.array([[0.1], [1.0], [11.0]])  # one time per row of states
        out = evolve(spec, profile, stack, taus)
        assert out.shape == stack.shape
        for i, tau in enumerate(taus[:, 0]):
            np.testing.assert_allclose(out[i], evolve(spec, profile, stack[i], tau),
                                       rtol=0, atol=1e-15)
        # one state under several times broadcasts to one row per time
        out = evolve(spec, profile, stack[0, 0], taus[:, 0])
        assert out.shape == (3, 11)
        for i, tau in enumerate(taus[:, 0]):
            np.testing.assert_allclose(out[i], evolve(spec, profile, stack[0, 0], tau),
                                       rtol=0, atol=1e-15)

    @pytest.mark.parametrize("tau", [np.nan, np.inf, -np.inf, [1.0, np.nan]])
    def test_rejects_nonfinite_tau(self, tau):
        uniform = np.full(6, 1.0 / np.sqrt(6), dtype=complex)
        with pytest.raises(ValueError, match="tau must be finite"):
            evolve(ChainSpec(6, 2), dipolar_ratios(6), uniform, tau)

    @given(spec=ring_specs(max_nodes=16), tau=st.floats(min_value=0.0, max_value=30.0))
    @settings(max_examples=50)
    def test_output_stays_normalized(self, spec, tau):
        profile = dipolar_ratios(spec.nodes)
        rng = np.random.default_rng(11)
        v = rng.normal(size=spec.nodes) + 1j * rng.normal(size=spec.nodes)
        v /= np.linalg.norm(v)
        out = evolve(spec, profile, v, tau)
        assert np.sum(np.abs(out) ** 2) == pytest.approx(1.0, abs=1e-12)

    @settings(max_examples=30)
    @given(spec=ring_specs(max_nodes=12), tau=st.floats(min_value=0.0, max_value=12.0))
    def test_agrees_with_matrix_exponential(self, spec, tau):
        profile = dipolar_ratios(spec.nodes)
        rng = np.random.default_rng(17)
        v = rng.normal(size=spec.nodes) + 1j * rng.normal(size=spec.nodes)
        v /= np.linalg.norm(v)
        G = build_matrix(spec, profile)
        np.testing.assert_allclose(
            evolve(spec, profile, v, tau), expm_propagate(G, v, tau), atol=1e-8
        )

