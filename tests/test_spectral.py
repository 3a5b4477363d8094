import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ringspin.chain import ChainSpec, CouplingProfile, build_matrix, dipolar_ratios, max_neighbors
from ringspin.oracle import expm_propagate
from ringspin.spectral import (
    _basis,
    amplitude,
    eigenvalue_table,
    eigenvalues,
    eigenvectors,
    evolve,
    first_row_amplitudes,
    mode_count,
    mode_eigenvalues,
    mode_multiplicities,
    spectrum,
    wave_numbers,
)

HALF_SQRT2 = 2.0**-1.5  # dipolar d_2 on the 4-ring


@st.composite
def ring_specs(draw, max_nodes=32):
    nodes = draw(st.integers(min_value=3, max_value=max_nodes))
    neighbors = draw(st.integers(min_value=1, max_value=max_neighbors(nodes)))
    return ChainSpec(nodes, neighbors)


class TestEigenvectors:
    def test_uniform_column(self):
        U = eigenvectors(4)
        np.testing.assert_allclose(U[:, 0], 0.5)

    def test_alternating_column(self):
        # the even-ring mode m = N/2+1 alternates sign site by site
        U = eigenvectors(4)
        np.testing.assert_allclose(U[:, 1], [-0.5, 0.5, -0.5, 0.5])

    def test_pentagon_sine_column(self):
        U = eigenvectors(5)
        k = np.arange(1, 6)
        np.testing.assert_allclose(
            U[:, 2], np.sqrt(2.0 / 5.0) * np.sin(2.0 * np.pi * k / 5.0), atol=1e-15
        )

    @pytest.mark.parametrize("nodes", [3, 4, 5, 6, 12, 13, 37, 64, 70])
    def test_orthonormal(self, nodes):
        U = eigenvectors(nodes)
        gram = U.T @ U
        assert np.abs(gram - np.eye(nodes)).max() <= 1e-12

    def test_same_object_for_every_truncation(self):
        # the basis never depends on the interaction range
        assert eigenvectors(12) is eigenvectors(12)

    def test_basis_cache_is_bounded(self):
        for nodes in range(10, 80):
            eigenvectors(nodes)
        info = _basis.cache_info()
        assert info.maxsize is not None and info.currsize <= info.maxsize <= 16

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
        lam = mode_eigenvalues(spec, profile)
        assert lam[0] == pytest.approx(lam.max())
        ratios = profile.ratios
        if spec.nodes % 2 == 0 and spec.untruncated:
            expected = 2.0 * sum(ratios[: spec.neighbors - 1]) + ratios[spec.neighbors - 1]
        else:
            expected = 2.0 * sum(ratios[: spec.neighbors])
        assert lam[0] == pytest.approx(expected, rel=1e-13)

    def test_profile_too_short(self):
        with pytest.raises(ValueError):
            mode_eigenvalues(ChainSpec(8, 4), CouplingProfile((1.0, 0.5)))

    @pytest.mark.parametrize("nodes", [3, 4, 9, 10, 31, 32])
    def test_table_rows_are_radius_eigenvalues(self, nodes):
        profile = dipolar_ratios(nodes)
        table = eigenvalue_table(ChainSpec.all_neighbors(nodes), profile)
        assert table.shape == (max_neighbors(nodes), mode_count(nodes))
        for m in range(1, max_neighbors(nodes) + 1):
            np.testing.assert_array_equal(
                table[m - 1], mode_eigenvalues(ChainSpec(nodes, m), profile)
            )

    @settings(max_examples=40)
    @given(ring_specs())
    def test_spectral_residual(self, spec):
        """G U = U diag(lam) for the dense generator and the closed form."""
        profile = dipolar_ratios(spec.nodes)
        G = build_matrix(spec, profile)
        U = eigenvectors(spec.nodes)
        lam = eigenvalues(spec, profile)
        assert np.abs(G @ U - U * lam[None, :]).max() <= 1e-10

    @pytest.mark.parametrize("nodes", [33, 47, 48, 63, 64])
    def test_spectral_residual_large_rings(self, nodes):
        profile = dipolar_ratios(nodes)
        U = eigenvectors(nodes)
        for m in range(1, max_neighbors(nodes) + 1):
            spec = ChainSpec(nodes, m)
            G = build_matrix(spec, profile)
            lam = eigenvalues(spec, profile)
            assert np.abs(G @ U - U * lam[None, :]).max() <= 1e-10


class TestSpectrum:
    def test_bundles_consistently(self):
        spec = ChainSpec(6, 2)
        sp = spectrum(spec, dipolar_ratios(6))
        assert sp.vectors is eigenvectors(6)
        assert sp.mode_values.shape == (4,)
        assert sp.values.shape == (6,)
        np.testing.assert_array_equal(sp.values, sp.mode_values[sp.column_modes - 1])
        assert int(sp.multiplicities.sum()) == 6


class TestAmplitude:
    def test_identity_at_time_zero(self):
        spec = ChainSpec(7, 2)
        profile = dipolar_ratios(7)
        for j, k in ((1, 1), (3, 3), (1, 4)):
            expected = 1.0 if j == k else 0.0
            assert amplitude(spec, profile, j, k, 0.0) == pytest.approx(expected, abs=1e-14)

    def test_square_ring_return_amplitude(self):
        # p_11(tau) = cos^2 tau on the nearest-neighbor 4-ring
        spec = ChainSpec(4, 1)
        profile = dipolar_ratios(4)
        taus = np.linspace(0.0, 3.0, 7)
        p = amplitude(spec, profile, 1, 1, taus)
        np.testing.assert_allclose(p, np.cos(taus) ** 2, atol=1e-12)

    def test_square_ring_transfer_amplitude(self):
        # p_13(tau) = -sin^2 tau: perfect transfer to the opposite node
        spec = ChainSpec(4, 1)
        profile = dipolar_ratios(4)
        taus = np.linspace(0.0, 3.0, 7)
        p = amplitude(spec, profile, 1, 3, taus)
        np.testing.assert_allclose(p, -np.sin(taus) ** 2, atol=1e-12)
        assert abs(amplitude(spec, profile, 1, 3, np.pi / 2)) ** 2 == pytest.approx(1.0, abs=1e-12)
        assert abs(amplitude(spec, profile, 1, 1, np.pi / 2)) == pytest.approx(0.0, abs=1e-12)

    def test_site_bounds(self):
        spec = ChainSpec(5, 1)
        profile = dipolar_ratios(5)
        with pytest.raises(ValueError):
            amplitude(spec, profile, 0, 1, 0.5)
        with pytest.raises(ValueError):
            amplitude(spec, profile, 1, 6, 0.5)
        with pytest.raises(ValueError):
            amplitude(spec, profile, 1, 2, np.inf)

    def test_symmetry_in_sites(self):
        spec = ChainSpec(9, 3)
        profile = dipolar_ratios(9)
        assert amplitude(spec, profile, 2, 7, 1.3) == amplitude(spec, profile, 7, 2, 1.3)

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
        p0 = amplitude(spec, profile, j, k, tau)
        p1 = amplitude(spec, profile, js, ks, tau)
        assert abs(p0 - p1) <= 1e-12

    @given(spec=ring_specs(max_nodes=24), tau=st.floats(min_value=-40.0, max_value=40.0))
    def test_reflection_invariance(self, spec, tau):
        """Targets k and N+2-k are mirror images of each other."""
        profile = dipolar_ratios(spec.nodes)
        n = spec.nodes
        for k in range(2, n // 2 + 2):
            mirror = (n - (k - 1)) % n + 1
            p0 = amplitude(spec, profile, 1, k, tau)
            p1 = amplitude(spec, profile, 1, mirror, tau)
            assert abs(p0 - p1) <= 1e-12

    @given(spec=ring_specs(max_nodes=24), tau=st.floats(min_value=-50.0, max_value=50.0))
    def test_unitarity(self, spec, tau):
        profile = dipolar_ratios(spec.nodes)
        total = sum(
            abs(amplitude(spec, profile, 1, k, tau)) ** 2
            for k in range(1, spec.nodes + 1)
        )
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
        spec = ChainSpec(8, 2)
        profile = dipolar_ratios(8)
        basis_state = np.zeros(8, dtype=complex)
        basis_state[0] = 1.0
        out = evolve(spec, profile, basis_state, 2.7)
        row = np.array([amplitude(spec, profile, 1, k, 2.7) for k in range(1, 9)])
        np.testing.assert_allclose(out, row, atol=1e-13)

    def test_eigenstate_picks_up_global_phase(self):
        spec = ChainSpec(10, 3)
        profile = dipolar_ratios(10)
        uniform = np.full(10, 1.0 / np.sqrt(10), dtype=complex)
        lam_top = mode_eigenvalues(spec, profile)[0]
        out = evolve(spec, profile, uniform, 1.9)
        np.testing.assert_allclose(out, np.exp(-1j * lam_top * 1.9) * uniform, atol=1e-13)

    def test_rejects_unnormalized(self):
        spec = ChainSpec(5, 2)
        profile = dipolar_ratios(5)
        with pytest.raises(ValueError):
            evolve(spec, profile, np.ones(5, dtype=complex), 1.0)
        with pytest.raises(ValueError):
            evolve(spec, profile, np.zeros(3, dtype=complex), 1.0)

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


class TestFirstRowAmplitudes:
    def test_hexagon_at_time_zero(self):
        amps = first_row_amplitudes(ChainSpec(6, 2), dipolar_ratios(6), 0.0)
        assert amps.pairs == ((1, 1), (1, 2), (1, 3))
        np.testing.assert_allclose(amps.values[:, 0], [1.0, 0.0, 0.0], atol=1e-14)

    def test_matches_amplitude_entrywise(self):
        spec = ChainSpec(9, 4)
        profile = dipolar_ratios(9)
        taus = np.array([0.3, 1.1, 7.7])
        amps = first_row_amplitudes(spec, profile, taus)
        for i, (_, k) in enumerate(amps.pairs):
            np.testing.assert_allclose(
                amps.values[i], amplitude(spec, profile, 1, k, taus), atol=1e-14
            )

    def test_square_ring_perfect_transfer_row(self):
        amps = first_row_amplitudes(ChainSpec(4, 1), dipolar_ratios(4), np.pi / 2)
        mags = np.abs(amps.values[:, 0]) ** 2
        np.testing.assert_allclose(mags, [0.0, 0.0], atol=1e-12)  # k = 1, 2 empty
