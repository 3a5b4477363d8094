import math

import numpy as np
import pytest

from ringspin import oracle
from ringspin.chain import (ChainSpec, CouplingProfile, build_matrix, dipolar_ratios,
                            max_neighbors)
from ringspin.metrics import independent_targets
from ringspin.oracle import dense_eigen, expm_propagate
from ringspin.spectral import eigenvalue_shifts, eigenvalues, evolve, pair_mode_weights
from simpson import simpson_integral

HALF_SQRT2 = 2.0**-1.5

# int_0^4 cos^4 tau dtau by the antiderivative 3 tau/8 + sin(2 tau)/4 + sin(4 tau)/32
COS4_INTEGRAL_T4 = 1.5 + math.sin(8.0) / 4.0 + math.sin(16.0) / 32.0


class TestDenseEigen:
    def test_square_ring_nearest_neighbor(self):
        G = build_matrix(ChainSpec(4, 1), dipolar_ratios(4))
        values, _ = dense_eigen(G)
        np.testing.assert_allclose(values, [-2.0, 0.0, 0.0, 2.0], atol=1e-12)

    def test_scaled_identity(self):
        values, _ = dense_eigen(3.0 * np.eye(5))
        np.testing.assert_allclose(values, 3.0)

    def test_matches_closed_form_on_full_range(self):
        spec = ChainSpec(4, 2)
        profile = dipolar_ratios(4)
        values, _ = dense_eigen(build_matrix(spec, profile))
        expected = [-2.0 + HALF_SQRT2, -HALF_SQRT2, -HALF_SQRT2, 2.0 + HALF_SQRT2]
        np.testing.assert_allclose(values, expected, atol=1e-12)
        np.testing.assert_allclose(
            values, np.sort(eigenvalues(spec, profile)), atol=1e-12
        )

    def test_reconstruction(self):
        G = build_matrix(ChainSpec(12, 5), dipolar_ratios(12))
        values, vectors = dense_eigen(G)
        rebuilt = vectors @ np.diag(values) @ vectors.T
        assert np.abs(G - rebuilt).max() <= 1e-10

    def test_rejects_nonsymmetric(self):
        with pytest.raises(ValueError):
            dense_eigen(np.array([[0.0, 1.0], [0.5, 0.0]]))

    def test_rejects_nonsquare_and_oversize(self):
        with pytest.raises(ValueError):
            dense_eigen(np.zeros((3, 4)))
        with pytest.raises(ValueError):
            dense_eigen(np.zeros((257, 257)))
        with pytest.raises(ValueError):
            dense_eigen(np.zeros(3))

    def test_rejects_nonfinite_before_lapack(self):
        # a NaN passes the symmetry test, and LAPACK then fails to converge
        with pytest.raises(ValueError, match="finite"):
            dense_eigen(np.full((3, 3), np.nan))
        with pytest.raises(ValueError, match="finite"):
            dense_eigen(np.diag([1.0, np.inf, 2.0]))
        stack = np.stack([np.eye(4)] * 3)
        stack[1, 2, 2] = np.nan
        with pytest.raises(ValueError, match="finite"):
            dense_eigen(stack)

    def test_stack_refuses_one_nonsymmetric_matrix(self):
        stack = np.stack([np.eye(3)] * 4)
        stack[2, 0, 1] = 0.5
        with pytest.raises(ValueError, match="not symmetric"):
            dense_eigen(stack)

    def test_stack_matches_each_matrix(self):
        nodes = 12
        profile = dipolar_ratios(nodes)
        stack = np.stack([build_matrix(ChainSpec(nodes, m), profile)
                          for m in range(1, max_neighbors(nodes) + 1)])
        stack = np.stack([stack, 2.0 * stack[::-1]])  # (2, radii, N, N)
        values, vectors = dense_eigen(stack)
        assert values.shape == stack.shape[:-1]
        assert vectors.shape == stack.shape
        for index in np.ndindex(stack.shape[:-2]):
            single_values, single_vectors = dense_eigen(stack[index])
            np.testing.assert_allclose(values[index], single_values, rtol=0, atol=1e-13)
            # eigenvectors of a degenerate eigenvalue are fixed only up to a
            # rotation, so compare the projector onto each eigenspace
            spaces, counts = oracle._eigenspaces(single_values[None])
            for space in spaces[0].T[: counts[0]]:
                columns = space.astype(bool)
                stacked = vectors[index][:, columns]
                alone = single_vectors[:, columns]
                np.testing.assert_allclose(stacked @ stacked.T, alone @ alone.T,
                                           rtol=0, atol=1e-12)


class TestExpmPropagate:
    def test_time_zero_identity(self):
        G = build_matrix(ChainSpec(6, 2), dipolar_ratios(6))
        v = np.zeros(6, dtype=complex)
        v[2] = 1.0
        np.testing.assert_allclose(expm_propagate(G, v, 0.0), v, atol=1e-14)

    def test_perfect_transfer_on_square_ring(self):
        G = build_matrix(ChainSpec(4, 1), dipolar_ratios(4))
        v = np.zeros(4, dtype=complex)
        v[0] = 1.0
        out = expm_propagate(G, v, np.pi / 2)
        probs = np.abs(out) ** 2
        np.testing.assert_allclose(probs, [0.0, 0.0, 1.0, 0.0], atol=1e-12)

    def test_preserves_norm(self):
        G = build_matrix(ChainSpec(9, 4), dipolar_ratios(9))
        rng = np.random.default_rng(2)
        v = rng.normal(size=9) + 1j * rng.normal(size=9)
        v /= np.linalg.norm(v)
        out = expm_propagate(G, v, 17.3)
        assert np.sum(np.abs(out) ** 2) == pytest.approx(1.0, abs=1e-10)

    def test_check_propagator_decomposes_each_generator_once(self, monkeypatch):
        calls = []
        monkeypatch.setattr(oracle, "dense_eigen",
                            lambda matrix: calls.append(np.shape(matrix)) or dense_eigen(matrix))
        assert oracle.check_propagator().passed
        # five rings, two radii each, one generator per call
        assert calls == [(n, n) for n in (4, 5, 8, 11, 12) for _ in range(2)]

    def test_check_propagator_propagates_each_case_as_one_stack(self, monkeypatch):
        shapes = {"evolve": [], "expm_propagate": []}

        def recording(name, fn):
            def call(*args):
                shapes[name].append(np.shape(args[-2]))  # the states precede tau
                return fn(*args)
            return call

        monkeypatch.setattr(oracle, "evolve", recording("evolve", oracle.evolve))
        monkeypatch.setattr(oracle, "expm_propagate", recording("expm_propagate", expm_propagate))
        assert oracle.check_propagator().passed
        # five rings, two radii each; one (3 taus, 20 states) stack per generator
        expected = [(3, 20, n) for n in (4, 5, 8, 11, 12) for _ in range(2)]
        assert shapes == {"evolve": expected, "expm_propagate": expected}

    def test_array_tau_matches_tau_by_tau(self):
        G = build_matrix(ChainSpec(11, 5), dipolar_ratios(11))
        rng = np.random.default_rng(37)
        stack = rng.normal(size=(3, 4, 11)) + 1j * rng.normal(size=(3, 4, 11))
        stack /= np.linalg.norm(stack, axis=-1, keepdims=True)
        taus = np.array([[0.1], [1.0], [11.0]])  # one time per row of states
        out = expm_propagate(G, stack, taus)
        assert out.shape == stack.shape
        for i, tau in enumerate(taus[:, 0]):
            np.testing.assert_allclose(out[i], expm_propagate(G, stack[i], tau),
                                       rtol=0, atol=1e-15)

    @pytest.mark.parametrize("tau", [np.nan, np.inf, -np.inf, [1.0, np.inf]])
    def test_rejects_nonfinite_tau(self, tau):
        G = build_matrix(ChainSpec(6, 2), dipolar_ratios(6))
        uniform = np.full(6, 1.0 / np.sqrt(6), dtype=complex)
        with pytest.raises(ValueError, match="tau must be finite"):
            expm_propagate(G, uniform, tau)

    def test_refuses_stacked_decomposition(self):
        stack = np.stack([build_matrix(ChainSpec(6, m), dipolar_ratios(6)) for m in (1, 2, 3)])
        uniform = np.full(6, 1.0 / np.sqrt(6), dtype=complex)
        with pytest.raises(ValueError, match="not a stack"):
            expm_propagate(stack, uniform, 1.0)

    def test_stack_matches_row_by_row(self):
        G = build_matrix(ChainSpec(10, 4), dipolar_ratios(10))
        rng = np.random.default_rng(29)
        stack = rng.normal(size=(3, 2, 10)) + 1j * rng.normal(size=(3, 2, 10))
        stack /= np.linalg.norm(stack, axis=-1, keepdims=True)
        out = expm_propagate(G, stack, 6.5)
        assert out.shape == stack.shape
        for index in np.ndindex(stack.shape[:-1]):
            np.testing.assert_allclose(out[index], expm_propagate(G, stack[index], 6.5),
                                       rtol=0, atol=1e-15)

    def test_stack_refuses_one_bad_state(self):
        G = build_matrix(ChainSpec(5, 2), dipolar_ratios(5))
        stack = np.tile(np.full(5, 1.0 / np.sqrt(5), dtype=complex), (3, 1))
        stack[1] *= 0.5
        with pytest.raises(ValueError, match="state 1 of 3 is not normalized"):
            expm_propagate(G, stack, 1.0)
        with pytest.raises(ValueError, match="shape"):
            expm_propagate(G, np.full((3, 4), 0.5), 1.0)

    def test_rejects_unnormalized_and_oversize(self):
        G = build_matrix(ChainSpec(4, 1), dipolar_ratios(4))
        with pytest.raises(ValueError):
            expm_propagate(G, np.ones(4, dtype=complex), 1.0)
        with pytest.raises(ValueError):
            expm_propagate(np.zeros((65, 65)), np.zeros(65), 1.0)


class TestCheckEigen:
    def test_decomposes_each_ring_once(self, monkeypatch):
        shapes = []
        monkeypatch.setattr(oracle, "dense_eigen",
                            lambda matrix: shapes.append(np.shape(matrix)) or dense_eigen(matrix))
        values, projectors = oracle.check_eigen()
        assert values.passed and projectors.passed
        # rings N = 3..16, 14 in all; one stack of every radius per ring
        assert shapes == [(max_neighbors(n), n, n) for n in range(3, 17)]

    def test_stack_holds_the_generator_of_each_radius(self, monkeypatch):
        stacks = []
        monkeypatch.setattr(oracle, "dense_eigen",
                            lambda matrix: stacks.append(matrix) or dense_eigen(matrix))
        oracle.check_eigen()
        for nodes, stack in zip(range(3, 17), stacks):
            for m, matrix in enumerate(stack, 1):
                np.testing.assert_array_equal(
                    matrix, build_matrix(ChainSpec(nodes, m), dipolar_ratios(nodes)))

    def test_eigenspace_count_mismatch_is_infinite(self, monkeypatch):
        def merged(spec, profile):
            # every mode in one eigenspace at the full radius of rings with
            # more radii; the other radii keep the largest count, so the
            # indicator arrays of both routes keep one shape
            lam_ref, shifts = eigenvalue_shifts(spec, profile)
            if len(shifts) > 1:
                shifts[-1] = lam_ref[0] - lam_ref
            return lam_ref, shifts

        monkeypatch.setattr(oracle, "eigenvalue_shifts", merged)
        _, projectors = oracle.check_eigen()
        assert projectors.deviation == math.inf
        assert not projectors.passed

    def test_eigenspaces_of_rows(self):
        spaces, counts = oracle._eigenspaces(np.array([[2.0, 0.0, 2.0 + 1e-9, 1.0],
                                                       [3.0, 3.0, 3.0, 3.0]]))
        assert counts.tolist() == [3, 1]
        np.testing.assert_array_equal(spaces[0], [[0, 0, 1], [1, 0, 0], [0, 0, 1], [0, 1, 0]])
        np.testing.assert_array_equal(spaces[1], [[1, 0, 0]] * 4)  # padded to 3 columns


class TestSimpsonIntegral:
    def test_constant(self):
        assert simpson_integral(np.ones(4001), 4.0) == pytest.approx(4.0, abs=1e-12)

    def test_quartic_cosine(self):
        grid = np.linspace(0.0, 4.0, 4001)
        value = simpson_integral(np.cos(grid) ** 4, 4.0)
        assert value == pytest.approx(COS4_INTEGRAL_T4, abs=1e-10)

    def test_half_sine(self):
        grid = np.linspace(0.0, np.pi, 2001)
        assert simpson_integral(np.sin(grid), np.pi) == pytest.approx(2.0, abs=1e-10)

    def test_rows_of_a_stack(self):
        grid = np.linspace(0.0, 3.0, 601)
        stack = np.stack([np.cos(grid) ** 2, np.sin(3.0 * grid), np.exp(-grid)])
        stack = np.stack([stack, 2.0 * stack[::-1]])  # (2, 3, 601)
        out = simpson_integral(stack, 3.0)
        assert out.shape == (2, 3)
        for index in np.ndindex(out.shape):
            assert out[index] == pytest.approx(simpson_integral(stack[index], 3.0),
                                               rel=0, abs=1e-15)
        with pytest.raises(ValueError):
            simpson_integral(np.ones((3, 600)), 3.0)
        with pytest.raises(ValueError):
            simpson_integral(np.ones((3, 1)), 3.0)

    def test_rejects_even_sample_count(self):
        with pytest.raises(ValueError):
            simpson_integral(np.ones(4000), 4.0)
        with pytest.raises(ValueError):
            simpson_integral(np.ones(2), 1.0)


class TestSampledAmplitudes:
    """Simpson sums of sampled amplitude powers: the Gram-form
    `_simpson_power` of `check_quadrature` against `simpson_integral` on
    amplitudes sampled directly on the same grid.  Blocks hold K =
    isqrt(count) rounded up to even samples; the last runs past the grid."""

    # 3: two blocks of 2, one sample past the grid; 49 and 57: blocks of 8,
    # the last holding sample count - 1 alone; 63: blocks of 8, the last one
    # full but for the one sample past the grid; 13001 and 52001: the N = 13
    # grids of `validate` at steps 1e-3 and 2.5e-4; 48 and 50: even counts,
    # refused by both routes
    @pytest.mark.parametrize("count", [3, 49, 48, 50, 57, 63, 13001, 52001])
    @pytest.mark.parametrize("nodes", [10, 13])
    def test_matches_direct_amplitude(self, nodes, count):
        self.assert_matches_direct(nodes, dipolar_ratios(nodes), count)

    def test_degenerate_custom_profile(self):
        # lam = 2 cos p + cos 2p + cos 3p at N = 6: (4, -0.5, -0.5, -2), so
        # modes 1 and 2 share an eigenvalue at the full radius
        profile = CouplingProfile((1.0, 0.5, 1.0))
        lam = eigenvalue_shifts(ChainSpec(6, 3), profile)[0]
        np.testing.assert_allclose(lam, [4.0, -0.5, -0.5, -2.0], rtol=0, atol=1e-15)
        for count in (49, 6001):
            self.assert_matches_direct(6, profile, count)

    @staticmethod
    def assert_matches_direct(nodes, profile, count):
        """Probability powers at radius 1 and at the full radius, and the
        powers of the amplitude difference to the full radius below it."""
        t_max = float(nodes)
        targets = independent_targets(nodes)
        W = pair_mode_weights(nodes, 1, np.array(targets))
        grid = np.linspace(0.0, t_max, count)
        full = ChainSpec.all_neighbors(nodes)
        site_1 = np.eye(nodes)[0]
        columns = np.array(targets) - 1
        lam_ref = eigenvalue_shifts(full, profile)[0]
        ref = evolve(full, profile, site_1, grid)[:, columns].T
        for m in (1, full.neighbors - 1, full.neighbors):
            spec = ChainSpec(nodes, m)
            lam = eigenvalue_shifts(spec, profile)[0]
            direct = evolve(spec, profile, site_1, grid)[:, columns].T
            if count % 2 == 0:
                with pytest.raises(ValueError, match="odd sample count"):
                    simpson_integral(np.abs(direct) ** 2, t_max)
                with pytest.raises(ValueError, match="odd sample count"):
                    oracle._simpson_power(W, lam, count, t_max)
                continue
            np.testing.assert_allclose(oracle._simpson_power(W, lam, count, t_max),
                                       simpson_integral(np.abs(direct) ** 2, t_max),
                                       rtol=1e-12, atol=0)
            if m < full.neighbors:  # the difference to the reference itself is 0
                joint = oracle._simpson_power(np.hstack((W, -W)), np.r_[lam, lam_ref],
                                              count, t_max)
                np.testing.assert_allclose(joint, simpson_integral(np.abs(direct - ref) ** 2,
                                                                   t_max),
                                           rtol=1e-12, atol=0)

    def test_quadrature_check_samples_the_reference_once(self, monkeypatch):
        calls = []
        helper = oracle._simpson_power
        monkeypatch.setattr(oracle, "_simpson_power",
                            lambda W, lam, *rest: calls.append((W.shape, len(lam)))
                            or helper(W, lam, *rest))
        assert oracle.check_quadrature(1e-3, (10, 13)).passed
        # per ring: the reference power once, then per radius below it one
        # probability sum (its n modes) and one error sum (joint modes
        # [lam_M, lam_ref] with weights [W, -W]); 20 calls in all
        expected = []
        for nodes in (10, 13):
            n = nodes // 2 + 1
            expected += [((n, n), n)]
            expected += [((n, n), n), ((n, 2 * n), 2 * n)] * (max_neighbors(nodes) - 1)
        assert calls == expected

    def test_quadrature_check_stays_at_rounding(self):
        # 1.7e-14 with the default step: far inside the 1e-6 tolerance
        assert oracle.check_quadrature(1e-3, (10, 13)).deviation < 1e-12
