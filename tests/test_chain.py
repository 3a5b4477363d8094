import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from ringspin.chain import (
    ChainSpec,
    CouplingProfile,
    build_matrix,
    dipolar_ratios,
    max_neighbors,
)


@st.composite
def ring_specs(draw, max_nodes=40):
    nodes = draw(st.integers(min_value=3, max_value=max_nodes))
    neighbors = draw(st.integers(min_value=1, max_value=max_neighbors(nodes)))
    return ChainSpec(nodes, neighbors)


class TestMaxNeighbors:
    @pytest.mark.parametrize("nodes,expected", [(6, 3), (5, 2), (70, 35), (3, 1), (4, 2)])
    def test_values(self, nodes, expected):
        assert max_neighbors(nodes) == expected

    @pytest.mark.parametrize("nodes", [2, 1, 0, -5])
    def test_rejects_degenerate_rings(self, nodes):
        with pytest.raises(ValueError):
            max_neighbors(nodes)


class TestChainSpec:
    def test_bounds(self):
        ChainSpec(6, 3)
        with pytest.raises(ValueError):
            ChainSpec(6, 4)
        with pytest.raises(ValueError):
            ChainSpec(6, 0)
        with pytest.raises(ValueError):
            ChainSpec(2, 1)

    def test_all_neighbors_constructor(self):
        spec = ChainSpec.all_neighbors(70)
        assert spec.neighbors == 35


class TestDipolarRatios:
    def test_nearest_neighbor_is_exactly_one(self):
        for nodes in (3, 4, 17, 70):
            assert dipolar_ratios(nodes).ratios[0] == 1.0

    def test_hexagon_values(self):
        # chord ratios on the 6-ring: sin(pi/6)/sin(pi k/6), cubed
        ratios = dipolar_ratios(6).ratios
        np.testing.assert_allclose(ratios[1], 3.0**-1.5, rtol=0, atol=1e-15)
        np.testing.assert_allclose(ratios[2], 0.125, rtol=0, atol=1e-15)

    @given(st.integers(min_value=3, max_value=200))
    def test_strictly_decreasing(self, nodes):
        ratios = np.asarray(dipolar_ratios(nodes).ratios)
        assert np.all(np.diff(ratios) < 0) or ratios.size == 1


class TestCouplingProfile:
    def test_first_ratio_pinned(self):
        with pytest.raises(ValueError):
            CouplingProfile((0.5, 0.2))

    def test_dipolar_kind_requires_positive(self):
        with pytest.raises(ValueError):
            CouplingProfile((1.0, -0.1), kind="dipolar")
        CouplingProfile((1.0, -0.1), kind="custom")  # custom may go negative

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            CouplingProfile(())

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            CouplingProfile((1.0,), kind="exotic")

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            CouplingProfile((1.0, bad, 0.1))


class TestBuildMatrix:
    def test_square_ring_nearest_neighbor(self):
        G = build_matrix(ChainSpec(4, 1), dipolar_ratios(4))
        np.testing.assert_array_equal(G[0], [0.0, 1.0, 0.0, 1.0])

    def test_pentagon_two_neighbors(self):
        profile = dipolar_ratios(5)
        G = build_matrix(ChainSpec(5, 2), profile)
        d2 = profile.ratios[1]
        np.testing.assert_allclose(G[0], [0.0, 1.0, d2, d2, 1.0])

    def test_truncation_zeroes_far_bands(self):
        G = build_matrix(ChainSpec(6, 2), dipolar_ratios(6))
        assert G[0, 3] == 0.0  # distance 3 exceeds M=2

    def test_profile_too_short(self):
        with pytest.raises(ValueError):
            build_matrix(ChainSpec(8, 3), CouplingProfile((1.0, 0.5)))

    @given(ring_specs())
    def test_symmetric_zero_diagonal_circulant(self, spec):
        profile = dipolar_ratios(spec.nodes)
        G = build_matrix(spec, profile)
        assert np.array_equal(G, G.T)
        assert np.all(np.diag(G) == 0.0)
        assert np.trace(G) == 0.0
        # circulant: every entry depends only on the cyclic distance
        n = spec.nodes
        for j, k in ((0, 1), (1, n - 1), (0, n - 1), (n // 2, n - 2)):
            d = min(abs(j - k), n - abs(j - k))
            expected = profile.ratios[d - 1] if 1 <= d <= spec.neighbors else 0.0
            assert G[j, k] == expected

    @given(ring_specs())
    def test_row_sums_match_band_weights(self, spec):
        profile = dipolar_ratios(spec.nodes)
        G = build_matrix(spec, profile)
        sums = G.sum(axis=1)
        ratios = profile.ratios
        if 2 * spec.neighbors == spec.nodes:
            expected = 2.0 * sum(ratios[: spec.neighbors - 1]) + ratios[spec.neighbors - 1]
        else:
            expected = 2.0 * sum(ratios[: spec.neighbors])
        np.testing.assert_allclose(sums, expected, rtol=1e-13)
