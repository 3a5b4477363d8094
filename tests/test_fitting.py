import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ringspin.cli import main
from ringspin.fitting import fit_scale

CURVE = np.array([0.9, 0.5, 0.26, 0.11, 0.04, 0.013, 0.002])


class TestFitScale:
    @pytest.mark.parametrize("c", [1.0, 0.5, 2.0, 0.0])
    def test_exact_recovery(self, c):
        # c is 0 or a power of two: c * CURVE and the sums scale exactly
        assert fit_scale(c * CURVE, CURVE) == (c, 0.0)

    def test_kappa_and_rms_by_hand(self):
        # kappa = (1*1 + 3*2) / (1 + 4) = 7/5; residuals 1 - 7/5, 3 - 14/5
        kappa, rms = fit_scale([1.0, 3.0], [1.0, 2.0])
        assert kappa == pytest.approx(1.4, rel=1e-15)
        assert rms == pytest.approx(np.sqrt((0.4**2 + 0.2**2) / 2), rel=1e-15)

    def test_zeros_in_the_curve_count_as_residuals(self):
        kappa, rms = fit_scale([2.0, 0.5], [1.0, 0.0])
        assert kappa == 2.0
        assert rms == pytest.approx(0.5 / np.sqrt(2), rel=1e-15)

    def test_refuses_unequal_lengths(self):
        with pytest.raises(ValueError, match="equally long"):
            fit_scale(CURVE[:-1], CURVE)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("side", ["means", "curve"])
    def test_refuses_non_finite_values(self, bad, side):
        values = CURVE.copy()
        values[2] = bad
        args = (values, CURVE) if side == "means" else (CURVE, values)
        with pytest.raises(ValueError, match="finite"):
            fit_scale(*args)

    @pytest.mark.parametrize("side", ["means", "curve"])
    def test_refuses_negative_values(self, side):
        values = CURVE.copy()
        values[3] = -0.01
        args = (values, CURVE) if side == "means" else (CURVE, values)
        with pytest.raises(ValueError, match="non-negative"):
            fit_scale(*args)

    @pytest.mark.parametrize("means, curve", [(CURVE, np.zeros_like(CURVE)), ([], [])],
                             ids=["zeros", "empty"])
    def test_refuses_an_all_zero_curve(self, means, curve):
        with pytest.raises(ValueError, match="zero at every fitted radius"):
            fit_scale(means, curve)

    @given(seed=st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_reorder_invariance(self, seed):
        # the radii are independent points: their order moves only rounding
        means = CURVE * (1.0 + 0.1 * np.sin(np.arange(CURVE.size)))
        perm = np.random.default_rng(seed).permutation(CURVE.size)
        (kappa, rms), shuffled = fit_scale(means, CURVE), fit_scale(means[perm], CURVE[perm])
        assert shuffled[0] == pytest.approx(kappa, rel=1e-15)
        assert shuffled[1] == pytest.approx(rms, rel=1e-14)


class TestFitDecay:
    """The fit of a ring's decaying error curve, radii 2..nodes//2 - 1."""

    def test_needs_five_points(self, capsys):
        for nodes in (12, 13):
            # four radii, 2..5: too few to fit
            assert main(["fit", "--n", str(nodes)]) == 2
            assert "need >= 5 points" in capsys.readouterr().err

    @pytest.mark.parametrize("nodes", [14, 15])
    def test_five_points_fit(self, capsys, nodes):
        assert main(["fit", "--n", str(nodes), "--format", "json"]) == 0
        (row,) = json.loads(capsys.readouterr().out)["fit"]["rows"]
        assert row[:4] == [nodes, float(nodes), 2, 6]
