import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ringspin import fitting
from ringspin.fitting import FitParams, decay_model, fit_decay, fit_trends

TRUE_PARAMS = (0.01, 0.5, 0.3, 2.0)


def fitted(fp):
    return [fp.a, fp.b, fp.c, fp.d]


def synthetic_points(x=None, params=TRUE_PARAMS):
    if x is None:
        x = np.arange(2, 21, dtype=float)
    return list(zip(x, decay_model(x, *params)))


class TestDecayModel:
    def test_evaluates_the_formula(self):
        assert decay_model(2.0, 0.0, 0.0, 0.0, 1.0) == pytest.approx(0.5)
        assert decay_model(3.0, 1.0, 1.0, 0.0, 2.0) == pytest.approx(1.0 + 1.0 / 8.0)

    def test_vectorized(self):
        x = np.array([2.0, 4.0, 8.0])
        np.testing.assert_allclose(
            decay_model(x, *TRUE_PARAMS),
            [decay_model(v, *TRUE_PARAMS) for v in x],
        )


class TestFitDecay:
    def test_noiseless_recovery(self):
        fp = fit_decay(synthetic_points())
        assert fp.rms < 1e-10
        np.testing.assert_allclose(fitted(fp), TRUE_PARAMS, atol=1e-7)
        assert fp.converged

    def test_constant_data_pins_offset(self):
        # a plateau forces a to the plateau level and kills the decay term
        x = np.arange(2, 12, dtype=float)
        fp = fit_decay([(v, 0.25) for v in x])
        assert fp.a == pytest.approx(0.25, abs=1e-8)
        assert fp.rms < 1e-8

    def test_needs_five_points(self):
        with pytest.raises(ValueError):
            fit_decay(synthetic_points(x=np.arange(2, 6, dtype=float)))

    def test_rejects_radii_below_two(self):
        pts = synthetic_points()
        pts[0] = (1.0, pts[0][1])
        with pytest.raises(ValueError):
            fit_decay(pts)

    def test_rejects_negative_errors(self):
        pts = synthetic_points()
        pts[3] = (pts[3][0], -0.01)
        with pytest.raises(ValueError):
            fit_decay(pts)

    def test_rejects_duplicate_radii(self):
        pts = synthetic_points()
        pts[1] = (pts[0][0], pts[1][1])
        with pytest.raises(ValueError):
            fit_decay(pts)

    def test_pole_stays_outside_interval(self):
        fp = fit_decay(synthetic_points())
        x = np.linspace(2.0, 20.0, 181)
        assert np.all(np.abs(x**fp.d - fp.b) > 0.0)

    def test_max_iter_exhaustion_is_flagged(self, monkeypatch):
        monkeypatch.setattr(fitting, "MAX_ITERATIONS", 2)
        fp = fit_decay(synthetic_points())
        assert not fp.converged
        assert fp.iterations == 2

    @given(seed=st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_reorder_invariance(self, seed):
        pts = synthetic_points()
        perm = np.random.default_rng(seed).permutation(len(pts))
        fp_sorted = fit_decay(pts)
        fp_shuffled = fit_decay([pts[i] for i in perm])
        assert fitted(fp_sorted) == fitted(fp_shuffled)
        assert fp_sorted.rms == fp_shuffled.rms


def _params(a, b=0.5, c=0.3, d=2.0):
    return FitParams(a=a, b=b, c=c, d=d, rms=0.0, converged=True,
                     iterations=1, condition_number=1.0)


class TestFitTrends:
    def test_needs_three_lengths(self):
        with pytest.raises(ValueError):
            fit_trends([20, 36], [_params(0.1), _params(0.05)])

    def test_refuses_duplicate_lengths(self):
        with pytest.raises(ValueError):
            fit_trends([20, 36, 20], [_params(0.1), _params(0.05), _params(0.1)])

    def test_identical_params_give_zero_slopes(self):
        slopes = fit_trends([20, 36, 70], [_params(0.1)] * 3)
        assert slopes == {"a": 0.0, "b": 0.0, "c": 0.0, "d": 0.0}

    def test_exact_slopes_of_linear_parameters(self):
        lengths = [20, 26, 36, 70]
        fits = [_params(0.1 - 2e-3 * n, 0.5 + 1e-2 * n, 0.3 + 1e-4 * n, 2.0 - 5e-3 * n)
                for n in lengths]
        slopes = fit_trends(lengths, fits)
        assert list(slopes) == ["a", "b", "c", "d"]
        np.testing.assert_allclose(list(slopes.values()), [-2e-3, 1e-2, 1e-4, -5e-3],
                                   rtol=1e-12, atol=0.0)
