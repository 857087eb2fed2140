"""Least-squares engine and model front ends."""

import json
import warnings
from dataclasses import replace

import numpy as np
import pytest

from fiberphoton.correlate import CoincidenceHistogram, make_edges
from fiberphoton.emitter import g2_cw_reduced
from fiberphoton.errors import InvalidParameter
from fiberphoton.fit import (
    finite_difference_jacobian,
    fit_g2_cw,
    fit_g2_pulsed,
    fit_saturation,
    g2_pulsed_mixed_model,
    least_squares_engine,
    levenberg_marquardt,
    saturation_model,
)
from fiberphoton.io import write_fit_report


def histogram_from_curve(centers, values, errs, duration=1e6):
    bw = centers[1] - centers[0]
    edges = np.concatenate([centers - bw / 2, [centers[-1] + bw / 2]])
    counts = np.maximum(np.round(values * 1000).astype(np.int64), 0)
    return CoincidenceHistogram(edges, counts, duration, norm=values,
                                norm_err=errs)


class TestEngine:
    def test_linear_fit_exact(self):
        x = np.linspace(0, 10, 30)
        y = 3.0 * x - 1.5

        res = least_squares_engine(lambda t, a, b: a * t + b, x, y, [1.0, 0.0],
                                   param_names=["a", "b"])
        assert res.converged
        assert abs(res.params["a"] - 3.0) < 1e-10
        assert abs(res.params["b"] + 1.5) < 1e-10
        assert res.residual_norm < 1e-18

    def test_parameter_on_a_bound_is_flagged(self):
        """The slope 2 lies past the upper bound 1, so the fit ends on it;
        the intercept ends inside its bounds and the infinite bounds are
        never reached."""
        x = np.linspace(0.0, 10.0, 30)
        res = least_squares_engine(lambda t, a, b: a * t + b, x, 2.0 * x,
                                   [0.5, 0.0], bounds=([0.0, -np.inf], [1.0, np.inf]),
                                   param_names=["slope", "intercept"])
        assert res.params["slope"] == 1.0
        assert res.flags == ["at-bound:slope"]
        res = least_squares_engine(lambda t, a, b: a * t + b, x, 2.0 * x,
                                   [0.5, 0.0], bounds=([0.0, -np.inf], [3.0, np.inf]),
                                   param_names=["slope", "intercept"])
        assert res.flags == []

    def test_ignored_parameter_is_unidentifiable(self):
        # b's Jacobian column is zero, so J^T J is singular: the covariance
        # falls back to its pseudo-inverse and gives b an infinite sigma.
        x = np.linspace(0.0, 10.0, 30)
        y = 3.0 * x + np.random.default_rng(0).normal(0.0, 0.1, x.size)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = least_squares_engine(lambda t, a, b: a * t, x, y, [1.0, 1.0],
                                       param_names=["a", "b"])
        assert res.flags == ["unidentifiable:b"]
        assert res.sigmas["b"] == np.inf
        assert 0 < res.sigmas["a"] < np.inf

    def test_iteration_cap_is_flagged(self):
        x = np.linspace(0.0, 10.0, 30)
        res = least_squares_engine(lambda t, a, k: a * np.exp(-k * t), x,
                                   3.0 * np.exp(-0.2 * x), [1.0, 1.0],
                                   param_names=["a", "k"], max_iter=1)
        assert not res.converged
        assert res.iterations == 1
        assert res.flags == ["max-iterations"]

    def test_rosenbrock_valley(self):
        def residual(p):
            return np.array([1.0 - p[0], 10.0 * (p[1] - p[0] ** 2)])

        p, _, ssr, converged, _ = levenberg_marquardt(residual, [-1.2, 1.0])
        assert converged
        assert np.allclose(p, [1.0, 1.0], atol=1e-6)
        assert ssr < 1e-12

    def test_self_fit_from_perturbed_starts(self):
        rng = np.random.default_rng(51)
        x = np.linspace(0.0, 30.0, 61)
        for _ in range(20):
            g0 = rng.uniform(0.0, 0.4)
            wp = rng.uniform(0.1, 1.0)
            y = g2_cw_reduced(g0, wp, x)
            start = [g0 * rng.uniform(0.8, 1.2) + 0.01, wp * rng.uniform(0.8, 1.2)]
            res = least_squares_engine(
                lambda t, a, b: g2_cw_reduced(a, b, t), x, y, start,
                bounds=([0.0, 1e-9], [1.5, np.inf]), param_names=["g2_0", "w_p"])
            assert abs(res.params["g2_0"] - g0) < 1e-6
            assert abs(res.params["w_p"] - wp) < 1e-6

    def test_sigma_weighting_scales_uncertainties(self):
        x = np.linspace(0, 10, 40)
        rng = np.random.default_rng(53)
        y = 2.0 * x + 1.0 + rng.normal(0, 0.1, x.size)
        res_a = least_squares_engine(lambda t, a, b: a * t + b, x, y, [1.0, 0.0],
                                     sigma=np.full(x.size, 0.1))
        res_b = least_squares_engine(lambda t, a, b: a * t + b, x, y, [1.0, 0.0],
                                     sigma=np.full(x.size, 0.2))
        assert res_a.params["p0"] == pytest.approx(res_b.params["p0"], abs=1e-9)
        # Uncertainties are rescaled by SSR/dof, so a common sigma scale
        # leaves them unchanged.
        for factor in (0.1, 10.0):
            res_c = least_squares_engine(lambda t, a, b: a * t + b, x, y,
                                         [1.0, 0.0],
                                         sigma=np.full(x.size, 0.1 * factor))
            assert res_c.sigmas == pytest.approx(res_a.sigmas, rel=1e-6)

    def test_nonfinite_data_rejected(self):
        with pytest.raises(InvalidParameter):
            least_squares_engine(lambda t, a: a * t, [1.0, np.nan], [1.0, 2.0], [1.0])


class TestJacobian:
    def test_forward_vs_central_difference(self):
        rng = np.random.default_rng(61)
        x = np.linspace(0.1, 20.0, 50)

        models = [
            lambda t, p: g2_cw_reduced(p[0], p[1], t),
            lambda t, p: g2_pulsed_mixed_model(t, p[0], p[1], p[2], 6.0),
            lambda t, p: saturation_model(t, p[0], p[1], p[2]),
        ]
        starts = [
            lambda: [rng.uniform(0.05, 0.5), rng.uniform(0.1, 1.0)],
            lambda: [rng.uniform(0.3, 0.95), rng.uniform(0.05, 0.5),
                     rng.uniform(0.1, 1.0)],
            lambda: [rng.uniform(500, 2000), rng.uniform(0.2, 2.0),
                     rng.uniform(10, 200)],
        ]
        for model, draw in zip(models, starts):
            for _ in range(30):
                p = np.array(draw())

                def residual(q):
                    return model(x, q)

                J = finite_difference_jacobian(residual, p)
                # Central-difference oracle at half step.
                Jc = np.empty_like(J)
                for j in range(p.size):
                    h = 0.5e-6 * max(abs(p[j]), 1.0)
                    pp, pm = p.copy(), p.copy()
                    pp[j] += h
                    pm[j] -= h
                    Jc[:, j] = (residual(pp) - residual(pm)) / (2 * h)
                scale = np.maximum(np.abs(Jc), np.max(np.abs(Jc)) * 1e-3)
                assert np.max(np.abs(J - Jc) / scale) < 1e-3


class TestG2CwFit:
    def make_histogram(self, g0, wp, noise=0.0, seed=0):
        centers = np.arange(-100, 101, dtype=float)
        rng = np.random.default_rng(seed)
        y = g2_cw_reduced(g0, wp, centers) + rng.normal(0, noise, centers.size)
        err = np.full(centers.size, max(noise, 1e-3))
        return histogram_from_curve(centers, y, err)

    def test_recovers_parameters(self):
        h = self.make_histogram(0.1, 0.2, noise=0.01, seed=70)
        res = fit_g2_cw(h)
        assert res.converged
        assert res.params["g2_0"] == pytest.approx(0.1, abs=0.03)
        assert res.params["w_p"] == pytest.approx(0.2, rel=0.1)
        assert res.params["two_over_wp"] == pytest.approx(2.0 / res.params["w_p"])

    def test_flat_histogram_flagged_degenerate(self):
        centers = np.arange(-50, 51, dtype=float)
        rng = np.random.default_rng(71)
        y = 1.0 + rng.normal(0, 0.002, centers.size)
        h = histogram_from_curve(centers, y, np.full(centers.size, 0.01))
        res = fit_g2_cw(h)
        assert "degenerate-data" in res.flags

    def test_requires_normalization(self):
        edges = make_edges(10.0, 1.0)
        h = CoincidenceHistogram(edges, np.ones(20, int), 1.0)
        with pytest.raises(InvalidParameter):
            fit_g2_cw(h)


class TestG2PulsedFit:
    def test_recovers_mixed_parameters(self):
        rho, g0, wp, tau_o = 0.92, 0.05, 0.6, 6.0
        centers = np.arange(-49, 50, dtype=float)
        rng = np.random.default_rng(80)
        y = g2_pulsed_mixed_model(centers, rho, g0, wp, tau_o)
        y = y + rng.normal(0, 0.005, centers.size)
        h = histogram_from_curve(centers, y, np.full(centers.size, 0.005))
        res = fit_g2_pulsed(h, tau_o_fixed=tau_o)
        assert res.converged
        assert res.params["rho"] == pytest.approx(rho, abs=0.02)
        assert res.params["g2_exp_0"] == pytest.approx(
            1 - rho**2 + rho**2 * g0, abs=0.03)

    def test_tau_o_must_be_positive(self):
        h = TestG2CwFit().make_histogram(0.1, 0.2)
        with pytest.raises(InvalidParameter):
            fit_g2_pulsed(h, tau_o_fixed=0.0)

    @pytest.mark.parametrize("tau_o", [np.inf, np.nan, True])
    def test_tau_o_must_be_a_finite_number(self, tau_o):
        h = TestG2CwFit().make_histogram(0.1, 0.2)
        with pytest.raises(InvalidParameter, match="tau_o_fixed"):
            fit_g2_pulsed(replace(h, normalization="pulsed"), tau_o_fixed=tau_o)

    def test_other_model_normalization_rejected(self):
        h = TestG2CwFit().make_histogram(0.1, 0.2)
        for fit, other in ((fit_g2_cw, "pulsed"),
                           (lambda h: fit_g2_pulsed(h, tau_o_fixed=6.0), "cw")):
            with pytest.raises(InvalidParameter, match="pipeline"):
                fit(replace(h, normalization=other))
        assert fit_g2_cw(replace(h, normalization="cw")).converged


class TestSaturationFit:
    def test_exact_recovery(self):
        powers = np.linspace(0.05, 3.0, 12)
        data = np.column_stack([powers, saturation_model(powers, 1500.0, 0.54, 120.0)])
        res = fit_saturation(data)
        assert res.converged
        assert res.params["A"] == pytest.approx(1500.0, rel=1e-4)
        assert res.params["P_sat"] == pytest.approx(0.54, rel=1e-4)
        assert res.params["beta"] == pytest.approx(120.0, rel=1e-3)

    def test_intensity_scaling_covariance(self):
        powers = np.linspace(0.05, 3.0, 12)
        base = saturation_model(powers, 1500.0, 0.54, 120.0)
        res1 = fit_saturation(np.column_stack([powers, base]))
        res2 = fit_saturation(np.column_stack([powers, 10.0 * base]))
        # Scaling intensities scales A and beta but leaves P_sat fixed.
        assert res2.params["A"] == pytest.approx(10 * res1.params["A"], rel=1e-3)
        assert res2.params["beta"] == pytest.approx(10 * res1.params["beta"], rel=1e-2)
        assert res2.params["P_sat"] == pytest.approx(res1.params["P_sat"], rel=1e-3)

    def test_noisy_recovery(self):
        rng = np.random.default_rng(90)
        powers = np.linspace(0.05, 3.0, 12)
        truth = saturation_model(powers, 1500.0, 0.54, 120.0)
        data = np.column_stack([powers, truth * rng.normal(1.0, 0.05, powers.size)])
        res = fit_saturation(data)
        assert res.params["P_sat"] == pytest.approx(0.54, rel=0.3)

    def test_non_identifiable_flag(self):
        # All powers far below saturation: the curve is effectively linear.
        powers = np.linspace(0.001, 0.01, 12)
        data = np.column_stack([powers, saturation_model(powers, 1500.0, 50.0, 0.0)])
        res = fit_saturation(data)
        assert "non-identifiable" in res.flags or res.params["P_sat"] > 0.03

    def test_input_validation(self):
        with pytest.raises(InvalidParameter):
            fit_saturation([[1.0, 2.0], [1.0, 2.1], [1.0, 2.2], [1.0, 2.3]])
        with pytest.raises(InvalidParameter):
            fit_saturation(np.ones((3, 3)))


class TestFitResult:
    def test_to_dict_round_trip(self, tmp_path):
        """The fit report holds every FitResult field."""
        x = np.linspace(0, 5, 20)
        res = least_squares_engine(lambda t, a: a * t, x, 2.0 * x, [1.0],
                                   param_names=["a"])
        write_fit_report(tmp_path / "fit.json", res)
        d = json.loads((tmp_path / "fit.json").read_text())
        assert d["params"]["a"] == pytest.approx(2.0)
        assert d["converged"] is True
        assert set(d) == {"params", "sigmas", "residual_norm", "converged",
                          "iterations", "flags"}
