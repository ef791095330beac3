import math

import pytest
from scipy.stats import lognorm

from centilebench.numerics import RngStream, std_normal_quantile
from centilebench.screening import (
    ScreeningConfig,
    ShiftMode,
    absolute_shift_report,
    required_difference,
    sensitivity_closed_form,
)

from conftest import monte_carlo_screen, true_log_mean

ONSET = ShiftMode.ONSET_AT_SCREEN
CONSTANT = ShiftMode.CONSTANT_SHIFT


def cfg(d, mode, x=0.9, sigma=0.1, rho=0.6):
    return ScreeningConfig(d=d, sigma=sigma, rho=rho, specificity=x, mode=mode)


# sigma and rho outside the model's domain, each with the message it must raise.
BAD_SCALE = [
    (-0.1, 0.6, ONSET, "sigma must be positive"),
    (math.nan, 0.6, CONSTANT, "sigma must be positive"),
    (0.1, -1.0, CONSTANT, r"rho must lie strictly in \(-1, 1\)"),
    (0.1, 1.0, ONSET, r"rho must lie strictly in \(-1, 1\)"),
    (0.1, 1.0, CONSTANT, r"rho must lie strictly in \(-1, 1\)"),
    (0.1, 1.5, ONSET, r"rho must lie strictly in \(-1, 1\)"),
]


class TestClosedForm:
    @pytest.mark.parametrize("mode", [ONSET, CONSTANT])
    @pytest.mark.parametrize("x", [0.5, 0.8, 0.9, 0.97])
    def test_no_separation_gives_one_minus_specificity(self, mode, x):
        assert sensitivity_closed_form(cfg(0.0, mode, x=x)) == pytest.approx(
            1.0 - x, abs=1e-12
        )

    def test_onset_headline(self):
        # d derived as exp(2 * z_{0.9} * sigma * sqrt(1-rho^2)) - 1
        d = math.expm1(2.0 * std_normal_quantile(0.9) * 0.1 * 0.8)
        assert d == pytest.approx(0.2276, abs=1e-3)
        assert sensitivity_closed_form(cfg(d, ONSET)) == pytest.approx(0.90, abs=1e-3)

    def test_constant_headline(self):
        d = math.expm1(2.0 * std_normal_quantile(0.9) * 0.1 * math.sqrt(1.6 / 0.4))
        assert d == pytest.approx(0.6696, abs=2e-3)
        assert sensitivity_closed_form(cfg(d, CONSTANT)) == pytest.approx(0.90, abs=1e-3)

    def test_increasing_in_d(self):
        for mode in (ONSET, CONSTANT):
            vals = [sensitivity_closed_form(cfg(d, mode)) for d in (0.0, 0.1, 0.2, 0.4)]
            assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_decreasing_in_specificity(self):
        for mode in (ONSET, CONSTANT):
            vals = [
                sensitivity_closed_form(cfg(0.2, mode, x=x)) for x in (0.5, 0.7, 0.9, 0.97)
            ]
            assert all(b < a for a, b in zip(vals, vals[1:]))

    def test_rho_direction_differs_by_mode(self):
        rhos = (0.0, 0.2, 0.4, 0.6, 0.8)
        onset_vals = [sensitivity_closed_form(cfg(0.2, ONSET, rho=r)) for r in rhos]
        const_vals = [sensitivity_closed_form(cfg(0.2, CONSTANT, rho=r)) for r in rhos]
        assert all(b > a for a, b in zip(onset_vals, onset_vals[1:]))
        assert all(b < a for a, b in zip(const_vals, const_vals[1:]))

    def test_marginal_beats_conditional_for_constant_shift(self):
        # with a constant shift, screening on marginal centiles (rho plays no
        # role: scale k = sigma) dominates the conditional screen at every x
        for x in (0.5, 0.75, 0.9, 0.97):
            conditional = sensitivity_closed_form(cfg(0.2, CONSTANT, x=x, rho=0.6))
            marginal = sensitivity_closed_form(cfg(0.2, CONSTANT, x=x, rho=0.0))
            assert marginal > conditional

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ScreeningConfig(d=-0.1, sigma=0.1, rho=0.6, specificity=0.9, mode=ONSET)
        with pytest.raises(ValueError):
            ScreeningConfig(d=0.1, sigma=0.1, rho=0.6, specificity=1.0, mode=ONSET)

    def test_nan_difference_rejected(self):
        with pytest.raises(ValueError, match="d must be >= 0"):
            ScreeningConfig(d=math.nan, sigma=0.1, rho=0.6, specificity=0.9, mode=ONSET)

    def test_infinite_difference_rejected(self):
        # It used to construct and fail later with a message naming only z.
        with pytest.raises(ValueError, match="difference d must be >= 0 and finite, got inf"):
            ScreeningConfig(d=math.inf, sigma=0.1, rho=0.6, specificity=0.9, mode=ONSET)

    def test_mode_value_rejected(self):
        # The mode's string value used to be read as the constant shift:
        # sensitivity 0.399 where the onset scenario gives 0.90.
        sens = sensitivity_closed_form(cfg(0.2276, ONSET))
        assert sens == pytest.approx(0.90, abs=1e-3)
        with pytest.raises(ValueError, match="mode must be a ShiftMode, got 'OnsetAtScreen'"):
            sensitivity_closed_form(cfg(0.2276, ONSET.value))

    @pytest.mark.parametrize("sigma, rho, mode, message", BAD_SCALE)
    def test_rejects_bad_scale(self, sigma, rho, mode, message):
        with pytest.raises(ValueError, match=message):
            sensitivity_closed_form(cfg(0.2, mode, sigma=sigma, rho=rho))


class TestRequiredDifference:
    def test_onset_23_percent(self):
        d = required_difference(0.9, 0.9, 0.1, 0.6, ONSET)
        assert d == pytest.approx(0.2276, abs=1e-3)

    def test_constant_67_percent(self):
        d = required_difference(0.9, 0.9, 0.1, 0.6, CONSTANT)
        assert d == pytest.approx(0.6696, abs=2e-3)

    def test_chance_level_needs_no_difference(self):
        for mode in (ONSET, CONSTANT):
            assert required_difference(0.5, 0.5, 0.23, 0.4, mode) == pytest.approx(
                0.0, abs=1e-14
            )

    @pytest.mark.parametrize("mode", [ONSET, CONSTANT])
    @pytest.mark.parametrize("d", [0.05, 0.2276, 0.6])
    def test_round_trip_identity(self, mode, d):
        # d values keep the sensitivity strictly inside (0, 1), where the
        # inversion is defined
        x = 0.85
        sens = sensitivity_closed_form(cfg(d, mode, x=x))
        back = required_difference(sens, x, 0.1, 0.6, mode)
        assert back == pytest.approx(d, abs=1e-10)

    def test_target_domain(self):
        with pytest.raises(ValueError):
            required_difference(1.0, 0.9, 0.1, 0.6, ONSET)

    @pytest.mark.parametrize("mode", [ONSET.value, CONSTANT.value, None])
    def test_mode_value_rejected(self, mode):
        # "OnsetAtScreen" used to return the constant-shift 0.6697, not 0.2276.
        with pytest.raises(ValueError, match=f"mode must be a ShiftMode, got {mode!r}"):
            required_difference(0.9, 0.9, 0.1, 0.6, mode)

    @pytest.mark.parametrize("sigma, rho, mode, message", BAD_SCALE)
    def test_rejects_bad_scale(self, sigma, rho, mode, message):
        with pytest.raises(ValueError, match=message):
            required_difference(0.9, 0.9, sigma, rho, mode)


class TestAbsoluteShift:
    def test_headline_values(self, model):
        d = required_difference(0.9, 0.9, 0.1, 0.6, ONSET)
        abs_diff, sd_units = absolute_shift_report(model, 26.0, d)
        assert abs_diff == pytest.approx(15.6, abs=0.1)
        assert sd_units == pytest.approx(2.3, abs=0.05)

    def test_zero_difference(self, model):
        assert absolute_shift_report(model, 26.0, 0.0) == (0.0, 0.0)

    def test_lognormal_moments_against_scipy(self, model):
        # independent oracle for the mean/SD at week 26
        dist = lognorm(s=0.1, scale=math.exp(float(true_log_mean(26.0))))
        d = 0.2
        abs_diff, sd_units = absolute_shift_report(model, 26.0, d)
        assert abs_diff == pytest.approx(d * dist.mean(), rel=1e-12)
        assert sd_units == pytest.approx(d * dist.mean() / dist.std(), rel=1e-12)

    def test_window_enforced(self, model):
        with pytest.raises(ValueError):
            absolute_shift_report(model, 40.0, 0.2)

    def test_nan_difference_rejected(self, model):
        with pytest.raises(ValueError, match="d must be >= 0"):
            absolute_shift_report(model, 26.0, math.nan)

    def test_infinite_difference_rejected(self, model):
        # It used to return (inf, inf).
        with pytest.raises(ValueError, match="d must be >= 0 and finite, got inf"):
            absolute_shift_report(model, 26.0, math.inf)


class TestMonteCarlo:
    def test_matches_closed_form_single_screen(self, model):
        d = required_difference(0.9, 0.9, model.sigma, model.rho, ONSET)
        result = monte_carlo_screen(
            model, d, ONSET, [3], 0.9, 20_000, RngStream(606).child(0)
        )
        assert abs(result.sensitivity - 0.9) <= result.ci_halfwidth + 0.01
        assert abs(result.specificity - 0.9) <= result.ci_halfwidth + 0.01

    def test_constant_shift_matches_closed_form(self, model):
        d = 0.35
        expected = sensitivity_closed_form(
            ScreeningConfig(d=d, sigma=model.sigma, rho=model.rho,
                            specificity=0.8, mode=CONSTANT)
        )
        result = monte_carlo_screen(
            model, d, CONSTANT, [4], 0.8, 20_000, RngStream(607).child(0)
        )
        assert abs(result.sensitivity - expected) <= result.ci_halfwidth + 0.01

    def test_repeated_screens_lower_specificity(self, model):
        result = monte_carlo_screen(
            model, 0.0, ONSET, [2, 3, 4], 0.9, 20_000, RngStream(608).child(0)
        )
        # ranks at distinct visits are independent, so specificity ~ 0.9^3
        assert result.specificity < 0.9 - result.ci_halfwidth
        assert result.specificity == pytest.approx(0.9**3, abs=0.01)

    def test_more_screens_do_not_lose_sensitivity(self, model):
        one = monte_carlo_screen(
            model, 0.3, CONSTANT, [3], 0.9, 20_000, RngStream(609).child(0)
        )
        two = monte_carlo_screen(
            model, 0.3, CONSTANT, [3, 5], 0.9, 20_000, RngStream(609).child(0)
        )
        assert two.sensitivity >= one.sensitivity - one.ci_halfwidth

    def test_deterministic(self, model):
        stream = RngStream(610).child(1)
        a = monte_carlo_screen(model, 0.1, ONSET, [3], 0.9, 2000, stream)
        b = monte_carlo_screen(model, 0.1, ONSET, [3], 0.9, 2000, stream)
        assert a == b
