"""Detection-ratio sweeps, decline percentages, forward prediction."""

import numpy as np
import pytest
from conftest import draw_params, field_double
from scipy.integrate import solve_ivp

from seiar import (
    FitConfig,
    control_reproduction_number,
    decline_percentages,
    fit,
    forecast,
    rho_sweep,
    simulate,
    synthesize_data,
)
from seiar.calibrate import ParameterSpec
from seiar.errors import IntegrationError
from seiar.model import extended_field
from seiar.scenarios import RhoSweep
from seiar.presets import VARIANT_614G, VARIANTS
from seiar.simulate import (
    IntegratorConfig,
    daily_incidence,
    integrate,
)


def seeded(params, e1=100.0):
    y0 = np.zeros(7)
    y0[0] = params.S0 - e1
    y0[1] = e1
    return y0


def make_sweep(*members):
    """A sweep record of (rho, total, asymptomatic) members, in order."""
    rho, total, asym = np.array(members, dtype=float).T
    m = len(rho)
    return RhoSweep(rho=rho, r_c=np.ones(m), cum_I1=np.zeros(m),
                    cum_I2=total - asym, cum_A=asym,
                    cum_proportions=np.full((3, m), np.nan),
                    prevalence_proportions=np.full((3, m), np.nan))


def assert_exposed_chain_identity(q, inflows, state):
    """One run's endpoint (inflows, state), started with E2 = 0, obeys the
    identity that integrating E2' = sigma*E1 - (alpha+mu)*E2 gives:
    cum_I1 + cum_I2 + alpha/(alpha+mu)*E2(T) = alpha*sigma/((alpha+mu)*eps) * cum_A."""
    k = q.alpha / (q.alpha + q.mu)
    lhs = inflows[0] + inflows[1] + k * state[2]
    rhs = k * q.sigma / q.epsilon * inflows[2]
    assert lhs == pytest.approx(rhs, rel=1e-12)


class TestRhoSweep:
    def test_rejects_empty_grid(self):
        with pytest.raises(ValueError, match="nonempty"):
            rho_sweep((VARIANT_614G, seeded(VARIANT_614G)), rho_values=())

    def test_rejects_rho_outside_unit_interval(self):
        with pytest.raises(ValueError, match="0, 1"):
            rho_sweep((VARIANT_614G, seeded(VARIANT_614G)), rho_values=(0.2, 1.2))

    def test_integrates_horizon_days_whatever_the_integrator_window(self):
        p = VARIANT_614G
        default = rho_sweep((p, seeded(p)), (0.2, 0.8), 365.0)
        other = rho_sweep((p, seeded(p)), (0.2, 0.8), 365.0,
                          IntegratorConfig(t_end=100.0, sample_per_day=10))
        assert other.cum_total.tolist() == default.cum_total.tolist()

    def test_sub_day_horizon_reads_the_endpoint(self):
        p = VARIANT_614G
        sweep = rho_sweep((p, seeded(p)), (0.2, 0.8), horizon=0.5)
        for i, rho in enumerate(sweep.rho.tolist()):
            traj = integrate(p.with_updates(rho=rho), seeded(p),
                             IntegratorConfig(t_end=0.5, sample_per_day=1))
            assert ([sweep.cum_I1[i], sweep.cum_I2[i], sweep.cum_A[i]]
                    == traj.cumulative_inflows[-1].tolist())
            assert sweep.cum_total[i] > 0.0

    def test_failure_names_scenario_and_time_once(self, monkeypatch):
        p = VARIANT_614G
        monkeypatch.setattr(simulate, "MAX_STEPS", 5)
        with pytest.raises(IntegrationError) as info:
            rho_sweep((p, seeded(p)), (0.2, 0.8), 365.0)
        message = str(info.value)
        assert message.startswith("scenario rho=0.2 failed: step budget exhausted")
        assert message.count("(at t = ") == 1

    def test_failure_names_the_failing_members_rho(self):
        # I2 recovers so fast that a 0.1-day RK4 step is unstable in it;
        # at rho = 1 nothing enters I2, so only the rho = 0.2 member fails
        p = VARIANT_614G.with_updates(gamma2=100.0)
        with pytest.raises(IntegrationError) as info:
            rho_sweep((p, seeded(p)), (1.0, 0.2), 10.0,
                      IntegratorConfig(method="rk4", step=0.1))
        assert str(info.value).startswith("scenario rho=0.2 failed: compartment undershot")
        assert info.value.member == 1

    def test_ensemble_sweep_shares_the_work(self, variant, monkeypatch):
        # field evaluations of the 4-rho sweep as one ensemble, against each
        # member run alone: one call evaluates every member, and the worst
        # member's error sets the shared step
        calls = [0]
        field = simulate.extended_field

        def counted(params):
            f = field(params)

            def g(y):
                calls[0] += 1
                return f(y)
            return field_double(g)

        monkeypatch.setattr("seiar.simulate.extended_field", counted)
        _, p = variant
        rhos = (0.2, 0.4, 0.6, 0.8)

        def evaluations(rho_values):
            calls[0] = 0
            rho_sweep((p, seeded(p)), rho_values, 365.0)
            return calls[0]

        alone = [evaluations((rho,)) for rho in rhos]
        together = evaluations(rhos)
        assert together <= 1.5 * max(alone)
        assert together <= 0.5 * sum(alone)

    def test_sweep_is_one_record_of_member_arrays(self):
        p = VARIANT_614G
        sweep = rho_sweep((p, seeded(p)), (0.8, 0.2, 0.5), horizon=30.0)
        assert sweep.rho.tolist() == [0.8, 0.2, 0.5]
        for name in ("rho", "r_c", "cum_I1", "cum_I2", "cum_A", "cum_total"):
            assert getattr(sweep, name).shape == (3,)
        assert sweep.cum_proportions.shape == sweep.prevalence_proportions.shape == (3, 3)
        assert sweep.r_c.tolist() == [control_reproduction_number(p.with_updates(rho=rho))
                                      for rho in (0.8, 0.2, 0.5)]

    def test_repeated_rho_gives_identical_metrics(self):
        p = VARIANT_614G
        sweep = rho_sweep((p, seeded(p)), rho_values=(0.4, 0.4), horizon=60.0)
        assert sweep.cum_total[0] == sweep.cum_total[1]
        assert sweep.cum_A[0] == sweep.cum_A[1]

    def test_permuting_the_grid_permutes_results(self):
        p = VARIANT_614G
        fwd = rho_sweep((p, seeded(p)), rho_values=(0.2, 0.5, 0.8), horizon=50.0)
        rev = rho_sweep((p, seeded(p)), rho_values=(0.8, 0.5, 0.2), horizon=50.0)
        assert fwd.rho.tolist() == rev.rho[::-1].tolist()
        assert fwd.cum_total.tolist() == rev.cum_total[::-1].tolist()
        assert fwd.cum_A.tolist() == rev.cum_A[::-1].tolist()

    def test_scenario_reproduction_numbers_decrease(self):
        p = VARIANT_614G
        sweep = rho_sweep((p, seeded(p)), horizon=30.0)
        rcs = sweep.r_c.tolist()
        assert all(a > b for a, b in zip(rcs, rcs[1:]))
        assert rcs[0] == pytest.approx(
            control_reproduction_number(p.with_updates(rho=0.2)), rel=1e-15)

    def test_cumulative_totals_strictly_decrease_in_rho(self, variant):
        _, p = variant
        sweep = rho_sweep((p, seeded(p)), horizon=365.0)
        totals = sweep.cum_total.tolist()
        assert all(a > b for a, b in zip(totals, totals[1:]))

    def test_asymptomatic_share_drifts_only_slightly(self, variant):
        # detection reshuffles symptomatic routing but barely moves the
        # asymptomatic share of cumulative infections
        _, p = variant
        sweep = rho_sweep((p, seeded(p)), horizon=365.0)
        shares = sweep.cum_proportions[2]
        assert np.ptp(shares) <= 0.02 * shares[0]

    @pytest.mark.parametrize("rho", [0.2, 0.4, 0.6, 0.8])
    def test_inflows_obey_exposed_chain_identity(self, variant, rho):
        _, p = variant
        q = p.with_updates(rho=rho)
        traj = integrate(q, seeded(q), IntegratorConfig(t_end=365.0,
                                                        sample_per_day=1))
        assert_exposed_chain_identity(q, traj.cumulative_inflows[-1], traj.states[-1])

    def test_inflows_obey_exposed_chain_identity_on_random_draws(self, rng):
        # the identity is linear, so every Runge-Kutta step keeps it to
        # rounding, in each member of a per-member ensemble as in a solo run
        members = [draw_params(rng) for _ in range(20)]
        initials = [seeded(q, e1=1e-5 * q.S0) for q in members]
        runs = integrate(members, initials, IntegratorConfig(t_end=365.0,
                                                             sample_per_day=1))
        for i, q in enumerate(members):
            assert_exposed_chain_identity(q, runs.cumulative_inflows[-1, :, i],
                                          runs.states[-1, :, i])

    def test_declines_match_dop853_reference(self, variant):
        _, p = variant
        y0 = seeded(p)
        sweep = rho_sweep((p, y0), rho_values=(0.2, 0.8), horizon=365.0)
        end = {}
        for rho in (0.2, 0.8):
            f = extended_field(p.with_updates(rho=rho))
            sol = solve_ivp(lambda t, y: f(y), (0.0, 365.0),
                            np.concatenate([y0, np.zeros(3)]),
                            method="DOP853", rtol=1e-13, atol=1e-6)
            end[rho] = sol.y[7:, -1]
        ref_total = 100.0 * (1.0 - end[0.8].sum() / end[0.2].sum())
        ref_asym = 100.0 * (1.0 - end[0.8][2] / end[0.2][2])
        decline = decline_percentages(sweep)
        assert decline.total_pct == pytest.approx(ref_total, abs=1e-6)
        assert decline.asymptomatic_pct == pytest.approx(ref_asym, abs=1e-6)

    def test_totals_decrease_on_random_bases(self, rng):
        from conftest import draw_params_at_rc
        for _ in range(5):
            p = draw_params_at_rc(rng, float(rng.uniform(1.2, 2.5)))
            sweep = rho_sweep((p, seeded(p, e1=1e-5 * p.S0)),
                              rho_values=(0.1, 0.5, 0.9), horizon=200.0)
            totals = sweep.cum_total.tolist()
            assert all(a >= b for a, b in zip(totals, totals[1:]))


class TestDeclinePercentages:
    def test_needs_two_scenarios(self):
        sweep = make_sweep((0.2, 10.0, 5.0))
        with pytest.raises(ValueError, match="two"):
            decline_percentages(sweep)

    def test_constant_metric_is_zero_decline(self):
        sweep = make_sweep((0.2, 10.0, 5.0), (0.8, 10.0, 5.0))
        decline = decline_percentages(sweep)
        assert decline.total_pct == 0.0
        assert decline.asymptomatic_pct == 0.0

    def test_halved_metric_is_fifty_percent(self):
        sweep = make_sweep((0.2, 10.0, 4.0), (0.8, 5.0, 2.0))
        decline = decline_percentages(sweep)
        assert decline.total_pct == 50.0
        assert decline.asymptomatic_pct == 50.0

    def test_zero_baseline_is_undefined(self):
        sweep = make_sweep((0.2, 0.0, 0.0), (0.8, 0.0, 0.0))
        decline = decline_percentages(sweep)
        assert np.isnan(decline.total_pct)
        assert np.isnan(decline.asymptomatic_pct)

    def test_uses_extreme_rhos_not_listing_order(self):
        sweep = make_sweep((0.8, 5.0, 2.0), (0.2, 10.0, 4.0))
        decline = decline_percentages(sweep)
        assert decline.total_pct == 50.0

    def test_repeated_extreme_rho_reads_its_first_member(self):
        sweep = make_sweep((0.2, 10.0, 4.0), (0.8, 5.0, 2.0), (0.2, 20.0, 4.0),
                           (0.8, 10.0, 1.0))
        decline = decline_percentages(sweep)
        assert decline.total_pct == 50.0
        assert decline.asymptomatic_pct == 50.0

    @pytest.mark.parametrize("name", ["614G", "Alpha", "Delta"])
    def test_total_declines_at_least_as_fast_as_asymptomatic(self, name):
        # by the exposed-chain identity (tested above) the two count declines
        # differ only through the E2 still in flight at the horizon: total
        # >= asymptomatic exactly when E2(T)/cum_A is at least as large at
        # rho=0.8 as at rho=0.2. These slower rho=0.8 waves are still under
        # way on day 365 (E2/cum_A ~ 5e-4 to 2e-2 against <= 3e-7); Omicron's
        # rho=0.8 run (R_c ~ 0.74) has died out first, so its order flips by
        # ~1e-5 points and is not asserted here
        p = VARIANTS[name]
        sweep = rho_sweep((p, seeded(p)), horizon=365.0)
        decline = decline_percentages(sweep)
        assert decline.total_pct > 0.0
        assert decline.asymptomatic_pct > 0.0
        assert decline.total_pct >= decline.asymptomatic_pct


class TestForecast:
    @pytest.fixture
    def truth_fit(self):
        p = VARIANT_614G
        initial = {"S": p.S0 - 1000.0, "E1": 1000.0}
        y0 = np.array([p.S0 - 1000.0, 1000.0, 0.0, 0.0, 0.0, 0.0, 0.0])
        data = synthesize_data(p, y0, days=40)
        spec = ParameterSpec(params=p.as_dict(), initial=initial)
        return p, y0, fit(spec, data, FitConfig())

    def test_rejects_zero_horizon(self, truth_fit):
        _, _, result = truth_fit
        with pytest.raises(ValueError, match="horizon"):
            forecast(result, 0)

    @pytest.mark.parametrize("horizon", [0.5, 1.7, 2.999, float("nan"), float("inf")])
    def test_refuses_a_horizon_that_is_not_whole_days(self, truth_fit, horizon):
        _, _, result = truth_fit
        with pytest.raises(ValueError, match="horizon must be a whole number"):
            forecast(result, horizon)

    @pytest.mark.parametrize("flag", [True, np.True_], ids=["True", "np.True_"])
    @pytest.mark.parametrize("name", ["days", "horizon"])
    def test_refuses_a_bool_as_a_count_of_days(self, truth_fit, name, flag):
        # a bool is an int to Python, and True once made a one-day series
        p, y0, result = truth_fit
        with pytest.raises(ValueError, match=f"^{name} must be a whole number"):
            if name == "days":
                synthesize_data(p, y0, days=flag)
            else:
                forecast(result, flag)

    def test_whole_float_horizon_is_whole_days(self, truth_fit):
        _, _, result = truth_fit
        assert np.array_equal(forecast(result, 3.0).incidence, forecast(result, 3).incidence)

    def test_extension_matches_generator(self, truth_fit):
        p, y0, result = truth_fit
        prediction = forecast(result, 80)
        cfg = IntegratorConfig(t0=0.0, t_end=120.0, sample_per_day=1)
        generator = daily_incidence(integrate(p, y0, cfg))[40:120]
        assert prediction.first_day == 40
        np.testing.assert_allclose(prediction.incidence, generator,
                                   rtol=1e-6)

    def test_single_day_horizon(self, truth_fit):
        _, _, result = truth_fit
        prediction = forecast(result, 1)
        assert len(prediction.incidence) == 1
        assert prediction.peak_day == 40
        assert prediction.peak_value == prediction.incidence[0]

    def test_interior_peak_on_long_horizon(self, truth_fit):
        _, _, result = truth_fit
        prediction = forecast(result, 300)
        assert 40 < prediction.peak_day < 339
        assert prediction.peak_value > prediction.incidence[0]
        assert prediction.peak_value > prediction.incidence[-1]
