"""Integrator behavior, incidence observables, cumulative breakdowns, peaks."""

import bisect
import math
import sys
import warnings
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from conftest import audit_seedings, draw_params, field_double, scale_to_rc
from fehlberg_reference import reference_field, run_fehlberg_reference
from hypothesis import given, settings, strategies as st
from scipy.integrate import solve_ivp

from seiar import (
    COMPARTMENTS,
    IntegratorConfig,
    IntegrationError,
    cumulative_by_class,
    daily_incidence,
    disease_free_equilibrium,
    integrate,
    peak,
    population_balance,
    simulate,
)
from seiar.model import extended_field
from seiar.presets import VARIANT_614G, VARIANTS
from seiar.simulate import (
    _FEHLBERG_A,
    _FEHLBERG_B4,
    _FEHLBERG_B5,
    _HERMITE,
    NEGATIVITY_BAND,
    _check_state,
)


def seeded_state(params, e1=100.0):
    y0 = np.zeros(7)
    y0[0] = params.S0 - e1
    y0[1] = e1
    return y0


def fast_614g():
    """614G with every rate times 40: the same epidemic 40 times faster, so
    the tolerance rather than the one-day output grid limits the step."""
    rates = ("Lambda", "mu", "beta", "sigma", "epsilon", "alpha",
             "gamma1", "gamma2", "gamma3", "phi1", "phi2")
    return VARIANT_614G.with_updates(
        **{name: 40.0 * getattr(VARIANT_614G, name) for name in rates})


def dop853_reference(params, y0, times):
    """Extended state at ``times`` from scipy's DOP853 at rtol 1e-13."""
    f = extended_field(params)
    return solve_ivp(lambda t, y: f(y), (times[0], times[-1]),
                     np.concatenate([y0, np.zeros(3)]), method="DOP853",
                     rtol=1e-13, atol=1e-6, t_eval=times).y.T


def wrapped_field(wrap, field=extended_field):
    """A stand-in for ``extended_field`` whose f(y) is ``wrap(f, y)``, with f
    ``field``'s field, the model's by default, at every state a run
    evaluates (see ``conftest.field_double``)."""
    def make(params):
        f = field(params)
        return field_double(lambda y: wrap(f, y))
    return make


def overflowing_r(f, y):
    # member 1's R rises by 5e306 a day and its own derivative does not read
    # it, so the field stays finite while R overflows to +inf after about 36
    # days; that step passes the error test, since an infinite scale divides
    # R's error to 0
    y = y.copy()
    y[6, 1] = 0.0
    out = f(y)
    out[6, 1] += 5e306
    return out


def draining_cum_a(f, y):
    # the counter of inflows into A falls at 1000 a day, soon far below the
    # band the compartments are held to
    out = f(y)
    out[9] = -1e3
    return out


def _exact_dot(u, v):
    return sum((a * b for a, b in zip(u, v)), Fraction(0))


def _exact_times(u, v):
    return [a * b for a, b in zip(u, v)]


def _exact_apply_a(v):
    return [_exact_dot(row, v) for row in _FEHLBERG_A]


class TestFehlbergTableau:
    def test_rows_sum_to_stage_times(self):
        c = [Fraction(0), Fraction(1, 4), Fraction(3, 8), Fraction(12, 13),
             Fraction(1), Fraction(1, 2)]
        assert [sum(row, Fraction(0)) for row in _FEHLBERG_A] == c

    @pytest.mark.parametrize("weights, order", [(_FEHLBERG_B4, 4),
                                                (_FEHLBERG_B5, 5)],
                             ids=["B4", "B5"])
    def test_weights_meet_order_conditions(self, weights, order):
        c = [sum(row, Fraction(0)) for row in _FEHLBERG_A]
        c2, c3 = _exact_times(c, c), _exact_times(c, _exact_times(c, c))
        ac = _exact_apply_a(c)
        aac = _exact_apply_a(ac)
        # one condition per rooted tree: b . Phi(t) = 1 / t!
        trees = {
            1: [([Fraction(1)] * 6, 1)],
            2: [(c, 2)],
            3: [(c2, 3), (ac, 6)],
            4: [(c3, 4), (_exact_times(c, ac), 8), (_exact_apply_a(c2), 12),
                (aac, 24)],
            5: [(_exact_times(c2, c2), 5), (_exact_times(c2, ac), 10),
                (_exact_times(c, _exact_apply_a(c2)), 15),
                (_exact_times(c, aac), 30), (_exact_times(ac, ac), 20),
                (_exact_apply_a(c3), 20),
                (_exact_apply_a(_exact_times(c, ac)), 40),
                (_exact_apply_a(_exact_apply_a(c2)), 60),
                (_exact_apply_a(aac), 120)],
        }
        for q in range(1, order + 1):
            for phi, density in trees[q]:
                assert _exact_dot(weights, phi) == Fraction(1, density)


class TestHermiteWeights:
    @staticmethod
    def derivative(coeffs, at, order):
        """``order``-th derivative at ``at`` of sum(c_p * theta**p), exactly."""
        return sum((Fraction(math.factorial(q), math.factorial(q - order)) * c
                    * Fraction(at) ** (q - order)
                    for q, c in enumerate(coeffs) if q >= order), Fraction(0))

    @pytest.mark.parametrize("degree", range(6))
    def test_reproduce_polynomials_up_to_degree_5(self, degree):
        # the interpolant's counterpart of the order conditions: from the
        # end data p, p', p'' at 0 and 1 of theta**degree, the weighted sum
        # of the basis rows is theta**degree itself, exactly
        monomial = [Fraction(int(q == degree)) for q in range(6)]
        data = [self.derivative(monomial, at, order) for at in (0, 1) for order in range(3)]
        rebuilt = [sum((d * Fraction(row[q]) for d, row in zip(data, _HERMITE)), Fraction(0))
                   for q in range(6)]
        assert rebuilt == monomial


class TestIntegratorConfig:
    def test_rejects_unknown_method(self):
        with pytest.raises(ValueError, match="method"):
            IntegratorConfig(method="euler")

    def test_rejects_empty_window(self):
        with pytest.raises(ValueError, match="t_end"):
            IntegratorConfig(t0=5.0, t_end=5.0)

    def test_rejects_bad_tolerances(self):
        with pytest.raises(ValueError):
            IntegratorConfig(rtol=-1.0)
        with pytest.raises(ValueError):
            IntegratorConfig(atol=0.0)


class TestIntegrate:
    def test_dfe_stays_exactly_put(self):
        # at 3 and 10 samples a day the interpolation weights do not sum to
        # exactly 1; the increment form keeps the samples put all the same
        for p in VARIANTS.values():
            dfe = disease_free_equilibrium(p)
            for method in ("adaptive", "rk4"):
                for per_day in (2, 3, 10):
                    cfg = IntegratorConfig(t0=0.0, t_end=30.0, method=method, step=0.1,
                                           sample_per_day=per_day)
                    traj = integrate(p, dfe, cfg)
                    assert np.all(traj.states == dfe)
                    assert np.all(traj.cumulative_inflows == 0.0)

    def test_rejects_negative_initial(self):
        y0 = seeded_state(VARIANT_614G)
        y0[3] = -1.0
        with pytest.raises(ValueError, match="nonnegative"):
            integrate(VARIANT_614G, y0, IntegratorConfig(t_end=10.0))

    def test_starts_from_an_undershoot_inside_the_band(self):
        # a stored state may undershoot by up to NEGATIVITY_BAND * N(0)
        y0 = seeded_state(VARIANT_614G)
        y0[3] = -0.5 * NEGATIVITY_BAND * y0.sum()
        traj = integrate(VARIANT_614G, y0, IntegratorConfig(t_end=10.0))
        assert traj.states[0, 3] == y0[3]
        assert np.all(traj.states[-1] >= 0.0)

    def test_fixed_step_fourth_order_convergence(self):
        p = VARIANT_614G
        y0 = seeded_state(p)
        ends = {}
        for h in (0.5, 0.25, 0.125):
            cfg = IntegratorConfig(t0=0.0, t_end=80.0, method="rk4", step=h,
                                   sample_per_day=1)
            ends[h] = integrate(p, y0, cfg).states[-1]
        coarse = np.max(np.abs(ends[0.5] - ends[0.25]))
        fine = np.max(np.abs(ends[0.25] - ends[0.125]))
        assert 12.0 <= coarse / fine <= 20.0
        # halving the step barely moves the endpoint
        assert coarse / np.max(np.abs(ends[0.25])) < 1e-6

    def test_population_stays_bounded(self):
        p = VARIANT_614G
        y0 = seeded_state(p)
        traj = integrate(p, y0, IntegratorConfig(t_end=200.0, sample_per_day=1))
        n0 = float(y0.sum())
        assert np.all(traj.totals <= max(n0, p.S0) + 1e-6 * n0)
        assert np.min(traj.states) >= -1e-9 * n0

    def test_population_change_matches_balance_quadrature(self):
        p = VARIANT_614G
        y0 = seeded_state(p)
        traj = integrate(p, y0, IntegratorConfig(t_end=100.0, sample_per_day=20))
        balance = np.array([population_balance(s, p) for s in traj.states])
        quadrature = float(np.trapezoid(balance, traj.times))
        n0 = float(y0.sum())
        assert abs((traj.totals[-1] - traj.totals[0]) - quadrature) <= 1e-6 * n0

    @settings(derandomize=True, database=None, deadline=None, max_examples=50)
    @given(st.integers(0, 2**32 - 1))
    def test_random_draws_stay_nonnegative_and_balance_the_population(self, seed):
        # the two properties above, on the parameter draws of the property
        # tests; 10 samples a day hold the quadrature error under 1e-7 of N(0)
        p = draw_params(np.random.default_rng(seed))
        y0 = seeded_state(p, e1=1e-5 * p.S0)
        traj = integrate(p, y0, IntegratorConfig(t_end=60.0, sample_per_day=10))
        n0 = float(y0.sum())
        assert np.min(traj.states) >= -1e-9 * n0
        balance = np.array([population_balance(s, p) for s in traj.states])
        quadrature = float(np.trapezoid(balance, traj.times))
        assert abs((traj.totals[-1] - traj.totals[0]) - quadrature) <= 1e-6 * n0

    def test_cumulative_counters_never_decrease(self):
        p = VARIANT_614G
        traj = integrate(p, seeded_state(p),
                         IntegratorConfig(t_end=150.0, sample_per_day=4))
        assert np.all(np.diff(traj.cumulative_inflows, axis=0) >= 0.0)

    def test_step_budget_exhaustion_reports_time(self, monkeypatch):
        p = VARIANT_614G
        monkeypatch.setattr(simulate, "MAX_STEPS", 50)
        with pytest.raises(IntegrationError) as excinfo:
            integrate(p, seeded_state(p),
                      IntegratorConfig(t_end=200.0, sample_per_day=1))
        assert 0.0 < excinfo.value.t < 200.0

    def test_window_beyond_step_budget_fails_before_stepping(self, monkeypatch):
        def unevaluable_field(params):
            return field_double(lambda y: pytest.fail("the field was evaluated"))

        monkeypatch.setattr("seiar.simulate.extended_field", unevaluable_field)
        monkeypatch.setattr(simulate, "MAX_STEPS", 5000)
        p = VARIANT_614G
        with pytest.raises(IntegrationError, match="budget") as excinfo:
            integrate(p, seeded_state(p),
                      IntegratorConfig(t_end=100.0, sample_per_day=100))
        assert excinfo.value.t == 50.0

    @pytest.mark.parametrize("step", [1e-6, 5e-324])
    def test_rk4_steps_beyond_budget_fail_before_stepping(self, step, monkeypatch):
        # RK4's steps are known in advance: 10 days at 1e-6 take 1e7 of them
        def unevaluable_field(params):
            return field_double(lambda y: pytest.fail("the field was evaluated"))

        monkeypatch.setattr("seiar.simulate.extended_field", unevaluable_field)
        p = VARIANT_614G
        with pytest.raises(IntegrationError, match="budget"):
            integrate(p, seeded_state(p), IntegratorConfig(
                t_end=10.0, method="rk4", step=step, sample_per_day=1))

    def test_undershoot_band_aborts(self):
        state = np.ones(10)
        state[4] = -1.0
        with pytest.raises(IntegrationError, match="undershot"):
            _check_state(state, 3.0, band=1e-3)
        # inside the band is tolerated
        state[4] = -1e-4
        _check_state(state, 3.0, band=1e-3)

    def test_non_finite_state_aborts(self):
        state = np.ones(10)
        state[2] = float("nan")
        with pytest.raises(IntegrationError, match="non-finite"):
            _check_state(state, 1.0, band=1.0)

    def test_trajectory_is_immutable(self):
        p = VARIANT_614G
        traj = integrate(p, seeded_state(p), IntegratorConfig(t_end=5.0))
        with pytest.raises(ValueError):
            traj.states[0, 0] = 0.0

    def test_times_strictly_increasing_and_cover_days(self):
        p = VARIANT_614G
        # (t0, t_end, samples/day, whole days): nonzero t0, fractional spans
        for t0, t_end, per_day, days in ((0.0, 7.0, 3, 7), (17.25, 137.75, 3, 120),
                                         (0.0, 9.125, 1, 9), (0.0, 365.5, 10, 365)):
            traj = integrate(p, seeded_state(p), IntegratorConfig(
                t0=t0, t_end=t_end, sample_per_day=per_day))
            assert np.all(np.diff(traj.times) > 0.0)
            idx = traj.day_boundary_indices()
            assert len(idx) == days + 1
            np.testing.assert_allclose(traj.times[idx], t0 + np.arange(days + 1),
                                       rtol=0.0, atol=1e-9)

    def test_adaptive_error_falls_with_tolerance(self):
        p = fast_614g()
        y0 = seeded_state(p)
        n0 = float(y0.sum())
        cfg = IntegratorConfig(t_end=365.0 / 40.0, sample_per_day=1)
        ref = dop853_reference(p, y0, integrate(p, y0, cfg).times)
        errors = []
        for tol in (1e-8, 1e-9, 1e-10, 1e-11):
            traj = integrate(p, y0, IntegratorConfig(
                t_end=cfg.t_end, sample_per_day=1, rtol=tol, atol=1e-2 * tol * n0))
            solution = np.hstack([traj.states, traj.cumulative_inflows])
            errors.append(float(np.max(np.abs(solution - ref))) / n0)
        assert all(tighter < looser / 4.0 for looser, tighter in zip(errors, errors[1:]))
        assert errors[-1] < errors[0] / 300.0

    def test_field_evaluations_on_the_fast_wave(self, monkeypatch):
        # a work gate: a wrong step-controller exponent (-1/4 for the -1/5 of
        # a 4th-order error estimate) still meets every accuracy test, but
        # takes 2898 evaluations here.  Over the 9.125-day wave alone it is
        # the cheaper one (1668 against 1687), so the window runs 30 days
        calls = [0]
        field = simulate.extended_field

        def counted(params):
            f = field(params)

            def g(y):
                calls[0] += 1
                return f(y)
            return field_double(g)

        monkeypatch.setattr(simulate, "extended_field", counted)
        p = fast_614g()
        integrate(p, seeded_state(p), IntegratorConfig(t_end=30.0, sample_per_day=1))
        assert abs(calls[0] - 2775) <= 0.02 * 2775

    @pytest.mark.parametrize("atol_rel", [1e-5, 1e-4])
    def test_undershooting_step_is_retried_shorter(self, atol_rel):
        # an atol above the smallest compartments lets the error test pass a
        # step that drives one of them below the band; the step is rejected
        # and retried rather than aborting the run
        p = fast_614g()
        y0 = seeded_state(p)
        n0 = float(y0.sum())
        traj = integrate(p, y0, IntegratorConfig(
            t_end=365.0 / 40.0, sample_per_day=1, rtol=1e-4, atol=atol_rel * n0))
        ref = dop853_reference(p, y0, traj.times)
        solution = np.hstack([traj.states, traj.cumulative_inflows])
        assert np.max(np.abs(solution - ref)) < 1e-3 * n0

    def test_member_overflowing_to_inf_fails_as_non_finite(self, monkeypatch):
        self.assert_overflow_fails_as_non_finite("adaptive", monkeypatch)

    def test_rk4_member_overflowing_to_inf_fails_as_non_finite(self, monkeypatch):
        self.assert_overflow_fails_as_non_finite("rk4", monkeypatch)

    @staticmethod
    def assert_overflow_fails_as_non_finite(method, monkeypatch):
        # the overflow reaches the caller as this error, not as a numpy
        # RuntimeWarning on the way there
        monkeypatch.setattr(simulate, "extended_field", wrapped_field(overflowing_r))
        p = VARIANT_614G
        with pytest.raises(IntegrationError) as info, warnings.catch_warnings():
            warnings.simplefilter("error")
            integrate(p, [seeded_state(p), seeded_state(p)],
                      IntegratorConfig(t_end=60.0, method=method, sample_per_day=1))
        assert info.value.args[0] == "state became non-finite"
        assert info.value.member == 1
        assert 30.0 < info.value.t < 40.0

    def test_counter_below_the_band_is_not_rejected(self, monkeypatch):
        # only compartments are held to the band; a counter is integrated as
        # it comes, here exactly, since its derivative is constant
        monkeypatch.setattr(simulate, "extended_field", wrapped_field(draining_cum_a))
        p = VARIANT_614G
        y0 = seeded_state(p)
        traj = integrate(p, y0, IntegratorConfig(t_end=10.0, sample_per_day=1))
        assert traj.cum_A[-1] < -NEGATIVITY_BAND * y0.sum()
        np.testing.assert_allclose(traj.cum_A, -1e3 * traj.times, rtol=1e-12)
        assert np.all(traj.states >= 0.0)


class TestIntegrateEnsemble:
    @pytest.mark.parametrize("method", ["adaptive", "rk4"])
    def test_ensemble_of_one_equals_integrate(self, method):
        p = VARIANT_614G
        cfg = IntegratorConfig(t_end=120.0, method=method, step=0.1, sample_per_day=3)
        solo = integrate(p, seeded_state(p), cfg)
        ensemble = integrate(p, [seeded_state(p)], cfg)
        assert np.array_equal(ensemble.times, solo.times)
        assert np.array_equal(ensemble.states[..., 0], solo.states)
        assert np.array_equal(ensemble.cumulative_inflows[..., 0], solo.cumulative_inflows)

    def test_audit_members_match_solo_runs(self):
        p = VARIANTS["Omicron"].with_updates(rho=0.8)
        initials = audit_seedings(p)
        cfg = IntegratorConfig(t_end=2000.0, rtol=1e-10, sample_per_day=1)
        runs = integrate(p, initials, cfg)
        assert runs.states.shape[2] == len(initials)
        incidence = daily_incidence(runs)
        breakdown = cumulative_by_class(runs)
        for i, y0 in enumerate(initials):
            solo = integrate(p, y0, cfg)
            n0 = float(y0.sum())
            assert np.max(np.abs(runs.states[..., i] - solo.states)) <= 1e-9 * n0
            assert np.max(np.abs(runs.cumulative_inflows[..., i]
                                 - solo.cumulative_inflows)) <= 1e-9 * n0
            assert_member_observables(incidence, breakdown, i, solo, n0)

    def test_worst_member_sets_the_shared_step(self):
        # the idle member alone would stride a whole output interval per step
        p = fast_614g()
        cfg = IntegratorConfig(t_end=365.0 / 40.0, sample_per_day=1)
        dfe = disease_free_equilibrium(p)
        solo = integrate(p, seeded_state(p), cfg)
        runs = integrate(p, [dfe, seeded_state(p)], cfg)
        assert np.all(runs.states[..., 0] == dfe)
        n0 = float(seeded_state(p).sum())
        assert np.max(np.abs(runs.states[..., 1] - solo.states)) <= 1e-9 * n0

    def test_one_undershooting_member_fails_the_call(self):
        # RK4 at a one-day step is unstable for a decay rate of 5/day; the
        # uninfected member has no A to oscillate and would finish alone
        p = VARIANT_614G.with_updates(gamma3=5.0)
        cfg = IntegratorConfig(t_end=30.0, method="rk4", step=1.0, sample_per_day=1)
        dfe = disease_free_equilibrium(p)
        integrate(p, dfe, cfg)
        with pytest.raises(IntegrationError, match="undershot"):
            integrate(p, [dfe, seeded_state(p)], cfg)

    @pytest.mark.parametrize("method", ["adaptive", "rk4"])
    def test_one_non_finite_member_fails_the_call(self, method):
        p = VARIANT_614G
        broken = seeded_state(p)
        broken[2] = float("nan")
        cfg = IntegratorConfig(t_end=10.0, method=method, sample_per_day=1)
        with pytest.raises(IntegrationError, match="non-finite"):
            integrate(p, [seeded_state(p), broken], cfg)

    @pytest.mark.parametrize("method", ["adaptive", "rk4"])
    def test_member_failure_names_the_member_and_shared_failure_none(self, method,
                                                                     monkeypatch):
        p = VARIANT_614G
        broken = seeded_state(p)
        broken[2] = float("nan")
        initials = [seeded_state(p), seeded_state(p, 10.0), broken]
        cfg = IntegratorConfig(t_end=10.0, method=method, sample_per_day=1)
        with pytest.raises(IntegrationError, match="non-finite") as info:
            integrate(p, initials, cfg)
        assert info.value.member == 2
        monkeypatch.setattr(simulate, "MAX_STEPS", 5)
        with pytest.raises(IntegrationError, match="budget") as info:
            integrate(p, initials[:2], IntegratorConfig(
                t_end=10.0, method=method, sample_per_day=1))
        assert info.value.member is None

    def test_per_member_parameters_match_solo_runs(self):
        p = VARIANT_614G
        members = [p.with_updates(rho=rho) for rho in (0.2, 0.8)]
        cfg = IntegratorConfig(t_end=200.0, sample_per_day=1)
        runs = integrate(members, [seeded_state(p)] * 2, cfg)
        incidence = daily_incidence(runs)
        breakdown = cumulative_by_class(runs)
        n0 = float(seeded_state(p).sum())
        for i, q in enumerate(members):
            solo = integrate(q, seeded_state(p), cfg)
            assert np.max(np.abs(runs.states[..., i] - solo.states)) <= 1e-9 * n0
            assert np.max(np.abs(runs.cumulative_inflows[..., i]
                                 - solo.cumulative_inflows)) <= 1e-9 * n0
            assert_member_observables(incidence, breakdown, i, solo, n0)
        with pytest.raises(ValueError, match=r"2 parameter sets needs \(2, 7\) initial "
                                              r"states, got shape \(3, 7\)"):
            integrate(members, [seeded_state(p)] * 3, cfg)

    @pytest.mark.parametrize("count", [1, 2])
    def test_parameter_sets_against_one_state_name_both_shapes(self, count):
        # one (7,) state is not a sequence of states, even for one set
        p = VARIANT_614G
        with pytest.raises(ValueError) as info:
            integrate([p] * count, seeded_state(p), IntegratorConfig(t_end=1.0))
        assert str(info.value) == (f"a sequence of {count} parameter sets needs "
                                   f"({count}, 7) initial states, got shape (7,)")

    def test_max_steps_counts_shared_steps(self, monkeypatch):
        p = VARIANT_614G
        initials = [seeded_state(p, e1) for e1 in (10.0, 100.0, 1000.0)]
        # 20 fixed steps of 0.5 days, taken once for all three members
        budget = IntegratorConfig(t_end=10.0, method="rk4", step=0.5, sample_per_day=1)
        monkeypatch.setattr(simulate, "MAX_STEPS", 20)
        assert integrate(p, initials, budget).states.shape[2] == 3
        monkeypatch.setattr(simulate, "MAX_STEPS", 19)
        with pytest.raises(IntegrationError, match="budget"):
            integrate(p, initials, budget)

    @pytest.mark.parametrize("kind", ["array", "list"])
    def test_initial_state_i_is_member_i(self, kind):
        # a (7, 7) array is seven states, one per row, never one state per
        # column; the rows differ, so a transposed reading would show
        p = VARIANT_614G
        rows = np.array([seeded_state(p, 10.0 * (i + 1)) for i in range(7)])
        initials = {"array": rows, "list": list(rows)}[kind]
        cfg = IntegratorConfig(t_end=3.0, sample_per_day=1)
        runs = integrate(p, initials, cfg)
        assert runs.states.shape == (4, 7, 7)
        assert runs.cumulative_inflows.shape == (4, 3, 7)
        assert np.array_equal(runs.states[0], rows.T)
        n0 = float(rows[0].sum())
        for i, y0 in enumerate(rows):
            solo = integrate(p, y0, cfg)
            assert np.max(np.abs(runs.states[..., i] - solo.states)) <= 1e-9 * n0

    def test_one_state_of_the_wrong_length_is_refused_as_a_state(self):
        cfg = IntegratorConfig(t_end=3.0, sample_per_day=1)
        with pytest.raises(ValueError, match="7 components"):
            integrate(VARIANT_614G, [1.0] * 6, cfg)

    @pytest.mark.parametrize("initial, shape", [
        (np.ones((3, 6)), r"\(3, 6\)"), (np.ones((7, 1)), r"\(7, 1\)"),
        ([np.ones(7), np.ones(6)], "inhomogeneous shape")], ids=["m-by-6", "7-by-1", "ragged"])
    def test_initials_of_another_shape_are_refused_naming_it(self, initial, shape):
        cfg = IntegratorConfig(t_end=3.0, sample_per_day=1)
        with pytest.raises(ValueError, match=shape):
            integrate(VARIANT_614G, initial, cfg)

    def test_a_state_a_list_and_an_array_integrate_to_the_same_bytes(self):
        p = VARIANT_614G
        rows = np.array([seeded_state(p, e1) for e1 in (10.0, 100.0, 1000.0)])
        cfg = IntegratorConfig(t_end=30.0, sample_per_day=2)
        solo = integrate(p, rows[0], cfg)
        for one in (integrate(p, [rows[0]], cfg), integrate(p, rows[:1], cfg)):
            assert one.states[..., 0].tobytes() == solo.states.tobytes()
            assert one.cumulative_inflows[..., 0].tobytes() == solo.cumulative_inflows.tobytes()
        listed, stacked = integrate(p, list(rows), cfg), integrate(p, rows, cfg)
        assert listed.states.tobytes() == stacked.states.tobytes()
        assert listed.cumulative_inflows.tobytes() == stacked.cumulative_inflows.tobytes()

    def test_members_of_a_square_input_each_equal_their_solo_run_bit_for_bit(self):
        # one parameter set per member and fixed steps make each column its
        # own member's run to the bit, so a (7, 7) input read by columns,
        # whose every member would start on another's state, would show
        p = VARIANT_614G
        members = [p.with_updates(rho=0.1 * (i + 1)) for i in range(7)]
        rows = np.array([seeded_state(p, 10.0 * (i + 1)) for i in range(7)])
        cfg = IntegratorConfig(t_end=20.0, method="rk4", step=0.25, sample_per_day=2)
        runs = integrate(members, rows, cfg)
        for i, (q, y0) in enumerate(zip(members, rows)):
            solo = integrate(q, y0, cfg)
            for ensemble, alone in ((runs.states, solo.states),
                                    (runs.cumulative_inflows, solo.cumulative_inflows)):
                assert ensemble[..., i].tobytes() == alone.tobytes()

    def test_rk4_undershoot_names_the_compartment_and_member(self):
        # the run of test_one_undershooting_member_fails_the_call: A of the
        # seeded member oscillates below the band at the first step
        p = VARIANT_614G.with_updates(gamma3=5.0)
        cfg = IntegratorConfig(t_end=30.0, method="rk4", step=1.0, sample_per_day=1)
        with pytest.raises(IntegrationError) as info:
            integrate(p, [disease_free_equilibrium(p), seeded_state(p)], cfg)
        message = info.value.args[0]
        assert message.startswith("compartment undershot the nonnegativity band: ")
        assert "took A of member 1 to -1.01" in message
        assert info.value.member == 1 and info.value.t == 1.0


def reference_cases():
    """(params, initial states, config, field wrapper, MAX_STEPS, expected
    failure) for :class:`TestFehlbergReference`."""
    p, fast = VARIANT_614G, fast_614g()
    n_fast = float(seeded_state(fast).sum())
    omicron = VARIANTS["Omicron"].with_updates(rho=0.8)
    broken = seeded_state(p)
    broken[2] = float("nan")
    band_setup = {"t_end": 365.0 / 40.0, "sample_per_day": 1, "rtol": 1e-4}
    cases = {
        "614G-60d-daily": (
            p, seeded_state(p), IntegratorConfig(t_end=60.0, sample_per_day=1),
            None, None, None),
        "614G-365d-10-per-day": (
            p, seeded_state(p), IntegratorConfig(t_end=365.0, sample_per_day=10),
            None, None, None),
        "20-audit-seeds-rtol-1e-10": (
            omicron, audit_seedings(omicron),
            IntegratorConfig(t_end=2000.0, rtol=1e-10, sample_per_day=1), None, None, None),
        "4-rho-per-member-sweep": (
            [p.with_updates(rho=rho) for rho in (0.2, 0.4, 0.6, 0.8)], [seeded_state(p)] * 4,
            IntegratorConfig(t_end=365.0, sample_per_day=10), None, None, None),
        "band-rejections-atol-1e-5": (
            fast, seeded_state(fast), IntegratorConfig(atol=1e-5 * n_fast, **band_setup),
            None, None, None),
        "band-rejections-atol-1e-4": (
            fast, seeded_state(fast), IntegratorConfig(atol=1e-4 * n_fast, **band_setup),
            None, None, None),
        "counter-below-the-band": (
            p, seeded_state(p), IntegratorConfig(t_end=10.0, sample_per_day=1),
            draining_cum_a, None, None),
        "nan-member": (
            p, [seeded_state(p), broken], IntegratorConfig(t_end=10.0, sample_per_day=1),
            None, None, "error estimate became non-finite"),
        "member-overflowing-to-inf": (
            p, [seeded_state(p)] * 2, IntegratorConfig(t_end=60.0, sample_per_day=1),
            overflowing_r, None, "state became non-finite"),
        "max-steps-50": (
            p, seeded_state(p), IntegratorConfig(t_end=200.0, sample_per_day=1),
            None, 50, "step budget exhausted"),
    }
    return [pytest.param(*case, id=name) for name, case in cases.items()]


class TestFehlbergReference:
    @pytest.mark.parametrize("params, initial, config, wrap, max_steps, fails",
                             reference_cases())
    def test_stores_the_reference_bytes_or_fails_alike(self, monkeypatch, params, initial,
                                                       config, wrap, max_steps, fails):
        # the step loop against its plain-expression reference: the same
        # stored block to the bit, or the same error at the same t and member.
        # The reference lands a step on every sample, the loop only on whole
        # days, so the reference runs at 1 sample/day and a denser run's
        # whole-day rows are compared with its block
        if max_steps is not None:
            monkeypatch.setattr(simulate, "MAX_STEPS", max_steps)
        y0 = simulate._initial_states(initial).T

        def reference_loop(f, y, out_times, out, rtol, atol, band, per_day):
            run_fehlberg_reference(f, y, out_times, out, rtol, atol, band)

        outcomes = []
        for loop, field, window in (
                (simulate._run_fehlberg, extended_field, config),
                (reference_loop, reference_field, replace(config, sample_per_day=1))):
            monkeypatch.setattr(simulate, "_run_fehlberg", loop)
            monkeypatch.setattr(simulate, "extended_field",
                                field if wrap is None else wrapped_field(wrap, field))
            try:
                outcomes.append(simulate._solve(params, y0, window))
            except IntegrationError as error:
                outcomes.append(error)
        new, reference = outcomes
        if fails is None:
            whole_days = slice(None, None, config.sample_per_day)
            new = new[0][whole_days], new[1][whole_days]
            assert np.array_equal(new[0], reference[0])
            assert np.array_equal(new[1], reference[1])
            assert new[1].tobytes() == reference[1].tobytes()
        else:
            assert reference.args[0] == fails
            assert isinstance(new, IntegrationError)
            assert ((new.args, new.t, new.member)
                    == (reference.args, reference.t, reference.member))


def dense_and_daily(params, initial, config):
    """The run at ``config``'s density and the same run at 1 sample/day."""
    return (integrate(params, initial, config),
            integrate(params, initial, replace(config, sample_per_day=1)))


def dense_cases():
    p = VARIANT_614G
    omicron = VARIANTS["Omicron"].with_updates(rho=0.8)
    runs = {
        "one-run": (p, seeded_state(p)),
        "20-shared-members": (omicron, audit_seedings(omicron)),
        "4-rho-per-member": ([p.with_updates(rho=rho) for rho in (0.2, 0.4, 0.6, 0.8)],
                             [seeded_state(p)] * 4),
    }
    windows = {
        "10-per-day": IntegratorConfig(t_end=60.0, sample_per_day=10),
        "3-per-day-off-grid": IntegratorConfig(t0=0.5, t_end=40.7, sample_per_day=3),
    }
    return [pytest.param(*run, window, id=f"{run_name}-{window_name}")
            for run_name, run in runs.items() for window_name, window in windows.items()]


def chain_field(rate):
    """A field whose every solution is a polynomial of degree 5 in t:
    y_k' = rate * y_(k-1) for the compartments k = 1..5, every other
    component constant."""
    chain = np.zeros((10, 10))
    chain[range(1, 6), range(5)] = rate
    return wrapped_field(lambda f, y: chain @ y)


class TestDenseOutput:
    @pytest.mark.parametrize("params, initial, config", dense_cases())
    def test_whole_day_rows_are_the_daily_runs_rows(self, params, initial, config):
        # steps land on whole days at any density, so the dense run's
        # whole-day rows, its endpoint and its incidence are the daily run's
        dense, daily = dense_and_daily(params, initial, config)
        days, daily_days = dense.day_boundary_indices(), daily.day_boundary_indices()
        assert len(days) == len(daily_days)
        for name in ("times", "states", "cumulative_inflows"):
            rows, daily_rows = getattr(dense, name), getattr(daily, name)
            assert rows[days].tobytes() == daily_rows[daily_days].tobytes()
            assert rows[-1].tobytes() == daily_rows[-1].tobytes()
        assert daily_incidence(dense).tobytes() == daily_incidence(daily).tobytes()

    @pytest.mark.parametrize("name", list(VARIANTS))
    def test_every_row_agrees_with_dop853(self, name):
        # the samples inside a day are as accurate as the whole days they
        # lie between: the interior rows' worst error is at most twice the
        # whole-day rows'
        p = VARIANTS[name]
        y0 = seeded_state(p)
        n0 = float(y0.sum())
        traj = integrate(p, y0, IntegratorConfig(t_end=365.0, sample_per_day=10))
        got = np.concatenate([traj.states, traj.cumulative_inflows], axis=1)
        error = np.max(np.abs(got - dop853_reference(p, y0, traj.times)), axis=1)
        assert np.max(error) <= 1e-7 * n0
        whole_days = traj.day_boundary_indices()
        assert np.max(np.delete(error, whole_days)) <= 2.0 * np.max(error[whole_days])

    @pytest.mark.parametrize("config", [
        IntegratorConfig(t_end=365.0, sample_per_day=10),
        IntegratorConfig(t0=0.5, t_end=40.7, sample_per_day=3),
    ], ids=["614G-10-per-day", "3-per-day-off-grid"])
    def test_interior_rows_are_each_steps_hermite_interpolant(self, config, monkeypatch):
        # every interior row against the quintic Hermite formula evaluated
        # afresh on its step: f and y'' of the step's two ends computed
        # again, theta from the row's time, the basis in its plain (not
        # increment) form.  The loop reuses one weight matrix for the steps
        # that start on a sample with equal sample count and length, and
        # keeps f and y'' in place; this pins both to the formula.  Each
        # step with samples inside is read at the loop's search for them
        steps = []

        def recorded(grid, t_end, lo, hi):
            inside = bisect.bisect_right(grid, t_end, lo, hi)
            step = sys._getframe(1).f_locals
            steps.append((step["t"], step["h"], step["y"].copy(), step["y5"].copy(),
                          range(lo, inside)))
            return inside

        monkeypatch.setattr(simulate, "bisect_right", recorded)
        p = VARIANT_614G
        traj = integrate(p, seeded_state(p), config)
        rows = np.concatenate([traj.states, traj.cumulative_inflows], axis=1)
        f = extended_field(p)
        basis = np.array(_HERMITE, dtype=float)
        expected = {}
        for t, h, y_start, y_end, samples in steps:
            data = []
            for y in (y_start, y_end):
                fy = f(y)
                data += [y, h * fy, h * h * f(y + 1j * fy).imag]
            for i in samples:  # a refused step's samples are filled again
                theta = (traj.times[i] - t) / h
                expected[i] = (theta ** np.arange(6) @ basis.T) @ np.array(data)
        whole_days = set(traj.day_boundary_indices().tolist()) | {len(traj.times) - 1}
        interior = sorted(set(range(len(traj.times))) - whole_days)
        assert sorted(expected) == interior
        got = rows[interior]
        want = np.array([expected[i] for i in interior])
        assert np.max(np.abs(got - want) / np.abs(want)) <= 1e-14

    @pytest.mark.parametrize("rate", [1.0, 3.0])
    def test_polynomial_solutions_are_stored_exactly(self, rate, monkeypatch):
        # the fifth-order solution is exact on a nilpotent linear field and
        # so is the quintic interpolant, whatever the steps, so every stored
        # row, inside a day or on one, is the polynomial to rounding
        monkeypatch.setattr(simulate, "extended_field", chain_field(rate))
        y0 = np.zeros(7)
        y0[0] = 1e6
        traj = integrate(VARIANT_614G, [y0, 2.0 * y0],
                         IntegratorConfig(t_end=20.0, sample_per_day=10))
        t = rate * traj.times
        exact = np.stack([1e6 * t ** k / math.factorial(k) for k in range(6)], axis=1)
        for member, scale in enumerate((1.0, 2.0)):
            np.testing.assert_allclose(traj.states[:, :6, member], scale * exact,
                                       rtol=1e-13, atol=1e-6)

    def test_step_whose_samples_leave_the_band_is_retried_shorter(self, monkeypatch):
        # without epsilon, A stays 0; a field whose y'' for A reads
        # -100 * band (the imaginary part at the complex probe) bends the
        # interpolant below the band inside every long step, never at its end
        p = VARIANT_614G.with_updates(epsilon=0.0)
        y0 = seeded_state(p)
        band = NEGATIVITY_BAND * float(y0.sum())

        def sagging_a(f, y):
            out = f(y)
            if np.iscomplexobj(out):
                out[5] -= 100j * band
            return out

        calls = []

        def counted(field):
            def make(params):
                g = field(params)

                def h(y):
                    calls.append(np.iscomplexobj(y))
                    return g(y)
                return field_double(h)
            return make

        cfg = IntegratorConfig(t_end=30.0, sample_per_day=10)
        real_calls = []
        for field in (extended_field, wrapped_field(sagging_a)):
            calls.clear()
            monkeypatch.setattr(simulate, "extended_field", counted(field))
            traj = integrate(p, y0, cfg)
            real_calls.append(calls.count(False))
        assert real_calls[1] > real_calls[0]  # the rejected steps were retried
        assert np.min(traj.states) >= -band
        assert np.min(traj.states[:, 5]) < -0.5 * band  # the sag was there

    def test_non_finite_interpolated_sample_names_its_member(self, monkeypatch):
        # member 1's y'' is NaN while every state the steps reach is finite
        def nan_curvature(f, y):
            out = f(y)
            if np.iscomplexobj(out):
                out.imag[3, 1] = np.nan
            return out

        monkeypatch.setattr(simulate, "extended_field", wrapped_field(nan_curvature))
        p = VARIANT_614G
        with pytest.raises(IntegrationError, match="state became non-finite") as caught:
            integrate(p, [seeded_state(p)] * 2, IntegratorConfig(t_end=10.0, sample_per_day=10))
        assert caught.value.member == 1
        assert 0.0 < caught.value.t < 1.0
        # at one sample a day nothing is interpolated, and the run completes
        integrate(p, [seeded_state(p)] * 2, IntegratorConfig(t_end=10.0, sample_per_day=1))


def assert_member_observables(incidence, breakdown, i, solo, n0):
    """Member i's daily incidence, peak and endpoint breakdown, read off an
    m-member record, match those of its solo run within 1e-9 * N(0).

    ``incidence`` is the m-member (days, m) array; member i's peak read off
    it equals the peak of its column i exactly."""
    assert np.max(np.abs(incidence[:, i] - daily_incidence(solo))) <= 1e-9 * n0
    days, values = peak(incidence)
    assert (int(days[i]), float(values[i])) == peak(incidence[:, i])
    assert abs(values[i] - peak(daily_incidence(solo))[1]) <= 1e-9 * n0
    alone = cumulative_by_class(solo)
    for name in ("cum_I1", "cum_I2", "cum_A"):
        assert abs(getattr(breakdown, name)[i] - getattr(alone, name)) <= 1e-9 * n0
    np.testing.assert_allclose(breakdown.cum_proportions[:, i], alone.cum_proportions,
                               rtol=1e-9)
    np.testing.assert_allclose(breakdown.prevalence_proportions[:, i],
                               alone.prevalence_proportions, rtol=1e-9)


class TestDailyIncidence:
    def test_zero_infection_run_is_all_zero(self):
        p = VARIANT_614G
        dfe = disease_free_equilibrium(p)
        traj = integrate(p, dfe, IntegratorConfig(t_end=10.0))
        assert np.all(daily_incidence(traj) == 0.0)

    def test_no_detection_means_no_incidence(self):
        p = VARIANT_614G.with_updates(rho=0.0)
        traj = integrate(p, seeded_state(p), IntegratorConfig(t_end=30.0))
        series = daily_incidence(traj)
        assert len(series) == 30
        assert np.all(series == 0.0)

    def test_matches_midpoint_quadrature_of_inflow_rate(self):
        p = VARIANT_614G
        # tolerances that ask for the accuracy asserted: the dense grid
        # does not set the step
        n0 = float(seeded_state(p).sum())
        cfg = IntegratorConfig(t_end=15.0, sample_per_day=1000, rtol=1e-12,
                               atol=1e-14 * n0)
        traj = integrate(p, seeded_state(p), cfg)
        series = daily_incidence(traj)
        rate = p.rho * p.alpha * traj.states[:, 2]
        spd = 1000
        panels = spd // 2
        for day, value in enumerate(series):
            window = rate[day * spd:(day + 1) * spd + 1]
            midpoint = float(np.sum(window[1::2])) / panels
            assert value == pytest.approx(midpoint, rel=1e-6)

    def test_requires_at_least_one_day(self):
        p = VARIANT_614G
        traj = integrate(p, seeded_state(p), IntegratorConfig(t_end=0.5))
        with pytest.raises(ValueError, match="whole day"):
            daily_incidence(traj)

    def test_array_is_read_only(self):
        p = VARIANT_614G
        cfg = IntegratorConfig(t_end=3.0)
        for initial, shape in ((seeded_state(p), (3,)), ([seeded_state(p)] * 2, (3, 2))):
            incidence = daily_incidence(integrate(p, initial, cfg))
            assert incidence.shape == shape
            assert not incidence.flags.writeable


class TestCumulativeByClass:
    def test_zero_infection_run_is_undefined(self):
        p = VARIANT_614G
        dfe = disease_free_equilibrium(p)
        breakdown = cumulative_by_class(integrate(p, dfe, IntegratorConfig(t_end=5.0)))
        assert breakdown.cum_total == 0.0
        assert np.all(np.isnan(breakdown.cum_proportions))
        assert np.all(np.isnan(breakdown.prevalence_proportions))

    def test_proportions_sum_to_one(self):
        p = VARIANT_614G
        breakdown = cumulative_by_class(
            integrate(p, seeded_state(p), IntegratorConfig(t_end=60.0)))
        assert breakdown.cum_proportions.sum() == pytest.approx(1.0, rel=1e-12)
        assert breakdown.prevalence_proportions.sum() == pytest.approx(1.0, rel=1e-12)

    def test_prevalence_shares_are_I1_I2_and_A(self):
        p = VARIANT_614G
        traj = integrate(p, seeded_state(p), IntegratorConfig(t_end=60.0))
        end = traj.states[-1]
        # E2 and A differ, so reading E2, I1, I2 in place of I1, I2, A shows
        assert end[COMPARTMENTS.index("E2")] != pytest.approx(end[COMPARTMENTS.index("A")])
        prevalent = end[[COMPARTMENTS.index(name) for name in ("I1", "I2", "A")]]
        np.testing.assert_allclose(cumulative_by_class(traj).prevalence_proportions,
                                   prevalent / prevalent.sum(), rtol=1e-14)

    def test_subcritical_share_matches_branching_ratio(self):
        # pure pass-through of rates: asymptomatic share -> eps/(eps + sigma*alpha/(alpha+mu))
        p = scale_to_rc(VARIANT_614G, 0.5)
        y0 = np.zeros(7)
        y0[0] = p.S0
        y0[1] = 1e4
        breakdown = cumulative_by_class(
            integrate(p, y0, IntegratorConfig(t_end=400.0, sample_per_day=1)))
        expected = p.epsilon / (p.epsilon + p.sigma * p.alpha / (p.alpha + p.mu))
        assert breakdown.cum_proportions[2] == pytest.approx(expected, rel=0.01)




class TestPeak:
    def test_decreasing_series_peaks_at_day_zero(self):
        assert peak(np.array([9.0, 5.0, 2.0, 1.0])) == (0, 9.0)

    def test_earliest_maximum_wins(self):
        assert peak(np.array([1.0, 5.0, 5.0, 2.0])) == (1, 5.0)

    def test_empty_series_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            peak(np.array([]))

    def test_supercritical_wave_peaks_in_the_interior(self):
        p = VARIANT_614G
        traj = integrate(p, seeded_state(p),
                         IntegratorConfig(t_end=365.0, sample_per_day=1))
        series = daily_incidence(traj)
        day, value = peak(series)
        assert 0 < day < len(series) - 1
        assert value > series[0]
        assert value > series[-1]
