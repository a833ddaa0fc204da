"""Parameter specs, least-squares search, its objective and Jacobian,
synthetic data."""

from dataclasses import replace

import numpy as np
import pytest
from conftest import ORACLE_LOGNORMAL_MAD_005

from seiar import (
    FitConfig,
    FreeValue,
    ObservedSeries,
    ParameterSpec,
    control_reproduction_number,
    fit,
    synthesize_data,
)
from seiar import calibrate, simulate
from seiar.errors import FitError, IntegrationError
from seiar.model import ModelParameters
from seiar.presets import VARIANT_614G
from seiar.simulate import IntegratorConfig, daily_incidence, integrate


def fixed_spec(params, initial):
    return ParameterSpec(params=params.as_dict(), initial=initial)


def recovery_spec(truth, e1=1000.0):
    entries = truth.as_dict()
    entries["beta"] = FreeValue(lo=truth.beta / 4, hi=truth.beta * 4,
                                guess=truth.beta * 1.6)
    entries["epsilon"] = FreeValue(lo=0.05, hi=1.0, guess=0.25)
    entries["rho"] = FreeValue(lo=0.05, hi=0.95, guess=0.30)
    return ParameterSpec(params=entries,
                         initial={"S": truth.S0 - e1, "E1": e1})


def failing_above(beta_limit):
    """``integrate`` that fails, naming the member, where beta > beta_limit."""
    def run(params, initial, config):
        solo = isinstance(params, ModelParameters)
        for member, p in enumerate([params] if solo else params):
            if p.beta > beta_limit:
                raise IntegrationError("beta beyond the limit", config.t0, member)
        return integrate(params, initial, config)
    return run


def always(truth, points=None):
    """``integrate`` that runs ``truth`` whatever the parameters; the
    (beta, epsilon, rho) of each ensemble call's member 0, the point a fit
    evaluates, go to ``points``."""
    def run(params, initial, config):
        if isinstance(params, ModelParameters):  # a single run, not a fit's
            return integrate(truth, initial, config)
        if points is not None:
            points.append(np.array([params[0].beta, params[0].epsilon, params[0].rho]))
        return integrate([truth] * len(params), initial, config)
    return run


@pytest.fixture
def truth():
    return VARIANT_614G


@pytest.fixture
def seeded_initial(truth):
    return np.array([truth.S0 - 1000.0, 1000.0, 0.0, 0.0, 0.0, 0.0, 0.0])


class TestFreeValue:
    def test_rejects_inverted_bounds(self):
        with pytest.raises(ValueError, match="lo < hi"):
            FreeValue(lo=2.0, hi=1.0, guess=1.5)

    def test_rejects_guess_outside_bounds(self):
        with pytest.raises(ValueError, match="outside"):
            FreeValue(lo=0.0, hi=1.0, guess=2.0)


class TestParameterSpec:
    def test_rejects_unknown_parameter(self, truth):
        entries = truth.as_dict()
        entries["betta"] = 1.0
        with pytest.raises(ValueError, match="unknown parameter"):
            ParameterSpec(params=entries)

    def test_rejects_missing_parameter(self, truth):
        entries = truth.as_dict()
        del entries["gamma2"]
        with pytest.raises(ValueError, match="missing"):
            ParameterSpec(params=entries)

    def test_rejects_negative_initial(self, truth):
        with pytest.raises(ValueError, match="nonnegative"):
            ParameterSpec(params=truth.as_dict(), initial={"E1": -5.0})

    def test_rejects_invalid_fixed_value(self, truth):
        entries = truth.as_dict()
        entries["rho"] = 1.4
        with pytest.raises(ValueError, match="rho"):
            ParameterSpec(params=entries)

    def test_rejects_box_leaving_the_parameter_domain(self, truth):
        # the guess is valid, but the search may visit any point of the box
        entries = truth.as_dict()
        entries["rho"] = FreeValue(lo=0.1, hi=1.5, guess=0.9)
        with pytest.raises(ValueError, match="rho must lie in \\[0, 1\\], got 1.5"):
            ParameterSpec(params=entries)

    def test_rejects_box_whose_seeds_overdraw_the_susceptibles(self, truth):
        # guesses and both ends assemble; (Lambda lo, E1 hi) does not
        entries = truth.as_dict()
        entries["Lambda"] = FreeValue(lo=100.0, hi=2000.0, guess=600.0)
        with pytest.raises(ValueError, match="exceed the susceptible pool"):
            ParameterSpec(params=entries, initial={"E1": FreeValue(0.0, 3e7, 1.5e7)})

    def test_rejects_box_whose_s0_overflows(self, truth):
        # guesses and both ends assemble; (Lambda hi, mu lo) does not
        entries = truth.as_dict()
        entries["Lambda"] = FreeValue(lo=1.0, hi=1e300, guess=10.0)
        entries["mu"] = FreeValue(lo=1e-300, hi=1.0, guess=0.5)
        with pytest.raises(ValueError, match="S0 = Lambda/mu must be finite"):
            ParameterSpec(params=entries)

    def test_free_names_canonical_and_order_independent(self, truth):
        entries_a = truth.as_dict()
        entries_a["rho"] = FreeValue(0.0, 1.0, 0.4)
        entries_a["beta"] = FreeValue(1e-10, 1e-7, 5e-9)
        entries_b = dict(reversed(list(entries_a.items())))
        spec_a = ParameterSpec(params=entries_a, initial={"E1": FreeValue(0, 1e6, 10)})
        spec_b = ParameterSpec(params=entries_b, initial={"E1": FreeValue(0, 1e6, 10)})
        assert spec_a.free_names == ("beta", "rho", "E1(0)")
        assert spec_b.free_names == spec_a.free_names
        for a, b in zip(spec_a.bounds(), spec_b.bounds()):
            assert np.array_equal(a, b)
        values = [truth.beta, truth.rho, 1000.0]
        params_a, y0_a = spec_a.assemble(values)
        params_b, y0_b = spec_b.assemble(values)
        assert params_a == params_b
        assert np.array_equal(y0_a, y0_b)

    def test_susceptible_pool_derived_from_seeds(self, truth):
        spec = ParameterSpec(params=truth.as_dict(),
                             initial={"E1": 300.0, "A": 200.0})
        _, y0 = spec.assemble([])
        assert y0[0] == truth.S0 - 500.0
        assert y0.sum() == pytest.approx(truth.S0, rel=1e-15)

    def test_explicit_susceptible_respected(self, truth):
        spec = ParameterSpec(params=truth.as_dict(),
                             initial={"S": 1234.5, "E1": 10.0})
        _, y0 = spec.assemble([])
        assert y0[0] == 1234.5

    def test_overdrawn_seeds_rejected(self, truth):
        # caught eagerly: construction assembles the guesses once to validate
        with pytest.raises(ValueError, match="exceed"):
            ParameterSpec(params=truth.as_dict(), initial={"E1": 2.0 * truth.S0})


class TestObservedSeries:
    def test_rejects_negative_counts(self):
        with pytest.raises(ValueError, match="nonnegative"):
            ObservedSeries(counts=np.array([1.0, -2.0]))

    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="nonempty"):
            ObservedSeries(counts=np.array([]))

    def test_copies_the_callers_array(self):
        counts = np.array([1.0, 2.0])
        series = ObservedSeries(counts=counts)
        counts[0] = 3.0
        assert series.counts.tolist() == [1.0, 2.0]
        assert not series.counts.flags.writeable


class TestSseObjective:
    """The sum of squared residuals that fit reports as its objective."""

    def test_zero_against_own_output(self, truth, seeded_initial):
        spec = fixed_spec(truth, {"S": truth.S0 - 1000.0, "E1": 1000.0})
        data = synthesize_data(truth, seeded_initial, days=30)
        result = fit(spec, data)
        assert result.objective == 0.0
        assert not result.residuals.any()

    def test_objective_invariant_to_free_listing_order(self, truth, seeded_initial):
        data = synthesize_data(truth, seeded_initial, days=20,
                               noise="lognormal", sigma=0.1, seed=1)
        entries = truth.as_dict()
        entries["beta"] = FreeValue(1e-10, 1e-7, truth.beta)
        entries["rho"] = FreeValue(0.0, 1.0, truth.rho)
        initial = {"S": truth.S0 - 1000.0, "E1": 1000.0}
        forward = ParameterSpec(params=dict(entries), initial=initial)
        backward = ParameterSpec(params=dict(reversed(list(entries.items()))),
                                 initial=initial)
        config = FitConfig(restarts=2, max_evals=20, seed=1)
        a, b = fit(forward, data, config), fit(backward, data, config)
        assert a.objective == b.objective
        assert np.array_equal(a.free_values, b.free_values)
        assert np.array_equal(a.history, b.history)


class TestFit:
    def test_all_fixed_degenerates_to_evaluation(self, truth, seeded_initial):
        spec = fixed_spec(truth, {"S": truth.S0 - 1000.0, "E1": 1000.0})
        data = synthesize_data(truth, seeded_initial, days=25)
        result = fit(spec, data)
        assert result.iterations == 0
        assert result.objective == 0.0
        assert result.params == truth
        assert result.converged

    def test_initial_is_the_fitted_runs_read_only_state(self, truth, seeded_initial):
        spec = fixed_spec(truth, {"S": truth.S0 - 1000.0, "E1": 1000.0})
        result = fit(spec, synthesize_data(truth, seeded_initial, days=10))
        assert result.initial.shape == (7,) and result.initial.dtype == float
        assert np.array_equal(result.initial, seeded_initial)
        with pytest.raises(ValueError):
            result.initial[0] = 0.0

    @pytest.mark.parametrize("window", [(3.0, 5.0, 2), (0.0, 10.0, 1), (5.0, 35.0, 1)],
                             ids=["inside", "shorter", "shifted"])
    def test_window_is_the_data_window(self, truth, seeded_initial, window):
        spec = fixed_spec(truth, {"S": truth.S0 - 1000.0, "E1": 1000.0})
        data = synthesize_data(truth, seeded_initial, days=25)
        t0, t_end, per_day = window
        other = IntegratorConfig(t0=t0, t_end=t_end, sample_per_day=per_day)
        result = fit(spec, data, integrator=other)
        assert (result.integrator.t0, result.integrator.t_end) == (0.0, 25.0)
        # a fit stores 1 sample/day, and its run is the one the data came from
        assert result.integrator.sample_per_day == 1
        assert result.objective == 0.0

    @pytest.mark.parametrize("shift, objective", [(1.0, 30.0), (2.0, 120.0)],
                             ids=["unit", "squared"])
    def test_objective_is_the_sum_of_squared_residuals(self, truth, seeded_initial,
                                                       shift, objective):
        # residuals of 2 weigh 4 each: a sum of absolute residuals reads 60
        spec = fixed_spec(truth, {"S": truth.S0 - 1000.0, "E1": 1000.0})
        clean = synthesize_data(truth, seeded_initial, days=30)
        shifted = ObservedSeries(counts=clean.counts + shift)
        assert fit(spec, shifted).objective == objective

    def test_truth_beats_doubled_beta_on_noisy_data(self, truth, seeded_initial):
        initial = {"S": truth.S0 - 1000.0, "E1": 1000.0}
        data = synthesize_data(truth, seeded_initial, days=60,
                               noise="lognormal", sigma=0.05, seed=7)
        at_truth = fit(fixed_spec(truth, initial), data)
        at_doubled = fit(fixed_spec(replace(truth, beta=2 * truth.beta), initial), data)
        assert at_truth.objective < at_doubled.objective

    def test_synthetic_recovery_identifies_rc(self, truth, seeded_initial):
        data = synthesize_data(truth, seeded_initial, days=60,
                               noise="lognormal", sigma=0.05, seed=0)
        result = fit(recovery_spec(truth), data,
                     FitConfig(restarts=2, max_evals=300, seed=0))
        rc_true = control_reproduction_number(truth)
        assert abs(result.r_c - rc_true) / rc_true < 0.05
        assert result.loss == result.history[-1] <= result.history[0]

    def test_history_nonincreasing(self, truth, seeded_initial):
        data = synthesize_data(truth, seeded_initial, days=40,
                               noise="lognormal", sigma=0.05, seed=2)
        result = fit(recovery_spec(truth), data,
                     FitConfig(restarts=1, max_evals=150, seed=2))
        assert np.all(np.diff(result.history) <= 0.0)
        assert result.n_evals <= 150

    def test_converged_only_when_search_stops_before_budget(self, truth, seeded_initial):
        entries = truth.as_dict()
        entries["beta"] = FreeValue(lo=truth.beta / 4, hi=truth.beta * 4,
                                    guess=truth.beta * 1.5)
        spec = ParameterSpec(params=entries,
                             initial={"S": truth.S0 - 1000.0, "E1": 1000.0})
        data = synthesize_data(truth, seeded_initial, days=30)
        result = fit(spec, data, FitConfig(restarts=1, max_evals=400))
        assert result.converged
        assert result.n_evals < 400
        assert result.free_values[0] == pytest.approx(truth.beta, rel=1e-6)
        bound = fit(spec, data, FitConfig(restarts=1, max_evals=3))
        assert not bound.converged
        assert bound.n_evals == 3

    def test_bitwise_deterministic(self, truth, seeded_initial):
        data = synthesize_data(truth, seeded_initial, days=30,
                               noise="lognormal", sigma=0.05, seed=5)
        config = FitConfig(restarts=2, max_evals=120, seed=5)
        a = fit(recovery_spec(truth), data, config)
        b = fit(recovery_spec(truth), data, config)
        assert np.array_equal(a.free_values, b.free_values)
        assert a.objective == b.objective
        assert np.array_equal(a.history, b.history)
        assert a.params == b.params

    def test_restart_ties_keep_the_earlier_replicate(self, truth, seeded_initial,
                                                      monkeypatch):
        # every run is the truth's whatever its parameters, so each later
        # restart ties the first and must not replace it
        monkeypatch.setattr(calibrate, "integrate", always(truth))
        entries = truth.as_dict()
        entries["beta"] = FreeValue(lo=truth.beta / 4, hi=truth.beta * 4,
                                    guess=truth.beta * 1.5)
        entries["rho"] = FreeValue(lo=0.05, hi=0.95, guess=0.30)
        spec = ParameterSpec(params=entries,
                             initial={"S": truth.S0 - 1000.0, "E1": 1000.0})
        data = synthesize_data(truth, seeded_initial, days=30)
        one = fit(spec, data, FitConfig(restarts=1, max_evals=40))
        three = fit(spec, data, FitConfig(restarts=3, max_evals=40))
        assert np.array_equal(three.free_values, one.free_values)

    def test_restarts_start_from_jittered_guesses(self, truth, seeded_initial,
                                                  monkeypatch):
        # the first restart starts at the guess, each later one at its own
        # draw within jitter * (hi - lo) of it, clipped to the box.  Every run
        # is the truth's, so the gradient is zero and each restart evaluates
        # its start alone, and the winner is not run again
        evaluated = []
        spec = recovery_spec(truth)
        data = synthesize_data(truth, seeded_initial, days=30)
        monkeypatch.setattr(calibrate, "integrate", always(truth, evaluated))
        fit(spec, data, FitConfig(restarts=3, max_evals=10, jitter=0.1))
        lo, hi = spec.bounds()
        guess = spec.guesses()
        assert len(evaluated) == 3
        # a start goes to box-scaled coordinates and back, to within a rounding
        starts = evaluated[:3]
        assert np.allclose(starts[0], guess, rtol=1e-12, atol=0.0)
        assert not np.allclose(starts[1], starts[2], rtol=1e-12, atol=0.0)
        for start in starts[1:]:
            assert not np.allclose(start, guess, rtol=1e-12, atol=0.0)
            assert np.all(np.abs(start - guess) <= 0.1 * (hi - lo) * (1.0 + 1e-12))
            assert np.all((lo <= start) & (start <= hi))

    def test_fitted_values_respect_bounds(self, truth, seeded_initial):
        data = synthesize_data(truth, seeded_initial, days=30,
                               noise="lognormal", sigma=0.1, seed=9)
        spec = recovery_spec(truth)
        result = fit(spec, data, FitConfig(restarts=1, max_evals=100, seed=9))
        lo, hi = spec.bounds()
        assert np.all(result.free_values >= lo)
        assert np.all(result.free_values <= hi)

    def test_unintegrable_fixed_configuration_raises(self, truth, seeded_initial,
                                                     monkeypatch):
        spec = fixed_spec(truth, {"S": truth.S0 - 1000.0, "E1": 1000.0})
        data = synthesize_data(truth, seeded_initial, days=30)
        monkeypatch.setattr(simulate, "MAX_STEPS", 5)
        starving = IntegratorConfig(t0=0.0, t_end=30.0, sample_per_day=1)
        with pytest.raises(FitError, match="integrate"):
            fit(spec, data, integrator=starving)


class TestWork:
    """Each trial point is integrated once, as one ensemble call."""

    @pytest.mark.parametrize("case", ["inside", "copies reversed", "start on an edge"])
    def test_one_ensemble_call_per_evaluation(self, truth, seeded_initial, monkeypatch,
                                              case):
        # with the wall every run with beta above the guess's fails, so the
        # start's beta copy, and those of the points near it, step backwards,
        # one call more each.  A start on the box's edge is evaluated where
        # the search starts, just inside it, once
        data = synthesize_data(truth, seeded_initial, days=40,
                               noise="lognormal", sigma=0.05, seed=2)
        spec = recovery_spec(truth)
        if case == "start on an edge":
            entries = dict(spec.params, rho=FreeValue(lo=0.05, hi=0.95, guess=0.95))
            spec = ParameterSpec(params=entries, initial=spec.initial)
        wall = case == "copies reversed"
        run = failing_above(spec.guesses()[0]) if wall else integrate
        calls, copy_failures = [], []

        def counting(params, initial, config):
            try:
                traj = run(params, initial, config)
            except IntegrationError as exc:
                copy_failures.append(exc.member)
                calls.append((params, None))
                raise
            calls.append((params, traj))
            return traj

        monkeypatch.setattr(calibrate, "integrate", counting)
        result = fit(spec, data, FitConfig(restarts=1, max_evals=150, seed=2))
        assert len(calls) == result.n_evals + len(copy_failures)
        assert all(member >= 1 for member in copy_failures)
        assert (len(copy_failures) > 0) == wall
        # no single run: each call is the point and one copy per coordinate
        assert all(not isinstance(params, ModelParameters) and len(params) == 4
                   for params, _ in calls)
        # the fitted run is member 0 of the returned point's run, bit for bit
        returned = [traj for params, traj in calls
                    if traj is not None and params[0] == result.params]
        assert np.array_equal(result.modeled, daily_incidence(returned[-1])[:, 0])
        assert result.loss == result.history[-1]


class TestJacobian:
    """The ensemble Jacobian of log1p(model) on criterion 7's window."""

    WINDOW = IntegratorConfig(t0=0.0, t_end=60.0, sample_per_day=1)

    @staticmethod
    def central_differences(spec, x, window):
        # solo runs on both sides of x, straddling a box edge if need be
        lo, hi = spec.bounds()
        columns = []
        for j in range(len(x)):
            plus, minus = x.copy(), x.copy()
            plus[j] += 1e-5 * (hi[j] - lo[j])
            minus[j] -= 1e-5 * (hi[j] - lo[j])
            runs = [daily_incidence(integrate(*spec.assemble(point), window))
                    for point in (plus, minus)]
            columns.append((np.log1p(runs[0]) - np.log1p(runs[1])) / (plus[j] - minus[j]))
        return np.stack(columns, axis=1)

    @pytest.mark.parametrize("point", ["guess", "rho on its upper edge"])
    @pytest.mark.parametrize("atol_rel, bound", [(None, 5e-5), (1e-12, 2e-6)])
    def test_agrees_with_central_differences(self, truth, monkeypatch, point,
                                             atol_rel, bound):
        # the reference runs at rtol 1e-12; at the default atol of
        # 1e-10 * N(0) the integrator's own error leaves 1.6e-5-1.7e-5 in the
        # epsilon column, and at 1e-12 * N(0) under 4e-7
        spec = recovery_spec(truth)
        lo, hi = spec.bounds()
        x = spec.guesses() if point == "guess" else np.array([truth.beta, truth.epsilon, hi[2]])
        window = self.WINDOW if atol_rel is None else \
            replace(self.WINDOW, atol=atol_rel * truth.S0)
        reference = self.central_differences(
            spec, x, replace(window, rtol=1e-12, atol=1e-14 * truth.S0))
        ensembles = []

        def recording(params, initial, config):
            ensembles.append(np.array([[p.beta, p.epsilon, p.rho] for p in params]))
            return integrate(params, initial, config)

        monkeypatch.setattr(calibrate, "integrate", recording)
        jacobian = calibrate._ensemble_run(x, spec, window, lo, hi).jacobian
        # one call: the point, then one copy per coordinate, inside the box
        [points] = ensembles
        assert np.array_equal(points[0], x)
        assert np.all((lo <= points) & (points <= hi))
        assert np.count_nonzero(points[1:] != x) == 3
        error = np.max(np.abs(jacobian - reference), axis=0) / np.max(np.abs(reference), axis=0)
        assert np.all(error < bound)

    def test_failing_copy_steps_the_other_way(self, truth, monkeypatch):
        # the forward copy of beta fails, so beta's copy is retried below the
        # point; its derivative agrees with the forward one
        spec = recovery_spec(truth)
        lo, hi = spec.bounds()
        x = spec.guesses()
        forward = calibrate._ensemble_run(x, spec, self.WINDOW, lo, hi).jacobian
        fails, copies = failing_above(x[0]), []

        def recording(params, initial, config):
            copies.append([p.beta for p in params[1:]])
            return fails(params, initial, config)

        monkeypatch.setattr(calibrate, "integrate", recording)
        backward = calibrate._ensemble_run(x, spec, self.WINDOW, lo, hi).jacobian
        assert len(copies) == 2
        assert copies[0][0] > x[0] > copies[1][0]
        assert copies[0][1:] == copies[1][1:] == [x[0], x[0]]
        error = np.max(np.abs(backward - forward), axis=0) / np.max(np.abs(forward), axis=0)
        assert np.all(error < 1e-5)

    def test_copy_failing_both_ways_names_its_coordinate(self, truth, monkeypatch):
        spec = recovery_spec(truth)
        lo, hi = spec.bounds()
        x = spec.guesses()
        real = calibrate.integrate

        def failing_beta_copies(params, initial, config):
            if len(params) > 1 and params[1].beta != x[0]:
                raise IntegrationError("copy fails", config.t0, 1)
            return real(params, initial, config)

        monkeypatch.setattr(calibrate, "integrate", failing_beta_copies)
        with pytest.raises(FitError, match="perturbing beta"):
            calibrate._ensemble_run(x, spec, self.WINDOW, lo, hi).jacobian


class TestSearchAcrossFailures:
    def test_returns_the_best_point_that_integrates(self, truth, seeded_initial,
                                                    monkeypatch):
        # every run with beta above 0.8 * the truth's fails, so the search,
        # started below, can approach the data only up to that wall
        limit = 0.8 * truth.beta
        entries = truth.as_dict()
        entries["beta"] = FreeValue(lo=truth.beta / 4, hi=truth.beta * 4,
                                    guess=truth.beta / 2)
        entries["rho"] = FreeValue(lo=0.05, hi=0.95, guess=0.30)
        spec = ParameterSpec(params=entries,
                             initial={"S": truth.S0 - 1000.0, "E1": 1000.0})
        data = synthesize_data(truth, seeded_initial, days=30,
                               noise="lognormal", sigma=0.05, seed=4)
        fails = failing_above(limit)
        integrated, failed = [], []

        def recording(params, initial, config):
            # each call is a point, its member 0, and its copies
            try:
                traj = fails(params, initial, config)
            except IntegrationError as exc:
                failed.append(exc.member)
                raise
            integrated.append(daily_incidence(traj)[:, 0])
            return traj

        monkeypatch.setattr(calibrate, "integrate", recording)
        result = fit(spec, data, FitConfig(restarts=1, max_evals=60))
        assert 0 in failed  # a trial point itself failed
        assert result.params.beta <= limit
        # no point the search integrated scores below the one it returns

        def loss(model):
            return float(np.sum((np.log1p(model) - np.log1p(data.counts)) ** 2))

        assert result.loss == min(loss(model) for model in integrated)

    def test_every_start_failing_raises(self, truth, seeded_initial, monkeypatch):
        data = synthesize_data(truth, seeded_initial, days=30)
        monkeypatch.setattr(calibrate, "integrate", failing_above(0.0))
        with pytest.raises(FitError, match="start point integrates"):
            fit(recovery_spec(truth), data, FitConfig(restarts=2, max_evals=20))

    def test_start_whose_copy_fails_both_ways_is_skipped(self, truth, seeded_initial,
                                                         monkeypatch):
        # a copy that fails on both sides fails its point like the point
        # itself: each start is skipped, and the error names the coordinate
        data = synthesize_data(truth, seeded_initial, days=30)
        real = calibrate.integrate

        def failing_rho_copies(params, initial, config):
            if not isinstance(params, ModelParameters) and params[3].rho != params[0].rho:
                raise IntegrationError("copy fails", config.t0, 3)
            return real(params, initial, config)

        monkeypatch.setattr(calibrate, "integrate", failing_rho_copies)
        with pytest.raises(FitError, match="start point integrates.*perturbing rho"):
            fit(recovery_spec(truth), data, FitConfig(restarts=2, max_evals=20))


class TestSynthesizeData:
    def test_noiseless_equals_model_incidence(self, truth, seeded_initial):
        from seiar.simulate import daily_incidence, integrate
        days = 20
        cfg = IntegratorConfig(t0=0.0, t_end=float(days), sample_per_day=1)
        expected = daily_incidence(integrate(truth, seeded_initial, cfg))
        data = synthesize_data(truth, seeded_initial, days=days)
        assert np.array_equal(data.counts, expected)

    def test_window_is_the_requested_days(self, truth, seeded_initial):
        short = IntegratorConfig(t0=0.0, t_end=30.0, sample_per_day=1)
        data = synthesize_data(truth, seeded_initial, days=60, integrator=short)
        assert np.array_equal(data.counts,
                              synthesize_data(truth, seeded_initial, days=60).counts)

    def test_same_seed_reproduces(self, truth, seeded_initial):
        a = synthesize_data(truth, seeded_initial, days=15, noise="lognormal",
                            sigma=0.05, seed=11)
        b = synthesize_data(truth, seeded_initial, days=15, noise="lognormal",
                            sigma=0.05, seed=11)
        assert np.array_equal(a.counts, b.counts)

    def test_lognormal_mean_relative_deviation(self, truth, seeded_initial):
        clean = synthesize_data(truth, seeded_initial, days=365)
        noisy = synthesize_data(truth, seeded_initial, days=365,
                                noise="lognormal", sigma=0.05, seed=4)
        deviation = np.abs(noisy.counts - clean.counts) / clean.counts
        # E|exp(0.05 Z) - 1| = 0.0399...; allow a few standard errors
        assert deviation.mean() == pytest.approx(ORACLE_LOGNORMAL_MAD_005, abs=0.006)

    def test_rounding_noise_yields_integers(self, truth, seeded_initial):
        data = synthesize_data(truth, seeded_initial, days=15, noise="round")
        assert np.array_equal(data.counts, np.rint(data.counts))

    def test_unknown_noise_rejected(self, truth, seeded_initial):
        with pytest.raises(ValueError, match="noise"):
            synthesize_data(truth, seeded_initial, days=5, noise="poisson")

    @pytest.mark.parametrize("days", [0, 0.5, 2.5, 2.999, float("nan"), float("inf")])
    def test_refuses_a_count_that_is_not_whole_days(self, truth, seeded_initial, days):
        with pytest.raises(ValueError, match="days must be a whole number"):
            synthesize_data(truth, seeded_initial, days=days)

    def test_whole_float_count_is_whole_days(self, truth, seeded_initial):
        assert np.array_equal(synthesize_data(truth, seeded_initial, days=3.0).counts,
                              synthesize_data(truth, seeded_initial, days=3).counts)
