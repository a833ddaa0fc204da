"""Quartic certificates, energy function checks, eigenvalue verdicts."""

import re
from fractions import Fraction

import numpy as np
import pytest
from scipy.integrate import solve_ivp
from conftest import (
    ORACLE_DFE_ROOT,
    audit_seedings,
    draw_params,
    draw_params_at_rc,
    scale_to_rc,
)

from seiar import (
    StabilityConfig,
    classify_equilibrium,
    control_reproduction_number,
    disease_free_equilibrium,
    disease_free_quartic,
    endemic_equilibrium,
    entropy_h,
    global_stability_certificate,
    lyapunov_audit,
    lyapunov_derivative,
    lyapunov_values,
)
from seiar import config, stability
from seiar.errors import IntegrationError
from seiar.model import COMPARTMENTS, extended_field, jacobian
from seiar.presets import VARIANTS
from seiar.simulate import NEGATIVITY_BAND, IntegratorConfig, integrate


def outflows(p):
    """The outflow rates B1 = alpha+mu, B2 = gamma2+phi2+mu, B3 = gamma3+mu and
    C1 = sigma+epsilon+mu of the quartic, typed from the parameter fields."""
    return (p.alpha + p.mu, p.gamma2 + p.phi2 + p.mu, p.gamma3 + p.mu,
            p.sigma + p.epsilon + p.mu)


def quartic(a, lam):
    """The quartic in coefficient form at lam, from a = (a1, a2, a3, a4)."""
    return np.polyval((1.0, *a), lam)


def magnitude(a, lam):
    """The size of the quartic's terms at lam >= 0, a scale for its error."""
    a1, a2, a3, a4 = np.abs(a)
    return lam ** 4 + a1 * lam ** 3 + a2 * lam ** 2 + a3 * lam + a4


def product_form(p, lam):
    """Unexpanded quartic, an independent check of the coefficients."""
    B1, B2, B3, C1 = outflows(p)
    C2, C3, C4 = p.sigma, p.sigma * (1.0 - p.rho) * p.alpha, p.epsilon * p.omega
    D = p.beta * p.S0
    return ((lam + B1) * (lam + B2) * (lam + B3) * (lam + C1)
            - D * (C2 * (lam + B2) * (lam + B3)
                   + C3 * (lam + B3)
                   + C4 * (lam + B1) * (lam + B2)))


def exact_det(rows):
    """Determinant of a square matrix of Fractions, by exact elimination."""
    m = [list(row) for row in rows]
    det = Fraction(1)
    for k in range(len(m)):
        pivot = next((i for i in range(k, len(m)) if m[i][k] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != k:
            m[k], m[pivot] = m[pivot], m[k]
            det = -det
        det *= m[k][k]
        for i in range(k + 1, len(m)):
            factor = m[i][k] / m[k][k]
            for j in range(k, len(m)):
                m[i][j] -= factor * m[k][j]
    return det


def ulps_apart(a, b):
    return abs(a - b) / np.spacing(abs(b))


class TestQuarticCoefficients:
    def test_matches_product_form_at_random_points(self, rng):
        for _ in range(50):
            p = draw_params(rng)
            a, _ = disease_free_quartic(p)
            scale = max(*outflows(p), 1.0)
            for lam in rng.uniform(0.0, 4.0 * scale, size=10):
                assert abs(quartic(a, lam) - product_form(p, lam)) \
                    <= 1e-9 * magnitude(a, lam)

    def test_is_the_characteristic_polynomial_of_the_field(self, rng):
        # det(lambda*I - J) of the (E1, E2, I2, A) block of the field's own
        # disease-free Jacobian, in exact rational arithmetic
        block = [COMPARTMENTS.index(name) for name in ("E1", "E2", "I2", "A")]
        for _ in range(100):
            p = draw_params(rng)
            a, _ = disease_free_quartic(p)
            J = jacobian(disease_free_equilibrium(p), p)
            exact = [[Fraction(float(J[i, j])) for j in block] for i in block]
            outflow_product = np.prod(outflows(p))
            hi = 4.0 * max(*outflows(p), 1.0)
            for lam in [0.0, *(hi * (1.0 - rng.uniform(size=10))).tolist()]:
                shifted = [[Fraction(lam) * (i == j) - exact[i][j] for j in range(4)]
                           for i in range(4)]
                det = exact_det(shifted)
                if lam == 0.0:
                    scale = outflow_product
                else:
                    scale = magnitude(a, lam)
                error = abs(Fraction(float(quartic(a, lam))) - det)
                assert float(error) <= 1e-12 * scale, (lam, float(error) / scale)

    def test_overflowing_coefficients_raise(self, params_614g):
        p = params_614g.with_updates(sigma=1e80, epsilon=1e80, alpha=1e80,
                                     gamma2=1e80, gamma3=1e80)
        with pytest.raises(ArithmeticError, match="degenerate"):
            disease_free_quartic(p)

    def test_no_transmission_constant_term(self, params_614g):
        p = params_614g.with_updates(beta=0.0)
        a, _ = disease_free_quartic(p)
        B1, B2, B3, C1 = outflows(p)
        assert a[3] == B1 * B2 * B3 * C1
        assert a[3] > 0.0

    def test_a4_factors_through_reproduction_number(self, rng):
        for _ in range(200):
            p = draw_params(rng)
            rc = control_reproduction_number(p)
            a, _ = disease_free_quartic(p)
            B1, B2, B3, C1 = outflows(p)
            factored = B1 * B2 * B3 * C1 * (1.0 - rc)
            assert a[3] == pytest.approx(factored, rel=1e-10, abs=1e-300)
            assert np.sign(a[3]) == np.sign(1.0 - rc)

    def test_a4_vanishes_at_threshold(self, params_614g):
        critical = scale_to_rc(params_614g, 1.0)
        a, _ = disease_free_quartic(critical)
        B1, B2, B3, C1 = outflows(critical)
        assert abs(a[3]) <= 1e-10 * (B1 * B2 * B3 * C1)

    def test_614g_negative_constant_term(self, params_614g):
        assert disease_free_quartic(params_614g)[0][3] < 0.0

    def test_coefficients_are_a_float_array(self, params_614g):
        a, _ = disease_free_quartic(params_614g)
        assert a.dtype == float and a.shape == (4,)
        assert a[0] == pytest.approx(sum(outflows(params_614g)), rel=1e-14)


class TestPositiveRootCertificate:
    def test_positive_constant_term_refuses(self, params_614g):
        assert disease_free_quartic(scale_to_rc(params_614g, 0.7))[1] is None

    def test_614g_root_matches_hand_bisection(self, params_614g):
        a, root = disease_free_quartic(params_614g)
        assert type(root) is float
        lo, hi = 0.0, 4.0 * max(outflows(params_614g))
        assert quartic(a, lo) < 0.0 < quartic(a, hi)
        # independent refinement by plain bisection
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if quartic(a, mid) < 0.0:
                lo = mid
            else:
                hi = mid
        assert root == pytest.approx(0.5 * (lo + hi), abs=1e-10)

    def test_root_matches_the_product_form_oracle(self, variant):
        name, p = variant
        _, root = disease_free_quartic(p)
        assert root == pytest.approx(ORACLE_DFE_ROOT[name], rel=1e-14, abs=0.0)

    def test_root_is_the_dominant_dfe_eigenvalue(self, params_614g):
        _, root = disease_free_quartic(params_614g)
        report = classify_equilibrium(params_614g,
                                      disease_free_equilibrium(params_614g))
        assert root == pytest.approx(report.max_real_part, rel=1e-8)

    def test_root_exactly_when_a4_is_negative_at_the_threshold(self, rng):
        # R_c within a few ulps of 1, where a4 is rounding noise: a root is
        # certified exactly when a4 < 0, it is positive, and nothing raises
        draws = [*VARIANTS.values(), *(draw_params(rng) for _ in range(300))]
        offsets = (0.0, 1e-16, -1e-16, 1e-15, -1e-15, 1e-13, -1e-13)
        certified = 0
        for p in draws:
            for offset in offsets:
                a, root = disease_free_quartic(scale_to_rc(p, 1.0 + offset))
                assert (root is not None) == (a[3] < 0.0), (offset, a[3])
                assert root is None or root > 0.0
                certified += root is not None
        # both sides of the threshold are reached
        assert 0 < certified < len(draws) * len(offsets)


class TestEntropyH:
    def test_zero_at_one(self):
        assert entropy_h(1.0) == 0.0

    def test_direct_value(self):
        assert entropy_h(2.0) == pytest.approx(1.0 - np.log(2.0), rel=1e-15)

    def test_nonnegative_everywhere(self, rng):
        for x in rng.uniform(1e-6, 100.0, size=1000):
            assert entropy_h(float(x)) >= 0.0

    def test_rejects_nonpositive(self):
        for x in (0.0, -1.0):
            with pytest.raises(ValueError):
                entropy_h(x)


class TestLyapunovValue:
    def test_zero_at_disease_free_point(self, variant):
        _, p = variant
        assert lyapunov_values(disease_free_equilibrium(p), p) == 0.0

    def test_net_e2_coefficient(self, rng):
        # the three E2 terms recombine to
        # beta*S0*[(gamma2+phi2+mu) + (1-rho)*alpha] / ((alpha+mu)*(gamma2+phi2+mu))
        for _ in range(50):
            p = draw_params(rng)
            state = np.array([p.S0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0])
            value = lyapunov_values(state, p)
            bS0 = p.beta * p.S0
            b2 = p.gamma2 + p.phi2 + p.mu
            expected = bS0 * (b2 + (1.0 - p.rho) * p.alpha) / ((p.alpha + p.mu) * b2)
            assert value == pytest.approx(expected, rel=1e-10)
            assert value > 0.0

    def test_weights_are_the_docstring_coefficients(self, rng):
        # V at S = S0 with one unit in one infected compartment is that
        # compartment's weight, read off the next-generation split
        for _ in range(200):
            p = draw_params(rng)
            bS0 = p.beta * p.S0
            k_E2, k_I2, k_A = p.alpha + p.mu, p.gamma2 + p.phi2 + p.mu, p.gamma3 + p.mu
            k_E1 = p.sigma + p.epsilon + p.mu
            typed = {
                "E1": bS0 / k_E1 * (p.sigma / k_E2
                                    + p.sigma * (1.0 - p.rho) * p.alpha / (k_E2 * k_I2)
                                    + p.epsilon * p.omega / k_A),
                "E2": (bS0 / k_E2 + bS0 / k_I2 * (1.0 - p.rho)
                       - bS0 * (1.0 - p.rho) * p.mu / (k_E2 * k_I2)),
                "I2": bS0 / k_I2,
                "A": p.omega * bS0 / k_A,
            }
            weights = {}
            for name in ("E1", "E2", "I1", "I2", "A"):
                state = disease_free_equilibrium(p)
                state[COMPARTMENTS.index(name)] = 1.0
                weights[name] = lyapunov_values(state, p)
            for name, coefficient in typed.items():
                assert ulps_apart(weights[name], coefficient) <= 8, name
            assert weights["I1"] == 0.0
            assert ulps_apart(weights["E1"], p.rates.r_c) <= 8

    def test_positive_off_equilibrium(self, rng, params_614g):
        p = params_614g
        for _ in range(100):
            state = rng.uniform(0.0, 1e5, size=7)
            state[0] = rng.uniform(0.1 * p.S0, 2.0 * p.S0)
            assert lyapunov_values(state, p) > 0.0

    def test_rejects_nonpositive_s(self, params_614g):
        state = np.zeros(7)
        with pytest.raises(ValueError, match="S > 0"):
            lyapunov_values(state, params_614g)

    def test_one_state_gives_a_float(self, params_614g):
        state = disease_free_equilibrium(params_614g)
        state[1] = 1.0
        assert isinstance(lyapunov_values(state, params_614g), float)
        assert isinstance(lyapunov_values(state.tolist(), params_614g), float)

    @pytest.mark.parametrize("shape", [(6,), (9,), (3, 6), (7, 1), ()])
    def test_rejects_any_last_axis_but_seven_naming_the_shape(self, params_614g, shape):
        states = np.full(shape, params_614g.S0)
        with pytest.raises(ValueError, match=f"7 components.*{re.escape(str(shape))}"):
            lyapunov_values(states, params_614g)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_rejects_a_non_finite_entry(self, params_614g, value):
        states = np.tile(disease_free_equilibrium(params_614g), (3, 1))
        states[1, 1] = value
        with pytest.raises(ValueError, match="finite"):
            lyapunov_values(states, params_614g)
        with pytest.raises(ValueError, match="finite"):
            lyapunov_values(states[1], params_614g)

    def test_array_form_matches_state_by_state(self, rng):
        for _ in range(20):
            p = draw_params(rng)
            states = rng.uniform(0.0, 1e-3 * p.S0, size=(30, 4, 7))
            states[..., 0] = rng.uniform(0.1 * p.S0, 2.0 * p.S0, size=(30, 4))
            values = lyapunov_values(states, p)
            assert values.shape == (30, 4)
            for index in np.ndindex(values.shape):
                assert values[index] == pytest.approx(
                    lyapunov_values(states[index], p), rel=1e-13)

    def test_array_form_rejects_any_nonpositive_s(self, params_614g):
        p = params_614g
        states = np.tile(disease_free_equilibrium(p), (5, 1))
        states[3, 0] = 0.0
        with pytest.raises(ValueError, match="S > 0"):
            lyapunov_values(states, p)


class TestLyapunovDerivative:
    def test_zero_at_disease_free_point(self, params_614g):
        p = scale_to_rc(params_614g, 0.8)
        assert lyapunov_derivative(disease_free_equilibrium(p), p) == 0.0

    def test_negative_with_infection_at_s0(self, params_614g):
        p = scale_to_rc(params_614g, 0.8)
        state = np.array([p.S0, 0.0, 10.0, 0.0, 5.0, 3.0, 0.0])
        assert lyapunov_derivative(state, p) < 0.0

    def test_nonpositive_along_subcritical_trajectory(self, params_614g):
        p = scale_to_rc(params_614g, 0.8)
        y0 = np.array([p.S0, 1e4, 0.0, 0.0, 0.0, 0.0, 0.0])
        traj = integrate(p, y0, IntegratorConfig(t_end=1000.0, sample_per_day=1))
        values = np.array([lyapunov_derivative(s, p) for s in traj.states])
        assert len(values) >= 1000
        assert np.all(values <= 1e-12 * p.Lambda)

    def test_matches_finite_differences_of_v(self, params_614g):
        # mixed initial composition: with compartments rising from exactly
        # zero the first hours have huge relative curvature and central
        # differences cannot resolve them at any sane step
        p = scale_to_rc(params_614g, 0.8)
        y0 = np.array([p.S0, 1e4, 4e3, 500.0, 500.0, 5e3, 0.0])
        spd = 500
        # tolerances that ask for the accuracy asserted: the dense grid
        # does not set the step
        traj = integrate(p, y0, IntegratorConfig(t_end=5.0, sample_per_day=spd,
                                                 rtol=1e-11, atol=1e-12 * y0.sum()))
        v = np.array([lyapunov_values(s, p) for s in traj.states])
        fd = (v[2:] - v[:-2]) * (spd / 2.0)
        closed = np.array([lyapunov_derivative(s, p) for s in traj.states[1:-1]])
        mask = np.abs(closed) > 1e-3 * np.max(np.abs(closed))
        assert mask.sum() > 1000
        np.testing.assert_allclose(fd[mask], closed[mask], rtol=1e-6)


class TestLyapunovAudit:
    def test_trivial_at_disease_free_start(self, params_614g):
        p = scale_to_rc(params_614g, 0.8)
        audit = lyapunov_audit(p, [disease_free_equilibrium(p)], horizon=50.0)
        assert audit.passed.tolist() == [True]
        assert audit.max_violation[0] <= 1e-9

    def test_small_seed_converges(self, params_614g):
        p = scale_to_rc(params_614g, 0.8)
        y0 = np.array([p.S0, 500.0, 0.0, 0.0, 0.0, 0.0, 0.0])
        audit = lyapunov_audit(p, [y0], horizon=2000.0)
        assert audit.passed.tolist() == [True], audit.reason

    def test_one_state_is_audited_as_a_one_member_list(self, params_614g):
        p = scale_to_rc(params_614g, 0.8)
        y0 = np.array([p.S0, 500.0, 0.0, 0.0, 0.0, 0.0, 0.0])
        one, listed = (lyapunov_audit(p, y0, horizon=300.0),
                       lyapunov_audit(p, [y0], horizon=300.0))
        for name in ("passed", "max_violation", "final_distance"):
            assert getattr(one, name).tolist() == getattr(listed, name).tolist()
            assert getattr(one, name).shape == (1,)
        assert one.reason == listed.reason
        with pytest.raises(ValueError, match=r"\(2, 6\)"):
            lyapunov_audit(p, np.ones((2, 6)), horizon=300.0)

    def test_large_seed_needs_demographic_timescale(self, params_614g):
        # the verdict judges the infected block: a 1e5-person seed is still
        # infected at day 30 and fails, and passes at day 2000 although S and
        # R, which relax at rate mu, are still far from the disease-free point
        p = scale_to_rc(params_614g, 0.8)
        y0 = np.array([p.S0, 1e5, 0.0, 0.0, 0.0, 0.0, 0.0])
        short = lyapunov_audit(p, [y0], horizon=30.0)
        assert short.passed.tolist() == [False]
        assert short.max_violation[0] <= 1e-9
        assert "horizon" in short.reason[0]
        long = lyapunov_audit(p, [y0], horizon=2000.0)
        assert long.passed.tolist() == [True], long.reason
        assert long.final_distance[0] > stability.AUDIT_DISTANCE

    def test_refuses_supercritical(self, params_614g):
        p = scale_to_rc(params_614g, 1.2)
        y0 = np.array([p.S0, 100.0, 0.0, 0.0, 0.0, 0.0, 0.0])
        with pytest.raises(ValueError, match="R_c < 1"):
            lyapunov_audit(p, [y0], horizon=100.0)

    def test_refuses_supercritical_before_integrating(self, params_614g, monkeypatch):
        def integrate(*args, **kwargs):
            pytest.fail("a refused audit must not integrate")

        monkeypatch.setattr(stability, "integrate", integrate)
        p = scale_to_rc(params_614g, 1.2)
        y0 = np.array([p.S0, 100.0, 0.0, 0.0, 0.0, 0.0, 0.0])
        with pytest.raises(ValueError, match="R_c < 1"):
            stability.lyapunov_audit(p, [y0], horizon=100.0)

    @pytest.mark.parametrize("variant_name, rho", [("Omicron", 0.8), ("614G", 0.95)])
    def test_certificate_matches_per_seed_audits(self, variant_name, rho):
        p = VARIANTS[variant_name].with_updates(rho=rho)
        audit = global_stability_certificate(p)
        assert audit.passed.shape == (20,)
        assert len(audit.reason) == 20
        for i, initial in enumerate(audit_seedings(p)):
            solo = lyapunov_audit(p, [initial], horizon=2000.0)
            assert audit.passed[i] == solo.passed[0]
            assert audit.reason[i] == solo.reason[0]
            assert audit.max_violation[i] == solo.max_violation[0]
            assert audit.final_distance[i] == pytest.approx(solo.final_distance[0], rel=1e-9)

    def test_settings_are_one_validated_record(self):
        # the config's ``stability`` block fills the record the certificate
        # takes, which refuses what the certificate once took unchecked
        assert config.StabilityConfig is StabilityConfig
        with pytest.raises(ValueError, match="audit_seeds must be positive"):
            StabilityConfig(audit_seeds=0)
        with pytest.raises(ValueError, match="seed_scale must be positive"):
            StabilityConfig(seed_scale=float("nan"))

    def test_certificate_over_seeded_initials(self, params_614g):
        p = scale_to_rc(params_614g, 0.8)
        audit = global_stability_certificate(
            p, StabilityConfig(audit_seeds=5, audit_horizon=2000.0, seed=3))
        assert audit.passed.tolist() == [True] * 5
        assert audit.reason == (None,) * 5

    def test_rules_judge_each_run_of_the_ensemble(self, params_614g):
        # one run has died out by day 30 and one is still infected: the
        # verdicts, reasons and distances are the runs' own
        p = scale_to_rc(params_614g, 0.8)
        small = np.array([p.S0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0])
        large = np.array([p.S0, 1e5, 0.0, 0.0, 0.0, 0.0, 0.0])
        audit = lyapunov_audit(p, [large, small, large], horizon=30.0)
        assert audit.passed.tolist() == [False, True, False]
        assert audit.reason[1] is None
        assert audit.reason[0] == audit.reason[2]
        assert audit.reason[0].startswith("infected compartments ended ")
        assert audit.final_distance[0] == audit.final_distance[2] > audit.final_distance[1]
        assert (audit.max_violation <= 1e-9).all()


@pytest.fixture
def chunks(monkeypatch):
    """(days, lowest starting compartment) of each ensemble the audit integrates."""
    calls = []

    def recorded(params, initials, config):
        calls.append((config.t_end - config.t0, float(np.min(initials))))
        return integrate(params, initials, config)

    monkeypatch.setattr(stability, "integrate", recorded)
    return calls


def integrated_days(chunks):
    return sum(days for days, _ in chunks)


class TestAuditStop:
    def test_criterion_5_audit_stops_early(self, chunks):
        # measured: 850 of 2000 days
        p = scale_to_rc(VARIANTS["614G"], 0.8)
        audit = global_stability_certificate(
            p, StabilityConfig(audit_seeds=20, audit_horizon=2000.0, seed=55))
        assert audit.passed.all()
        assert integrated_days(chunks) <= 1000.0

    def test_benchmark_614g_audit_stops_early(self, chunks):
        # measured: 950 of 2000 days
        global_stability_certificate(VARIANTS["614G"].with_updates(rho=0.95))
        assert integrated_days(chunks) <= 1100.0

    def test_longer_horizon_integrates_no_further(self, chunks):
        p = scale_to_rc(VARIANTS["614G"], 0.8)
        y0 = np.array([p.S0, 1e4, 0.0, 0.0, 0.0, 0.0, 0.0])
        lyapunov_audit(p, [y0], horizon=2000.0)
        short = integrated_days(chunks)
        chunks.clear()
        lyapunov_audit(p, [y0], horizon=90000.0)
        assert integrated_days(chunks) == short < 2000.0

    def test_resumes_from_a_chunk_end_below_zero(self, params_614g, chunks):
        # with fast exits from E2 and A, a chunk ends with a compartment just
        # below zero, inside the integrator's band, and the next starts there
        p = scale_to_rc(params_614g.with_updates(gamma3=100.0, alpha=20.0), 0.8)
        audit = global_stability_certificate(
            p, StabilityConfig(audit_seeds=3, audit_horizon=300.0))
        assert min(low for _, low in chunks) < 0.0
        assert audit.passed.all()

    def test_starts_from_a_compartment_inside_the_band(self, params_614g, chunks):
        # the start the test above reaches by rounding, placed directly: one
        # of E2, I1, I2 and A half the negativity band below zero in each run
        p = scale_to_rc(params_614g.with_updates(gamma3=100.0, alpha=20.0), 0.8)
        initials = []
        for k in range(2, 6):
            y0 = np.array([p.S0, 1e4, 0.0, 0.0, 0.0, 0.0, 0.0])
            y0[k] = -0.5 * NEGATIVITY_BAND * y0.sum()
            initials.append(y0)
        audit = lyapunov_audit(p, initials, horizon=300.0)
        assert chunks[0][1] == initials[0][2] < 0.0
        assert audit.passed.all()

    @pytest.mark.parametrize("healthy_members", [0, 1])
    def test_band_underflow_names_the_member_and_compartment(self, params_614g,
                                                             healthy_members):
        # a negative E1 seed grows through the generations and R collects it;
        # a DOP853 run takes R out of the band near t = 26.8, so from there
        # every step is refused for the band until the step underflows
        p = scale_to_rc(params_614g, 0.8)
        healthy = np.array([p.S0, 1e4, 0.0, 0.0, 0.0, 0.0, 0.0])
        sinking = np.array([p.S0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0])
        sinking[1] = -0.5 * NEGATIVITY_BAND * p.S0
        band = NEGATIVITY_BAND * sinking.sum()
        with pytest.raises(IntegrationError) as caught:
            lyapunov_audit(p, [healthy] * healthy_members + [sinking], horizon=300.0)
        error = caught.value
        message = error.args[0]
        assert message.startswith("step size underflow after repeated rejections: ")
        assert f"R of member {healthy_members} to -" in message
        assert message.endswith(f"below the band at {-band:.6e}")
        assert error.member == healthy_members
        assert 26.0 < error.t < 27.0

    @pytest.mark.parametrize("variant_name, rho", [("Omicron", 0.8), ("614G", 0.95)])
    def test_final_distances_match_dop853(self, variant_name, rho):
        p = VARIANTS[variant_name].with_updates(rho=rho)
        initials = audit_seedings(p, n_seeds=3)
        audit = lyapunov_audit(p, initials, horizon=2000.0)
        f = extended_field(p)
        y0 = np.stack(initials, axis=1)
        end = solve_ivp(lambda t, y: f(y.reshape(7, 3))[:7].ravel(), (0.0, 2000.0),
                        y0.ravel(), method="DOP853", rtol=1e-13, atol=1e-9).y[:, -1]
        p0 = disease_free_equilibrium(p)
        reference = np.abs(end.reshape(7, 3).T - p0).max(axis=1) / y0.sum(axis=0)
        assert audit.final_distance.tolist() == pytest.approx(reference.tolist(), rel=1e-9)

    def test_supercritical_run_is_integrated_to_the_horizon_and_fails(
            self, params_614g, chunks, monkeypatch):
        monkeypatch.setattr(stability, "control_reproduction_number", lambda p: 0.5)
        p = scale_to_rc(params_614g, 1.2)
        y0 = np.array([p.S0, 100.0, 0.0, 0.0, 0.0, 0.0, 0.0])
        audit = stability.lyapunov_audit(p, [y0], horizon=2000.0)
        assert integrated_days(chunks) == 2000.0
        assert audit.passed.tolist() == [False]
        assert "V increased" in audit.reason[0]


class TestClassifyEquilibrium:
    def test_rejects_non_equilibrium_point(self, params_614g):
        bogus = disease_free_equilibrium(params_614g)
        bogus[1] = 1e6
        with pytest.raises(ValueError, match="not an equilibrium"):
            classify_equilibrium(params_614g, bogus)

    def test_subcritical_dfe_stable(self, params_614g):
        p = params_614g.with_updates(beta=0.3 * params_614g.beta)
        assert control_reproduction_number(p) < 1.0
        report = classify_equilibrium(p, disease_free_equilibrium(p))
        assert report.verdict == "stable"
        assert np.all(report.eigenvalues.real < 0.0)

    def test_supercritical_dfe_unstable(self, params_614g):
        report = classify_equilibrium(params_614g,
                                      disease_free_equilibrium(params_614g))
        assert report.verdict == "unstable"
        assert np.max(report.eigenvalues.real) > 0.0

    def test_endemic_points_of_all_variants_stable(self):
        for name, p in VARIANTS.items():
            eq = endemic_equilibrium(p)
            report = classify_equilibrium(p, eq)
            assert report.verdict == "stable", name
            assert np.all(report.eigenvalues.real < 0.0), name

    def test_dfe_verdict_tracks_threshold_on_draws(self, rng):
        for _ in range(200):
            target = float(rng.uniform(0.3, 1.9))
            if abs(target - 1.0) < 0.02:
                continue
            p = draw_params_at_rc(rng, target)
            report = classify_equilibrium(p, disease_free_equilibrium(p))
            expected = "stable" if target < 1.0 else "unstable"
            assert report.verdict == expected, (target, report.max_real_part)

    @pytest.mark.parametrize("offset, expected", [
        (-1e-6, "stable"), (-1e-9, "marginal"), (1e-9, "marginal"), (1e-6, "unstable")])
    def test_dfe_verdict_band_on_both_sides(self, variant, offset, expected):
        # at R_c = 1 -+ 1e-6, |max Re lambda| is about 9e-8, outside the margin
        # of about 5e-9 on either side; at 1 -+ 1e-9 it is about 9e-11, inside
        _, p = variant
        p = scale_to_rc(p, 1.0 + offset)
        report = classify_equilibrium(p, disease_free_equilibrium(p))
        assert report.verdict == expected, report.max_real_part

    def test_subcritical_decay_confirmed_by_simulation(self, params_614g):
        p = scale_to_rc(params_614g, 0.8)
        y0 = np.array([p.S0, 200.0, 0.0, 0.0, 0.0, 0.0, 0.0])
        traj = integrate(p, y0, IntegratorConfig(t_end=400.0, sample_per_day=1))
        infected = traj.states[:, 1:6].sum(axis=1)
        assert infected[-1] < 1e-3 * infected[0]

    def test_perturbed_endemic_point_returns(self, params_614g):
        # the infected compartments snap back on epidemiological timescales;
        # the S/R remainder drains only at the demographic rate mu, so the
        # full state cannot return within any short horizon but must stay
        # bounded near the point
        p = params_614g
        ystar = endemic_equilibrium(p)
        y0 = ystar * np.array([1.0, 1.2, 0.9, 1.1, 0.95, 1.05, 1.0])
        traj = integrate(p, y0, IntegratorConfig(t_end=2000.0, sample_per_day=1))
        gap_infected_0 = np.max(np.abs(y0[1:6] - ystar[1:6]))
        gap_infected_1 = np.max(np.abs(traj.states[-1, 1:6] - ystar[1:6]))
        assert gap_infected_1 < 0.02 * gap_infected_0
        full_gaps = np.max(np.abs(traj.states - ystar), axis=1)
        assert np.max(full_gaps) < 5.0 * np.max(np.abs(y0 - ystar))
