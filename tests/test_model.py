"""Vector field, reproduction number, next-generation matrices, equilibria."""

import math

import numpy as np
import pytest
from conftest import (
    ORACLE_E1_STAR,
    ORACLE_R_C,
    ORACLE_S0,
    ORACLE_S_STAR_614G,
    draw_params,
    draw_params_at_rc,
)
from fehlberg_reference import reference_field

from seiar import (
    COMPARTMENTS,
    control_reproduction_number,
    disease_free_equilibrium,
    endemic_equilibrium,
    equilibrium_tolerance,
    jacobian,
    next_generation_matrices,
    ngm_spectral_radius,
    population_balance,
    rhs,
)
from seiar.model import extended_field
from seiar.presets import VARIANTS

#: where S and E1 sit in a state array
S_AT, E1_AT = COMPARTMENTS.index("S"), COMPARTMENTS.index("E1")


def random_state(rng, scale=1e6):
    return rng.uniform(0.0, scale, size=7)


def docstring_terms(p, y):
    """The summands of the field's ten components, typed from the seven
    equations of the model.py docstring and the three inflows."""
    S, E1, E2, I1, I2, A, R = y[:7]
    force = p.beta * S * (E2 + I2 + p.omega * A)
    return [
        [p.Lambda, -force, -p.mu * S],
        [force, -(p.sigma + p.epsilon + p.mu) * E1],
        [p.sigma * E1, -(p.alpha + p.mu) * E2],
        [p.rho * p.alpha * E2, -(p.gamma1 + p.phi1 + p.mu) * I1],
        [(1 - p.rho) * p.alpha * E2, -(p.gamma2 + p.phi2 + p.mu) * I2],
        [p.epsilon * E1, -(p.gamma3 + p.mu) * A],
        [p.gamma1 * I1, p.gamma2 * I2, p.gamma3 * A, -p.mu * R],
        [p.rho * p.alpha * E2],
        [(1 - p.rho) * p.alpha * E2],
        [p.epsilon * E1],
    ]


def few_ulps(terms) -> float:
    """8 ulps of the largest summand: summing up to four terms in any order
    rounds by less than that, while a wrong rate errs by the term itself."""
    return 8 * np.spacing(max(map(abs, terms)))


def assert_field_matches_equations(field, p, y):
    for value, terms in zip(field, docstring_terms(p, y)):
        assert abs(value - math.fsum(terms)) <= few_ulps(terms)


class TestParameterValidation:
    def test_rejects_negative_rate(self, params_614g):
        with pytest.raises(ValueError, match="nonnegative"):
            params_614g.with_updates(sigma=-0.1)

    def test_rejects_zero_mu(self, params_614g):
        with pytest.raises(ValueError, match="mu"):
            params_614g.with_updates(mu=0.0)

    def test_rejects_rho_outside_unit_interval(self, params_614g):
        with pytest.raises(ValueError, match="rho"):
            params_614g.with_updates(rho=1.5)

    def test_rejects_non_finite(self, params_614g):
        with pytest.raises(ValueError, match="finite"):
            params_614g.with_updates(beta=float("nan"))

    def test_rejects_overflowing_s0(self, params_614g):
        with pytest.raises(ValueError, match="S0 = Lambda/mu must be finite"):
            params_614g.with_updates(Lambda=1.0e300, mu=1.0e-300)

    def test_s0(self, params_614g):
        assert params_614g.S0 == params_614g.Lambda / params_614g.mu


class TestRhs:
    def test_dfe_is_stationary(self, variant):
        _, p = variant
        dfe = disease_free_equilibrium(p)
        assert np.all(rhs(dfe, p) == 0.0)

    def test_empty_population_gains_only_recruits(self, variant):
        _, p = variant
        expected = np.zeros(7)
        expected[0] = p.Lambda
        assert np.array_equal(rhs(np.zeros(7), p), expected)

    def test_endemic_point_is_stationary(self, variant):
        _, p = variant
        eq = endemic_equilibrium(p)
        assert eq is not None
        assert np.max(np.abs(rhs(eq, p))) < 1e-8 * p.Lambda

    def test_rejects_non_finite_state(self, params_614g):
        state = np.full(7, 1.0)
        state[3] = float("inf")
        with pytest.raises(ValueError, match="finite"):
            rhs(state, params_614g)


class TestRateTable:
    def test_entries_equal_their_sums(self, rng):
        for _ in range(100):
            p = draw_params(rng)
            r = p.rates
            assert r.k_E1 == p.sigma + p.epsilon + p.mu
            assert r.k_E2 == p.alpha + p.mu
            assert r.k_I1 == p.gamma1 + p.phi1 + p.mu
            assert r.k_I2 == p.gamma2 + p.phi2 + p.mu
            assert r.k_A == p.gamma3 + p.mu
            assert r.in_I1 == p.rho * p.alpha
            assert r.in_I2 == (1.0 - p.rho) * p.alpha
            assert r.r_c == p.beta * p.S0 / r.k_E1 * r.bracket

    def test_with_updates_gets_a_fresh_table(self, params_614g):
        p = params_614g
        before = p.rates
        q = p.with_updates(rho=0.8)
        assert q.rates.in_I1 == 0.8 * p.alpha
        assert q.rates.in_I2 == (1.0 - 0.8) * p.alpha
        assert q.rates.r_c < before.r_c
        assert p.rates is before
        assert q == p.with_updates(rho=0.8)  # the table takes no part in equality

    def test_extended_field_counters_and_compartments(self, rng):
        for _ in range(20):
            p = draw_params(rng)
            y = random_state(rng)
            full = extended_field(p)(y)
            E1, E2 = y[1], y[2]
            assert full.shape == (10,)
            assert full[7] == p.rates.in_I1 * E2
            assert full[8] == p.rates.in_I2 * E2
            assert full[9] == p.epsilon * E1
            assert np.array_equal(full[:7], rhs(y, p))

    def test_extended_field_is_the_docstring_equations(self, rng):
        for _ in range(50):
            p = draw_params(rng)
            y = random_state(rng)
            assert_field_matches_equations(extended_field(p)(y), p, y)

    def test_batched_field_is_each_members_field(self, rng):
        for _ in range(20):
            members = [draw_params(rng) for _ in range(4)]
            ys = np.stack([np.concatenate([random_state(rng), rng.uniform(size=3)])
                           for _ in members], axis=1)
            batch = extended_field(members)(ys)
            assert batch.shape == (10, 4)
            for k, p in enumerate(members):
                assert_field_matches_equations(batch[:, k], p, ys[:, k])
                single = extended_field(p)(ys[:, k])
                assert batch[:, k].tobytes() == single.tobytes()

    def test_integer_state_reads_as_float(self, rng):
        # the field's buffers take at least float, so integer counts are not
        # truncated on their way into the product
        p, members = draw_params(rng), [draw_params(rng) for _ in range(3)]
        whole = rng.integers(0, 10**6, size=(10, 3))
        for params, y in ((p, whole[:, 0]), (p, whole), (members, whole)):
            value = extended_field(params)(y)
            assert value.dtype == float
            assert value.tobytes() == extended_field(params)(y.astype(float)).tobytes()

    @staticmethod
    def stage_cases(rng):
        """(params, state) for a (10,) state, a (10, 4) block of one shared
        set, a (10, 4) block of one set per member, and the complex probe
        y + i*f(y) of a (10,) state, counters random."""
        p, members = draw_params(rng), [draw_params(rng) for _ in range(4)]
        one = np.concatenate([random_state(rng), rng.uniform(size=3)])
        ys = np.stack([np.concatenate([random_state(rng), rng.uniform(size=3)])
                       for _ in members], axis=1)
        probe = one + 1j * reference_field(p)(one)
        return ((p, one), (p, ys), (members, ys), (p, probe))

    def test_stage_writes_the_reference_bytes(self, rng):
        # a state written into the stage buffer evaluates into out, a row
        # of a larger buffer that starts as NaN, as an integrator's stage is
        for _ in range(20):
            for params, y in self.stage_cases(rng):
                f = extended_field(params)
                out = np.full((2,) + y.shape, np.nan, y.dtype)[1]
                state, evaluate = f.stage(out)
                assert state.shape == y.shape and state.dtype == y.dtype
                state[...] = y
                assert evaluate() is out
                assert out.tobytes() == reference_field(params)(y).tobytes()
                assert f(y).tobytes() == out.tobytes()

    @pytest.mark.parametrize("stale", [np.nan, np.inf, -1e300])
    def test_stale_counters_and_products_do_not_leak(self, rng, stale):
        # rows 7:11 of phi hold the counters of the state written last and
        # the products of the last evaluation: an evaluation at a state full
        # of ``stale`` leaves it in all of them, and a state whose counters
        # are ``stale`` evaluates as the reference, which reads y[:7] only
        for _ in range(10):
            for params, y in self.stage_cases(rng):
                f = extended_field(params)
                out = np.empty(y.shape, y.dtype)
                state, evaluate = f.stage(out)
                state.fill(stale)
                with np.errstate(all="ignore"):
                    evaluate()
                state[...] = y
                state[7:] = stale
                evaluate()
                assert out.tobytes() == reference_field(params)(y).tobytes()
                # every stage of a shape and dtype shares one buffer
                other, _ = f.stage(np.empty_like(out))
                assert np.shares_memory(other, state)


class TestPopulationBalance:
    def test_empty_population(self, params_614g):
        assert population_balance(np.zeros(7), params_614g) == params_614g.Lambda

    def test_dfe_balances_exactly(self, variant):
        _, p = variant
        assert population_balance(disease_free_equilibrium(p), p) == 0.0

    def test_equals_componentwise_rhs_sum(self, rng):
        for _ in range(100):
            p = draw_params(rng)
            y = random_state(rng)
            derivative = rhs(y, p)
            scale = max(1.0, float(np.max(np.abs(derivative))))
            assert abs(derivative.sum() - population_balance(y, p)) <= 1e-12 * scale


class TestControlReproductionNumber:
    def test_zero_without_transmission(self, params_614g):
        assert control_reproduction_number(params_614g.with_updates(beta=0.0)) == 0.0

    def test_linear_in_beta(self, params_614g):
        rc = control_reproduction_number(params_614g)
        doubled = params_614g.with_updates(beta=2.0 * params_614g.beta)
        assert control_reproduction_number(doubled) == 2.0 * rc

    def test_frozen_oracle_values(self, variant):
        name, p = variant
        rc = control_reproduction_number(p)
        assert rc == pytest.approx(ORACLE_R_C[name], rel=1e-12)

    def test_614g_magnitude(self, params_614g):
        assert control_reproduction_number(params_614g) == pytest.approx(1.66, abs=0.01)

    def test_strictly_decreasing_in_rho(self, variant):
        _, p = variant
        values = [control_reproduction_number(p.with_updates(rho=r / 10.0))
                  for r in range(11)]
        assert all(a > b for a, b in zip(values, values[1:]))


class TestNextGenerationMatrices:
    def test_structure(self, variant):
        _, p = variant
        F, V = next_generation_matrices(p)
        # in the field's product order: each coefficient of C times S0
        bS0 = p.beta * p.S0
        assert np.array_equal(F[0], [0.0, bS0, 0.0, bS0, (p.beta * p.omega) * p.S0])
        assert np.all(F[1:] == 0.0)
        assert np.all(np.triu(V, k=1) == 0.0)
        diag = [p.sigma + p.epsilon + p.mu, p.alpha + p.mu,
                p.gamma1 + p.phi1 + p.mu, p.gamma2 + p.phi2 + p.mu,
                p.gamma3 + p.mu]
        assert np.array_equal(np.diag(V), diag)

    def test_zero_beta_gives_zero_f(self, params_614g):
        F, _ = next_generation_matrices(params_614g.with_updates(beta=0.0))
        assert np.all(F == 0.0)

    def test_det_v_is_product_of_diagonal(self, rng):
        for _ in range(20):
            _, V = next_generation_matrices(draw_params(rng))
            assert np.linalg.det(V) == pytest.approx(float(np.prod(np.diag(V))),
                                                     rel=1e-12)


class TestNgmSpectralRadius:
    def test_zero_matrix(self):
        assert ngm_spectral_radius(np.zeros((5, 5)), np.eye(5)) == 0.0

    def test_nilpotent_single_entry(self):
        F = np.zeros((5, 5))
        F[0, 1] = 3.7
        assert ngm_spectral_radius(F, np.eye(5)) == 0.0

    def test_matches_closed_form_on_variants(self, variant):
        _, p = variant
        F, V = next_generation_matrices(p)
        rc = control_reproduction_number(p)
        assert ngm_spectral_radius(F, V) == pytest.approx(rc, rel=1e-12)

    def test_matches_closed_form_on_random_draws(self, rng):
        for _ in range(200):
            p = draw_params(rng)
            F, V = next_generation_matrices(p)
            rc = control_reproduction_number(p)
            assert ngm_spectral_radius(F, V) == pytest.approx(rc, rel=1e-10)

    def test_singular_v_raises(self):
        with pytest.raises(np.linalg.LinAlgError):
            ngm_spectral_radius(np.zeros((5, 5)), np.zeros((5, 5)))


class TestDiseaseFreeEquilibrium:
    def test_oracle_s0(self):
        for name, expected in ORACLE_S0.items():
            dfe = disease_free_equilibrium(VARIANTS[name])
            assert dfe[S_AT] == pytest.approx(expected, rel=1e-12)
            assert dfe[1:].sum() == 0.0

    def test_rhs_vanishes(self, variant):
        _, p = variant
        assert np.all(rhs(disease_free_equilibrium(p), p) == 0.0)


class TestEndemicEquilibrium:
    def test_both_equilibria_are_float_arrays(self, params_614g):
        for point in (disease_free_equilibrium(params_614g),
                      endemic_equilibrium(params_614g)):
            assert point.shape == (7,) and point.dtype == float

    def test_absent_below_threshold(self, rng):
        assert endemic_equilibrium(draw_params_at_rc(rng, 0.5)) is None

    def test_absent_without_transmission(self, params_614g):
        assert endemic_equilibrium(params_614g.with_updates(beta=0.0)) is None

    def test_e1_star_oracle(self, variant):
        name, p = variant
        eq = endemic_equilibrium(p)
        assert eq[E1_AT] == pytest.approx(ORACLE_E1_STAR[name], rel=1e-10)

    def test_s_star_oracle_614g(self, params_614g):
        eq = endemic_equilibrium(params_614g)
        assert eq[S_AT] == pytest.approx(ORACLE_S_STAR_614G, rel=1e-10)

    def test_simplified_root_equals_raw_expression(self, rng):
        # raw form: -(mu*beta*S0 - Lambda*beta*R_c) / (beta*(sigma+eps+mu)*R_c)
        for _ in range(50):
            p = draw_params_at_rc(rng, float(rng.uniform(1.05, 6.0)))
            rc = control_reproduction_number(p)
            raw = -(p.mu * p.beta * p.S0 - p.Lambda * p.beta * rc) / (
                p.beta * (p.sigma + p.epsilon + p.mu) * rc)
            eq = endemic_equilibrium(p)
            assert eq[E1_AT] == pytest.approx(raw, rel=1e-10)

    def test_reproduction_number_identity_and_positivity(self, rng):
        for _ in range(100):
            p = draw_params_at_rc(rng, float(rng.uniform(1.01, 8.0)))
            rc = control_reproduction_number(p)
            eq = endemic_equilibrium(p)
            assert eq is not None
            assert np.all(eq > 0.0)
            assert abs(p.S0 / eq[S_AT] - rc) <= 1e-10 * rc
            assert np.max(np.abs(rhs(eq, p))) <= equilibrium_tolerance(p)

    def test_existence_iff_threshold(self, rng):
        for _ in range(200):
            p = draw_params(rng)
            rc = control_reproduction_number(p)
            eq = endemic_equilibrium(p)
            assert (eq is not None) == (rc > 1.0)


class TestJacobian:
    def test_recovered_self_decay(self, rng, params_614g):
        for _ in range(10):
            J = jacobian(random_state(rng), params_614g)
            assert J[6, 6] == -params_614g.mu

    def test_matches_finite_differences(self, rng):
        for _ in range(100):
            p = draw_params(rng)
            y = random_state(rng)
            J = jacobian(y, p)
            J_fd = np.empty_like(J)
            for j in range(7):
                h = 1e-4 * (1.0 + abs(y[j]))
                up, down = y.copy(), y.copy()
                up[j] += h
                down[j] -= h
                J_fd[:, j] = (rhs(up, p) - rhs(down, p)) / (2.0 * h)
            scale = max(1.0, float(np.max(np.abs(J))))
            np.testing.assert_allclose(J_fd, J, rtol=1e-5, atol=1e-9 * scale)

    def test_exact_where_a_small_step_would_underflow(self, params_614g):
        # beta*S = 1e-294: scaled by a complex step of 2**-100 it is below
        # the smallest subnormal, and the entry would read 0
        p = params_614g.with_updates(beta=1e-300)
        J = jacobian([1e6, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0], p)
        assert J[0, 2] == -(p.beta * 1e6)
        assert J[1, 5] == p.omega * (p.beta * 1e6)

    def test_dfe_block_reproduces_f_minus_v(self, variant):
        _, p = variant
        J = jacobian(disease_free_equilibrium(p), p)
        F, V = next_generation_matrices(p)
        assert np.array_equal(J[1:6, 1:6], F - V)
        # infected block is decoupled from S and R at the disease-free point
        assert np.all(J[1:6, 0] == 0.0)
        assert np.all(J[1:6, 6] == 0.0)
