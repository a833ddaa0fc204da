"""Time integration of the compartment model and derived observables.

Simulations carry three auxiliary quadrature states alongside the seven
compartments: the cumulative inflows into I1 (integral of rho*alpha*E2),
I2 (integral of (1-rho)*alpha*E2) and A (integral of epsilon*E1).  Daily new
detected cases are differences of the first counter at day boundaries, which
stays exact under adaptive stepping (no sampling of the integrand at day
edges is involved).  They come as a plain array whose row is the day, with
one column per run for m runs, and :func:`peak` reads each column's peak.

Two steppers are provided: an embedded Fehlberg 4(5) pair with proportional
step control (default) and a fixed-step classical 4th-order Runge-Kutta kept
for convergence checks.  The Fehlberg stepper lands a step only on whole days
and on the window's end, and fills the samples inside a day by quintic
Hermite interpolation on y, f and y'' = J*f at the step's two ends, so its
whole-day rows are those of a run at one sample a day, at any density; RK4
steps onto every sample.  The interpolation pays per step only for its
arithmetic: f and y'' at a step's end become the next step's start data in
place, and a step that starts on a sample takes weights computed once per
run for its sample count and length.  Neither stepper clips a compartment
that undershoots below -1e-9 * N(0), since clipping would silently break the
population balance.  The Fehlberg stepper rejects such a step, or one whose
interpolated samples undershoot, and retries it at half the length, failing
only when the step underflows, with an error that names the member and the
compartment the last such rejection found below the band; RK4, whose step
is fixed, aborts with an error that names them likewise.
An initial state may undershoot by as much, so a run can resume from a
state it stored.
Both abort on a non-finite state.  An initial state is a (7,) float array,
and m of them the rows of an (m, 7) array; both step a component-major state
of shape (10,) for one run or (10, m) for an ensemble of m runs that share
every step, and one :class:`Trajectory` holds either, the ensemble's with a
trailing member axis.  An ensemble's members share one parameter set or carry one
each; either way the field is one call per stage, which the Fehlberg stepper
makes on a state it wrote straight into the field's own feature buffer.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .errors import IntegrationError, require_integers
from .model import COMPARTMENTS, ModelParameters, extended_field

#: undershoot tolerance band, relative to the initial total population
NEGATIVITY_BAND = 1e-9

#: steps one call may take, shared by an ensemble's members; a window with
#: more output samples, or an RK4 run with more steps, fails before stepping
MAX_STEPS = 2_000_000

# Fehlberg 4(5) tableau, kept in exact rationals so its order conditions can
# be checked exactly; stage times are omitted because the system is
# autonomous. The 5th-order solution is propagated and the difference to the
# 4th-order one drives the step controller.
_FEHLBERG_A = (
    (),
    (Fraction(1, 4),),
    (Fraction(3, 32), Fraction(9, 32)),
    (Fraction(1932, 2197), Fraction(-7200, 2197), Fraction(7296, 2197)),
    (Fraction(439, 216), Fraction(-8), Fraction(3680, 513), Fraction(-845, 4104)),
    (Fraction(-8, 27), Fraction(2), Fraction(-3544, 2565), Fraction(1859, 4104),
     Fraction(-11, 40)),
)
_FEHLBERG_B5 = (Fraction(16, 135), Fraction(0), Fraction(6656, 12825),
                Fraction(28561, 56430), Fraction(-9, 50), Fraction(2, 55))
_FEHLBERG_B4 = (Fraction(25, 216), Fraction(0), Fraction(1408, 2565),
                Fraction(2197, 4104), Fraction(-1, 5), Fraction(0))
_A_ROWS = tuple(np.array(row, dtype=float) for row in _FEHLBERG_A)
_B5 = np.array(_FEHLBERG_B5, dtype=float)
_ERR = _B5 - np.array(_FEHLBERG_B4, dtype=float)

# Quintic Hermite basis on theta in [0, 1], in exact rationals: row j holds
# the coefficients of theta**0 .. theta**5 of the basis function that takes
# the value 1 at the j-th of p(0), p'(0), p''(0), p(1), p'(1), p''(1) and 0
# at the other five (Hairer, Norsett & Wanner, Solving ODEs I, II.6).  Over
# a step of length h, with p(theta) = y(t + theta*h), the data are y, h*f
# and h*h*y'' at both ends, so the interpolant is exact for any state that
# is a polynomial of degree 5 or less in t.
_HERMITE = (
    (1, 0, 0, -10, 15, -6),
    (0, 1, 0, -6, 8, -3),
    (0, 0, Fraction(1, 2), Fraction(-3, 2), Fraction(3, 2), Fraction(-1, 2)),
    (0, 0, 0, 10, -15, 6),
    (0, 0, 0, -4, 7, -3),
    (0, 0, 0, Fraction(1, 2), -1, Fraction(1, 2)),
)
# The p(0) and p(1) functions sum to 1, so the interpolant is evaluated in
# increment form, y_start + (y_end - y_start) * [p(1) function] + ...: the
# p(0) row gives way to the constant 1, and y_end to the increment.  A state
# that does not move (f = y'' = 0, y_end = y_start) then stays exactly put
# at every sample, in whatever order the product sums.  The step loop keeps
# f and y'' of the two ends in two slots that trade roles from step to step,
# so it takes these columns in either order: start's data first, or end's.
_HERMITE_WEIGHTS = np.array(((1, 0, 0, 0, 0, 0),) + _HERMITE[1:], dtype=float).T
_SLOT_WEIGHTS = (_HERMITE_WEIGHTS, _HERMITE_WEIGHTS[:, (0, 4, 5, 3, 1, 2)])
_POWERS = np.arange(6)


@dataclass(frozen=True)
class IntegratorConfig:
    """How to integrate: window, method, accuracy and output density.

    ``method`` is "adaptive" (embedded 4(5)) or "rk4" (fixed step ``step``).
    ``atol=None`` resolves to 1e-10 * N(0) at integration time.  States are
    recorded on a uniform grid of ``sample_per_day`` points per day, so day
    boundaries always land on stored samples.  The adaptive method's steps
    land only on whole days (and on ``t_end``), so ``sample_per_day`` sets
    the output only: the whole-day rows are the same bytes at any density.
    Every number is finite, and ``sample_per_day`` an integer.
    """

    t0: float = 0.0
    t_end: float = 100.0
    method: str = "adaptive"
    step: float = 0.01
    rtol: float = 1e-8
    atol: float | None = None
    sample_per_day: int = 10

    def __post_init__(self):
        if self.method not in ("adaptive", "rk4"):
            raise ValueError(f"unknown integration method {self.method!r}")
        # each check is written so that NaN fails it
        for name in ("t0", "t_end"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)!r}")
        if not self.t_end > self.t0:
            raise ValueError("t_end must exceed t0")
        for name in ("step", "rtol", "atol"):
            value = getattr(self, name)
            if value is not None and not 0 < value < math.inf:
                raise ValueError(f"{name} must be positive and finite, got {value!r}")
        require_integers(self, "sample_per_day")
        if self.sample_per_day < 1:
            raise ValueError(f"sample_per_day must be at least 1, got {self.sample_per_day!r}")


@dataclass(frozen=True)
class Trajectory:
    """Stored solution: times (days), states (n,7) and cumulative inflows (n,3),
    or (n,7,m) and (n,3,m) for m runs, member i at index i of the last axis.

    The inflow columns are the running integrals of rho*alpha*E2 (into I1),
    (1-rho)*alpha*E2 (into I2) and epsilon*E1 (into A), all starting at zero.
    ``sample_per_day`` is the density of the uniform grid the run stored, so
    sample k*sample_per_day is whole day k after ``times[0]``.
    """

    times: np.ndarray
    states: np.ndarray
    cumulative_inflows: np.ndarray
    sample_per_day: int

    def __post_init__(self):
        for arr in (self.times, self.states, self.cumulative_inflows):
            arr.flags.writeable = False

    @property
    def cum_I1(self) -> np.ndarray:
        return self.cumulative_inflows[:, 0]

    @property
    def cum_I2(self) -> np.ndarray:
        return self.cumulative_inflows[:, 1]

    @property
    def cum_A(self) -> np.ndarray:
        return self.cumulative_inflows[:, 2]

    @property
    def totals(self) -> np.ndarray:
        """Total population N(t) at each stored time."""
        return self.states.sum(axis=1)

    def day_boundary_indices(self) -> np.ndarray:
        """Indices of the stored samples on whole days 0, 1, ... since t0."""
        # an endpoint appended off the grid counts only if it ends a whole day
        whole_days = math.floor(self.times[-1] - self.times[0] + 1e-9)
        return np.arange(whole_days + 1) * self.sample_per_day


@dataclass(frozen=True)
class ClassBreakdown:
    """Cumulative inflows by infected class and their shares at the endpoint.

    Counts are numpy scalars and shares (3,) for one run, or (m,) and
    (3, m) for m runs.  Proportions are NaN when the corresponding total is
    zero (an undefined marker, never a division by zero).  Both the
    cumulative-inflow shares and the point-prevalence shares at t_end are
    reported; which one a given summary statistic refers to is for the
    caller to decide.
    """

    cum_I1: np.floating | np.ndarray
    cum_I2: np.floating | np.ndarray
    cum_A: np.floating | np.ndarray
    cum_proportions: np.ndarray
    prevalence_proportions: np.ndarray

    @property
    def cum_total(self) -> np.floating | np.ndarray:
        return self.cum_I1 + self.cum_I2 + self.cum_A


def _output_grid(config: IntegratorConfig) -> np.ndarray:
    span = config.t_end - config.t0
    n_full = int(math.floor(span * config.sample_per_day + 1e-9))
    # the stored block is bounded with the steps: a window with more samples
    # than the step budget fails before anything is allocated
    if n_full > MAX_STEPS:
        raise IntegrationError("step budget exhausted",
                               config.t0 + MAX_STEPS / config.sample_per_day)
    times = config.t0 + np.arange(n_full + 1) / config.sample_per_day
    if times[-1] < config.t_end - 1e-9:
        times = np.append(times, config.t_end)
    return times


def _check_state(y: np.ndarray, t: float, band) -> None:
    # a failure names its member: the first non-finite one, or the one
    # deepest below its own band (0 for a single run)
    _refuse_non_finite(y[None], (t,))
    if (y[:7] < -band).any():
        member, undershoot = _deepest_undershoot(y[None], band)
        raise IntegrationError("compartment undershot the nonnegativity band: the step "
                               f"took {undershoot}", t, member)


def _solve(params: ModelParameters | Sequence[ModelParameters], y0: np.ndarray,
           config: IntegratorConfig) -> tuple[np.ndarray, np.ndarray]:
    """Integrate from component-major initial compartments of shape (7,) or
    (7, m); return the output times and the stored (n, 10) or (n, 10, m) block.

    ``params`` is one set for every member or one set per member, as
    :func:`extended_field` takes it.  Every member gets its own atol and
    negativity band from its own N(0).
    """
    n0 = np.maximum(y0.sum(axis=0), 1.0)
    band = NEGATIVITY_BAND * n0
    # a stored state may sit inside the band, and a run can restart from it
    if np.any(y0 < -band):
        raise ValueError("initial state must be nonnegative, to within the "
                         "negativity band")
    atol = config.atol if config.atol is not None else 1e-10 * n0
    f = extended_field(params)
    out_times = _output_grid(config)
    y = np.concatenate([y0, np.zeros((3,) + y0.shape[1:])])
    out = np.empty((len(out_times),) + y.shape)
    out[0] = y

    # a state that overflows is diagnosed by the steppers' own checks, as a
    # non-finite state, not reported by numpy as a warning on the way there
    with np.errstate(over="ignore", invalid="ignore"):
        if config.method == "rk4":
            _run_rk4(f, y, out_times, out, config.step, band)
        else:
            _run_fehlberg(f, y, out_times, out, config.rtol, atol, band,
                          config.sample_per_day)
    return out_times, out


def _initial_states(initial) -> np.ndarray:
    """``initial`` as one (7,) float state, or m states as (m, 7) rows."""
    y0 = np.asarray(initial, dtype=float)
    if y0.ndim not in (1, 2) or y0.shape[-1] != 7 or y0.size == 0:
        raise ValueError(f"initial states must have 7 components, got shape {y0.shape}")
    return y0


def integrate(params: ModelParameters | Sequence[ModelParameters], initial,
              config: IntegratorConfig) -> Trajectory:
    """Solve the model over ``[t0, t_end]`` from ``initial``: one (7,) state,
    or m states as the rows of an (m, 7) array-like (a list of (7,) arrays,
    say); any other shape is a ValueError that names it.

    The inflow counters start at zero.  For m states, ``params`` is one set
    for every member or one per member, and the :class:`Trajectory` holds
    views of one stored (n, 10, m) block.  The members share every step,
    which meets the worst member's tolerance, and a member that fails (see
    the module docstring) fails the call, with an :class:`IntegrationError`
    that names it.
    """
    y0 = _initial_states(initial).T  # component-major, as the steppers take it
    if not isinstance(params, ModelParameters) and y0.shape[1:] != (len(params),):
        raise ValueError(f"a sequence of {len(params)} parameter sets needs "
                         f"({len(params)}, 7) initial states, got shape {y0.T.shape}")
    times, out = _solve(params, y0, config)
    return Trajectory(times, out[:, :7], out[:, 7:], config.sample_per_day)


def _rk4_step(f, y, h):
    k1 = f(y)
    k2 = f(y + 0.5 * h * k1)
    k3 = f(y + 0.5 * h * k2)
    k4 = f(y + h * k3)
    return y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _run_rk4(f, y, out_times, out, step, band):
    # the step is snapped so that a whole number of steps fills each output
    # interval; with the defaults (h = 0.01 d, 10 samples/d) it is unchanged.
    # Every step is known before the first, so the budget is checked first;
    # a tiny step overflows to an infinite count, which fails it
    spans = np.diff(out_times)
    n_subs = np.maximum(1.0, np.rint(spans / step))
    taken = np.cumsum(n_subs)
    if taken[-1] > MAX_STEPS:
        raise IntegrationError("step budget exhausted",
                               out_times[np.argmax(taken > MAX_STEPS)])
    for j, n_sub in enumerate(n_subs.astype(int).tolist()):
        t, h = out_times[j], spans[j] / n_sub
        for i in range(n_sub):
            y = _rk4_step(f, y, h)
            _check_state(y, t + (i + 1) * h, band)
        out[j + 1] = y


def _run_fehlberg(f, y, out_times, out, rtol, atol, band, per_day):
    # Steps land only on whole days since t0, every ``per_day``-th sample,
    # and on the last sample; the samples inside an accepted step are
    # interpolated (see ``_HERMITE``).  With one sample a day every sample is
    # a landing point, and nothing is interpolated.
    # On (10,) and (10, m) arrays a numpy call costs more than its
    # arithmetic, so the loop makes as few as it can.  Every intermediate is
    # written into a buffer allocated here, ``out`` passed by position (numpy
    # parses that faster than a keyword, but np.maximum takes only the
    # keyword).  Each is the same operation on the same operands as the plain
    # expression in its comment, so the results are the same to the bit.
    # ``y`` and ``y5`` are two buffers that trade places on every accepted
    # step, and so are ``ay`` and ``ay5``, which carry |y| over to the next
    # step; ``y`` starts as the caller's initial state and is overwritten.
    # Each state the field is evaluated at, a stage's, a step's end or a
    # complex probe, is written straight into the field's own feature buffer
    # (``f.stage``, see ``extended_field``), and the field straight into its
    # row of ``k``, its slot of ``ends`` or ``probe_f``.  ``out[next_out] =
    # y`` copies, so a stored row keeps its values when its buffer is
    # reused.  Only the samples inside a step may differ from the formula
    # written out afresh, in their last bits:
    # their weights' columns follow the slots' order, and a step that starts
    # on a sample reads theta off the sample indices.
    grid = out_times.tolist()
    last = len(grid) - 1
    t = grid[0]
    next_out = min(per_day, last)
    filled = 1  # the first sample not yet stored
    h_prop = min(0.25, grid[-1] - t)
    hmin = 1e-12 * max(1.0, abs(grid[-1] - grid[0]))
    # stages are kept flat, (6, 10*m), so that each combination of them is
    # one matrix-vector product into a preallocated buffer for any m
    k = np.empty((6,) + y.shape)
    k_flat = k.reshape(6, -1)
    k0, (y_state, y_field) = k[0], f.stage(k[0])
    stages = [(_A_ROWS[s], k_flat[:s]) + f.stage(k[s]) for s in range(1, 6)]
    comb = np.empty(y.shape)
    comb_flat = comb.reshape(-1)
    y5, ay, ay5, scale = np.empty(y.shape), np.abs(y), np.empty(y.shape), np.empty(y.shape)
    # h, rtol and atol filled out to the state's shape: a ufunc takes an
    # array operand faster than a scalar one
    hs, rtols, atols = np.empty(y.shape), np.full(y.shape, rtol), np.full(y.shape, atol)
    # a step is admissible when floor <= y5 <= the largest float: that refuses
    # NaN and infinities, and compartments below their band, but no finite
    # counter; a byte compare reads the verdict, ten times cheaper here than
    # a reduction
    huge = np.finfo(float).max
    floor = np.empty(y.shape)
    floor[:7] = -band
    floor[7:] = -huge
    ceiling = np.full(y.shape, huge)
    ok = np.empty((2,) + y.shape, dtype=bool)
    above_floor, below_ceiling = ok
    admissible = b"\x01" * ok.size
    # the Hermite data of a step in increment form (see ``_HERMITE_WEIGHTS``),
    # flat like ``k``: y at its start in row 0, y_end - y_start in row 3,
    # and f and y'' of its two ends in two slots, rows 1-2 and 4-5, each
    # slot with the field's stage into its f.  When a step with samples
    # inside is accepted, its end's slot becomes the next step's start, so
    # only f(y_end) is copied, into k0.  ``start`` is the start's slot, and
    # ``_SLOT_WEIGHTS[start]`` orders the weights' columns
    # to match.  ``f_fresh``: k0 already holds f(y); ``start_fresh``: the
    # start's slot holds f and y'' at y
    ends = np.empty((6,) + y.shape)
    ends_flat = ends.reshape(6, -1)
    y_start, increment = ends[0], ends[3]
    slots = tuple((ends[i], ends[i + 1]) + f.stage(ends[i]) for i in (1, 4))
    start = 0
    # y'' = J*f at a state y with f(y) = fy is the imaginary part of f at
    # the complex probe y + i*fy, exact for this quadratic field
    probe_f = np.empty(y.shape, complex)
    probe, probe_field = f.stage(probe_f)
    probe_curvature = probe_f.imag
    f_fresh = start_fresh = False
    # a step that starts on stored sample i0 takes its samples at theta =
    # (i - i0) / (per_day * h), so its weights depend only on the number of
    # samples inside, h and the slots' order: each is computed once per run
    weight_cache = {}
    # the samples inside a step, fewer than per_day as steps span at most a
    # day, are admitted like its end, by one byte compare
    sample_ok = np.empty((per_day - 1, 2) + y.shape, dtype=bool)
    samples_admissible = b"\x01" * sample_ok.size
    # (t, the deepest undershoot) of the last step refused for the band,
    # which names the cause when the step underflows at that t
    refusal = None
    # RMS over the 10 components of each member; the worst member decides,
    # and one run's sum of squares is already a scalar
    worst = np.maximum.reduce if y.ndim > 1 else float
    dot, multiply, add, less_equal = np.dot, np.multiply, np.add, np.less_equal
    maximum, absolute, divide, copyto = np.maximum, np.abs, np.divide, np.copyto
    subtract = np.subtract
    taken = 0
    while filled <= last:
        h = grid[next_out] - t
        clamped = h < h_prop
        if not clamped:
            h = h_prop
        hs.fill(h)
        if not f_fresh:
            copyto(y_state, y)
            y_field()  # k0 = f(y)
        f_fresh = False
        for a_row, k_prev, state, evaluate in stages:
            dot(a_row, k_prev, comb_flat)
            add(y, multiply(comb, hs, comb), state)
            evaluate()  # k_s = f(y + h * comb)
        dot(_B5, k_flat, comb_flat)
        add(y, multiply(comb, hs, comb), y5)  # y5 = y + h * comb
        dot(_ERR, k_flat, comb_flat)
        # q = h * comb / (atol + rtol * np.maximum(np.abs(y), np.abs(y5)))
        multiply(comb, hs, comb)
        multiply(maximum(ay, absolute(y5, ay5), out=scale), rtols, scale)
        divide(comb, add(scale, atols, scale), comb)
        square_sums = add.reduce(multiply(comb, comb, comb), 0)
        err = math.sqrt(worst(square_sums) / len(y))
        if not math.isfinite(err):
            raise IntegrationError("error estimate became non-finite", t,
                                   int(np.argmin(np.isfinite(square_sums))))
        factor = 5.0 if err == 0.0 else min(5.0, max(0.2, 0.9 * err ** -0.2))
        if err <= 1.0:
            less_equal(floor, y5, above_floor)
            less_equal(y5, ceiling, below_ceiling)
            admitted = ok.tobytes() == admissible
            if admitted and filled < next_out:
                inside = bisect_right(grid, t + h, filled, next_out)
                if inside > filled:
                    # fill the samples inside the step, which must pass the
                    # endpoint's rule: out[filled:inside] = W @ ends, W the
                    # Hermite weights at theta = (t_i - t) / h
                    f_start, ypp_start, _, _ = slots[start]
                    f_end, ypp_end, end_state, end_field = slots[1 - start]
                    if not start_fresh:
                        copyto(f_start, k0)
                        add(multiply(k0, 1j, probe), y, probe)
                        probe_field()
                        copyto(ypp_start, probe_curvature)  # y'' = J*f at y
                        start_fresh = True
                    copyto(y_start, y)
                    subtract(y5, y, increment)
                    copyto(end_state, y5)
                    end_field()  # f_end = f(y5)
                    add(multiply(f_end, 1j, probe), y5, probe)
                    probe_field()
                    copyto(ypp_end, probe_curvature)  # y'' = J*f at y5
                    n = inside - filled
                    if t == grid[filled - 1]:
                        key = n, h, start
                        weights = weight_cache.get(key)
                        if weights is None:
                            weights = weight_cache[key] = _hermite_weights(
                                np.arange(1, n + 1) / (per_day * h), h, start)
                    else:
                        theta = out_times[filled:inside] - t
                        theta /= h
                        weights = _hermite_weights(theta, h, start)
                    block = out[filled:inside]
                    dot(weights, ends_flat, block.reshape(n, -1))
                    checks = sample_ok[:n]
                    less_equal(floor, block, checks[:, 0])
                    less_equal(block, ceiling, checks[:, 1])
                    admitted = checks.tobytes() == samples_admissible[:checks.nbytes]
                    if admitted:
                        # the end's f serves the next step, and its slot
                        # becomes the start's
                        copyto(k0, f_end)
                        start = 1 - start
                        f_fresh = True
                        filled = inside
            if admitted:
                t = t + h
                y, y5, ay, ay5 = y5, y, ay5, ay
                start_fresh = f_fresh
                if abs(t - grid[next_out]) <= 1e-12 * max(1.0, abs(t)):
                    out[next_out] = y
                    t = grid[next_out]
                    filled = next_out + 1
                    next_out += per_day
                    if next_out > last:
                        next_out = last
            else:
                # the error test passed, but a state the step reached is
                # not finite, which fails the run, or a compartment fell
                # below its band, at the step's end or inside it: reject the
                # step and retry it at half the length
                if ok.tobytes() == admissible:  # the end passed; a sample inside did not
                    reached, times = out[filled:inside], grid[filled:inside]
                else:
                    reached, times = y5[None], (t + h,)
                _refuse_non_finite(reached, times)
                refusal = t, _deepest_undershoot(reached, band)
                factor = 0.5
                f_fresh = True  # y is unchanged, and k0 still holds f(y)
        else:
            f_fresh = True
        candidate = h * factor
        # a step shortened only to land on a whole day or on the last sample
        # must not drag the controller's proposal down with it
        if not clamped or candidate < h_prop:
            h_prop = candidate
        if h_prop < hmin:
            raise _underflow(t, refusal)
        taken += 1
        if taken > MAX_STEPS:
            raise IntegrationError("step budget exhausted", t)


def _hermite_weights(theta: np.ndarray, h: float, start: int) -> np.ndarray:
    """The (n, 6) weights of a step of length ``h`` at the fractions
    ``theta`` of it, in the column order of slot ``start`` (see
    ``_SLOT_WEIGHTS``), the columns of f and y'' scaled by h and h*h."""
    weights = np.dot(theta[:, None] ** _POWERS, _SLOT_WEIGHTS[start])
    weights *= (1.0, h, h * h, 1.0, h, h * h)
    return weights


def _deepest_undershoot(states: np.ndarray, band) -> tuple[int, str]:
    """(member, description) of the compartment deepest below its member's
    band in ``states``, (n, 10) or (n, 10, m); member 0 for one run."""
    margin = states[:, :7] + band
    index = np.unravel_index(np.argmin(margin), margin.shape)
    member = int(index[2]) if states.ndim == 3 else 0
    value, floor = float(states[:, :7][index]), -float(np.ravel(band)[member])
    return member, (f"{COMPARTMENTS[index[1]]} of member {member} to {value:.6e}, "
                    f"{floor - value:.3e} below the band at {floor:.6e}")


def _underflow(t: float, refusal) -> IntegrationError:
    """The step underflow at ``t``, naming the compartment, member and depth
    of the last step refused at ``t`` for the band, if one was."""
    message = "step size underflow after repeated rejections"
    if refusal is None or refusal[0] != t:
        return IntegrationError(message, t)
    member, undershoot = refusal[1]
    return IntegrationError(f"{message}: the last step refused for the nonnegativity band "
                            f"took {undershoot}", t, member)


def _refuse_non_finite(block: np.ndarray, times: Sequence[float]) -> None:
    """Fail on the first state of ``block``, (n, 10) or (n, 10, m) at
    ``times``, that is not finite, naming its time and its first non-finite
    member; return when all are finite."""
    bad = ~np.isfinite(block).all(axis=1)
    rows = bad.reshape(len(bad), -1).any(axis=1)
    if rows.any():
        row = int(np.argmax(rows))
        raise IntegrationError("state became non-finite", times[row], int(np.argmax(bad[row])))


def daily_incidence(traj: Trajectory) -> np.ndarray:
    """New detected cases per whole day, the differences of the I1-inflow
    counter: a read-only (days,) array for one run, or (days, m) for m runs.

    Row d covers [d, d+1) after the window start.  Requires the trajectory to
    span at least one whole day.
    """
    idx = traj.day_boundary_indices()
    if len(idx) < 2:
        raise ValueError("trajectory must span at least one whole day")
    values = np.diff(traj.cum_I1[idx], axis=0)
    values.flags.writeable = False
    return values


def cumulative_by_class(traj: Trajectory) -> ClassBreakdown:
    """Cumulative inflows into I1, I2, A at t_end plus endpoint shares."""
    cum = traj.cumulative_inflows[-1]
    prev = traj.states[-1, 3:6]
    cum_total, prev_total = cum.sum(axis=0), prev.sum(axis=0)
    # a zero total divides by NaN: an undefined share, and no warning
    return ClassBreakdown(
        cum_I1=cum[0], cum_I2=cum[1], cum_A=cum[2],
        cum_proportions=cum / np.where(cum_total > 0, cum_total, np.nan),
        prevalence_proportions=prev / np.where(prev_total > 0, prev_total, np.nan))


def peak(incidence: np.ndarray) -> tuple:
    """Earliest day attaining the maximum incidence, with its value, read
    along the time axis: (int, float) for a (days,) series, or two (m,)
    arrays for a (days, m) one, member i's peak at index i.
    """
    if len(incidence) == 0:
        raise ValueError("incidence series is empty")
    day, value = np.argmax(incidence, axis=0), np.max(incidence, axis=0)
    if np.ndim(incidence) == 1:
        return int(day), float(value)
    return day, value
