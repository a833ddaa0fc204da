"""The Fehlberg step loop as written before its numpy calls were cut down,
and the model field as one allocating product, kept as the bit-for-bit
reference of ``simulate._run_fehlberg`` and ``model.extended_field``.

Both compute every value with plain array expressions that allocate their
results.  This loop lands a step on every stored sample.  The rewritten loop,
which lands only on whole days, with the rewritten field must store the same
bytes on whole days as this loop with this field at 1 sample/day, and fail
with the same error; ``test_simulation.TestFehlbergReference`` runs both.  Only ``MAX_STEPS`` is
read through the module, so that a test can patch it.
"""

import math

import numpy as np

from seiar import simulate
from seiar.errors import IntegrationError
from seiar.model import ModelParameters, _coefficient_matrix
from seiar.simulate import _A_ROWS, _B5, _ERR


def reference_field(params):
    """``model.extended_field`` as one allocating product C*phi: f(y) only."""
    if isinstance(params, ModelParameters):
        coefficients = _coefficient_matrix(params)

        def product(phi: np.ndarray) -> np.ndarray:
            return coefficients @ phi
    else:
        stacked = np.stack([_coefficient_matrix(p) for p in params])

        def product(phi: np.ndarray) -> np.ndarray:
            return (stacked @ phi.T[:, :, None])[:, :, 0].T

    def f(y: np.ndarray) -> np.ndarray:
        ones = np.ones((1,) + y.shape[1:])
        return product(np.concatenate([y[:7], y[0] * y[2:6], ones]))

    return f


def run_fehlberg_reference(f, y, out_times, out, rtol, atol, band):
    t = out_times[0]
    next_out = 1
    h_prop = min(0.25, out_times[-1] - t)
    hmin = 1e-12 * max(1.0, abs(out_times[-1] - out_times[0]))
    # stages are kept flat, (6, 10*m), so that each combination of them is
    # one matrix-vector product into a preallocated buffer for any m
    k = np.empty((6,) + y.shape)
    k_flat = k.reshape(6, -1)
    comb = np.empty(y.shape)
    comb_flat = comb.reshape(-1)
    taken = 0
    while next_out < len(out_times):
        h = min(h_prop, out_times[next_out] - t)
        clamped = h < h_prop
        k[0] = f(y)
        for s in range(1, 6):
            np.dot(_A_ROWS[s], k_flat[:s], out=comb_flat)
            k[s] = f(y + h * comb)
        np.dot(_B5, k_flat, out=comb_flat)
        y5 = y + h * comb
        np.dot(_ERR, k_flat, out=comb_flat)
        q = h * comb / (atol + rtol * np.maximum(np.abs(y), np.abs(y5)))
        # RMS over the 10 components of each member; the worst member decides
        square_sums = (q * q).sum(axis=0)
        err = math.sqrt(square_sums.max() / len(y))
        if not math.isfinite(err):
            raise IntegrationError("error estimate became non-finite", t,
                                   int(np.argmin(np.isfinite(square_sums))))
        factor = 5.0 if err == 0.0 else min(5.0, max(0.2, 0.9 * err ** -0.2))
        if err <= 1.0:
            if not np.isfinite(y5).all():
                raise IntegrationError("state became non-finite", t + h,
                                       int(np.argmin(np.isfinite(y5).all(axis=0))))
            if (y5[:7].min(axis=0) < -band).any():
                # the error test passed, but a compartment fell below its
                # band: reject the step and retry it at half the length
                factor = 0.5
            else:
                t = t + h
                y = y5
                if abs(t - out_times[next_out]) <= 1e-12 * max(1.0, abs(t)):
                    out[next_out] = y
                    t = out_times[next_out]
                    next_out += 1
        candidate = h * factor
        # a step shortened only to land on the output grid must not drag the
        # controller's proposal down with it
        if not clamped or candidate < h_prop:
            h_prop = candidate
        if h_prop < hmin:
            raise IntegrationError("step size underflow after repeated rejections", t)
        taken += 1
        if taken > simulate.MAX_STEPS:
            raise IntegrationError("step budget exhausted", t)
