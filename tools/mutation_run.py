"""Mutation run: how many one-line faults in the package do the tier-1 tests catch?

    python tools/mutation_run.py            # every mutant
    python tools/mutation_run.py exponent   # only mutants whose name contains "exponent"

Each mutant replaces one fragment of one line in ``src/seiar/{model,stability,
simulate,calibrate,io,scenarios}.py`` with a wrong one; the fragment must occur exactly
once in its module.  For each mutant the checkout's ``src``, ``tests``,
``demos``, ``tools`` and ``perfbench`` (the tests load ``tools``, which load
``perfbench``) and its ``pyproject.toml`` are copied to a fresh temporary
directory, the substitution is made there, and ``pytest -x`` runs the tier-1
tests without acceptance criterion 7 (eleven two-restart calibrations, the
slowest test).  A mutant is
killed when pytest fails.  The unmutated copy runs first and must pass.  The
checkout itself is only read.  Prints one line per mutant and the score.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
COPIED = ("src", "tests", "demos", "tools", "perfbench", "pyproject.toml")
DESELECTED = "tests/test_acceptance.py::test_criterion_7_synthetic_calibration_recovery"

#: (name, module, fragment, replacement)
MUTANTS = (
    ("k_E1 without mu", "model", "k_E1 = p.sigma + p.epsilon + p.mu", "k_E1 = p.sigma + p.epsilon"),
    ("k_E2 without mu", "model", "k_E2 = p.alpha + p.mu", "k_E2 = p.alpha"),
    ("k_A without mu", "model", "k_A = p.gamma3 + p.mu", "k_A = p.gamma3"),
    ("bracket drops omega", "model", "+ p.epsilon * p.omega / k_A)", "+ p.epsilon / k_A)"),
    ("in_I1 drops rho", "model", "in_I1=p.rho * p.alpha", "in_I1=p.alpha"),
    ("force drops omega", "model", "bw = p.beta * p.omega", "bw = p.beta"),
    ("half the incidence enters E1", "model", "incidence[1, :4] = p.beta, 0.0, p.beta, bw",
     "incidence[1, :4] = 0.5 * p.beta, 0.0, 0.5 * p.beta, 0.5 * bw"),
    ("births dropped", "model", "-bw, p.Lambda", "-bw, 0.0"),
    ("constant feature row not 1", "model", "phi[11] = 1.0", "phi[11] = 1.0 + 2.0 ** -52"),
    ("products not recomputed after the stage state is written", "model",
     "phi[7:11], coefficients", "phi[7:11].copy(), coefficients"),
    ("R recovers I2 at gamma1", "model", "p.gamma1,  p.gamma2,  p.gamma3,  -p.mu",
     "p.gamma1,  p.gamma1,  p.gamma3,  -p.mu"),
    ("S0 = Lambda*mu", "model", "return self.Lambda / self.mu", "return self.Lambda * self.mu"),
    ("E1* drops 1/R_c", "model", "(r.r_c - 1.0) / (r.k_E1 * r.r_c)", "(r.r_c - 1.0) / r.k_E1"),
    ("F misses E2", "model", "F[0, 1:] = J[0, 1:]", "F[0, 2:] = J[0, 2:]"),
    ("quartic block takes I1 for I2", "stability", '("E1", "E2", "I2", "A")',
     '("E1", "E2", "I1", "A")'),
    ("root is the smallest real root", "stability",
     "eigenvalues.real[eigenvalues.imag == 0.0].max(initial=-np.inf)",
     "eigenvalues.real[eigenvalues.imag == 0.0].min(initial=np.inf)"),
    ("root certified for a4 > 0", "stability", "if not a[3] < 0.0:", "if a[3] < 0.0:"),
    ("entropy sign", "stability", "return x - 1.0 - np.log(x)", "return x - 1.0 + np.log(x)"),
    ("V accepts any last axis", "stability", "if states.shape[-1:] != (7,):", "if False:"),
    ("V weights untransposed", "stability", "np.linalg.solve(V.T, F[0])", "np.linalg.solve(V, F[0])"),
    ("audit ignores V", "stability", "monotone = max_violation <= AUDIT_WIGGLE",
     "monotone = np.full(len(y), True)"),
    ("audit ignores the infection", "stability", "converged = infection_left < AUDIT_DISTANCE",
     "converged = np.full(len(y), True)"),
    ("tail expm untransposed", "stability", "* (horizon - t)).T", "* (horizon - t))"),
    ("verdict band one-sided", "stability", "if max_real < -margin:", "if max_real < margin:"),
    ("stage state not written into the field's buffer", "simulate",
     "add(y, multiply(comb, hs, comb), state)", "add(y, multiply(comb, hs, comb), comb)"),
    ("controller exponent", "simulate", "0.9 * err ** -0.2)", "0.9 * err ** -0.25)"),
    ("4th-order solution propagated", "simulate", "_B5 = np.array(_FEHLBERG_B5, dtype=float)",
     "_B5 = np.array(_FEHLBERG_B4, dtype=float)"),
    ("best member sets the step", "simulate", "worst = np.maximum.reduce if",
     "worst = np.minimum.reduce if"),
    ("band applied to the counters", "simulate", "floor[7:] = -huge", "floor[7:] = -band"),
    ("+inf not refused", "simulate", "ceiling = np.full(y.shape, huge)",
     "ceiling = np.full(y.shape, np.inf)"),
    ("interpolated block skips the band check", "simulate",
     "less_equal(floor, block, checks[:, 0])", "less_equal(-ceiling, block, checks[:, 0])"),
    ("stale y'' kept across a step without interior samples", "simulate",
     "start_fresh = f_fresh", "start_fresh = True"),
    ("end slot not handed to the next step", "simulate",
     "start = 1 - start", "start = start"),
    ("weight cache ignores h", "simulate", "key = n, h, start", "key = n, start"),
    ("underflow forgets the band refusal", "simulate",
     "refusal = t, _deepest_undershoot(reached, band)", "refusal = None"),
    ("h*h dropped from the y'' weights", "simulate",
     "weights *= (1.0, h, h * h, 1.0, h, h * h)", "weights *= (1.0, h, 1.0, 1.0, h, 1.0)"),
    ("interpolated increment reversed", "simulate",
     "subtract(y5, y, increment)", "subtract(y, y5, increment)"),
    ("(m, 7) initials not transposed", "simulate", "y0 = _initial_states(initial).T",
     "y0 = _initial_states(initial)"),
    ("incidence of I2", "simulate", "values = np.diff(traj.cum_I1[idx], axis=0)",
     "values = np.diff(traj.cum_I2[idx], axis=0)"),
    ("incidence differenced across members", "simulate",
     "values = np.diff(traj.cum_I1[idx], axis=0)", "values = np.diff(traj.cum_I1[idx], axis=-1)"),
    ("peak across the flattened block", "simulate", "np.argmax(incidence, axis=0)",
     "np.argmax(incidence)"),
    ("prevalence of E2, I1, I2", "simulate", "prev = traj.states[-1, 3:6]",
     "prev = traj.states[-1, 2:5]"),
    ("restart ties keep the later", "calibrate", "result.cost < best[0].cost",
     "result.cost <= best[0].cost"),
    ("residuals in counts", "calibrate", "return np.log1p(run.model) - observed",
     "return run.model - data.counts"),
    ("residuals read from a perturbed copy", "calibrate",
     "np.ascontiguousarray(incidence[:, 0])", "np.ascontiguousarray(incidence[:, 1])"),
    ("objective not squared", "calibrate", "float(np.sum((model - data.counts) ** 2))",
     "float(np.sum(np.abs(model - data.counts)))"),
    ("restarts start at the guess", "calibrate", "x_start = np.clip(guess + offset, lo, hi)",
     "x_start = guess"),
    ("Jacobian left in parameter units", "calibrate",
     "return accepted.jacobian * width", "return accepted.jacobian"),
    ("Jacobian keeps column 0", "calibrate", "(columns[:, 1:] - columns[:, :1]) / taken",
     "columns[:, 1:] / taken"),
    ("Jacobian steps out of the box", "calibrate",
     "np.where(free_values + steps <= hi, steps, -steps)", "steps"),
    ("decline baseline read at the highest rho", "scenarios", "np.argmin(sweep.rho)",
     "np.argmax(sweep.rho)"),
    ("sweep R_c of the base parameters", "scenarios",
     "control_reproduction_number(p) for p in members",
     "control_reproduction_number(params) for p in members"),
    ("CSV loses a digit", "io", 'return "%.17g"', 'return "%.16g"'),
    ("bool written as True", "io", "if issubclass(kind, str):",
     "if issubclass(kind, (str, bool, np.bool_)):"),
)


def run_tests(substitution: tuple[str, str, str] | None) -> bool:
    """Whether tier-1 (without criterion 7) passes on a copy carrying
    ``substitution`` = (module, fragment, replacement), or on a clean copy."""
    with tempfile.TemporaryDirectory(prefix="seiar-mutant-") as tmp:
        work = Path(tmp)
        for name in COPIED:
            source = ROOT / name
            if source.is_dir():
                shutil.copytree(source, work / name,
                                ignore=shutil.ignore_patterns("__pycache__"))
            else:
                shutil.copy2(source, work / name)
        if substitution is not None:
            module, fragment, replacement = substitution
            path = work / "src" / "seiar" / f"{module}.py"
            text = path.read_text(encoding="utf-8")
            if text.count(fragment) != 1:
                raise SystemExit(f"{module}.py holds {text.count(fragment)} copies of "
                                 f"{fragment!r}; a mutant needs exactly one")
            path.write_text(text.replace(fragment, replacement), encoding="utf-8")
        env = dict(os.environ, PYTHONPATH=str(work / "src"), PYTHONDONTWRITEBYTECODE="1")
        done = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
             "--deselect", DESELECTED],
            cwd=work, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        return done.returncode == 0


def main(argv: list[str]) -> int:
    wanted = [m for m in MUTANTS if not argv or any(a in m[0] for a in argv)]
    if not run_tests(None):
        print("the unmutated copy fails its tests; no score", file=sys.stderr)
        return 1
    survivors = []
    for name, module, fragment, replacement in wanted:
        start = time.perf_counter()
        killed = not run_tests((module, fragment, replacement))
        print(f"{'killed  ' if killed else 'SURVIVED'} {module:<10} {name} "
              f"({time.perf_counter() - start:.0f} s)", flush=True)
        if not killed:
            survivors.append(name)
    print(f"{len(wanted) - len(survivors)} of {len(wanted)} mutants killed"
          + (f"; survived: {', '.join(survivors)}" if survivors else ""))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
