"""Property tests of the inputs: a config either parses or is a ConfigError,
a case-series file either reads or is a DataError, whatever they hold, a
parameter spec loads only if every point of its boxes assembles,
``seiar stability`` on a subcritical config exits 0, 2 or 4, never raising,
over a range of ``stability`` blocks, and ``simulate``, ``sweep``, ``fit``
and ``predict`` exit 0, 2, 3 or 4, never raising, on mutated configs and
case-series files, and any text, or a config's text with pieces of YAML
syntax put in, reads or is a ConfigError.

Examples are drawn deterministically (``derandomize=True``), so every run
checks the same inputs.
"""

import datetime
import itertools
import math
import re

import yaml
from hypothesis import assume, example, given, settings, strategies as st

from seiar import config as config_module
from seiar.calibrate import FreeValue, ObservedSeries, ParameterSpec
from seiar.cli import main
from seiar.config import RunConfig, load_config, parse_config
from seiar.errors import ConfigError, DataError
from seiar.io import read_case_series
from seiar.model import control_reproduction_number
from seiar.presets import VARIANT_614G, VARIANTS

INPUTS = settings(derandomize=True, database=None, deadline=None, max_examples=150)

TOP_LEVEL = ("parameters", "initial", "integrator", "fit", "scenario", "stability",
             "forecast", "simulation")


def valid_config() -> dict:
    return {
        "parameters": VARIANT_614G.as_dict(),
        "initial": {"E1": 100.0},
        "integrator": {"t0": 0.0, "t_end": 40.0, "method": "rk4", "step": 0.5,
                       "rtol": 1e-6, "atol": None, "sample_per_day": 2},
        "fit": {"restarts": 2, "max_evals": 100, "diameter_tol": 1e-8,
                "jitter": 0.1, "seed": 3},
        "scenario": {"rho_values": [0.2, 0.8], "horizon": 60.0},
        "stability": {"audit_seeds": 3, "audit_horizon": 500.0, "seed": 1,
                      "seed_scale": 1e-6},
        "forecast": {"horizon": 30},
    }


scalars = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(), st.text(max_size=6),
    st.sampled_from([math.nan, math.inf, -math.inf, -1.0, 0, 10**400]))
junk = st.one_of(scalars, st.lists(scalars, max_size=3),
                 st.dictionaries(st.text(max_size=4), scalars, max_size=2))


@st.composite
def mutated_configs(draw) -> dict:
    """A valid config with one to three of: a block replaced by junk, a key
    set to junk, a key deleted, an entry made a (possibly malformed) free
    block.  Keys include unknown ones."""
    cfg = valid_config()
    for _ in range(draw(st.integers(1, 3))):
        name = draw(st.sampled_from(TOP_LEVEL))
        action = draw(st.sampled_from(("block", "set", "delete", "free")))
        if action == "block":
            cfg[name] = draw(junk)
            continue
        block = cfg.setdefault(name, {})
        if not isinstance(block, dict):
            continue
        key = draw(st.sampled_from(sorted(block) + ["bogus"]))
        if action == "set":
            block[key] = draw(junk)
        elif action == "delete":
            block.pop(key, None)
        else:
            block[key] = {"free": draw(st.dictionaries(
                st.sampled_from(("lo", "hi", "guess", "mid")), junk, max_size=4))}
    return cfg


@INPUTS
@given(mutated_configs())
def test_mutated_config_parses_or_is_a_config_error(cfg):
    try:
        assert isinstance(parse_config(cfg), RunConfig)
    except ConfigError:
        pass


@INPUTS
@given(st.binary(max_size=300))
def test_config_file_loads_or_is_a_config_error(tmp_path_factory, content):
    path = tmp_path_factory.getbasetemp() / "fuzz.yaml"
    path.write_bytes(content)
    try:
        assert isinstance(load_config(path), RunConfig)
    except ConfigError:
        pass


#: pieces of YAML syntax, and the characters the two YAML builds read
#: differently, for text that reaches past the first character
yaml_pieces = st.sampled_from([
    *"ab1 :-[]{},!&*#'\"\n.?|>%@`~\\+<=", "\t", "\r", "\x85", "\u2028", "\u2029",
    "\ufeff", "\x00", "\x7f", "é", "---", "...", "%YAML 1.1\n", "%TAG ! a\n", "<<",
    " #", ": ", "- ", "? ", "\n  ", "!!str", "!a", "0x1", "1e3", "~", "null", "\\x", "\\u12"])
#: the pieces the two builds read differently where they stand in a config
divergent_pieces = st.sampled_from([
    "\t", "!", "! ", "!!int ", "!!str ", "|", "| ", ">-", ":", ":,", "\x85", "\u2028",
    "\ufeff"])
#: YAML's indicators, a space and a line break; arbitrary text draws half its
#: characters from these, so that a short text meets what the two builds
#: read differently, such as a block scalar's header right before a '#'
yaml_indicators = st.sampled_from("|>!:{}[],?# \n")
#: the two constructs whose reading the builds' scanners disagree on, drawn
#: whole because random text seldom forms them: a block scalar's header, and
#: a flow collection of short entries spelt from a letter, a digit, ':', '?'
#: and a space
yaml_constructs = st.one_of(
    st.builds(str.__add__, st.sampled_from("|>"), st.text(st.sampled_from("1-+# a\n"),
                                                         max_size=4)),
    st.builds(lambda brackets, entries: brackets[0] + ", ".join(entries) + brackets[1],
              st.sampled_from(("[]", "{}")),
              st.lists(st.text(st.sampled_from("a1:? "), max_size=3), max_size=4)))


@settings(INPUTS, max_examples=1000)
@given(st.one_of(st.text(st.one_of(yaml_indicators, st.characters()), max_size=60),
                 st.lists(yaml_pieces, max_size=30).map("".join), yaml_constructs))
# one document of each kind the builds read differently: a tab, a tag, a
# block scalar's header, a flow ':' or '?', a line break; and nesting deeper
# than the recursion limit
@example("a:\t1")
@example("a: [!, 1]")
@example("|1#")
@example("{a:}")
@example("[a:?]")
@example("{a :}")
@example("{a?}")
@example("[?]")
@example("\x85\ufeff")
@example("parameters: " + "[" * 50_000 + "]" * 50_000)
def test_any_yaml_text_reads_or_is_a_config_error(text):
    try:
        config_module._read_yaml(text, "text")
    except ConfigError:
        pass


@st.composite
def config_texts(draw) -> str:
    """A config's YAML text in block or flow style: a valid or mutated config
    with up to three pieces put in before or after a character of YAML
    syntax, or a valid config with a piece in place of the value of
    ``integrator.method`` or ``integrator.atol``.  Those are the only entries
    that take a string or null, so only there can such a piece leave a
    config that validates, as ``atol: !`` (null) does."""
    flow = draw(st.booleans())
    if draw(st.booleans()):
        key = draw(st.sampled_from(("method", "atol")))
        piece = draw(st.one_of(divergent_pieces, yaml_constructs))
        text = yaml.safe_dump(valid_config(), default_flow_style=flow)
        return re.sub(rf"\b{key}: [^,\n}}]*", lambda _: f"{key}: {piece}", text, count=1)
    cfg = draw(st.one_of(st.builds(valid_config), mutated_configs()))
    text = yaml.safe_dump(cfg, default_flow_style=flow)
    insertions = st.tuples(st.integers(0), st.one_of(divergent_pieces, yaml_pieces))
    for which, piece in draw(st.lists(insertions, max_size=3)):
        syntax = [i + side for i, c in enumerate(text) if c in ":,[]{}\n" for side in (0, 1)]
        at = syntax[which % len(syntax)]
        text = text[:at] + piece + text[at:]
    return text


@INPUTS
@given(config_texts())
@example(yaml.safe_dump(valid_config()).replace("atol: null", "atol: !"))
@example(yaml.safe_dump(valid_config()).replace("method: rk4", "method: !!int "))
def test_config_text_loads_or_is_a_config_error(tmp_path_factory, text):
    path = tmp_path_factory.getbasetemp() / "fuzz.yaml"
    path.write_text(text, encoding="utf-8")
    try:
        assert isinstance(load_config(path), RunConfig)
    except ConfigError:
        pass


rows = st.one_of(
    st.text(max_size=24),
    st.builds(lambda day, count: f"{day.isoformat()},{count}", st.dates(),
              st.one_of(st.integers(), st.floats(), st.text(max_size=4))))
case_files = st.one_of(
    st.binary(max_size=200),
    st.builds(lambda body: ("date,new_confirmed\n" + "\n".join(body)).encode(),
              st.lists(rows, max_size=5)))


@INPUTS
@given(case_files)
def test_case_series_reads_or_is_a_data_error(tmp_path_factory, content):
    path = tmp_path_factory.getbasetemp() / "fuzz.csv"
    path.write_bytes(content)
    try:
        assert isinstance(read_case_series(path), ObservedSeries)
    except DataError:
        pass


@st.composite
def boxes(draw, lo_exp: float, hi_exp: float) -> FreeValue:
    """A box whose ends are 10**e for e drawn from [lo_exp, hi_exp]."""
    lo, hi = sorted(10.0 ** draw(st.floats(lo_exp, hi_exp)) for _ in range(2))
    assume(lo < hi)
    return FreeValue(lo, hi, min(hi, lo + draw(st.floats(0.0, 1.0)) * (hi - lo)))


@settings(INPUTS, max_examples=200)
@given(boxes(-3.0, 300.0), boxes(-300.0, 0.0), boxes(-3.0, 12.0),
       st.lists(st.floats(0.0, 1.0), min_size=3, max_size=3))
def test_accepted_spec_assembles_everywhere_in_its_box(lam, mu, e1, fractions):
    params = {**VARIANT_614G.as_dict(), "Lambda": lam, "mu": mu}
    try:
        spec = ParameterSpec(params=params, initial={"E1": e1})
    except ValueError:
        return
    free = (lam, mu, e1)
    inside = [min(b.hi, b.lo + f * (b.hi - b.lo)) for b, f in zip(free, fractions)]
    for point in (inside, *itertools.product(*((b.lo, b.hi) for b in free))):
        spec.assemble(point)


@settings(INPUTS, max_examples=50)
@given(variant=st.sampled_from(sorted(VARIANTS)), rho=st.floats(0.0, 1.0),
       r_c=st.floats(0.5, 0.999), audit_seeds=st.integers(1, 5),
       audit_horizon=st.floats(1e-3, 5000.0), seed=st.integers(0, 2**64),
       seed_scale=st.floats(1e-300, 10.0))
def test_subcritical_stability_run_exits_0_2_or_4(
        tmp_path_factory, variant, rho, r_c, audit_seeds, audit_horizon, seed, seed_scale):
    params = VARIANTS[variant].with_updates(rho=rho)
    params = params.with_updates(beta=params.beta * r_c / control_reproduction_number(params))
    work = tmp_path_factory.mktemp("stability")
    config = work / "run.yaml"
    config.write_text(yaml.safe_dump({
        "parameters": params.as_dict(), "initial": {"E1": 100.0},
        "stability": {"audit_seeds": audit_seeds, "audit_horizon": audit_horizon,
                      "seed": seed, "seed_scale": seed_scale}}), encoding="utf-8")
    assert main(["stability", "--config", str(config), "--out", str(work / "out")]) in (0, 2, 4)


#: base case series for ``fit`` and ``predict``: 20 days of a rising wave
CASE_LINES = ["date,new_confirmed"] + [
    f"{datetime.date(2020, 6, 1) + datetime.timedelta(days=d)},{count}"
    for d, count in enumerate((0, 1, 2, 3, 4, 5, 6, 8, 10, 12, 14, 16, 19, 22, 25, 29, 33,
                               37, 42, 47))]


def cli_config(command: str) -> dict:
    """A config that ``command`` runs over at most 30 days (``predict``: the
    data's 20 and 10 more): fixed parameters for ``simulate`` and ``sweep``;
    for ``fit`` and ``predict``, beta free in [beta/2, 2*beta] and one
    restart of at most 20 evaluations."""
    params = VARIANT_614G.as_dict()
    if command in ("fit", "predict"):
        beta = params["beta"]
        params["beta"] = {"free": {"lo": beta / 2, "hi": 2 * beta, "guess": beta}}
    return {"parameters": params, "initial": {"E1": 100.0},
            "integrator": {"t_end": 30.0, "sample_per_day": 1},
            "fit": {"restarts": 1, "max_evals": 20},
            "scenario": {"rho_values": [0.2, 0.8], "horizon": 30.0},
            "forecast": {"horizon": 10}}


# settings values that keep every window at most 30 days long and every
# step at least 0.05 days (or else over the step budget), so that a run
# takes milliseconds; the rest are of the wrong type, kind or range
setting_values = st.one_of(
    st.none(), st.booleans(), st.text(max_size=6), st.integers(-1, 3),
    st.floats(0.5, 30.0), st.lists(st.floats(-0.5, 1.5), max_size=3),
    st.sampled_from([0.0, 5e-324, 0.05, 1e300, -1.0, math.nan, math.inf,
                     "rk4", "adaptive"]))
# parameter and initial values: the base value scaled by [0, 2], so rates
# stay near the preset's (the explicit stepper's cost on stiff rates is
# ROADMAP item 4), or junk
entry_scales = st.one_of(st.floats(0.0, 2.0), st.sampled_from([-1.0, math.nan, 1e300]))
entry_junk = st.one_of(st.none(), st.booleans(), st.text(max_size=4))


@st.composite
def cli_runs(draw) -> tuple[str, dict, bytes]:
    """A command, its config with up to three mutations (a settings key set;
    a parameter or initial entry scaled, junked, deleted or made free) and
    a case-series file: the base one cut to 1 to 20 rows with up to two rows
    edited, dropped or repeated, or arbitrary bytes."""
    command = draw(st.sampled_from(("simulate", "sweep", "fit", "predict")))
    cfg = cli_config(command)
    for _ in range(draw(st.integers(0, 3))):
        name = draw(st.sampled_from(sorted(cfg)))
        block = cfg[name]
        key = draw(st.sampled_from(sorted(block) + ["bogus"]))
        if name in ("parameters", "initial"):
            base = block.get(key)  # a number, or the free beta, or None
            base = base if isinstance(base, float) else VARIANT_614G.beta
            action = draw(st.sampled_from(("scale", "junk", "delete", "free")))
            if action == "scale":
                block[key] = base * draw(entry_scales)
            elif action == "junk":
                block[key] = draw(entry_junk)
            elif action == "delete":
                block.pop(key, None)
            else:
                lo, hi, guess = (base * draw(entry_scales) for _ in range(3))
                block[key] = {"free": {"lo": lo, "hi": hi, "guess": guess}}
        else:  # not deleted: a default would lengthen a window or the fit
            block[key] = draw(setting_values)
    lines = CASE_LINES[:1 + draw(st.integers(1, 20))]
    for _ in range(draw(st.integers(0, 2))):
        row = draw(st.integers(1, len(lines) - 1))
        action = draw(st.sampled_from(("count", "drop", "repeat")))
        if action == "count":
            count = draw(st.one_of(st.text(max_size=4), st.sampled_from(
                ["-1", "nan", "inf", "1e300", "2.5", "1000000"])))
            lines[row] = f"{lines[row].split(',')[0]},{count}"
        elif action == "drop" and len(lines) > 2:
            del lines[row]
        else:
            lines.insert(row, lines[row])
    data = draw(st.one_of(st.just("\n".join(lines).encode()), st.binary(max_size=100)))
    return command, cfg, data


@settings(INPUTS, max_examples=100)
@given(cli_runs())
def test_mutated_cli_run_exits_0_2_3_or_4(tmp_path_factory, run):
    command, cfg, data = run
    work = tmp_path_factory.mktemp(command)
    config = work / "run.yaml"
    config.write_text(yaml.safe_dump(cfg), encoding="utf-8")
    (work / "cases.csv").write_bytes(data)
    argv = [command, "--config", str(config), "--out", str(work / "out")]
    if command in ("fit", "predict"):
        argv += ["--data", str(work / "cases.csv")]
    assert main(argv) in (0, 2, 3, 4)
