"""Config parsing, case-series schema enforcement, CLI subcommands end to end."""

import csv
import dataclasses
import importlib.util
import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
import yaml

import seiar
from seiar import FitConfig, ObservedSeries, peak, rho_sweep
from seiar import config as config_module
from seiar.cli import main
from seiar.config import (
    ForecastConfig,
    ScenarioConfig,
    StabilityConfig,
    load_config,
    parse_config,
)
from seiar.errors import ConfigError, DataError
from seiar.io import read_case_series, write_case_series, write_csv
from seiar.presets import VARIANT_614G
from seiar.simulate import IntegratorConfig

P = VARIANT_614G


def base_config(**overrides):
    cfg = {
        "parameters": P.as_dict(),
        "initial": {"E1": 100.0},
        "integrator": {"t0": 0.0, "t_end": 40.0, "sample_per_day": 2},
    }
    cfg.update(overrides)
    return cfg


def write_config(path, cfg):
    path.write_text(yaml.safe_dump(cfg), encoding="utf-8")
    return str(path)


def read_rows(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


def stability_rows(path):
    return {row[0]: row[1] for row in read_rows(path)[1:]}


class TestCaseSeriesIO:
    def test_round_trip(self, tmp_path):
        series = ObservedSeries(counts=np.array([3.0, 1.5, 0.0, 7.25]))
        target = tmp_path / "cases.csv"
        write_case_series(target, series)
        back = read_case_series(target)
        assert np.array_equal(back.counts, series.counts)

    def test_byte_order_mark_is_dropped(self, tmp_path):
        # a spreadsheet's "CSV UTF-8" export starts with a byte-order mark
        text = "date,new_confirmed\n2020-01-01,5\n2020-01-02,6\n"
        plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
        plain.write_text(text, encoding="utf-8")
        marked.write_text("\ufeff" + text, encoding="utf-8")
        assert marked.read_bytes().startswith(b"\xef\xbb\xbf")
        back, reference = read_case_series(marked), read_case_series(plain)
        assert np.array_equal(back.counts, reference.counts)
        assert back.start_date == reference.start_date

    def test_header_must_match(self, tmp_path):
        f = tmp_path / "cases.csv"
        f.write_text("day,count\n2020-01-01,5\n")
        with pytest.raises(DataError, match="line 1"):
            read_case_series(f)

    def test_impossible_calendar_date_names_line(self, tmp_path):
        f = tmp_path / "cases.csv"
        f.write_text("date,new_confirmed\n2021-06-30,5\n2021-06-31,6\n")
        with pytest.raises(DataError, match="line 3"):
            read_case_series(f)

    def test_gap_in_dates_names_line(self, tmp_path):
        f = tmp_path / "cases.csv"
        f.write_text("date,new_confirmed\n2020-01-01,5\n2020-01-03,6\n")
        with pytest.raises(DataError, match="line 3"):
            read_case_series(f)

    def test_negative_count_rejected(self, tmp_path):
        f = tmp_path / "cases.csv"
        f.write_text("date,new_confirmed\n2020-01-01,-5\n")
        with pytest.raises(DataError, match="nonnegative"):
            read_case_series(f)

    def test_non_numeric_count_rejected(self, tmp_path):
        f = tmp_path / "cases.csv"
        f.write_text("date,new_confirmed\n2020-01-01,many\n")
        with pytest.raises(DataError, match="number"):
            read_case_series(f)

    def test_empty_file_rejected(self, tmp_path):
        f = tmp_path / "cases.csv"
        f.write_text("")
        with pytest.raises(DataError, match="empty"):
            read_case_series(f)

    def test_field_over_csv_limit_rejected(self, tmp_path):
        f = tmp_path / "cases.csv"
        f.write_text("date,new_confirmed\n2020-01-01," + "9" * 200_000 + "\n")
        with pytest.raises(DataError, match="malformed CSV"):
            read_case_series(f)


def retired_cell(value) -> str:
    """A CSV cell as the writer formatted it one cell at a time."""
    if isinstance(value, str):
        return value
    if isinstance(value, (bool, np.bool_, int, np.integer)):
        return str(int(value))
    return f"{float(value):.17g}"


#: (name, value) cells of a table whose value column changes type from row
#: to row, as stability.csv's does
CELLS = [
    ("float", 0.1), ("np.float64", np.float64(2.0 / 3.0)), ("np.float32", np.float32(0.1)),
    ("int", 3), ("np.int64", np.int64(-7)), ("int beyond 2**64", 2**70 + 1),
    ("bool", True), ("bool", False), ("np.bool_", np.bool_(True)), ("np.bool_", np.bool_(False)),
    ("str", "stable"), ("Fraction", Fraction(1, 3)),
    ("+inf", math.inf), ("-inf", -math.inf), ("nan", math.nan), ("-0.0", -0.0),
    ("5e-324", 5e-324), ("1e300", 1e300),
    ("R_c", 1.25), ("dfe_verdict", "unstable"), ("positive_root_exists", 0),
    ("lyapunov_audit", "skipped (R_c >= 1)"), ("S0", np.float64(1e7)),
]


class TestWriteCsv:
    @pytest.mark.parametrize("container", [list, lambda rows: (row for row in rows)],
                             ids=["list", "generator"])
    def test_writes_the_retired_cell_rule_bytes(self, tmp_path, container):
        rows = [(name, value, row) for row, (name, value) in enumerate(CELLS)]
        expected = "name,value,row\n" + "".join(
            ",".join(map(retired_cell, row)) + "\n" for row in rows)
        target = tmp_path / "table.csv"
        write_csv(target, ("name", "value", "row"), container(rows))
        assert target.read_bytes() == expected.encode()

    @pytest.mark.parametrize("rows", [
        [[-0.0, math.nan, math.inf, -math.inf], [5e-324, 1e300, 3.0, -2.0],
         [0.1, 2.0 / 3.0, 1e-300, 0.0]],
        [[1.0], [-0.0], [math.nan]],
        np.zeros((0, 3)).tolist(),
    ], ids=["specials", "one-column", "no-rows"])
    def test_float_block_writes_its_rows_bytes(self, tmp_path, rows):
        # a 2-D float array is written as its rows given as lists of floats
        header = tuple(f"c{j}" for j in range(len(rows[0]) if rows else 3))
        block = np.array(rows, dtype=float).reshape(len(rows), len(header))
        as_block, as_rows = tmp_path / "block.csv", tmp_path / "rows.csv"
        write_csv(as_block, header, block)
        write_csv(as_rows, header, rows)
        assert as_block.read_bytes() == as_rows.read_bytes()
        expected = ",".join(header) + "\n" + "".join(
            ",".join(map(retired_cell, row)) + "\n" for row in rows)
        assert as_block.read_bytes() == expected.encode()

    def test_refused_cell_leaves_no_file(self, tmp_path):
        target = tmp_path / "table.csv"
        with pytest.raises(TypeError):
            write_csv(target, ("name", "value"), [("ok", 1.0), ("bad", None)])
        assert list(tmp_path.iterdir()) == []


class TestConfigParsing:
    def test_minimal_config_parses(self):
        config = parse_config(base_config())
        assert config.integrator.t_end == 40.0
        assert config.spec.free_names == ()

    def test_unknown_top_level_key(self):
        with pytest.raises(ConfigError, match="simulation"):
            parse_config(base_config(simulation={}))

    def test_unknown_parameter_name(self):
        cfg = base_config()
        cfg["parameters"]["gama1"] = 0.1
        del cfg["parameters"]["gamma1"]
        with pytest.raises(ConfigError, match="gama1"):
            parse_config(cfg)

    def test_unknown_integrator_key(self):
        cfg = base_config()
        cfg["integrator"]["dt"] = 0.1
        with pytest.raises(ConfigError, match="dt"):
            parse_config(cfg)

    def test_booleans_are_not_numbers(self):
        cfg = base_config()
        cfg["parameters"]["beta"] = True
        with pytest.raises(ConfigError, match="number"):
            parse_config(cfg)

    @pytest.mark.parametrize("block", ["fit", "scenario", "stability", "forecast"])
    def test_unknown_key_in_each_block(self, block):
        with pytest.raises(ConfigError, match=f"unknown keys in {block}: horizn"):
            parse_config(base_config(**{block: {"horizn": 1}}))

    @pytest.mark.parametrize("block, key", [
        ("integrator", "rtol"), ("fit", "restarts"), ("fit", "jitter"),
        ("scenario", "horizon"), ("scenario", "rho_values"),
        ("stability", "audit_seeds"), ("stability", "seed_scale"),
        ("forecast", "horizon"),
    ])
    def test_booleans_rejected_in_each_block(self, block, key):
        value = [0.2, True] if key == "rho_values" else True
        with pytest.raises(ConfigError, match=f"{block}.{key} must be"):
            parse_config(base_config(**{block: {key: value}}))

    def test_forecast_horizon_below_one_day(self):
        with pytest.raises(ConfigError, match="forecast.*horizon"):
            parse_config(base_config(forecast={"horizon": 0}))

    def test_empty_blocks_take_defaults(self):
        config = parse_config(base_config(fit=None, forecast=None, stability={}))
        assert config.forecast.horizon == 120
        assert config.stability.audit_seeds == 20

    @pytest.mark.parametrize("value", [[], 0, False, ""], ids=["list", "zero", "false", "text"])
    def test_block_must_be_a_mapping(self, value):
        with pytest.raises(ConfigError, match="fit must be a mapping"):
            parse_config(base_config(fit=value))

    def test_free_block_requires_all_fields(self):
        cfg = base_config()
        cfg["parameters"]["beta"] = {"free": {"lo": 0.0, "hi": 1e-8}}
        with pytest.raises(ConfigError, match="guess"):
            parse_config(cfg)

    def test_free_entry_parses(self):
        cfg = base_config()
        cfg["parameters"]["beta"] = {
            "free": {"lo": 1e-10, "hi": 1e-8, "guess": 5e-9}}
        config = parse_config(cfg)
        assert config.spec.free_names == ("beta",)

    def test_missing_parameters_block(self):
        with pytest.raises(ConfigError, match="parameters"):
            parse_config({"initial": {}})

    def test_unreadable_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            load_config(tmp_path / "missing.yaml")

    def test_invalid_yaml(self, tmp_path):
        f = tmp_path / "bad.yaml"
        f.write_text("parameters: [unclosed")
        with pytest.raises(ConfigError, match="YAML"):
            load_config(f)

    def test_integer_too_long_for_yaml(self, tmp_path):
        f = tmp_path / "long.yaml"
        f.write_text("parameters: {beta: 1" + "0" * 5000 + "}")
        with pytest.raises(ConfigError, match="YAML"):
            load_config(f)


def configs_the_tests_write() -> dict:
    """Every config shape the suite writes: the CLI tests' base config, with
    beta free, the acceptance pipeline's, a stability run's, and the
    property tests' config that sets every block."""
    free = base_config(fit={"restarts": 1, "max_evals": 120, "seed": 0})
    free["parameters"]["beta"] = {
        "free": {"lo": P.beta / 4, "hi": P.beta * 4, "guess": P.beta * 1.5}}
    return {
        "base": base_config(),
        "beta free": free,
        "pipeline": {"parameters": P.as_dict(), "initial": {"E1": 100.0},
                     "integrator": {"t0": 0.0, "t_end": 100.0, "sample_per_day": 1},
                     "forecast": {"horizon": 60}},
        "stability": {"parameters": P.with_updates(rho=0.95).as_dict(),
                      "initial": {"E1": 100.0},
                      "stability": {"audit_seeds": 3, "audit_horizon": 500.0, "seed": 1,
                                    "seed_scale": 1e-6}},
        "every block": base_config(
            integrator={"t0": 0.0, "t_end": 40.0, "method": "rk4", "step": 0.5,
                        "rtol": 1e-6, "atol": None, "sample_per_day": 2},
            fit={"restarts": 2, "max_evals": 100, "diameter_tol": 1e-8, "jitter": 0.1,
                 "seed": 3},
            scenario={"rho_values": [0.2, 0.8], "horizon": 60.0},
            forecast={"horizon": 30}),
    }


class TestYamlLoader:
    @pytest.mark.parametrize("name", sorted(configs_the_tests_write()))
    def test_block_and_flow_style_load_to_the_same_config(self, tmp_path, name):
        loaded = []
        for flow in (False, True):
            path = tmp_path / f"run-{flow}.yaml"
            path.write_text(yaml.safe_dump(configs_the_tests_write()[name],
                                           default_flow_style=flow), encoding="utf-8")
            loaded.append(load_config(path))
        assert loaded[0] == loaded[1]

    @pytest.mark.parametrize("text, refusal", [
        # YAML refuses these, naming their line (LINE)
        ("a:\t1", r"found character '\\t' that cannot start any token.*line LINE,"),
        ("a: 1\t", r"found character '\\t' that cannot start any token.*line LINE,"),
        ("a: [1,\t2]", r"found character '\\t' that cannot start any token.*line LINE,"),
        ("a: [!, 1]", "could not determine a constructor for the tag '!,'.*line LINE,"),
        ("scenario: {rho_values: [0.5?]}", r"expected ',' or '\]', but got '\?'.*line LINE,"),
        # YAML reads these, and the schema refuses what they hold
        ("a: 1\u2028b: 2", "unknown keys in configuration: a, b$"),
        ("a: !", "unknown keys in configuration: a$"),
        ("forecast: |\n  horizon: 30", "forecast must be a mapping, got str"),
        ("scenario: {rho_values: [0.5:]}",
         r"rho_values must be a finite number, got \{0.5: None\}"),
        ("scenario: {rho_values: [0.5 :]}",
         r"rho_values must be a finite number, got \{0.5: None\}"),
        ("scenario: {rho_values: [?]}",
         r"rho_values must be a finite number, got \{None: None\}")])
    def test_what_the_two_builds_read_differently_exits_2(self, tmp_path, text, refusal):
        # the text follows a loadable config, on its own line; libyaml and the
        # pure-Python loader read each of these differently
        head = yaml.safe_dump(base_config())
        path = tmp_path / "run.yaml"
        path.write_text(head + text + "\n", encoding="utf-8")
        line = str(head.count("\n") + 1)
        with pytest.raises(ConfigError, match="(?s)" + refusal.replace("LINE", line)):
            load_config(path)
        assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "o")]) == 2

    def test_an_explicit_tag_is_read_by_the_yaml_rules(self, tmp_path):
        path = tmp_path / "run.yaml"
        path.write_text(yaml.safe_dump(base_config()) + "forecast: {horizon: !!int 30}\n",
                        encoding="utf-8")
        assert load_config(path).forecast == ForecastConfig(horizon=30)

    @pytest.mark.parametrize("value", ["!!int", "!!int -", "!!float", "!!float _",
                                       "!!bool x", "!!timestamp x"])
    def test_a_malformed_tagged_scalar_exits_2(self, tmp_path, capsys, value):
        path = tmp_path / "run.yaml"
        path.write_text(yaml.safe_dump(base_config()) + f"forecast: {{horizon: {value}}}\n",
                        encoding="utf-8")
        assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
        assert f"config {path} is not valid YAML" in capsys.readouterr().err

    @pytest.mark.parametrize("nesting", [
        "[" * 50_000 + "]" * 50_000, "{a: " * 50_000 + "}" * 50_000,
        "\n" + "- " * sys.getrecursionlimit() + "1"], ids=["flow", "flow mapping", "block"])
    def test_deep_nesting_exits_2(self, tmp_path, capsys, nesting):
        path = tmp_path / "run.yaml"
        path.write_text("parameters: " + nesting + "\n", encoding="utf-8")
        assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
        assert f"config {path} is not valid YAML: maximum recursion depth exceeded" in \
            capsys.readouterr().err

    @pytest.mark.parametrize("key", ["beta", "initial", "t_end"],
                             ids=["rate", "block", "setting"])
    def test_a_key_written_twice_exits_2_naming_it_and_its_line(self, tmp_path, key):
        lines = yaml.safe_dump(base_config()).splitlines(keepends=True)
        at = next(i for i, line in enumerate(lines) if line.lstrip().startswith(f"{key}:"))
        lines.insert(at + 1, lines[at])  # the key's line written again right below it
        path = tmp_path / "run.yaml"
        path.write_text("".join(lines), encoding="utf-8")
        with pytest.raises(ConfigError, match=f"(?s)duplicate key '{key}'.*line {at + 2},"):
            load_config(path)
        assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "o")]) == 2

    @staticmethod
    def merged_parameters(merged, own: str = "") -> str:
        """The CLI tests' base config with its rates merged in by '<<' from
        ``merged``, a mapping or a list of them, then the entries ``own``."""
        merged = yaml.safe_dump(merged, default_flow_style=True, width=math.inf)
        rest = {key: value for key, value in base_config().items() if key != "parameters"}
        return f"parameters:\n  <<: {merged}{own}{yaml.safe_dump(rest)}"

    def test_mappings_merged_by_a_merge_key_read_as_one(self, tmp_path):
        rates = list(P.as_dict().items())
        path = tmp_path / "run.yaml"
        path.write_text(self.merged_parameters([dict(rates[:6]), dict(rates[6:])]),
                        encoding="utf-8")
        assert load_config(path) == load_config(write_config(tmp_path / "plain.yaml",
                                                             base_config()))

    def test_a_merged_key_written_again_exits_2(self, tmp_path):
        path = tmp_path / "run.yaml"
        path.write_text(self.merged_parameters(P.as_dict(), f"  beta: {2 * P.beta}\n"),
                        encoding="utf-8")
        with pytest.raises(ConfigError, match="(?s)duplicate key 'beta'.*line 3,"):
            load_config(path)

    def test_a_leading_byte_order_mark_is_dropped(self, tmp_path):
        path = tmp_path / "run.yaml"
        path.write_text("\ufeff" + yaml.safe_dump(base_config()), encoding="utf-8")
        assert load_config(path) == load_config(write_config(tmp_path / "plain.yaml",
                                                             base_config()))

    @pytest.mark.parametrize("config", sorted(configs_the_tests_write()))
    def test_loads_on_pyyaml_without_libyaml(self, tmp_path, monkeypatch, config):
        # a fresh copy of the module, imported as if PyYAML had no libyaml
        monkeypatch.delattr(yaml, "CSafeLoader", raising=False)
        name = "seiar._config_without_libyaml"
        spec = importlib.util.spec_from_file_location(name, config_module.__file__)
        module = importlib.util.module_from_spec(spec)
        monkeypatch.setitem(sys.modules, name, module)
        spec.loader.exec_module(module)
        path = write_config(tmp_path / "run.yaml", configs_the_tests_write()[config])
        assert dataclasses.asdict(module.load_config(path)) == \
            dataclasses.asdict(load_config(path))


#: every numeric field of the settings records, as (record, field)
SETTINGS_FIELDS = [
    *((IntegratorConfig, name)
      for name in ("t0", "t_end", "step", "rtol", "atol", "sample_per_day")),
    *((FitConfig, name) for name in ("restarts", "max_evals", "diameter_tol", "jitter", "seed")),
    (ScenarioConfig, "rho_values"), (ScenarioConfig, "horizon"),
    *((StabilityConfig, name) for name in ("audit_seeds", "audit_horizon", "seed", "seed_scale")),
    (ForecastConfig, "horizon"),
]


@pytest.mark.parametrize("record, name, value", [
    pytest.param(record, name, value, id=f"{record.__name__}.{name}={value}")
    for record, name in SETTINGS_FIELDS for value in (math.nan, math.inf, -math.inf)
])
def test_non_finite_setting_refused_naming_the_field(record, name, value):
    # built directly, as a library caller does; the YAML reader refuses these first
    value = (value,) if name == "rho_values" else value
    with pytest.raises(ValueError, match=f"^{name} must"):
        record(**{name: value})


#: the settings fields that count something, and so take only integers
INTEGER_FIELDS = [(IntegratorConfig, "sample_per_day"),
                  *((FitConfig, name) for name in ("restarts", "max_evals", "seed")),
                  (StabilityConfig, "audit_seeds"), (StabilityConfig, "seed"),
                  (ForecastConfig, "horizon")]


@pytest.mark.parametrize("record, name, value", [
    pytest.param(record, name, value, id=f"{record.__name__}.{name}={value}")
    for record, name in INTEGER_FIELDS for value in (2.5, 3.0, True)
])
def test_non_integer_count_refused_naming_the_field(record, name, value):
    # built directly, as a library caller does; the YAML reader refuses these first
    with pytest.raises(ValueError, match=f"^{name} must be an integer"):
        record(**{name: value})


class TestSimulateCommand:
    def test_writes_trajectory_and_incidence(self, tmp_path):
        cfg_path = write_config(tmp_path / "run.yaml", base_config())
        out = tmp_path / "out"
        assert main(["simulate", "--config", cfg_path, "--out", str(out)]) == 0
        rows = read_rows(out / "trajectory.csv")
        assert rows[0] == ["t", "S", "E1", "E2", "I1", "I2", "A", "R",
                           "cum_I1", "cum_I2", "cum_A"]
        assert len(rows) == 1 + 40 * 2 + 1
        inc = read_rows(out / "incidence.csv")
        assert inc[0] == ["day", "new_confirmed"]
        assert len(inc) == 41

    def test_dfe_initial_gives_zero_incidence(self, tmp_path):
        cfg = base_config(initial={})
        cfg_path = write_config(tmp_path / "run.yaml", cfg)
        out = tmp_path / "out"
        assert main(["simulate", "--config", cfg_path, "--out", str(out)]) == 0
        values = [float(r[1]) for r in read_rows(out / "incidence.csv")[1:]]
        assert all(v == 0.0 for v in values)

    def test_serialized_floats_round_trip_exactly(self, tmp_path):
        from seiar import IntegratorConfig, daily_incidence, integrate
        cfg_path = write_config(tmp_path / "run.yaml", base_config())
        out = tmp_path / "out"
        assert main(["simulate", "--config", cfg_path, "--out", str(out)]) == 0
        y0 = np.array([P.S0 - 100.0, 100.0, 0, 0, 0, 0, 0])
        window = IntegratorConfig(t0=0.0, t_end=40.0, sample_per_day=2)
        expected = daily_incidence(integrate(P, y0, window))
        written = np.array([float(r[1]) for r in read_rows(out / "incidence.csv")[1:]])
        assert np.array_equal(written, expected)

    def test_reruns_are_byte_identical(self, tmp_path):
        cfg_path = write_config(tmp_path / "run.yaml", base_config())
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(["simulate", "--config", cfg_path, "--out", str(out_a)]) == 0
        assert main(["simulate", "--config", cfg_path, "--out", str(out_b)]) == 0
        for name in ("trajectory.csv", "incidence.csv"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()

    def test_peak_row_matches_library_peak(self, tmp_path):
        cfg = base_config()
        cfg["integrator"]["t_end"] = 200.0
        cfg_path = write_config(tmp_path / "run.yaml", cfg)
        out = tmp_path / "out"
        assert main(["simulate", "--config", cfg_path, "--out", str(out)]) == 0
        rows = read_rows(out / "incidence.csv")[1:]
        assert [int(r[0]) for r in rows] == list(range(len(rows)))
        values = np.array([float(r[1]) for r in rows])
        day, value = peak(values)
        best = max(rows, key=lambda r: float(r[1]))
        assert int(best[0]) == day
        assert float(best[1]) == value

    def test_free_parameters_are_a_config_error(self, tmp_path, capsys):
        cfg = base_config()
        cfg["parameters"]["beta"] = {
            "free": {"lo": 1e-10, "hi": 1e-8, "guess": 5e-9}}
        cfg_path = write_config(tmp_path / "run.yaml", cfg)
        out = tmp_path / "out"
        assert main(["simulate", "--config", cfg_path, "--out", str(out)]) == 2
        assert "beta" in capsys.readouterr().err
        assert not (out / "trajectory.csv").exists()

    def test_window_under_one_day_exits_2(self, tmp_path, capsys):
        cfg = base_config()
        cfg["integrator"]["t_end"] = 0.5
        cfg_path = write_config(tmp_path / "run.yaml", cfg)
        out = tmp_path / "out"
        assert main(["simulate", "--config", cfg_path, "--out", str(out)]) == 2
        assert "whole day" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_config_exits_2(self, tmp_path, capsys):
        assert main(["simulate", "--config", str(tmp_path / "nope.yaml"),
                     "--out", str(tmp_path)]) == 2


@pytest.mark.parametrize("command, block, key, value", [
    ("simulate", "integrator", "t_end", float("inf")),
    ("simulate", "integrator", "rtol", float("nan")),
    ("simulate", "integrator", "atol", float("nan")),
    ("sweep", "scenario", "horizon", float("inf")),
    ("stability", "stability", "audit_horizon", float("inf")),
    ("stability", "stability", "seed_scale", float("nan")),
    ("simulate", "initial", "E1", float("nan")),
    pytest.param("simulate", "integrator", "t_end", 10**400, id="integrator-t_end-10**400"),
    pytest.param("simulate", "integrator", "sample_per_day", 10**400,
                 id="integrator-sample_per_day-10**400"),
])
def test_non_finite_config_value_exits_2(tmp_path, capsys, command, block, key, value):
    cfg = base_config()
    cfg["parameters"]["rho"] = 0.95  # R_c < 1, so `stability` runs the audit
    cfg.setdefault(block, {})[key] = value
    cfg_path = write_config(tmp_path / "run.yaml", cfg)
    out = tmp_path / "out"
    assert main([command, "--config", cfg_path, "--out", str(out)]) == 2
    assert f"{block}.{key} must be a finite number" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["simulate", "sweep", "stability"])
def test_overflowing_s0_exits_2(tmp_path, capsys, command):
    cfg = base_config()
    cfg["parameters"].update(Lambda=1.0e300, mu=1.0e-300)
    cfg_path = write_config(tmp_path / "run.yaml", cfg)
    out = tmp_path / "out"
    assert main([command, "--config", cfg_path, "--out", str(out)]) == 2
    assert "S0 = Lambda/mu must be finite" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command,block", [("fit", "fit"), ("stability", "stability")])
def test_negative_seed_exits_2_naming_the_block(tmp_path, capsys, command, block):
    cfg_path = write_config(tmp_path / "run.yaml", base_config(**{block: {"seed": -3}}))
    data = ["--data", str(tmp_path / "cases.csv")] if command == "fit" else []
    assert main([command, "--config", cfg_path, *data, "--out", str(tmp_path / "x")]) == 2
    assert f"config error: {block}: seed must be nonnegative" in capsys.readouterr().err


class TestStabilityCommand:
    def test_zero_transmission(self, tmp_path):
        cfg = base_config()
        cfg["parameters"]["beta"] = 0.0
        cfg_path = write_config(tmp_path / "run.yaml", cfg)
        out = tmp_path / "out"
        assert main(["stability", "--config", cfg_path, "--out", str(out)]) == 0
        rows = stability_rows(out / "stability.csv")
        assert float(rows["R_c"]) == 0.0
        assert rows["dfe_verdict"] == "stable"
        assert rows["endemic_present"] == "0"
        assert rows["positive_root_exists"] == "0"

    def test_614g_report(self, tmp_path):
        cfg_path = write_config(tmp_path / "run.yaml", base_config())
        out = tmp_path / "out"
        assert main(["stability", "--config", cfg_path, "--out", str(out)]) == 0
        rows = stability_rows(out / "stability.csv")
        assert float(rows["R_c"]) == pytest.approx(1.66, abs=0.01)
        assert rows["dfe_verdict"] == "unstable"
        assert rows["endemic_present"] == "1"
        assert rows["endemic_verdict"] == "stable"
        assert rows["positive_root_exists"] == "1"
        assert rows["lyapunov_audit"].startswith("skipped")

    def test_subcritical_runs_lyapunov_audit(self, tmp_path):
        cfg = base_config()
        cfg["parameters"]["beta"] = P.beta * 0.45  # R_c ~ 0.75
        cfg["stability"] = {"audit_seeds": 3, "audit_horizon": 2000.0, "seed": 1}
        cfg_path = write_config(tmp_path / "run.yaml", cfg)
        out = tmp_path / "out"
        assert main(["stability", "--config", cfg_path, "--out", str(out)]) == 0
        rows = stability_rows(out / "stability.csv")
        assert rows["lyapunov_audit"] == "pass"
        assert float(rows["lyapunov_max_violation"]) <= 1e-9

    def test_audit_over_the_step_budget_exits_4_before_integrating(
            self, tmp_path, capsys, monkeypatch):
        def integrate(*args, **kwargs):
            pytest.fail("an audit over the step budget must not integrate")

        monkeypatch.setattr(seiar.stability, "integrate", integrate)
        cfg = base_config()
        cfg["parameters"]["beta"] = P.beta * 0.45  # R_c ~ 0.75
        cfg["stability"] = {"audit_horizon": 3.0e6}
        cfg_path = write_config(tmp_path / "run.yaml", cfg)
        out = tmp_path / "out"
        assert main(["stability", "--config", cfg_path, "--out", str(out)]) == 4
        assert "step budget exhausted" in capsys.readouterr().err
        assert not out.exists()

    def test_overflowing_quartic_exits_4(self, tmp_path, capsys):
        cfg = base_config()
        cfg["parameters"].update(sigma=1e80, epsilon=1e80, alpha=1e80,
                                 gamma2=1e80, gamma3=1e80)
        cfg_path = write_config(tmp_path / "run.yaml", cfg)
        out = tmp_path / "out"
        assert main(["stability", "--config", cfg_path, "--out", str(out)]) == 4
        assert "numerically degenerate" in capsys.readouterr().err
        assert not out.exists()


class TestFitCommand:
    def make_synthetic(self, tmp_path, days=25):
        cfg = base_config()
        cfg["integrator"]["t_end"] = float(days)
        cfg_path = write_config(tmp_path / "run.yaml", cfg)
        sim_out = tmp_path / "sim"
        assert main(["simulate", "--config", cfg_path, "--out", str(sim_out)]) == 0
        rows = read_rows(sim_out / "incidence.csv")[1:]
        counts = np.array([float(r[1]) for r in rows])
        data_path = tmp_path / "cases.csv"
        write_case_series(data_path, ObservedSeries(counts=counts))
        return cfg, cfg_path, str(data_path)

    @pytest.mark.parametrize("key, value, message", [
        ("diameter_tol", 0.0, "diameter_tol must be at least machine epsilon"),
        ("diameter_tol", -1.0, "diameter_tol must be at least machine epsilon"),
        ("diameter_tol", 1e-17, "diameter_tol must be at least machine epsilon"),
        ("jitter", -0.1, "jitter must be nonnegative"),
    ])
    def test_bad_search_setting_exits_2_naming_the_key(self, tmp_path, capsys, key, value,
                                                       message):
        # below machine epsilon scipy drops the xtol test, warning on stderr
        cfg, _, data_path = self.make_synthetic(tmp_path)
        cfg["parameters"]["beta"] = {"free": {"lo": 1e-9, "hi": 1e-8, "guess": 5e-9}}
        cfg["fit"] = {key: value}
        cfg_path = write_config(tmp_path / "bad.yaml", cfg)
        out = tmp_path / "fit"
        assert main(["fit", "--config", cfg_path, "--data", data_path,
                     "--out", str(out)]) == 2
        assert f"config error: fit: {message}" in capsys.readouterr().err
        assert not out.exists()

    def test_fit_to_own_output_is_exact(self, tmp_path):
        _, cfg_path, data_path = self.make_synthetic(tmp_path)
        out = tmp_path / "fit"
        assert main(["fit", "--config", cfg_path, "--data", data_path,
                     "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["objective"] == 0.0
        assert summary["iterations"] == 0
        residuals = read_rows(out / "residuals.csv")[1:]
        assert all(float(r[3]) == 0.0 for r in residuals)
        fit_rows = read_rows(out / "fit.csv")[1:]
        statuses = {r[0]: r[1] for r in fit_rows}
        assert statuses["beta"] == "fixed"
        assert statuses["S(0)"] == "derived"

    def test_daily_refit_of_a_denser_run_is_exact(self, tmp_path):
        # the 25-day series simulate wrote at 2 samples/day, refitted at 1:
        # its whole days are the daily run's, so the objective is 0.0
        cfg, _, data_path = self.make_synthetic(tmp_path)
        cfg["integrator"]["sample_per_day"] = 1
        cfg_path = write_config(tmp_path / "daily.yaml", cfg)
        out = tmp_path / "fit"
        assert main(["fit", "--config", cfg_path, "--data", data_path,
                     "--out", str(out)]) == 0
        assert json.loads((out / "summary.json").read_text())["objective"] == 0.0

    def test_fit_and_predict_write_the_same_bytes_at_any_density(self, tmp_path):
        # a fit stores 1 sample/day whatever the config asks, and its steps
        # land on whole days at any density
        cfg, _, data_path = self.make_synthetic(tmp_path)
        cfg["parameters"]["beta"] = {
            "free": {"lo": P.beta / 4, "hi": P.beta * 4, "guess": P.beta * 1.5}}
        cfg["fit"] = {"restarts": 1, "max_evals": 40, "seed": 0}
        cfg["forecast"] = {"horizon": 20}
        written = []
        for name, window in (("default", {"t0": 0.0, "t_end": 25.0}),
                             ("daily", {"t0": 0.0, "t_end": 25.0, "sample_per_day": 1})):
            cfg["integrator"] = window
            cfg_path = write_config(tmp_path / f"{name}.yaml", cfg)
            for command in ("fit", "predict"):
                assert main([command, "--config", cfg_path, "--data", data_path,
                             "--out", str(tmp_path / name / command)]) == 0
            written.append({path.relative_to(tmp_path / name): path.read_bytes()
                            for path in sorted((tmp_path / name).rglob("*.*"))})
        default, daily = written
        assert {"fit/fit.csv", "fit/residuals.csv", "fit/summary.json",
                "predict/forecast.csv"} <= {str(path) for path in default}
        assert default == daily

    def test_recovers_free_parameter(self, tmp_path):
        cfg, _, data_path = self.make_synthetic(tmp_path, days=30)
        cfg["parameters"]["beta"] = {
            "free": {"lo": P.beta / 4, "hi": P.beta * 4, "guess": P.beta * 1.5}}
        cfg["fit"] = {"restarts": 1, "max_evals": 120, "seed": 0}
        cfg_path = write_config(tmp_path / "run2.yaml", cfg)
        out = tmp_path / "fit"
        assert main(["fit", "--config", cfg_path, "--data", data_path,
                     "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        fit_rows = {r[0]: r for r in read_rows(out / "fit.csv")[1:]}
        assert fit_rows["beta"][1] == "fitted"
        assert float(fit_rows["beta"][2]) == pytest.approx(P.beta, rel=1e-3)
        assert summary["r_c"] == pytest.approx(1.6634, rel=1e-3)

    def test_malformed_data_exits_3_naming_line(self, tmp_path, capsys):
        _, cfg_path, _ = self.make_synthetic(tmp_path)
        bad = tmp_path / "bad.csv"
        bad.write_text("date,new_confirmed\n2020-01-01,5\nnot-a-date,6\n")
        assert main(["fit", "--config", cfg_path, "--data", str(bad),
                     "--out", str(tmp_path / "x")]) == 3
        assert "line 3" in capsys.readouterr().err

    def test_box_leaving_the_parameter_domain_exits_2(self, tmp_path, capsys,
                                                      monkeypatch):
        *_, data_path = self.make_synthetic(tmp_path)
        cfg = base_config()
        cfg["parameters"]["rho"] = {"free": {"lo": 0.1, "hi": 1.5, "guess": 0.9}}
        cfg_path = write_config(tmp_path / "box.yaml", cfg)

        def refuse(*args, **kwargs):
            raise AssertionError("fit integrated before rejecting the box")

        monkeypatch.setattr("seiar.calibrate.integrate", refuse)
        assert main(["fit", "--config", cfg_path, "--data", data_path,
                     "--out", str(tmp_path / "x")]) == 2
        assert "rho must lie in [0, 1], got 1.5" in capsys.readouterr().err

    def test_box_overdrawing_the_susceptibles_exits_2(self, tmp_path, capsys,
                                                      monkeypatch):
        # the guesses and both ends of the boxes assemble, but the search can
        # reach Lambda = 100 with E1(0) = 3e7 > S0 = 100/mu
        *_, data_path = self.make_synthetic(tmp_path)
        cfg = base_config()
        cfg["parameters"]["Lambda"] = {"free": {"lo": 100.0, "hi": 2000.0, "guess": 600.0}}
        cfg["initial"] = {"E1": {"free": {"lo": 0.0, "hi": 3e7, "guess": 1.5e7}}}
        cfg["fit"] = {"restarts": 4, "max_evals": 150, "jitter": 0.5, "seed": 0}
        cfg_path = write_config(tmp_path / "box.yaml", cfg)

        def refuse(*args, **kwargs):
            raise AssertionError("fit integrated before rejecting the box")

        monkeypatch.setattr("seiar.calibrate.integrate", refuse)
        assert main(["fit", "--config", cfg_path, "--data", data_path,
                     "--out", str(tmp_path / "x")]) == 2
        assert "exceed the susceptible pool" in capsys.readouterr().err

    @pytest.mark.parametrize("counts", [("1e300", "5"), ("1e154", "1e154")])
    def test_counts_whose_squares_overflow_exit_3(self, tmp_path, capsys, counts):
        # every count is finite, but a fit's squared residuals would not be:
        # one square overflows, or only their sum does
        cfg = base_config()
        cfg["parameters"]["beta"] = {"free": {"lo": P.beta / 2, "hi": P.beta * 2,
                                              "guess": P.beta}}
        cfg_path = write_config(tmp_path / "run.yaml", cfg)
        data = tmp_path / "cases.csv"
        first, second = counts
        data.write_text(f"date,new_confirmed\n2020-01-01,{first}\n2020-01-02,{second}\n")
        out = tmp_path / "x"
        assert main(["fit", "--config", cfg_path, "--data", str(data),
                     "--out", str(out)]) == 3
        assert "sum of squared counts overflows" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("kind", ["missing", "directory", "not-utf8"])
    def test_unreadable_data_exits_3(self, tmp_path, capsys, kind):
        cfg_path = write_config(tmp_path / "run.yaml", base_config())
        data = tmp_path / "cases.csv"
        if kind == "directory":
            data.mkdir()
        elif kind == "not-utf8":
            data.write_bytes(b"date,new_confirmed\n2020-01-01,\xff5\n")
        assert main(["fit", "--config", cfg_path, "--data", str(data),
                     "--out", str(tmp_path / "x")]) == 3
        assert "cannot read case series" in capsys.readouterr().err


class TestSweepCommand:
    def test_default_grid_ascending_and_declines(self, tmp_path):
        cfg = base_config()
        cfg["scenario"] = {"horizon": 120.0}
        cfg_path = write_config(tmp_path / "run.yaml", cfg)
        out = tmp_path / "out"
        assert main(["sweep", "--config", cfg_path, "--out", str(out)]) == 0
        rows = read_rows(out / "sweep.csv")
        assert rows[0][0] == "rho"
        rhos = [float(r[0]) for r in rows[1:]]
        assert rhos == [0.2, 0.4, 0.6, 0.8]
        totals = [float(r[1]) for r in rows[1:]]
        assert all(a > b for a, b in zip(totals, totals[1:]))
        decline = {r[0]: float(r[1]) for r in read_rows(out / "decline.csv")[1:]}
        assert decline["total"] > 0.0
        assert decline["asymptomatic"] > 0.0

    def test_honours_integrator_section(self, tmp_path):
        cfg = base_config()
        cfg["scenario"] = {"horizon": 60.0}
        default_path = write_config(tmp_path / "default.yaml", cfg)
        cfg["integrator"].update(method="rk4", step=0.5)
        rk4_path = write_config(tmp_path / "rk4.yaml", cfg)
        for name, path in (("default", default_path), ("rk4", rk4_path)):
            assert main(["sweep", "--config", path, "--out", str(tmp_path / name)]) == 0

        base = load_config(rk4_path).fixed_parameters()
        window = IntegratorConfig(t_end=60.0, method="rk4", step=0.5, sample_per_day=1)
        expected = rho_sweep(base, (0.2, 0.4, 0.6, 0.8), 60.0, window)
        rows = [[float(v) for v in row]
                for row in read_rows(tmp_path / "rk4" / "sweep.csv")[1:]]
        assert rows == np.column_stack((
            expected.rho, expected.cum_total, expected.cum_I1, expected.cum_I2,
            expected.cum_A, expected.cum_proportions[2],
            expected.prevalence_proportions[2])).tolist()
        assert ((tmp_path / "rk4" / "sweep.csv").read_bytes()
                != (tmp_path / "default" / "sweep.csv").read_bytes())

    def test_program_fault_is_not_a_config_error(self, tmp_path, monkeypatch):
        # a ValueError from inside a command is a fault, not an exit code
        def rho_sweep(*args, **kwargs):
            raise ValueError("injected fault")

        monkeypatch.setattr(seiar.cli, "rho_sweep", rho_sweep)
        cfg = base_config()
        cfg["scenario"] = {"horizon": 30.0}
        cfg_path = write_config(tmp_path / "run.yaml", cfg)
        with pytest.raises(ValueError, match="injected fault"):
            main(["sweep", "--config", cfg_path, "--out", str(tmp_path / "o")])

    def test_horizon_under_one_day_is_config_error(self, tmp_path, capsys):
        # the library sweeps sub-day horizons; the command keeps refusing them
        cfg = base_config()
        cfg["scenario"] = {"horizon": 0.5}
        cfg_path = write_config(tmp_path / "run.yaml", cfg)
        assert main(["sweep", "--config", cfg_path,
                     "--out", str(tmp_path / "o")]) == 2
        assert "horizon must be at least one day" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_single_rho_is_config_error(self, tmp_path):
        cfg = base_config()
        cfg["scenario"] = {"rho_values": [0.5], "horizon": 30.0}
        cfg_path = write_config(tmp_path / "run.yaml", cfg)
        assert main(["sweep", "--config", cfg_path,
                     "--out", str(tmp_path / "o")]) == 2


class TestStartup:
    def test_cli_import_leaves_scipy_optimize_unloaded(self):
        src = str(Path(seiar.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        code = "import sys, seiar.cli; print('scipy.optimize' in sys.modules)"
        out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                             capture_output=True, text=True, timeout=60).stdout
        assert out.strip() == "False"

    @staticmethod
    def run_fresh(*argv):
        """``main(argv)`` in a fresh interpreter: its exit code, and whether
        scipy.optimize was loaded by the end of the run."""
        src = str(Path(seiar.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        code = ("import sys; from seiar.cli import main; "
                "code = main(sys.argv[1:]); print(code, 'scipy.optimize' in sys.modules)")
        out = subprocess.run([sys.executable, "-c", code, *argv], env=env, check=True,
                             capture_output=True, text=True, timeout=120).stdout
        return out.split()

    @pytest.mark.parametrize("beta_scale", [0.45, 1.0])
    def test_stability_leaves_scipy_optimize_unloaded(self, tmp_path, beta_scale):
        # on either side of R_c = 1: the quartic's root comes from numpy
        cfg = base_config()
        cfg["parameters"]["beta"] = P.beta * beta_scale  # R_c ~ 0.75 or 1.66
        cfg["stability"] = {"audit_seeds": 3, "audit_horizon": 500.0, "seed": 1}
        cfg_path = write_config(tmp_path / "run.yaml", cfg)
        assert self.run_fresh("stability", "--config", cfg_path,
                              "--out", str(tmp_path / "out")) == ["0", "False"]

    def test_fit_loads_scipy_optimize(self, tmp_path):
        # the probe's control: a fit with a free coordinate runs least_squares
        cfg = base_config()
        cfg["integrator"] = {"t0": 0.0, "t_end": 20.0, "sample_per_day": 1}
        cfg_path = write_config(tmp_path / "sim.yaml", cfg)
        assert main(["simulate", "--config", cfg_path, "--out", str(tmp_path / "sim")]) == 0
        counts = [float(r[1]) for r in read_rows(tmp_path / "sim" / "incidence.csv")[1:]]
        data_path = tmp_path / "cases.csv"
        write_case_series(data_path, ObservedSeries(counts=np.array(counts)))
        cfg["parameters"]["beta"] = {"free": {"lo": 1e-9, "hi": 1e-8, "guess": 5e-9}}
        cfg["fit"] = {"restarts": 1}
        cfg_path = write_config(tmp_path / "fit.yaml", cfg)
        assert self.run_fresh("fit", "--config", cfg_path, "--data", str(data_path),
                              "--out", str(tmp_path / "fit")) == ["0", "True"]


class TestPredictCommand:
    def test_forecast_matches_generator_extension(self, tmp_path):
        days, horizon = 30, 50
        cfg = base_config()
        cfg["integrator"]["t_end"] = float(days + horizon)
        cfg_path_long = write_config(tmp_path / "long.yaml", cfg)
        sim_out = tmp_path / "sim"
        assert main(["simulate", "--config", cfg_path_long,
                     "--out", str(sim_out)]) == 0
        rows = read_rows(sim_out / "incidence.csv")[1:]
        counts = np.array([float(r[1]) for r in rows])
        data_path = tmp_path / "cases.csv"
        write_case_series(data_path, ObservedSeries(counts=counts[:days]))

        cfg["integrator"]["t_end"] = float(days)
        cfg["forecast"] = {"horizon": horizon}
        cfg_path = write_config(tmp_path / "run.yaml", cfg)
        out = tmp_path / "out"
        assert main(["predict", "--config", cfg_path, "--data", str(data_path),
                     "--out", str(out)]) == 0
        forecast_rows = read_rows(out / "forecast.csv")[1:]
        assert [int(r[0]) for r in forecast_rows] == list(range(days, days + horizon))
        predicted = np.array([float(r[1]) for r in forecast_rows])
        np.testing.assert_allclose(predicted, counts[days:], rtol=1e-6)
        summary = json.loads((out / "forecast_summary.json").read_text())
        assert summary["horizon"] == horizon
        assert summary["objective"] == 0.0
