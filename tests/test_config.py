"""Tests for the flat key=value config format."""

import math
from pathlib import Path

import pytest

from helpers import demo_scenario
from qcc.config import (
    CONFIG_KEYS,
    ConfigError,
    RunConfig,
    load_config,
    parse_config,
    serialize_config,
)

CONFIGS_DIR = Path(__file__).resolve().parent.parent / "configs"

ISQ = 1.0 / math.sqrt(2.0)

BASE = {
    "dimension": "2+1",
    "alice.gap": "3.0",
    "alice.alpha_re": str(ISQ),
    "alice.alpha_im": "0",
    "alice.beta_re": "0",
    "alice.beta_im": str(-ISQ),
    "alice.t_on": "0",
    "alice.t_off": "3",
    "alice.position": "0, 0",
    "bob.gap": "3.0",
    "bob.alpha_re": str(ISQ),
    "bob.alpha_im": "0",
    "bob.beta_re": str(ISQ),
    "bob.beta_im": "0",
    "bob.t_on": "5",
    "bob.t_off": "8",
    "bob.position": "1, 0",
}


def config_text(overrides=None, drop=()):
    entries = dict(BASE)
    if overrides:
        entries.update(overrides)
    for key in drop:
        entries.pop(key, None)
    return "\n".join(f"{k} = {v}" for k, v in entries.items()) + "\n"


class TestParse:
    def test_minimal_config(self):
        cfg = parse_config(config_text())
        s = cfg.scenario
        assert s.dimension.value == "2+1"
        assert s.alice.gap == 3.0
        assert s.bob.position == (1.0, 0.0)
        assert s.bob.window.t_on == 5.0
        assert cfg.lambda_product == 1.0  # default
        assert cfg.noise_R == 0.0

    def test_optional_scalars(self):
        cfg = parse_config(config_text({"lambda_product": "0.1",
                                        "noise_R": "0.05"}))
        assert cfg.lambda_product == 0.1
        assert cfg.noise_R == 0.05

    def test_comments_blanks_and_spacing_ignored(self):
        text = "# header comment\n\n  \n" + config_text().replace(
            "alice.gap = 3.0", "   alice.gap=3.0   ")
        cfg = parse_config(text)
        assert cfg.scenario.alice.gap == 3.0

    @pytest.mark.parametrize("raw", ["1, 0", "1 0", "1,0", "1.0   0.0"])
    def test_position_separators(self, raw):
        cfg = parse_config(config_text({"bob.position": raw}))
        assert cfg.scenario.bob.position == (1.0, 0.0)

    def test_complex_amplitudes_assembled(self):
        cfg = parse_config(config_text())
        assert cfg.scenario.alice.state.beta == complex(0.0, -ISQ)


class TestDiagnostics:
    def test_unknown_key_with_location(self):
        text = config_text() + "alice.gapp = 3\n"
        nlines = text.count("\n")
        with pytest.raises(ConfigError,
                           match=rf"cfg:{nlines}: unknown key 'alice.gapp'"):
            parse_config(text, source="cfg")

    def test_duplicate_key_points_at_first_use(self):
        text = config_text() + "alice.gap = 4\n"
        with pytest.raises(ConfigError,
                           match=r"duplicate key 'alice.gap' \(first set on "
                                 r"line 2\)"):
            parse_config(text)

    def test_missing_required_keys_listed(self):
        text = config_text(drop=("bob.gap", "bob.t_on"))
        with pytest.raises(ConfigError, match="missing required keys: "
                                              "bob.gap, bob.t_on"):
            parse_config(text)

    def test_empty_value(self):
        with pytest.raises(ConfigError, match="empty value for 'alice.gap'"):
            parse_config(config_text({"alice.gap": ""}))

    def test_non_numeric_value(self):
        with pytest.raises(ConfigError, match="not a number: 'fast'"):
            parse_config(config_text({"alice.gap": "fast"}))

    def test_bad_dimension(self):
        with pytest.raises(ConfigError, match="cfg:1: "):
            parse_config(config_text({"dimension": "4+1"}), source="cfg")

    def test_line_without_equals(self):
        with pytest.raises(ConfigError, match="expected 'key = value'"):
            parse_config("dimension\n")

    @pytest.mark.parametrize("raw", ["nan", "inf", "-inf", "NaN"])
    def test_non_finite_value_with_location(self, raw):
        # appended after the 17 base keys, so it sits on line 18
        text = config_text({"lambda_product": raw})
        with pytest.raises(ConfigError,
                           match=rf"cfg:18: value for 'lambda_product' "
                                 rf"must be finite, got '{raw}'"):
            parse_config(text, source="cfg")

    def test_non_finite_position(self):
        with pytest.raises(ConfigError, match="must be finite"):
            parse_config(config_text({"bob.position": "1, nan"}))

    def test_negative_noise_with_location(self):
        text = config_text({"noise_R": "-0.01"})
        with pytest.raises(ConfigError,
                           match=r"cfg:18: noise_R must be >= 0, "
                                 r"got '-0.01'"):
            parse_config(text, source="cfg")

    def test_bad_position(self):
        with pytest.raises(ConfigError, match="must be numbers"):
            parse_config(config_text({"bob.position": "1, north"}))

    def test_empty_position_with_location(self):
        # alice.position is the ninth base key
        with pytest.raises(ConfigError,
                           match=r"cfg:9: empty position for "
                                 r"'alice.position'"):
            parse_config(config_text({"alice.position": ","}), source="cfg")

    def test_missing_file(self):
        with pytest.raises(ConfigError, match="cannot read config"):
            load_config("/nonexistent/path.cfg")


class TestRoundTrip:
    def test_parse_serialize_parse_is_identity(self):
        cfg = RunConfig(demo_scenario("2+1", t1=5.0), 0.1, 0.05)
        text = serialize_config(cfg)
        again = parse_config(text)
        assert again == cfg
        assert serialize_config(again) == text

    def test_seventeen_digit_floats_survive(self):
        cfg = parse_config(config_text({"alice.gap": "2.9999999999999996"}))
        again = parse_config(serialize_config(cfg))
        assert again.scenario.alice.gap == cfg.scenario.alice.gap

    def test_every_key_serialized(self):
        text = serialize_config(RunConfig(demo_scenario("2+1"), 0.1, 0.0))
        for key in CONFIG_KEYS:
            assert f"{key} = " in text


class TestShippedConfigs:
    @pytest.mark.parametrize("name", [
        "demo_1p1.cfg", "demo_2p1.cfg", "demo_3p1.cfg", "spacelike_2p1.cfg",
    ])
    def test_parse_cleanly(self, name):
        cfg = load_config(str(CONFIGS_DIR / name))
        assert cfg.lambda_product == 0.1
        assert cfg.scenario.alice.window.t_off <= cfg.scenario.bob.window.t_on
