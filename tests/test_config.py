"""Configuration defaults, file parsing, and validation."""

from __future__ import annotations

import pytest

from citecode.config import PipelineConfig
from citecode.errors import MalformedConfig


def test_defaults_validate():
    config = PipelineConfig()
    config.validate()
    assert config.window_before == 1
    assert config.window_after == 1
    assert config.delta == 0.2
    assert config.lexicon_negative.is_file()
    assert config.venue_map.is_file()
    assert config.abbreviations.is_file()


def test_echo_is_flat_strings():
    echo = PipelineConfig().echo()
    assert len(echo) == 10
    assert set(echo) == {
        "window_before", "window_after", "delta",
        "lexicon_negative", "lexicon_positive", "lexicon_evidence",
        "lexicon_framework", "lexicon_focus", "venue_map", "abbreviations",
    }
    assert all(isinstance(v, str) for v in echo.values())
    assert echo["delta"] == "0.2"


def write_config(tmp_path, lines):
    path = tmp_path / "run.cfg"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def test_from_file_overrides_and_keeps_rest(tmp_path):
    path = write_config(
        tmp_path,
        ["# run settings", "", "window_before = 2", "delta = 0.35"],
    )
    config = PipelineConfig.from_file(path)
    assert config.window_before == 2
    assert config.window_after == 1
    assert config.delta == 0.35
    assert config.lexicon_negative == PipelineConfig().lexicon_negative


def test_from_file_resolves_relative_paths(tmp_path):
    custom = tmp_path / "neg.csv"
    custom.write_text("phrase,tag\nbut,negative\n", encoding="utf-8")
    path = write_config(tmp_path, ["lexicon_negative = neg.csv"])
    config = PipelineConfig.from_file(path)
    assert config.lexicon_negative == custom.resolve()


def test_from_file_keeps_absolute_paths(tmp_path):
    custom = tmp_path / "neg.csv"
    custom.write_text("phrase,tag\nbut,negative\n", encoding="utf-8")
    path = write_config(tmp_path, [f"lexicon_negative = {custom}"])
    assert PipelineConfig.from_file(path).lexicon_negative == custom


def test_from_file_missing_equals_sign(tmp_path):
    path = write_config(tmp_path, ["window_before = 1", "delta 0.3"])
    with pytest.raises(MalformedConfig) as err:
        PipelineConfig.from_file(path)
    assert err.value.line == 2


def test_from_file_unknown_key(tmp_path):
    path = write_config(tmp_path, ["window_sideways = 1"])
    with pytest.raises(MalformedConfig) as err:
        PipelineConfig.from_file(path)
    assert "window_sideways" in str(err.value)


@pytest.mark.parametrize(
    "lines",
    [
        ["window_before=0", "# a comment", "window_before=2"],
        ["window_before=0", "window_before=0"],
        ["lexicon_focus=a.csv", "delta=0.3", " lexicon_focus = b.csv"],
    ],
    ids=["other-value", "same-value", "path-spaced"],
)
def test_from_file_rejects_a_repeated_key(tmp_path, lines):
    # Letting the last value win would silently drop the first line.
    path = write_config(tmp_path, lines)
    key = lines[0].partition("=")[0]
    with pytest.raises(MalformedConfig) as err:
        PipelineConfig.from_file(path)
    assert f"{key} set twice" in str(err.value)
    assert err.value.line == len(lines)


def test_from_file_non_integer_window(tmp_path):
    path = write_config(tmp_path, ["window_before = wide"])
    with pytest.raises(MalformedConfig):
        PipelineConfig.from_file(path)


def test_from_file_non_numeric_delta(tmp_path):
    path = write_config(tmp_path, ["delta = big"])
    with pytest.raises(MalformedConfig):
        PipelineConfig.from_file(path)


@pytest.mark.parametrize(
    "line, message",
    [
        ("window_before = \u0661", "window_before must be an integer"),
        ("window_after = 0_1", "window_after must be an integer"),
        ("window_after = \uff11", "window_after must be an integer"),
        ("delta = 0_0.1_0", "delta must be a number"),
        ("delta = 0.\u0661", "delta must be a number"),
    ],
    ids=["arabic-indic-digit", "int-separator", "fullwidth-digit", "float-separators",
         "float-arabic-indic-digit"],
)
def test_numbers_are_ascii_digits_without_separators(tmp_path, line, message):
    # int() and float() would read each of these as 1 or 0.1.
    path = write_config(tmp_path, ["# a comment", line])
    with pytest.raises(MalformedConfig) as err:
        PipelineConfig.from_file(path)
    assert message in str(err.value)
    assert err.value.line == 2


def test_window_out_of_range_rejected(tmp_path):
    path = write_config(tmp_path, ["window_after = 6"])
    with pytest.raises(MalformedConfig) as err:
        PipelineConfig.from_file(path)
    assert "0..5" in str(err.value)


def test_negative_window_rejected():
    config = PipelineConfig(window_before=-1)
    with pytest.raises(MalformedConfig):
        config.validate()


def test_delta_out_of_range_rejected(tmp_path):
    path = write_config(tmp_path, ["delta = 1.5"])
    with pytest.raises(MalformedConfig):
        PipelineConfig.from_file(path)


def test_missing_data_file_rejected(tmp_path):
    path = write_config(tmp_path, ["lexicon_negative = nowhere.csv"])
    with pytest.raises(MalformedConfig) as err:
        PipelineConfig.from_file(path)
    assert "lexicon_negative" in str(err.value)


def test_unreadable_config_rejected(tmp_path):
    with pytest.raises(MalformedConfig):
        PipelineConfig.from_file(tmp_path / "absent.cfg")


def test_echo_round_trips_through_a_file(tmp_path):
    original = PipelineConfig(window_before=2, delta=0.4)
    lines = [f"{key}={value}" for key, value in original.echo().items()]
    path = write_config(tmp_path, lines)
    again = PipelineConfig.from_file(path)
    assert again == original
