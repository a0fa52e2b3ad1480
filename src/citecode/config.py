"""Pipeline configuration: flat key=value files over shipped defaults.

Every knob has a default pointing at the data files packaged with the
library, so an empty config is a valid config. validate() checks value
ranges and that every referenced file exists before a run starts. The
echo() form is written into the run summary; feeding it back as a
config file reproduces the run.
"""

from dataclasses import dataclass, field, fields
from importlib.resources import files
from pathlib import Path

from .citations import _check_windows
from .errors import MalformedConfig, _read_lines
from .network import DEFAULT_DELTA

_DATA = files("citecode").joinpath("data")


def _data_path(name: str) -> Path:
    return Path(str(_DATA.joinpath(name)))


@dataclass
class PipelineConfig:
    window_before: int = 1
    window_after: int = 1
    delta: float = DEFAULT_DELTA
    lexicon_negative: Path = field(default_factory=lambda: _data_path("lexicon_negative.csv"))
    lexicon_positive: Path = field(default_factory=lambda: _data_path("lexicon_positive.csv"))
    lexicon_evidence: Path = field(default_factory=lambda: _data_path("lexicon_evidence.csv"))
    lexicon_framework: Path = field(default_factory=lambda: _data_path("lexicon_framework.csv"))
    lexicon_focus: Path = field(default_factory=lambda: _data_path("lexicon_focus.csv"))
    venue_map: Path = field(default_factory=lambda: _data_path("venue_domains.csv"))
    abbreviations: Path = field(default_factory=lambda: _data_path("abbreviations.txt"))
    output_dir: Path = Path("out")

    @classmethod
    def from_file(cls, path: str | Path) -> "PipelineConfig":
        """Parse key=value lines; # comments and blank lines skipped.

        A key may be set once. Each value is read as its field's type,
        numbers in ASCII digits; relative paths are resolved against the
        config file's directory.
        """
        path = Path(path)
        base = path.parent
        config = cls()
        types = {f.name: f.type for f in fields(cls)}
        seen: set[str] = set()
        for line_no, line in _read_lines(path, "config", MalformedConfig):
            if "=" not in line:
                raise MalformedConfig(f"{path.name}: expected key=value", line=line_no)
            key, _, value = line.partition("=")
            key = key.strip()
            value = value.strip()
            kind = types.get(key)
            if kind is None:
                raise MalformedConfig(f"{path.name}: unknown key {key!r}", line=line_no)
            if key in seen:
                raise MalformedConfig(f"{path.name}: {key} set twice", line=line_no)
            seen.add(key)
            if kind is Path:
                if "\0" in value:
                    raise MalformedConfig(f"{path.name}: {key} holds a NUL byte", line=line_no)
                candidate = Path(value)
                if not candidate.is_absolute():
                    candidate = (base / candidate).resolve()
                setattr(config, key, candidate)
                continue
            try:
                if not value.isascii() or "_" in value:
                    raise ValueError  # int() and float() read "١" and "0_1" as 1
                setattr(config, key, kind(value))
            except ValueError:
                expected = "an integer" if kind is int else "a number"
                message = f"{path.name}: {key} must be {expected}"
                raise MalformedConfig(message, line=line_no) from None
        config.validate()
        return config

    def validate(self) -> None:
        _check_windows(self.window_before, self.window_after, MalformedConfig)
        if not (0.0 <= self.delta <= 1.0):
            raise MalformedConfig(f"delta must be in 0..1: {self.delta}")
        for f in fields(self):
            if f.type is Path and f.name != "output_dir":
                target = Path(getattr(self, f.name))
                if not target.is_file():
                    raise MalformedConfig(f"{f.name} file not found: {target}")

    def echo(self) -> dict[str, str]:
        """Effective configuration as writable key=value pairs."""
        pairs = {}
        for f in fields(self):
            value = getattr(self, f.name)
            pairs[f.name] = str(value)
        return pairs
