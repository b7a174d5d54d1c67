"""A run's configuration: each :class:`PipelineConfig` field's :class:`Setting`,
its type rule and its command-line flag, and the YAML and JSON config
file readers. It imports no numpy, so a command that builds no array
does not load it, and only a YAML config loads PyYAML.
"""

from __future__ import annotations

from collections.abc import Callable, Mapping
from dataclasses import MISSING, dataclass, field, fields, replace
from pathlib import Path

from .errors import ConfigError
from .template import Choice
from .textfile import RepeatedKey, is_file_path, read_json_object, read_text, unique_keys
from .tokenization import TokenizerKind

__all__ = ["Aggregation", "PipelineConfig"]


class Aggregation(Choice):
    MEAN_LOG_PROB = "mean_log_prob"
    MAX = "max"
    FIRST = "first"


@dataclass(frozen=True)
class Setting:
    """One config field's schema entry: its type rule and its command-line flag.

    A ``path`` value in a config file is relative to the file. ``choices``
    is a named choice's enum, whose ``parse`` checks the name. ``flag``
    holds the field's ``add_argument`` keywords, and ``negation`` names a
    boolean's store-false flag, whose help negates the field's.
    """

    expected: str
    accepts: Callable[[object], bool]
    path: bool = False
    positive: bool = False
    choices: type[Choice] | None = None
    flag: dict = field(default_factory=dict)
    negation: str | None = None

    def check(self, name: str, value) -> None:
        """Raise :class:`~promptpipe.errors.ConfigError` unless ``value`` is valid."""
        if not self.accepts(value):
            raise ConfigError(f"{name!r} must be {self.expected}, got {value!r}")
        if self.positive and value < 1:
            raise ConfigError(f"{name} must be positive")
        if self.choices is not None:
            self.choices.parse(value)


_PATH = Setting("a file path", is_file_path, path=True)
_OPTIONAL_PATH = replace(_PATH, accepts=lambda v: v is None or _PATH.accepts(v))
_PATHS = Setting(
    "a list of file paths", lambda v: isinstance(v, list) and all(map(_PATH.accepts, v)),
    path=True, flag={"action": "append", "help": "template file (repeatable)"},
)
_STRING = Setting("a string", lambda v: isinstance(v, str))
_INTEGER = Setting(
    "an integer", lambda v: isinstance(v, int) and not isinstance(v, bool), flag={"type": int}
)
_BOOLEAN = Setting("true or false", lambda v: isinstance(v, bool), flag={"action": "store_true"})


def _choice(choices: type[Choice]) -> Setting:
    names = ",".join(member.value for member in choices)
    return replace(_STRING, choices=choices, flag={"metavar": "{" + names + "}"})


def _setting(setting: Setting, default=MISSING, **kwargs):
    return field(default=default, metadata={"setting": setting}, **kwargs)


@dataclass
class PipelineConfig:
    """A run's settings; each field's :class:`Setting` is its type rule and flag."""

    templates: list[str] = _setting(_PATHS, default_factory=list)
    dataset: str = _setting(_PATH, "")
    vocab: str = _setting(replace(_PATH, flag={"help": "vocabulary file"}), "")
    verbalizer: str = _setting(_PATH, "")
    tokenizer_kind: str = _setting(_choice(TokenizerKind), "wordpiece")
    max_len: int = _setting(replace(_INTEGER, positive=True), 128)
    add_special_tokens: bool = _setting(replace(
        _BOOLEAN, flag={"action": "store_true", "help": "add CLS/SEP"},
        negation="--no-special-tokens",
    ), True)
    aggregation: str = _setting(_choice(Aggregation), "mean_log_prob")
    calibrate: bool = _setting(replace(_BOOLEAN, negation="--no-calibrate"), False)
    seed: int = _setting(_INTEGER, 0)
    logits_file: str | None = _setting(_OPTIONAL_PATH, None)
    frequency_file: str | None = _setting(_OPTIONAL_PATH, None)
    output: str | None = _setting(_OPTIONAL_PATH, None)

    @classmethod
    def from_file(cls, path: str | Path, overrides: Mapping | None = None) -> "PipelineConfig":
        """Load a YAML or JSON config document, apply overrides, then validate.

        ``overrides`` that are neither ``None`` nor a mapping, a document
        that does not parse, or a merged config that fails :meth:`validate`
        raise :class:`~promptpipe.errors.ConfigError`, the last two naming
        the file.
        """
        if overrides is not None and not isinstance(overrides, Mapping):
            raise ConfigError(f"overrides must be None or a Mapping, got {overrides!r}")
        raw = (read_json_object(path, "config file", ConfigError)
               if str(path).endswith(".json") else _read_yaml(path))
        given = {k: v for k, v in (overrides or {}).items() if v is not None}
        # override keys are checked as file keys are
        unknown = (set(raw) | set(overrides or {})) - CONFIG_SCHEMA.keys()
        try:
            if unknown:
                raise ConfigError(f"unknown config keys: {sorted(unknown, key=str)}")
            merged = {**raw, **given}
            if isinstance(merged.get("templates"), str):
                merged["templates"] = [merged["templates"]]
            # paths in the config file are relative to the file; override paths
            # are taken as given (the caller's working directory)
            base = Path(path).parent
            for name in raw.keys() - given.keys():
                value, setting = merged[name], CONFIG_SCHEMA[name]
                if setting.path and value and setting.accepts(value):
                    many = isinstance(value, list)
                    merged[name] = [str(base / p) for p in value] if many else str(base / value)
            cfg = cls(**merged)
            cfg.validate()
        except ConfigError as exc:
            raise type(exc)(f"config file {path}: {exc}") from None
        return cfg

    def validate(self) -> None:
        # a required path left at its default "" is missing, not a bad path
        missing = [name for name in ("dataset", "vocab", "verbalizer")
                   if getattr(self, name) == ""]
        for name, setting in CONFIG_SCHEMA.items():
            if name not in missing:
                setting.check(name, getattr(self, name))
        if not self.templates:
            raise ConfigError("config needs at least one template file")
        if missing:
            raise ConfigError(f"config is missing {missing[0]!r}")
        if (self.logits_file is None) == (self.frequency_file is None):
            raise ConfigError(
                "configure exactly one model interface: logits_file or frequency_file"
            )


CONFIG_SCHEMA: dict[str, Setting] = {f.name: f.metadata["setting"] for f in fields(PipelineConfig)}


def _read_yaml(path: str | Path) -> dict:
    """A YAML config file's mapping, each mapping built by :func:`unique_keys`."""
    import yaml  # only a YAML config pays for the import

    class Loader(yaml.SafeLoader):
        def construct_mapping(self, node, deep=False):
            # the parent resolves merges (<<) and checks every key; a key a merge
            # also gives is then repeated
            super().construct_mapping(node, deep)
            try:
                return unique_keys(self.construct_pairs(node, deep))
            except RepeatedKey as exc:
                key_node = node.value[exc.index][0]
                raise yaml.MarkedYAMLError(problem=str(exc), problem_mark=key_node.start_mark)

    try:
        raw = yaml.load(read_text(path), Loader)
    except (ValueError, RecursionError, yaml.YAMLError) as exc:
        # one line: YAML's own message spans several
        mark = getattr(exc, "problem_mark", None)
        at = f" at line {mark.line + 1}, column {mark.column + 1}" if mark else ""
        problem = getattr(exc, "problem", None) or " ".join(str(exc).split())
        raise ConfigError(f"config file {path} is not valid YAML{at}: {problem}") from None
    if not isinstance(raw, (dict, type(None))):
        raise ConfigError(f"config file {path} must hold a mapping")
    return raw or {}
