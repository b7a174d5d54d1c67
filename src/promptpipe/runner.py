"""Configuration-driven pipeline: wrap, measure, score, aggregate, report.

Templates are compiled once (see
:class:`~promptpipe.tokenization.CompiledTemplate`) and the verbalizer
loaded once; each example flows through wrap -> measure -> score ->
aggregate, per-template class scores are ensembled by arithmetic mean,
and results are written as JSONL in dataset order. A run builds no token
arrays (``tokenize`` is the command that does): scoring reads only a
template's mask count, which
:meth:`~promptpipe.tokenization.CompiledTemplate.measure` returns after
checking the length rule on the non-shortenable meta values alone, and
a scorer's ``rows(guid, mask_count)`` gives that many rows.

Examples run serially, and the per-example loop holds only the work that
can depend on the example: the first template resolves and renders its
values, a template with non-shortenable values resolves and measures
them, and every other template only checks the example's meta keys (its
length rule has one verdict for every example, raised at each example's
``encode`` stage if it fails); each scorer result is collected, and each
template's ``(N, M, C, W)`` array of label-word scores built in one call
after the loop. One aggregate call per template then sums each
example's mask positions and one mean over templates (the one
:func:`ensemble_scores` uses) ensembles the ``(N, C)`` class scores;
``score`` reduces each record to its class scores as it reads it. Both
then take one finite check, one ``argmax`` and one ``tolist``. ``score``
writes through one JSON encoder
(:func:`~promptpipe.textfile.write_jsonl`), and ``run`` formats its
fixed-schema lines directly, to the same bytes (:func:`_result_lines`).
Every example is reduced on its own, so output bytes do not depend on
how many examples share a call.

Two model interfaces are built in so the scoring path is exercisable
without a language model: a logits file (JSONL keyed by guid) and a
context-independent toy scorer driven by a token-frequency file. Both
reject non-numeric and non-finite values, and both project their rows
when they load them: each ``(M, V)`` logits record, and the toy
scorer's one row, become ``(M, C, W)`` label-word scores
(:meth:`~promptpipe.verbalizer.DenseIndex.word_scores`), and the run
keeps only those, so replay memory is about M·C·W floats per record,
not M·V. The run then only aggregates them
(:meth:`~promptpipe.verbalizer.DenseIndex.aggregate`), and calibration
takes its priors from the scores of the ``__content_free__`` guid: the
same ``(M, C, W)`` array :func:`~promptpipe.verbalizer.calibrate`
returns.

A logits file is read in two tiers (:func:`read_logits_records`), both
giving the values ``json.loads`` gives: rows of short decimals (at most 8
integer and 8 fraction digits, 15 in all) are converted exactly by numpy
arithmetic, one division per value; every other line, such as one of
17-digit reprs or exponents, is read by the JSON decoder, the only path
that raises. A run reads its dataset first and checks every line of the
logits file, but converts and projects only the records of the guids it
scores: its examples', and the content-free one when it calibrates.
"""

from __future__ import annotations

import json
import math
import re
from collections.abc import Callable, Collection, Iterable, Iterator, Mapping, Sequence
from dataclasses import MISSING, dataclass, field, fields, replace
from functools import partial
from pathlib import Path
from types import MappingProxyType

import numpy as np

from .data import Dataset, load_jsonl, read_guid_lines
from .errors import (
    ClassListMismatch,
    ConfigError,
    DataError,
    DimensionMismatch,
    GuidMismatch,
    MissingLogits,
    NonFiniteValue,
    PipelineStageError,
    PromptPipeError,
    check_instance,
    check_integer,
)
from .template import Choice, TemplateAST, load_template_file
from .textfile import (
    JSON_DECODER,
    JSON_ENCODER,
    RepeatedKey,
    is_file_path,
    read_json_object,
    read_text,
    unique_keys,
    write_lines,
)
from .tokenization import (
    CompiledTemplate,
    TokenizedInput,
    TokenizerKind,
    Vocab,
    build_tokenizer,
)
from .verbalizer import (
    Aggregation,
    ClassScores,
    Verbalizer,
    load_verbalizer,
)
from .wrapping import InputExample

__all__ = [
    "CONFIG_SCHEMA",
    "PipelineConfig",
    "Setting",
    "ToyScorer",
    "LogitsFileScorer",
    "RunReport",
    "ensemble_scores",
    "evaluate_accuracy",
    "read_logits_records",
    "run_pipeline",
]

CONTENT_FREE_GUID = "__content_free__"


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
    def from_file(cls, path: str | Path, overrides: dict | None = None) -> "PipelineConfig":
        """Load a YAML or JSON config document, apply overrides, then validate.

        A document that does not parse, or a merged config that fails
        :meth:`validate`, raises :class:`~promptpipe.errors.ConfigError`
        naming the file.
        """
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
    except (ValueError, yaml.YAMLError) as exc:
        # one line: YAML's own message spans several
        mark = getattr(exc, "problem_mark", None)
        at = f" at line {mark.line + 1}, column {mark.column + 1}" if mark else ""
        problem = getattr(exc, "problem", None) or " ".join(str(exc).split())
        raise ConfigError(f"config file {path} is not valid YAML{at}: {problem}") from None
    if not isinstance(raw, (dict, type(None))):
        raise ConfigError(f"config file {path} must hold a mapping")
    return raw or {}


def _check_project(project) -> None:
    if project is not None and not callable(project):
        raise ConfigError(f"project must be callable or None, got {project!r}")


def _projected(project: Callable[[np.ndarray], np.ndarray], rows: np.ndarray,
               what: str) -> np.ndarray:
    """``project(rows)``, which must be an array of as many rows, on axis 0, as
    ``rows``; any other result raises :class:`~promptpipe.errors.ConfigError`
    naming ``what``."""
    result = project(rows)
    if not isinstance(result, np.ndarray) or result.shape[:1] != rows.shape[:1]:
        raise ConfigError(f"project result for {what} must be an array with {len(rows)} "
                          f"row(s) on axis 0, got {result!r:.60}")
    return result


def _check_mask_count(mask_count) -> None:
    check_integer("mask_count", mask_count)
    if mask_count < 1:
        raise DimensionMismatch(f"mask_count must be >= 1, got {mask_count}")


class ToyScorer:
    """Context-independent scorer: one logit per vocabulary token.

    Logits come from a JSON frequency file mapping token text to a real
    value; absent tokens score 0.0. Every mask position receives the
    same row, which is enough to drive the projection path end to end.
    ``rows(guid, M)`` returns ``(M, V)`` rows for an integer M >= 1, as
    does a call with an encoding of M masks; with ``project``, the row goes
    through it once, here, as a one-row array whose result must be one too,
    and they return ``M`` copies of the result (the
    runner passes :meth:`~promptpipe.verbalizer.DenseIndex.word_scores`, as
    it does to :class:`LogitsFileScorer`).
    """

    def __init__(
        self,
        frequencies: dict[str, float],
        vocab: Vocab,
        project: Callable[[np.ndarray], np.ndarray] | None = None,
    ):
        check_instance("frequencies", frequencies, Mapping)
        check_instance("vocab", vocab, Vocab)
        _check_project(project)
        row = np.zeros(len(vocab), dtype=np.float64)
        for token, value in frequencies.items():
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise ConfigError(f"token {token!r} has non-numeric frequency {value!r}")
            try:
                number = float(value)
            except OverflowError:
                raise NonFiniteValue(
                    f"token {token!r} has a frequency too large for a float"
                ) from None
            if not math.isfinite(number):
                raise NonFiniteValue(f"token {token!r} has non-finite frequency {value!r}")
            index = vocab.ids.get(token)
            if index is not None:
                row[index] = number
        if project is not None:
            row = _projected(project, row[None], "the frequency row")[0]
        self._row = row
        # per mask count, one read-only zero-stride view that every call
        # returns, which is cheaper than building a view or a copy per call
        self._rows: dict[int, np.ndarray] = {}

    @classmethod
    def from_file(
        cls,
        path: str | Path,
        vocab: Vocab,
        project: Callable[[np.ndarray], np.ndarray] | None = None,
    ) -> "ToyScorer":
        check_instance("vocab", vocab, Vocab)
        raw = read_json_object(path, "frequency file", ConfigError)
        try:
            return cls(raw, vocab, project)
        except ConfigError as exc:
            raise type(exc)(f"frequency file {path}: {exc}") from None

    def rows(self, guid: str, mask_count: int) -> np.ndarray:
        rows = self._rows.get(mask_count) if type(mask_count) is int else None
        if rows is None:
            _check_mask_count(mask_count)
            rows = self._rows[mask_count] = np.broadcast_to(
                self._row, (mask_count, *self._row.shape))
        return rows

    def __call__(self, guid: str, tokenized: TokenizedInput) -> np.ndarray:
        return self.rows(guid, len(tokenized.mask_positions))


def read_logits_records(path: str | Path, vocab_size: int) -> Iterator[tuple[str, np.ndarray]]:
    """An iterator of ``(guid, rows)`` for each record of a JSONL logits file,
    read in one pass; ``vocab_size`` is checked at the call.

    Each non-blank line is ``{"guid": ..., "mask_logits": [[...], ...]}``
    with rows of width ``vocab_size`` (an integer, at least 1) holding JSON
    numbers. Records are read by :func:`~promptpipe.data.read_guid_lines`,
    so the guid rules are those of every guid-keyed file. The file is read
    as bytes through one reused buffer, and memory does not grow with the
    line count. A line is read in one of two tiers, which both give the
    values ``json.loads`` gives:

    - a line of exactly that form whose every value is a short decimal
      (up to 8 integer and 8 fraction digits, 15 in all, as ``json.dumps``
      writes logits rounded to a few decimals) is converted from its bytes
      by numpy arithmetic (:func:`_decimal_row`), bit-identical to
      ``float()`` because each value is one correctly rounded division of
      two exact doubles; the line is never decoded to text;
    - every other line, such as one holding the 16- and 17-digit reprs of
      float32 logits upcast or numbers with an exponent, is decoded by the
      one JSON decoder, the only path that raises: a record without
      usable ``mask_logits``, with a value that is not a number (a
      string, ``true``, ``false`` or ``null``) or with a non-finite logit
      raises a :class:`~promptpipe.errors.PromptPipeError` naming the
      file, line and guid.
    """
    _check_vocab_size(vocab_size)
    return _logits_records(path, vocab_size)


def _check_vocab_size(vocab_size) -> None:
    check_integer("vocab_size", vocab_size)
    if vocab_size < 1:
        raise ConfigError(f"vocab_size must be >= 1, got {vocab_size}")


def _check_guids(guids) -> frozenset[str] | None:
    if guids is None:
        return None
    if not isinstance(guids, Collection) or isinstance(guids, (str, bytes)):
        raise ConfigError(f"guids must be None or a collection of strings, got {guids!r}")
    for guid in guids:
        if not isinstance(guid, str):
            raise ConfigError(f"guids must hold strings, got {guid!r}")
    return frozenset(guids)


def _logits_records(
    path: str | Path, vocab_size: int, guids: frozenset[str] | None = None
) -> Iterator[tuple[str, np.ndarray]]:
    """The records of ``guids`` (all of them for ``None``), every line checked."""
    # one padded row buffer for the whole file, which _decimal_row grows to the longest row
    read_line = partial(_numeric_record, vocab_size=vocab_size, guids=guids, pad=bytearray())
    for line_no, guid, record, line in read_guid_lines(path, read_line):
        if not isinstance(record, dict):  # read by _numeric_record; None if not kept
            if record is not None:
                yield guid, record
            continue
        where = f"{path}:{line_no}"
        if "mask_logits" not in record:
            raise ConfigError(f"{where}: logits record for guid {guid!r} has no 'mask_logits'")
        values = record["mask_logits"]
        try:
            rows = np.asarray(values)
        except ValueError as exc:
            raise ConfigError(f"{where}: bad mask_logits for guid {guid!r}: {exc}") from None
        numeric = rows.dtype.kind in "iuf"
        if not numeric and rows.ndim != 2:
            raise ConfigError(
                f"{where}: bad mask_logits for guid {guid!r}: expected rows of numbers, "
                f"got {json.dumps(values)[:40]}"
            )
        if rows.ndim != 2 or rows.shape[1] != vocab_size:
            raise DimensionMismatch(f"{where}: mask_logits must be rows of width {vocab_size}")
        # a string or null leaves the inferred dtype non-numeric, while true and
        # false infer as 1 and 0: a line spelling either is checked value by value
        if not numeric or "true" in line or "false" in line:
            for row in values:
                for value in row:
                    if type(value) not in (int, float):
                        raise ConfigError(
                            f"{where}: guid {guid!r} has a non-numeric logit {json.dumps(value)}"
                        )
        try:
            rows = rows.astype(np.float64, copy=False)
        except OverflowError as exc:
            raise ConfigError(f"{where}: bad mask_logits for guid {guid!r}: {exc}") from None
        if not np.isfinite(rows).all():
            raise NonFiniteValue(f"{where}: guid {guid!r} has a non-finite logit")
        if guids is None or guid in guids:
            yield guid, rows


# The documented record form, with any spaces or tabs between its parts: the
# head up to the outer "[[", the tail from the rows' closing "]" to the line
# end, and the separator between two rows.
_WS = r"[ \t]*"
_HEAD = re.compile(
    rf'{_WS}\{{{_WS}"guid"{_WS}:{_WS}(?P<guid>"(?:[^"\\]|\\.)*"){_WS},'
    rf'{_WS}"mask_logits"{_WS}:{_WS}\[{_WS}\['.encode()
)
_TAIL = re.compile(rf"\]{_WS}\]{_WS}\}}[ \t\r\n]*".encode())
_ROW_SEPARATOR = re.compile(rf"\]{_WS},{_WS}\[".encode())


def _numeric_record(
    line: bytearray,
    start: int,
    end: int,
    vocab_size: int,
    guids: frozenset[str] | None,
    pad: bytearray,
) -> tuple[str, np.ndarray | None] | None:
    """``(guid, rows)`` for the line ``line[start:end]`` if the one JSON decoder
    reads it as a record of ``vocab_size``-wide rows of finite numbers,
    parsed without it; else ``None``.

    The line is framed in one pass, as byte offsets: ``_HEAD`` matches it
    up to the outer ``[[``; the rows end at the line's second-to-last
    ``]``, from which ``_TAIL`` must match the rest of the line; and every
    ``]`` between must start a ``_ROW_SEPARATOR``, where the rows are cut.
    Each row is padded in ``pad`` and checked by :func:`_decimal_row`, and
    converted, to the values of ``float()``, so of ``json.loads`` followed
    by the float64 conversion, into a fresh ``(M, V)`` array only if
    ``guids`` is ``None`` or holds the guid; ``rows`` is ``None`` for a
    line checked but not converted. At the first row it refuses, the line
    is left to the decoder, as is any other line, valid or not. Of a line
    read here, the decoder reads only the guid literal.
    """
    head = _HEAD.match(line, start, end)
    if head is None:
        return None
    start = head.end()
    stop = line.rfind(b"]", start, max(line.rfind(b"]", start, end), start))
    if stop < 0 or _TAIL.fullmatch(line, stop, end) is None:
        return None
    bounds = []
    while (close := line.find(b"]", start, stop)) >= 0:
        separator = _ROW_SEPARATOR.match(line, close, stop)
        if separator is None:
            return None
        bounds.append((start, close))
        start = separator.end()
    bounds.append((start, stop))
    try:
        # a literal that is not UTF-8 is left to the decoder, which names its line
        guid = JSON_DECODER.decode(head["guid"].decode())
    except ValueError:
        return None
    # a field takes at least 4 bytes with its comma: this also bounds the
    # memory a short row can ask for
    if any(close - begin < 4 * vocab_size - 1 for begin, close in bounds):
        return None
    rows = None
    if guids is None or guid in guids:
        rows = np.empty((len(bounds), vocab_size))
    view = memoryview(line)
    for m, (begin, close) in enumerate(bounds):
        out = None if rows is None else rows[m]
        if _decimal_row(view[begin:close], vocab_size, out is not None, out, pad) is None:
            return None
    return guid, rows


_SEP, _MINUS, _DOT, _ZERO, _SPACE = b",-.0 "
_CHUNK = 1 << 16  # bytes per step; the step's temporaries stay in cache

# Tables for _decimal_row, indexed by a digit count k <= 8: the bits that
# hold the digit values of the last k bytes of an 8-byte window, 10**k and
# the divisor 10.0**k (negated at k + 9).
_DIGIT_BITS = np.array([0x0F0F0F0F0F0F0F0F >> 8 * (8 - k) << 8 * (8 - k) for k in range(9)],
                       dtype=np.uint64)
_POW10 = np.array([10**k for k in range(9)], dtype=np.uint64)
_SCALE = np.array([float(sign * 10**k) for sign in (1, -1) for k in range(9)])


def _decimal_row(
    row,
    width: int,
    convert: bool = True,
    out: np.ndarray | None = None,
    pad: bytearray | None = None,
) -> np.ndarray | None:
    """The ``width`` values of a logits row of short decimals, in bytes, each
    the value ``float()`` reads, written to ``out`` if given, or without
    ``convert`` an empty array once the row is checked; ``None`` for any
    other row. The row is copied once, padded, into ``pad`` if given, a
    buffer of zeros grown as needed that a reader reuses across rows.

    Each field is ``-?(0|[1-9][0-9]{0,7})\\.[0-9]{1,8}`` with at most 15
    digits in all, and one space may follow each comma and lead the row.
    Such a field is a JSON number, and its value is exact (Clinger's fast
    path): its digits without the dot make an integer below
    10**15 < 2**53, which a float64 holds exactly, as it does 10.0**f for
    f fraction digits, so the one division rounds once, to the double
    nearest the decimal. A minus sign divides by -10.0**f, so ``-0.0``
    stays negative.

    The row is read in steps of about ``_CHUNK`` bytes, each cut at a
    comma, so every temporary stays small: whole-row temporaries come as
    fresh pages, whose faults cost more than the arithmetic (a replay_bert
    row took about twice as long). A step finds its commas and dots in one
    pass, which must alternate, and checks the form; with ``convert``, it
    then converts the digits before each dot and before each next comma
    from the unaligned 8-byte window that ends there, masked to those
    digits, by multiply and shift. A row is accepted or refused alike
    either way.
    """
    # a field takes at least 4 bytes with its comma: this also bounds the
    # memory a short row can ask for
    if len(row) < 4 * width - 1:
        return None
    # a comma before and after the row, so every step runs from a comma to
    # a comma, and 8 zero bytes before those for the first field's windows;
    # bytes after the second comma are not read
    length = len(row) + 10
    data = bytearray(length) if pad is None else pad
    if len(data) < length:
        data.extend(bytes(length - len(data)))
    data[9 : length - 1] = row
    data[8] = data[length - 1] = _SEP
    x = np.frombuffer(data, np.uint8, length)
    windows = np.ndarray((length - 7,), "<u8", buffer=data, strides=(1,))
    values = np.empty(width if convert else 0) if out is None else out
    done = 0
    start = 8
    while start < length - 1:
        stop = data.find(b",", start + _CHUNK, length - 1)
        if stop < 0:
            stop = length - 1
        text = x[start : stop + 1]
        # "," and "." differ only in bit 1; commas at even places and dots
        # at odd ones make k fields of one dot each
        marks = ((text & 0xFD) == _SEP).nonzero()[0]
        k = len(marks) // 2
        if len(marks) % 2 == 0 or done + k > width:
            return None
        kinds = text[marks]
        if kinds[0::2].max() != _SEP or kinds[1::2].min() != _DOT:
            return None
        # each field's first digit, after its comma, a space and a sign
        first = marks[:-1:2] + 1
        first += text[first] == _SPACE
        negative = text[first] == _MINUS
        first += negative
        # the digits before each dot, then before the next comma
        n = marks[1:] - marks[:-1]
        n -= 1
        np.subtract(marks[1::2], first, out=n[0::2])
        if n.min() < 1 or n.max() > 8 or (n[0::2] + n[1::2]).max() > 15:
            return None
        # every byte of those runs is a digit, as no byte outside them is one
        if np.count_nonzero((text - _ZERO) < 10) != n.sum():
            return None
        # no leading zero: an integer part of several digits starts with 1-9
        if ((text[first] == _ZERO) & (n[0::2] > 1)).any():
            return None
        if convert:
            # the window ending at place p of the step starts at data[start + p - 8]
            digits = windows[start - 8 :][marks[1:]]
            digits &= _DIGIT_BITS[n]
            # byte values to 2-digit, 4-digit, then 8-digit numbers; the first
            # digit is the low byte, and masked bytes lead with zeros
            digits *= 10 << 8 | 1
            digits >>= 8
            digits &= 0x00FF00FF00FF00FF
            digits *= 100 << 16 | 1
            digits >>= 16
            digits &= 0x0000FFFF0000FFFF
            digits *= 10000 << 32 | 1
            digits >>= 32
            integers, fractions = digits[0::2], digits[1::2]
            f = n[1::2]
            integers *= _POW10[f]
            integers += fractions
            f += 9 * negative
            np.divide(integers, _SCALE[f], out=values[done : done + k])
        done += k
        start = stop
    return values if done == width else None


class LogitsFileScorer:
    """Replays logits from a JSONL file of {guid, mask_logits} records.

    ``rows(guid, M)``, or a call with an encoding of M masks, returns the
    guid's ``(M, V)`` rows, which must number M, an integer >= 1;
    ``records`` maps each guid to its rows in file order, read-only. With
    ``project``, each record's rows go through it as they are read and
    only its result is kept, which must be an array of the record's M rows
    on axis 0 (a :class:`~promptpipe.errors.ConfigError` naming the guid
    otherwise): the runner passes
    :meth:`~promptpipe.verbalizer.DenseIndex.word_scores`, so it holds
    ``(M, C, W)`` label-word scores per guid, never ``(M, V)`` rows.

    With ``guids``, a collection of strings, every line is still read and
    checked as :func:`read_logits_records` checks it, and rejected alike,
    but only the records of those guids are converted, projected and
    kept; the runner passes its dataset's guids, and the content-free one
    when it calibrates.
    """

    def __init__(
        self,
        path: str | Path,
        vocab_size: int,
        project: Callable[[np.ndarray], np.ndarray] | None = None,
        guids: Collection[str] | None = None,
    ):
        _check_project(project)
        _check_vocab_size(vocab_size)
        records = _logits_records(path, vocab_size, _check_guids(guids))
        if project is not None:
            records = ((guid, _projected(project, rows, f"guid {guid!r}"))
                       for guid, rows in records)
        self.records = MappingProxyType(dict(records))

    def rows(self, guid: str, mask_count: int) -> np.ndarray:
        rows = self.records.get(guid)
        if rows is None:
            raise MissingLogits(guid)
        if type(mask_count) is not int or rows.shape[0] != mask_count:
            _check_mask_count(mask_count)
            raise DimensionMismatch(
                f"guid {guid!r} has {rows.shape[0]} logits rows for {mask_count} mask positions"
            )
        return rows

    def __call__(self, guid: str, tokenized: TokenizedInput) -> np.ndarray:
        return self.rows(guid, len(tokenized.mask_positions))


Scorer = ToyScorer | LogitsFileScorer


@dataclass
class RunReport:
    results: list[dict]
    accuracy: float | None
    n_examples: int
    n_labeled: int


def ensemble_scores(per_template: Sequence[ClassScores]) -> ClassScores:
    """Arithmetic mean of aligned class scores across templates."""
    check_instance("per_template", per_template, Sequence, ClassListMismatch)
    if not per_template:
        raise ClassListMismatch("no scores to ensemble")
    first = per_template[0]
    for other in per_template:
        if not isinstance(other, ClassScores):
            raise ClassListMismatch(f"per_template must hold ClassScores, got {other!r}")
        if other.classes != first.classes:
            raise ClassListMismatch(
                f"class lists differ: {first.classes} vs {other.classes}"
            )
    stacked = np.array([[s.scores] for s in per_template], dtype=np.float64)
    mean = _mean_over_templates(stacked)[0]
    return ClassScores(classes=first.classes, scores=tuple(float(v) for v in mean))


def _mean_over_templates(stack: np.ndarray) -> np.ndarray:
    """``(T, N, C)`` per-template class scores to their ``(N, C)`` mean.

    The plain mean sums before it divides; only an example whose finite
    scores overflow there is recomputed, as the sum of ``x / T``.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        mean = stack.mean(axis=0)
        redo = ~np.isfinite(mean).all(axis=-1) & np.isfinite(stack).all(axis=(0, 2))
        mean[redo] = np.add.reduce(stack[:, redo] / len(stack), axis=0)
    return mean


def evaluate_accuracy(
    preds: Sequence[tuple[str, str]], golds: Sequence[tuple[str, str]]
) -> float:
    """Exact-match accuracy over (guid, class) pairs aligned by position."""
    check_instance("preds", preds, Sequence, DataError)
    check_instance("golds", golds, Sequence, DataError)
    if not golds:
        raise DataError("golds must be non-empty")
    if len(preds) != len(golds):
        raise GuidMismatch(f"{len(preds)} predictions for {len(golds)} golds")
    correct = 0
    for pred, gold in zip(preds, golds):
        try:
            (pred_guid, pred_label), (gold_guid, gold_label) = pred, gold
        except (TypeError, ValueError):
            raise DataError(
                f"preds and golds must hold (guid, class) pairs, got {pred!r} and {gold!r}"
            ) from None
        if pred_guid != gold_guid:
            raise GuidMismatch(f"prediction guid {pred_guid!r} != gold guid {gold_guid!r}")
        correct += pred_label == gold_label
    return correct / len(golds)


def _content_free_example(ast: TemplateAST) -> InputExample:
    return InputExample(
        guid=CONTENT_FREE_GUID, meta={key: "" for key in ast.meta_keys()}
    )


@dataclass
class _Pipeline:
    templates: list[CompiledTemplate]
    verbalizer: Verbalizer
    scorer: Scorer
    priors: list[np.ndarray | None]
    cfg: PipelineConfig

    def __post_init__(self):
        self.aggregation = Aggregation.parse(self.cfg.aggregation)
        self.mask_counts = [t.ast.mask_count for t in self.templates]

    def process(self, examples: Sequence[InputExample]) -> list[dict]:
        """Results for ``examples``, with one aggregate call per template.

        Per example, only the first template renders its text and only a
        template that measures values resolves them; every other template
        checks that the example has its meta keys.
        """
        index = self.verbalizer.dense
        rows = self.scorer.rows
        resolving = [t == 0 or template.measures_values
                     for t, template in enumerate(self.templates)]
        # each template's word scores, one (M, C, W) array per example
        found: list[list[np.ndarray]] = [[] for _ in self.templates]
        records = []
        for example in examples:
            guid = example.guid
            for t, template in enumerate(self.templates):
                stage = "wrap"
                try:
                    if resolving[t]:
                        values = template.resolve(example)
                        if t == 0:
                            records.append({"guid": guid, "wrapped_text": template.render(values)})
                    else:
                        # measure reads none of this template's values
                        template.check_keys(example)
                        values = ()
                    stage = "encode"
                    m = template.measure(values)
                    stage = "score"
                    found[t].append(rows(guid, m))
                except PromptPipeError as exc:
                    raise PipelineStageError(guid, stage, exc) from exc
        shape = index.word_mask.shape
        combined = _mean_over_templates(np.stack([
            index.aggregate(np.array(scores).reshape(len(examples), m, *shape),
                            self.aggregation, prior)
            for scores, m, prior in zip(found, self.mask_counts, self.priors)
        ]))
        return _predict(records, combined, self.verbalizer.classes)


def _predict(records: list[dict], scores: np.ndarray, classes: Sequence[str]) -> list[dict]:
    """``records`` with each one's predicted class and score list added; finite
    word scores can overflow once summed, and the first such guid is named."""
    finite = np.isfinite(scores).all(axis=1)
    if not finite.all():
        guid = records[int(finite.argmin())]["guid"]
        raise NonFiniteValue(f"guid {guid!r} has class scores beyond the float64 range")
    for record, k, row in zip(records, scores.argmax(axis=1).tolist(), scores.tolist()):
        record["predicted_class"] = classes[k]
        record["class_scores"] = row
    return records


def _result_lines(results: Iterable[dict]) -> Iterator[str]:
    """Each of ``run``'s results as the line :func:`~promptpipe.textfile.write_jsonl`
    writes for it, formatted directly: its strings through the same encoder,
    and its class scores, finite floats (:func:`_predict`), as the repr of
    their list, which is their JSON text."""
    encode = JSON_ENCODER.encode
    for record in results:
        yield (f'{{"guid": {encode(record["guid"])}, '
               f'"wrapped_text": {encode(record["wrapped_text"])}, '
               f'"predicted_class": {encode(record["predicted_class"])}, '
               f'"class_scores": {record["class_scores"]!r}}}\n')


def _score_logits_file(path: str, vocab: str, verbalizer: str, tokenizer_kind: str,
                       aggregation: Aggregation | str) -> list[dict]:
    """``score``'s records in file order: each record is read as a run reads it
    and reduced to its C class scores as it is read."""
    aggregation = Aggregation.parse(aggregation)
    tokenizer = build_tokenizer(tokenizer_kind, Vocab.from_file(vocab))
    index = load_verbalizer(verbalizer, tokenizer).dense
    records = [(guid, index.aggregate(index.word_scores(rows), aggregation))
               for guid, rows in read_logits_records(path, len(tokenizer.vocab))]
    totals = np.array([scores for _, scores in records]).reshape(len(records), len(index.classes))
    return _predict([{"guid": guid} for guid, _ in records], totals, index.classes)


def _setup(cfg: PipelineConfig) -> tuple[_Pipeline, Dataset]:
    cfg.validate()
    templates: list[TemplateAST] = []
    for path in cfg.templates:
        for ast in load_template_file(path):
            # class scores sum over mask positions: a template needs one
            if ast.mask_count == 0:
                raise ConfigError(f"{path}: template {ast.source!r}: template has no mask node")
            templates.append(ast)
    if not templates:
        raise ConfigError("template files define no templates")
    vocab = Vocab.from_file(cfg.vocab)
    tokenizer = build_tokenizer(cfg.tokenizer_kind, vocab)
    verbalizer = load_verbalizer(cfg.verbalizer, tokenizer)
    # the dataset first: a logits file is converted only for the guids it scores
    dataset = load_jsonl(cfg.dataset)
    # scorers project their rows when they load them: the run keeps
    # label-word scores, never a vocabulary-wide row
    project = verbalizer.dense.word_scores
    scorer: Scorer
    if cfg.logits_file is not None:
        guids = [example.guid for example in dataset]
        if cfg.calibrate:
            guids.append(CONTENT_FREE_GUID)
        scorer = LogitsFileScorer(cfg.logits_file, len(vocab), project, guids)
    else:
        assert cfg.frequency_file is not None
        scorer = ToyScorer.from_file(cfg.frequency_file, vocab, project)
    compiled = [
        CompiledTemplate(ast, tokenizer, cfg.max_len, cfg.add_special_tokens) for ast in templates
    ]

    priors: list[np.ndarray | None] = []
    for template in compiled:
        if not cfg.calibrate:
            priors.append(None)
            continue
        mask_count = template.measure(template.resolve(_content_free_example(template.ast)))
        # the projected content-free rows are exactly the priors that
        # ``calibrate`` measures from the rows themselves
        prior = scorer.rows(CONTENT_FREE_GUID, mask_count)
        if not np.isfinite(prior).all():
            raise NonFiniteValue(
                f"guid {CONTENT_FREE_GUID!r} has label-word scores beyond the float64 range"
            )
        priors.append(prior)
    pipeline = _Pipeline(
        templates=compiled,
        verbalizer=verbalizer,
        scorer=scorer,
        priors=priors,
        cfg=cfg,
    )
    return pipeline, dataset


def run_pipeline(cfg: PipelineConfig) -> RunReport:
    """Run the full pipeline over a dataset; see the module docstring."""
    check_instance("cfg", cfg, PipelineConfig)
    pipeline, dataset = _setup(cfg)
    results = pipeline.process(dataset.examples)

    if cfg.output is not None:
        write_lines(_result_lines(results), cfg.output)

    labeled = [(ex, res) for ex, res in zip(dataset.examples, results) if ex.label is not None]
    accuracy = None
    if labeled:
        preds = [(res["guid"], res["predicted_class"]) for _, res in labeled]
        golds = [(ex.guid, ex.label) for ex, _ in labeled]
        accuracy = evaluate_accuracy(preds, golds)
    return RunReport(
        results=results,
        accuracy=accuracy,
        n_examples=len(dataset),
        n_labeled=len(labeled),
    )
