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

Examples run serially, and the per-example loop holds only per-example
work: each example is wrapped, measured and scored template by template
into one ``(N, M, C, W)`` array of label-word scores per template. A
template's mask count is computed once (``TemplateAST.mask_count`` is
cached). After the loop, one aggregate call per template for the whole
run sums each example's mask positions, one mean over templates (the
one :func:`ensemble_scores` uses) ensembles the ``(N, C)`` class scores,
the predictions come from one ``argmax`` and the score lists from one
``tolist``, and the records are written through one JSON encoder
(:func:`~promptpipe.textfile.write_jsonl`). Every example is reduced on
its own, so output bytes do not depend on how many examples share a call.

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
"""

from __future__ import annotations

import json
import math
import os
import re
from dataclasses import MISSING, dataclass, field, fields, replace
from functools import partial
from pathlib import Path
from typing import Callable, Iterator, Sequence

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
)
from .soft_plan import build_soft_plan
from .template import TemplateAST, load_template_file
from .textfile import read_text, write_jsonl
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
    """One config field's schema entry: its type rule and its ``run`` flag.

    A ``path`` value in a config file is relative to the file. ``flag``
    holds the field's ``add_argument`` keywords, and ``negation`` names a
    boolean's store-false flag.
    """

    expected: str
    accepts: Callable[[object], bool]
    path: bool = False
    positive: bool = False
    flag: dict = field(default_factory=dict)
    negation: str | None = None

    def check(self, name: str, value) -> None:
        """Raise :class:`~promptpipe.errors.ConfigError` unless ``value`` is valid."""
        if not self.accepts(value):
            raise ConfigError(f"{name!r} must be {self.expected}, got {value!r}")
        if self.positive and value < 1:
            raise ConfigError(f"{name} must be positive")


_PATH = Setting("a file path", lambda v: isinstance(v, (str, os.PathLike)), path=True)
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


def _setting(setting: Setting, default=MISSING, **kwargs):
    return field(default=default, metadata={"setting": setting}, **kwargs)


@dataclass
class PipelineConfig:
    """A run's settings; each field's :class:`Setting` is its type rule and ``run`` flag."""

    templates: list[str] = _setting(_PATHS, default_factory=list)
    dataset: str = _setting(_PATH, "")
    vocab: str = _setting(_PATH, "")
    verbalizer: str = _setting(_PATH, "")
    tokenizer_kind: str = _setting(
        replace(_STRING, flag={"choices": [kind.value for kind in TokenizerKind]}), "wordpiece"
    )
    max_len: int = _setting(replace(_INTEGER, positive=True), 128)
    add_special_tokens: bool = _setting(replace(_BOOLEAN, negation="--no-special-tokens"), True)
    aggregation: str = _setting(_STRING, "mean_log_prob")
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
        text = read_text(path)
        kind = "JSON" if str(path).endswith(".json") else "YAML"
        parse, errors = json.loads, (ValueError,)
        if kind == "YAML":
            import yaml  # only a YAML config pays for the import
            parse, errors = yaml.safe_load, (ValueError, yaml.YAMLError)
        try:
            raw = parse(text)
        except errors as exc:
            # one line: YAML's own message spans several
            mark = getattr(exc, "problem_mark", None)
            at = f" at line {mark.line + 1}, column {mark.column + 1}" if mark else ""
            problem = getattr(exc, "problem", None) or " ".join(str(exc).split())
            raise ConfigError(f"config file {path} is not valid {kind}{at}: {problem}") from None
        if raw is None:
            raw = {}
        if not isinstance(raw, dict):
            raise ConfigError(f"config file {path} must hold a mapping")
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
        for name, setting in CONFIG_SCHEMA.items():
            setting.check(name, getattr(self, name))
        if not self.templates:
            raise ConfigError("config needs at least one template file")
        for name in ("dataset", "vocab", "verbalizer"):
            if not getattr(self, name):
                raise ConfigError(f"config is missing {name!r}")
        if (self.logits_file is None) == (self.frequency_file is None):
            raise ConfigError(
                "configure exactly one model interface: logits_file or frequency_file"
            )
        TokenizerKind.parse(self.tokenizer_kind)
        Aggregation.parse(self.aggregation)


CONFIG_SCHEMA: dict[str, Setting] = {f.name: f.metadata["setting"] for f in fields(PipelineConfig)}


class ToyScorer:
    """Context-independent scorer: one logit per vocabulary token.

    Logits come from a JSON frequency file mapping token text to a real
    value; absent tokens score 0.0. Every mask position receives the
    same row, which is enough to drive the projection path end to end.
    ``rows(guid, M)`` returns ``(M, V)`` rows, as does a call with an
    encoding of M masks; with ``project``, the row goes through it once,
    here, and they return ``M`` copies of the result (the runner passes
    :meth:`~promptpipe.verbalizer.DenseIndex.word_scores`, as it does to
    :class:`LogitsFileScorer`).
    """

    def __init__(
        self,
        frequencies: dict[str, float],
        vocab: Vocab,
        project: Callable[[np.ndarray], np.ndarray] | None = None,
    ):
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
        self._row = row if project is None else project(row[None])[0]
        # a read-only zero-stride view; a call returns a slice of it, which
        # is cheaper than building a view or a copy per call
        self._rows = np.broadcast_to(self._row, (1, *self._row.shape))

    @classmethod
    def from_file(
        cls,
        path: str | Path,
        vocab: Vocab,
        project: Callable[[np.ndarray], np.ndarray] | None = None,
    ) -> "ToyScorer":
        try:
            raw = json.loads(read_text(path))
        except ValueError as exc:
            raise ConfigError(f"frequency file {path} is not valid JSON: {exc}") from None
        if not isinstance(raw, dict):
            raise ConfigError(f"frequency file {path} must be a JSON object")
        try:
            return cls(raw, vocab, project)
        except ConfigError as exc:
            raise type(exc)(f"frequency file {path}: {exc}") from None

    def rows(self, guid: str, mask_count: int) -> np.ndarray:
        if mask_count > len(self._rows):
            self._rows = np.broadcast_to(self._row, (mask_count, *self._row.shape))
        return self._rows[:mask_count]

    def __call__(self, guid: str, tokenized: TokenizedInput) -> np.ndarray:
        return self.rows(guid, len(tokenized.mask_positions))


def read_logits_records(path: str | Path, vocab_size: int) -> Iterator[tuple[str, np.ndarray]]:
    """Yield ``(guid, rows)`` for each record of a JSONL logits file, in one pass.

    Each non-blank line is ``{"guid": ..., "mask_logits": [[...], ...]}``
    with rows of width ``vocab_size`` holding JSON numbers. Records are
    read by :func:`~promptpipe.data.read_guid_lines`, so the guid rules
    are those of every guid-keyed file. A line of exactly that form
    whose rows hold finite JSON numbers only has its row text parsed by
    one ``np.loadtxt`` call, which gives the values ``json.loads`` gives.
    Every other line is decoded by ``json.loads``, the only path that
    raises: a record without usable ``mask_logits``, with a value that
    is not a number (a string, ``true``, ``false`` or ``null``) or with a
    non-finite logit raises a :class:`~promptpipe.errors.PromptPipeError`
    naming the file, line and guid.
    """
    read_line = partial(_numeric_record, vocab_size=vocab_size)
    for line_no, guid, record, line in read_guid_lines(path, read_line):
        if isinstance(record, np.ndarray):
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
        yield guid, rows


# The documented record form, with any spaces or tabs between its parts; the
# rows group is the text between the outer "[[" and "]]".
_WS = r"[ \t]*"
_NUMERIC_LINE = re.compile(
    rf'{_WS}\{{{_WS}"guid"{_WS}:{_WS}(?P<guid>"(?:[^"\\]|\\.)*"){_WS},'
    rf'{_WS}"mask_logits"{_WS}:{_WS}\[{_WS}\[(?P<rows>.*)\]{_WS}\]{_WS}\}}[ \t\n]*'
)
_ROW_SEPARATOR = re.compile(rf"\]{_WS},{_WS}\[")


def _numeric_record(line: str, vocab_size: int) -> tuple[str, np.ndarray] | None:
    """``(guid, rows)`` for a line that ``json.loads`` reads as a record of
    ``vocab_size``-wide rows of finite numbers, parsed without it; else ``None``.

    The rows must hold JSON numbers only (:func:`_json_number_row`), and
    ``np.loadtxt`` must read one row of ``vocab_size`` finite values per
    ``[...]``. Its values are those of ``float()``, so of ``json.loads``
    followed by the float64 conversion. Any other line, valid or not, is
    left to ``json.loads``.
    """
    match = _NUMERIC_LINE.fullmatch(line)
    if match is None:
        return None
    rows = _ROW_SEPARATOR.split(match["rows"])
    # an empty row fails here, before loadtxt, which would drop it and warn
    if not all(map(_json_number_row, rows)):
        return None
    try:
        guid = json.loads(match["guid"])
        values = np.loadtxt(rows, delimiter=",", dtype=np.float64, ndmin=2)
    except ValueError:
        return None
    if values.shape != (len(rows), vocab_size) or not np.isfinite(values).all():
        return None
    return guid, values


# Byte classes for _json_number_row: "0" stays "0", the other digits read
# as "1", "e" and "E" as "*", and "," space and tab as ","; "-", "+" and "."
# stay, and every other byte reads as "?".
_NUMBER_BYTES = b"0123456789eE, \t-+."
_ROW_CLASSES = bytes.maketrans(
    _NUMBER_BYTES + bytes(b for b in range(256) if b not in _NUMBER_BYTES),
    b"0111111111**,,,-+.".ljust(256, b"?"),
)
# once a row holding "?" is refused, "0" and "1" are the only classes >= "0"
_SEP, _MINUS, _PLUS, _DOT, _ZERO = b",-+.0"
_CHUNK = 1 << 15  # bytes per step; the step's temporaries stay in cache


def _json_number_row(row: str) -> bool:
    """Whether the comma-separated fields of ``row`` are JSON numbers,
    given that ``np.loadtxt`` reads each of them as a float.

    Besides JSON numbers, loadtxt reads a leading ``+``, a ``.`` without
    a digit on either side, and a leading zero before a digit, and reads
    the integer ``-0`` as -0.0 where ``json.loads`` gives 0; a row
    spelling any of them is refused, and so is a row without a field or
    with a character other than digits, ``-+.eE``, comma, space and tab.
    """
    if not row.isascii() or not row.strip(" \t"):
        return False
    classes = row.encode("ascii").translate(_ROW_CLASSES)
    if b"?" in classes:
        return False
    # two separators before the row and one after, so every byte of it has
    # two bytes before it and one after
    x = np.frombuffer(b",," + classes + b",", dtype=np.uint8)
    for start in range(0, len(x) - 3, _CHUNK):
        chunk = x[start : start + _CHUNK + 3]
        sep = chunk == _SEP
        digit = chunk >= _ZERO
        before, here, after = chunk[1:-2], chunk[2:-1], digit[3:]
        # a "+" that starts a number
        bad = sep[1:-2] & (here == _PLUS)
        # "." without a digit on both sides
        bad |= (here == _DOT) & ~(digit[1:-2] & after)
        # a "0" that starts a number, followed by a digit; a "-0" integer
        signed = (before == _MINUS) & sep[:-3]
        starts = (here == _ZERO) & (sep[1:-2] | signed)
        bad |= starts & (after | (signed & sep[3:]))
        if bad.any():
            return False
    return True


class LogitsFileScorer:
    """Replays logits from a JSONL file of {guid, mask_logits} records.

    ``rows(guid, M)``, or a call with an encoding of M masks, returns the
    guid's ``(M, V)`` rows, which must number M. With ``project``, each
    record's rows go through it as they are read and only its result is
    kept and returned: the runner passes
    :meth:`~promptpipe.verbalizer.DenseIndex.word_scores`, so it holds
    ``(M, C, W)`` label-word scores per guid, never vocabulary-wide rows.
    """

    def __init__(
        self,
        path: str | Path,
        vocab_size: int,
        project: Callable[[np.ndarray], np.ndarray] | None = None,
    ):
        self.vocab_size = vocab_size
        records = read_logits_records(path, vocab_size)
        if project is not None:
            records = ((guid, project(rows)) for guid, rows in records)
        self._rows: dict[str, np.ndarray] = dict(records)

    def rows(self, guid: str, mask_count: int) -> np.ndarray:
        rows = self._rows.get(guid)
        if rows is None:
            raise MissingLogits(guid)
        if rows.shape[0] != mask_count:
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
    if not per_template:
        raise ClassListMismatch("no scores to ensemble")
    first = per_template[0]
    for other in per_template[1:]:
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
    if not golds:
        raise DataError("golds must be non-empty")
    if len(preds) != len(golds):
        raise GuidMismatch(f"{len(preds)} predictions for {len(golds)} golds")
    correct = 0
    for (pred_guid, pred_label), (gold_guid, gold_label) in zip(preds, golds):
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
        """Results for ``examples``, with one aggregate call per template."""
        index = self.verbalizer.dense
        # one (N, M, C, W) array of word scores per template
        words = [np.empty((len(examples), m, *index.word_mask.shape)) for m in self.mask_counts]
        texts = []
        for i, example in enumerate(examples):
            for t, template in enumerate(self.templates):
                stage = "wrap"
                try:
                    values = template.resolve(example)
                    if t == 0:
                        texts.append(template.render(values))
                    stage = "encode"
                    m = template.measure(values)
                    stage = "score"
                    words[t][i] = self.scorer.rows(example.guid, m)
                except PromptPipeError as exc:
                    raise PipelineStageError(example.guid, stage, exc) from exc
        combined = _mean_over_templates(np.stack([
            index.aggregate(scores, self.aggregation, prior)
            for scores, prior in zip(words, self.priors)
        ]))
        # finite word scores can still overflow once summed
        finite = np.isfinite(combined).all(axis=1)
        if not finite.all():
            guid = examples[int(finite.argmin())].guid
            raise NonFiniteValue(f"guid {guid!r} has class scores beyond the float64 range")
        classes = self.verbalizer.classes
        predicted = combined.argmax(axis=1).tolist()
        return [
            {
                "guid": example.guid,
                "wrapped_text": text,
                "predicted_class": classes[k],
                "class_scores": scores,
            }
            for example, text, k, scores in zip(examples, texts, predicted, combined.tolist())
        ]


def _setup(cfg: PipelineConfig) -> tuple[_Pipeline, Dataset]:
    cfg.validate()
    templates: list[TemplateAST] = []
    for path in cfg.templates:
        templates.extend(load_template_file(path))
    if not templates:
        raise ConfigError("template files define no templates")
    vocab = Vocab.from_file(cfg.vocab)
    tokenizer = build_tokenizer(cfg.tokenizer_kind, vocab)
    verbalizer = load_verbalizer(cfg.verbalizer, tokenizer)
    # scorers project their rows when they load them: the run keeps
    # label-word scores, never a vocabulary-wide row
    project = verbalizer.dense.word_scores
    scorer: Scorer
    if cfg.logits_file is not None:
        scorer = LogitsFileScorer(cfg.logits_file, len(vocab), project)
    else:
        assert cfg.frequency_file is not None
        scorer = ToyScorer.from_file(cfg.frequency_file, vocab, project)
    compiled = [
        CompiledTemplate(
            ast, build_soft_plan(ast, tokenizer), tokenizer, cfg.max_len, cfg.add_special_tokens
        )
        for ast in templates
    ]
    dataset = load_jsonl(cfg.dataset)

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
    pipeline, dataset = _setup(cfg)
    results = pipeline.process(dataset.examples)

    if cfg.output:
        write_jsonl(results, cfg.output)

    labeled = [(ex, res) for ex, res in zip(dataset.examples, results) if ex.label]
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
