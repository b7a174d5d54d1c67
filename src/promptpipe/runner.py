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
into one ``(N·M, C, W)`` array of label-word scores per template. A
template's mask count is computed once (``TemplateAST.mask_count`` is
cached). After the loop, each array is aggregated in one kernel call
for the whole run, the predictions come from one ``argmax`` and the
score lists from one ``tolist``, and the records are written through
one JSON encoder (:func:`~promptpipe.textfile.write_jsonl`). Every row
is reduced on its own, so output bytes do not depend on how many
examples share a call.

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
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Callable, Iterator, Sequence

import numpy as np

from .data import Dataset, load_jsonl, read_records
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
from .textfile import read_lines, read_text, write_jsonl
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
    sum_positions,
)
from .wrapping import InputExample

__all__ = [
    "PipelineConfig",
    "ToyScorer",
    "LogitsFileScorer",
    "RunReport",
    "ensemble_scores",
    "evaluate_accuracy",
    "read_logits_records",
    "run_pipeline",
]

CONTENT_FREE_GUID = "__content_free__"


@dataclass
class PipelineConfig:
    templates: list[str] = field(default_factory=list)
    dataset: str = ""
    vocab: str = ""
    verbalizer: str = ""
    tokenizer_kind: str = "wordpiece"
    max_len: int = 128
    add_special_tokens: bool = True
    aggregation: str = "mean_log_prob"
    calibrate: bool = False
    seed: int = 0
    logits_file: str | None = None
    frequency_file: str | None = None
    output: str | None = None

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
        unknown = set(raw) - {f.name for f in fields(cls)}
        if isinstance(raw.get("templates"), str):
            raw["templates"] = [raw["templates"]]
        try:
            if unknown:
                raise ConfigError(f"unknown config keys: {sorted(unknown)}")
            _check_types(raw)  # before paths are resolved against the file
            # paths in the config file are relative to the file; override paths
            # are taken as given (the caller's working directory)
            base = Path(path).parent
            if "templates" in raw:
                raw["templates"] = [str(_resolve(base, p)) for p in raw["templates"]]
            for name in _PATH_FIELDS:
                if raw.get(name):
                    raw[name] = str(_resolve(base, raw[name]))
            merged = {**raw, **{k: v for k, v in (overrides or {}).items() if v is not None}}
            if isinstance(merged.get("templates"), str):
                merged["templates"] = [merged["templates"]]
            cfg = cls(**merged)
            cfg.validate()
        except ConfigError as exc:
            raise type(exc)(f"config file {path}: {exc}") from None
        return cfg

    def validate(self) -> None:
        _check_types({f.name: getattr(self, f.name) for f in fields(self)})
        if not self.templates:
            raise ConfigError("config needs at least one template file")
        for name in ("dataset", "vocab", "verbalizer"):
            if not getattr(self, name):
                raise ConfigError(f"config is missing {name!r}")
        if (self.logits_file is None) == (self.frequency_file is None):
            raise ConfigError(
                "configure exactly one model interface: logits_file or frequency_file"
            )
        if self.max_len < 1:
            raise ConfigError("max_len must be positive")
        TokenizerKind.parse(self.tokenizer_kind)
        Aggregation.parse(self.aggregation)


_INT_FIELDS = ("max_len", "seed")
_BOOL_FIELDS = ("add_special_tokens", "calibrate")
_OPTIONAL_FIELDS = ("logits_file", "frequency_file", "output")
_PATH_FIELDS = ("dataset", "vocab", "verbalizer", *_OPTIONAL_FIELDS)


def _check_types(values: dict) -> None:
    """Raise :class:`~promptpipe.errors.ConfigError` for a config value of the wrong type."""
    for name, value in values.items():
        if name == "templates":
            ok = isinstance(value, list) and all(isinstance(p, (str, os.PathLike)) for p in value)
            expected = "a list of file paths"
        elif name in _INT_FIELDS:
            ok = isinstance(value, int) and not isinstance(value, bool)
            expected = "an integer"
        elif name in _BOOL_FIELDS:
            ok = isinstance(value, bool)
            expected = "true or false"
        elif name in _PATH_FIELDS:
            ok = isinstance(value, (str, os.PathLike)) or (
                value is None and name in _OPTIONAL_FIELDS
            )
            expected = "a file path"
        else:
            ok = isinstance(value, str)
            expected = "a string"
        if not ok:
            raise ConfigError(f"{name!r} must be {expected}, got {value!r}")


def _resolve(base: Path, path: str | Path) -> Path:
    p = Path(path)
    return p if p.is_absolute() else base / p


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
            if not math.isfinite(value):
                raise NonFiniteValue(f"token {token!r} has non-finite frequency {value!r}")
            index = vocab.ids.get(token)
            if index is not None:
                row[index] = float(value)
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
    """Yield ``(guid, rows)`` for each record of a JSONL logits file.

    Each non-blank line is ``{"guid": ..., "mask_logits": [[...], ...]}``
    with rows of width ``vocab_size`` holding JSON numbers. Records are
    read by :func:`~promptpipe.data.read_records`; a record without
    usable ``mask_logits``, with a value that is not a number (a string,
    ``true``, ``false`` or ``null``) or with a non-finite logit raises a
    :class:`~promptpipe.errors.PromptPipeError` naming the file, line and
    guid.
    """
    # a string or null leaves the inferred dtype non-numeric, while true and
    # false infer as 1 and 0: the lines spelling either are checked value by
    # value, and so is a record whose dtype is not numeric (both literals
    # hold an "e", which fixed-point numbers lack and one fast scan rules out)
    literal_lines = {
        n for n, line in read_lines(path)
        if "e" in line and ("true" in line or "false" in line)
    }
    for line_no, guid, record in read_records(path):
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
        if not numeric or line_no in literal_lines:
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
    stacked = np.array([s.scores for s in per_template], dtype=np.float64)
    mean = stacked.mean(axis=0)
    return ClassScores(classes=first.classes, scores=tuple(float(v) for v in mean))


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
        n = len(examples)
        words_shape = self.verbalizer.dense.word_mask.shape
        # one C-ordered array of (M, C, W) word scores per example, per template
        words = [np.empty((n * m, *words_shape)) for m in self.mask_counts]
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
                    rows = self.scorer.rows(example.guid, m)
                    if len(rows) != m:
                        raise DimensionMismatch(
                            f"scorer returned {len(rows)} rows for {m} mask positions"
                        )
                    stage = "project"
                    words[t][i * m : (i + 1) * m] = rows
                except PromptPipeError as exc:
                    raise PipelineStageError(example.guid, stage, exc) from exc
        per_template = []
        for scores, m, prior in zip(words, self.mask_counts, self.priors):
            per_row = self.verbalizer.dense.aggregate(scores, self.aggregation, prior)
            by_position = per_row.reshape(n, m, per_row.shape[-1]).swapaxes(0, 1)
            per_template.append(sum_positions(by_position))
        combined = np.stack(per_template).mean(axis=0)
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
        priors.append(scorer.rows(CONTENT_FREE_GUID, mask_count))
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
