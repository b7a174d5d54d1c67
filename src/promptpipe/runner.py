"""Configuration-driven pipeline: wrap, encode, score, project, report.

The runner composes the other modules without hidden state: templates
are loaded and compiled once (see
:class:`~promptpipe.tokenization.CompiledTemplate`), the verbalizer is
loaded once, each example flows through wrap -> encode -> score ->
project, per-template class scores are ensembled by arithmetic mean, and
results are written as JSONL in dataset order.

Examples run serially, in blocks: each example of a block is wrapped,
encoded and scored template by template, and then each template's
logits rows for the whole block are projected in one kernel call.
Every row is projected on its own, so output bytes do not depend on
the block size.

Two model interfaces are built in so the scoring path is exercisable
without a language model: a logits file (JSONL keyed by guid) and a
context-independent toy scorer driven by a token-frequency file.
Both reject non-finite values when they are loaded.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Callable, Iterator, Sequence

import numpy as np
import yaml

from .data import Dataset, load_jsonl, read_records
from .errors import (
    ClassListMismatch,
    ConfigError,
    DimensionMismatch,
    GuidMismatch,
    MissingLogits,
    NonFiniteValue,
    PipelineStageError,
    PromptPipeError,
)
from .soft_plan import build_soft_plan
from .template import TemplateAST, load_template_file
from .textfile import read_text
from .tokenization import CompiledTemplate, TokenizedInput, Vocab, build_tokenizer
from .verbalizer import (
    Aggregation,
    ClassScores,
    Verbalizer,
    calibrate,
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
# Bytes of logits rows per block: a block holds about this many bytes of
# rows (at least one example), so memory does not grow with the
# vocabulary while a small vocabulary still gets large blocks.
BLOCK_BYTES = 256 * 1024


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
        """Load a YAML or JSON config document, then apply overrides."""
        text = read_text(path)
        if str(path).endswith(".json"):
            raw = json.loads(text)
        else:
            raw = yaml.safe_load(text)
        if raw is None:
            raw = {}
        if not isinstance(raw, dict):
            raise ConfigError(f"config file {path} must hold a mapping")
        known = {f.name for f in fields(cls)}
        unknown = set(raw) - known
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        # paths in the config file are relative to the file; override paths
        # are taken as given (the caller's working directory)
        base = Path(path).parent
        if isinstance(raw.get("templates"), str):
            raw["templates"] = [raw["templates"]]
        if "templates" in raw:
            raw["templates"] = [str(_resolve(base, p)) for p in raw["templates"]]
        for name in ("dataset", "vocab", "verbalizer", "logits_file", "frequency_file", "output"):
            if raw.get(name):
                raw[name] = str(_resolve(base, raw[name]))
        merged = dict(raw)
        for key, value in (overrides or {}).items():
            if value is not None:
                merged[key] = value
        if isinstance(merged.get("templates"), str):
            merged["templates"] = [merged["templates"]]
        return cls(**merged)

    def validate(self) -> None:
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
        Aggregation.parse(self.aggregation)


def _resolve(base: Path, path: str | Path) -> Path:
    p = Path(path)
    return p if p.is_absolute() else base / p


class ToyScorer:
    """Context-independent scorer: one logit per vocabulary token.

    Logits come from a JSON frequency file mapping token text to a real
    value; absent tokens score 0.0. Every mask position receives the
    same row, which is enough to drive the projection path end to end.
    """

    def __init__(self, frequencies: dict[str, float], vocab: Vocab):
        row = np.zeros(len(vocab), dtype=np.float64)
        for token, value in frequencies.items():
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise ConfigError(f"token {token!r} has non-numeric frequency {value!r}")
            if not math.isfinite(value):
                raise NonFiniteValue(f"token {token!r} has non-finite frequency {value!r}")
            index = vocab.ids.get(token)
            if index is not None:
                row[index] = float(value)
        self._row = row
        # a read-only zero-stride view; a call returns a slice of it, which
        # is cheaper than building a view or a copy per call
        self._rows = np.broadcast_to(row, (1, row.size))

    @classmethod
    def from_file(cls, path: str | Path, vocab: Vocab) -> "ToyScorer":
        try:
            raw = json.loads(read_text(path))
        except ValueError as exc:
            raise ConfigError(f"frequency file {path} is not valid JSON: {exc}") from None
        if not isinstance(raw, dict):
            raise ConfigError(f"frequency file {path} must be a JSON object")
        try:
            return cls(raw, vocab)
        except ConfigError as exc:
            raise type(exc)(f"frequency file {path}: {exc}") from None

    def __call__(self, guid: str, tokenized: TokenizedInput) -> np.ndarray:
        n = len(tokenized.mask_positions)
        if n > len(self._rows):
            self._rows = np.broadcast_to(self._row, (n, self._row.size))
        return self._rows[:n]


def read_logits_records(path: str | Path, vocab_size: int) -> Iterator[tuple[str, np.ndarray]]:
    """Yield ``(guid, rows)`` for each record of a JSONL logits file.

    Each non-blank line is ``{"guid": ..., "mask_logits": [[...], ...]}``
    with rows of width ``vocab_size``. Records are read by
    :func:`~promptpipe.data.read_records`; a record without usable
    ``mask_logits`` or with a non-finite logit raises a
    :class:`~promptpipe.errors.PromptPipeError` naming the file and line.
    """
    for line_no, guid, record in read_records(path):
        where = f"{path}:{line_no}"
        if "mask_logits" not in record:
            raise ConfigError(f"{where}: logits record for guid {guid!r} has no 'mask_logits'")
        try:
            rows = np.asarray(record["mask_logits"], dtype=np.float64)
        except (ValueError, TypeError) as exc:
            raise ConfigError(f"{where}: bad mask_logits for guid {guid!r}: {exc}") from None
        if rows.ndim != 2 or rows.shape[1] != vocab_size:
            raise DimensionMismatch(f"{where}: mask_logits must be rows of width {vocab_size}")
        if not np.isfinite(rows).all():
            raise NonFiniteValue(f"{where}: guid {guid!r} has a non-finite logit")
        yield guid, rows


class LogitsFileScorer:
    """Replays logits from a JSONL file of {guid, mask_logits} records."""

    def __init__(self, path: str | Path, vocab_size: int):
        self.vocab_size = vocab_size
        self._rows: dict[str, np.ndarray] = dict(read_logits_records(path, vocab_size))

    def __call__(self, guid: str, tokenized: TokenizedInput) -> np.ndarray:
        rows = self._rows.get(guid)
        if rows is None:
            raise MissingLogits(guid)
        if rows.shape[0] != len(tokenized.mask_positions):
            raise DimensionMismatch(
                f"guid {guid!r} has {rows.shape[0]} logits rows for "
                f"{len(tokenized.mask_positions)} mask positions"
            )
        return rows


Scorer = Callable[[str, TokenizedInput], np.ndarray]


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
        raise ValueError("golds must be non-empty")
    if len(preds) != len(golds):
        raise GuidMismatch(f"{len(preds)} predictions for {len(golds)} golds")
    correct = 0
    for (pred_guid, pred_label), (gold_guid, gold_label) in zip(preds, golds):
        if pred_guid != gold_guid:
            raise GuidMismatch(f"prediction guid {pred_guid!r} != gold guid {gold_guid!r}")
        correct += pred_label == gold_label
    return correct / len(golds)


def _build_scorer(cfg: PipelineConfig, vocab: Vocab) -> Scorer:
    if cfg.frequency_file is not None:
        return ToyScorer.from_file(cfg.frequency_file, vocab)
    assert cfg.logits_file is not None
    return LogitsFileScorer(cfg.logits_file, len(vocab))


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
    vocab_size: int

    def __post_init__(self):
        self.aggregation = Aggregation.parse(self.cfg.aggregation)
        self.mask_counts = [t.ast.mask_count for t in self.templates]
        block_rows = max(1, BLOCK_BYTES // (8 * self.vocab_size))
        self.block_size = max(1, block_rows // max(1, sum(self.mask_counts)))
        # one C-ordered buffer per template, reused by every block
        self.buffers = [
            np.empty((self.block_size * m, self.vocab_size)) for m in self.mask_counts
        ]

    def process(self, examples: Sequence[InputExample]) -> list[dict]:
        """Results for a block of at most ``block_size`` examples."""
        index = self.verbalizer.dense
        texts = []
        for i, example in enumerate(examples):
            for t, template in enumerate(self.templates):
                stage = "wrap"
                try:
                    values = template.resolve(example)
                    if t == 0:
                        texts.append(template.render(values))
                    stage = "encode"
                    tokenized = template.encode(values)
                    stage = "score"
                    rows = self.scorer(example.guid, tokenized)
                    if np.shape(rows)[0] != len(tokenized.mask_positions):
                        raise DimensionMismatch(
                            f"scorer returned {np.shape(rows)[0]} rows for "
                            f"{len(tokenized.mask_positions)} mask positions"
                        )
                    stage = "project"
                    m = self.mask_counts[t]
                    self.buffers[t][i * m : (i + 1) * m] = index.check_rows(rows)
                except PromptPipeError as exc:
                    raise PipelineStageError(example.guid, stage, exc) from exc
        n = len(examples)
        per_template = []
        for buffer, m, prior in zip(self.buffers, self.mask_counts, self.priors):
            per_row = index.class_scores(buffer[: n * m], self.aggregation, prior)
            per_template.append(sum_positions(per_row.reshape(n, m, -1).swapaxes(0, 1)))
        combined = np.stack(per_template).mean(axis=0)
        classes = self.verbalizer.classes
        return [
            {
                "guid": example.guid,
                "wrapped_text": text,
                "predicted_class": classes[int(np.argmax(scores))],
                "class_scores": scores.tolist(),
            }
            for example, text, scores in zip(examples, texts, combined)
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
    scorer = _build_scorer(cfg, vocab)
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
        blank = template.encode(template.resolve(_content_free_example(template.ast)))
        calibration = calibrate(lambda t: scorer(CONTENT_FREE_GUID, t), verbalizer, blank)
        priors.append(verbalizer.dense.prior(calibration))
    pipeline = _Pipeline(
        templates=compiled,
        verbalizer=verbalizer,
        scorer=scorer,
        priors=priors,
        cfg=cfg,
        vocab_size=len(vocab),
    )
    return pipeline, dataset


def run_pipeline(cfg: PipelineConfig) -> RunReport:
    """Run the full pipeline over a dataset; see the module docstring."""
    pipeline, dataset = _setup(cfg)
    examples = dataset.examples
    step = pipeline.block_size
    results: list[dict] = []
    for start in range(0, len(examples), step):
        results.extend(pipeline.process(examples[start : start + step]))

    if cfg.output:
        with open(cfg.output, "w", encoding="utf-8") as handle:
            for record in results:
                handle.write(json.dumps(record, ensure_ascii=False))
                handle.write("\n")

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
