"""Configuration-driven pipeline: wrap, measure, score, aggregate, report.

Templates are compiled once (see
:class:`~promptpipe.tokenization.CompiledTemplate`) and the verbalizer
loaded once; each example flows through wrap -> measure -> score ->
aggregate, per-template class scores are ensembled by arithmetic mean,
and results are written as JSONL in dataset order. A run builds no token
arrays (``tokenize`` is the command that does): scoring reads only a
template's mask count, which the compiled template's private measure
step returns after checking the length rule on the non-shortenable meta
values alone, and a scorer's ``rows(guid, mask_count)`` gives that many
rows.

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
reject non-numeric and non-finite values, and both take the run's
:class:`~promptpipe.verbalizer.Verbalizer` and project their rows with it
when they load them: each ``(M, V)`` logits record, and the toy
scorer's one row, go through its
:meth:`~promptpipe.verbalizer.Verbalizer.word_scores` once and become
``(M, C, W)`` label-word scores, and the run keeps only those, so replay
memory is about M·C·W floats per record, not M·V. The run then only
aggregates them (:meth:`~promptpipe.verbalizer.Verbalizer.aggregate`),
and calibration takes its priors from the scores of the
``__content_free__`` guid, the ``(M, C, W)`` array that
:meth:`~promptpipe.verbalizer.Verbalizer.check_prior` checks.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Mapping, Sequence
from dataclasses import dataclass
from json.encoder import encode_basestring
from pathlib import Path

import numpy as np

from .config import Aggregation, PipelineConfig
from .data import Dataset, load_jsonl
from .errors import (
    ClassListMismatch,
    ConfigError,
    DataError,
    GuidMismatch,
    NonFiniteValue,
    PipelineStageError,
    PromptPipeError,
    check_instance,
)
from .logits import (
    LogitsFileScorer,
    _Scorer,
    _check_mask_count,
    _check_verbalizer,
    read_logits_records,
)
from .template import TemplateAST, load_template_file
from .textfile import read_json_object, write_lines
from .tokenization import CompiledTemplate, Vocab, build_tokenizer
from .verbalizer import ClassScores, Verbalizer, float_array, load_verbalizer
from .wrapping import InputExample

__all__ = [
    "ToyScorer",
    "RunReport",
    "ensemble_scores",
    "evaluate_accuracy",
    "run_pipeline",
]

CONTENT_FREE_GUID = "__content_free__"


class ToyScorer(_Scorer):
    """Context-independent scorer: one logit per vocabulary token.

    Logits come from a JSON frequency file mapping token text to a finite
    number (:func:`~promptpipe.verbalizer.float_array`'s); absent tokens
    score 0.0. Every mask position receives the same row, which is enough
    to drive the projection path end to end.
    ``rows(guid, M)`` returns the row ``M`` times, as one read-only view,
    for an integer M >= 1, as does a call with an encoding of M masks:
    ``(M, V)`` logits without a ``verbalizer``. With one, a
    :class:`~promptpipe.verbalizer.Verbalizer`, the row goes through its
    :meth:`~promptpipe.verbalizer.Verbalizer.word_scores` once, here, and
    they are ``(M, C, W)`` label-word scores, as the runner's
    :class:`~promptpipe.logits.LogitsFileScorer` gives.
    """

    def __init__(
        self,
        frequencies: dict[str, float],
        vocab: Vocab,
        verbalizer: Verbalizer | None = None,
    ):
        check_instance("frequencies", frequencies, Mapping)
        check_instance("vocab", vocab, Vocab)
        _check_verbalizer(verbalizer)
        tokens = list(frequencies)
        try:
            values = float_array(np.fromiter(frequencies.values(), object, len(tokens)))
        except (TypeError, OverflowError) as exc:
            token = next(token for token, value in frequencies.items() if value is exc.value)
            if isinstance(exc, TypeError):
                raise ConfigError(f"token {token!r} has non-numeric frequency {exc.value!r}") \
                    from None
            raise NonFiniteValue(f"token {token!r} has a frequency too large for a float") from None
        finite = np.isfinite(values)
        if not finite.all():
            token = tokens[finite.argmin()]
            raise NonFiniteValue(f"token {token!r} has non-finite frequency {frequencies[token]!r}")
        row = np.zeros(len(vocab), dtype=np.float64)
        for token, number in zip(tokens, values):
            if token in vocab.ids:
                row[vocab.ids[token]] = number
        if verbalizer is not None:
            row = verbalizer.word_scores(row[None])[0]
        self._row = row
        # per mask count, one read-only zero-stride view that every call
        # returns, which is cheaper than building a view or a copy per call
        self._rows: dict[int, np.ndarray] = {}

    @classmethod
    def from_file(
        cls,
        path: str | Path,
        vocab: Vocab,
        verbalizer: Verbalizer | None = None,
    ) -> "ToyScorer":
        check_instance("vocab", vocab, Vocab)
        _check_verbalizer(verbalizer)
        raw = read_json_object(path, "frequency file", ConfigError)
        try:
            return cls(raw, vocab, verbalizer)
        except ConfigError as exc:
            raise type(exc)(f"frequency file {path}: {exc}") from None

    def rows(self, guid: str, mask_count: int) -> np.ndarray:
        rows = self._rows.get(mask_count) if type(mask_count) is int else None
        if rows is None:
            _check_mask_count(mask_count)
            rows = self._rows[mask_count] = np.broadcast_to(
                self._row, (mask_count, *self._row.shape))
        return rows


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
        verbalizer = self.verbalizer
        rows = self.scorer.rows
        resolving = [t == 0 or template._measures_values
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
                        values = template._resolve(example)
                        if t == 0:
                            records.append({"guid": guid, "wrapped_text": template._render(values)})
                    else:
                        # measure reads none of this template's values
                        template._check_keys(example)
                        values = ()
                    stage = "encode"
                    m = template._measure(values)
                    stage = "score"
                    found[t].append(rows(guid, m))
                except PromptPipeError as exc:
                    raise PipelineStageError(guid, stage, exc) from exc
        shape = verbalizer.word_mask.shape
        combined = _mean_over_templates(np.stack([
            verbalizer.aggregate(np.array(scores).reshape(len(examples), m, *shape),
                                 self.aggregation, prior)
            for scores, m, prior in zip(found, self.mask_counts, self.priors)
        ]))
        return _predict(records, combined, verbalizer.classes)


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


# the characters encode_basestring escapes; none is a byte of a UTF-8
# multi-byte sequence
_ESCAPED = bytes(range(0x20)) + b'"\\'


def _result_lines(results: Iterable[dict]) -> Iterator[str]:
    """Each of ``run``'s results as the line :func:`~promptpipe.textfile.write_jsonl`
    writes for it, formatted directly: its strings by the function that
    encoder calls for a ``str`` (it does not escape non-ASCII text), and its
    class scores, finite floats (:func:`_predict`), as the repr of their
    list, which is their JSON text. A wrapped text with nothing to escape,
    as one C scan of its UTF-8 bytes finds, is copied as is; a lone
    surrogate passes the scan and fails at the write, as it does there."""
    encode = encode_basestring
    for record in results:
        text = record["wrapped_text"]
        raw = text.encode("utf-8", "surrogatepass")
        text = f'"{text}"' if len(raw.translate(None, _ESCAPED)) == len(raw) else encode(text)
        yield (f'{{"guid": {encode(record["guid"])}, '
               f'"wrapped_text": {text}, '
               f'"predicted_class": {encode(record["predicted_class"])}, '
               f'"class_scores": {record["class_scores"]!r}}}\n')


def _score_logits_file(path: str, vocab: str, verbalizer: str, tokenizer_kind: str,
                       aggregation: Aggregation | str) -> list[dict]:
    """``score``'s records in file order: each record is read as a run reads it
    and reduced to its C class scores as it is read."""
    aggregation = Aggregation.parse(aggregation)
    tokenizer = build_tokenizer(tokenizer_kind, Vocab.from_file(vocab))
    v = load_verbalizer(verbalizer, tokenizer)
    records = [(guid, v.aggregate(v.word_scores(rows), aggregation))
               for guid, rows in read_logits_records(path, len(tokenizer.vocab))]
    totals = np.array([scores for _, scores in records]).reshape(len(records), len(v.classes))
    return _predict([{"guid": guid} for guid, _ in records], totals, v.classes)


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
    # scorers project their rows with the verbalizer when they load them:
    # the run keeps label-word scores, never a vocabulary-wide row
    scorer: Scorer
    if cfg.logits_file is not None:
        guids = [example.guid for example in dataset]
        if cfg.calibrate:
            guids.append(CONTENT_FREE_GUID)
        scorer = LogitsFileScorer(cfg.logits_file, len(vocab), verbalizer, guids)
    else:
        assert cfg.frequency_file is not None
        scorer = ToyScorer.from_file(cfg.frequency_file, vocab, verbalizer)
    compiled = [
        CompiledTemplate(ast, tokenizer, cfg.max_len, cfg.add_special_tokens) for ast in templates
    ]

    priors: list[np.ndarray | None] = []
    for template in compiled:
        if not cfg.calibrate:
            priors.append(None)
            continue
        # the projected content-free rows are the priors
        prior = scorer.rows(CONTENT_FREE_GUID, template.ast.mask_count)
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
