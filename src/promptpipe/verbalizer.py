"""Label-word verbalizer: project mask-position logits onto classes.

A verbalizer maps each class to one or more label words. Projection
log-softmax-normalizes each mask position's logits row, scores a label
word as the mean log-probability of its subword pieces, combines a
class's words with a selectable aggregation (mean log-prob by default),
and sums class scores across mask positions. Calibration subtracts each
label word's prior log-probability, measured at the same mask position
of a content-free input, before aggregation.

All projection goes through one kernel over a verbalizer's
:class:`DenseIndex`; :func:`project`, :func:`calibrate` and
:func:`project_per_position` are thin callers of it. The kernel has two
steps: :meth:`DenseIndex.word_scores`, the only one that reads whole
vocabulary-wide rows, and :meth:`DenseIndex.aggregate`, which needs only
the ``(M, C, W)`` label-word scores of one example (or ``(N, M, C, W)`` of
many), so a caller can keep those and drop the rows. Priors have that
same form: :func:`calibrate` returns the content-free rows' word scores,
and :meth:`DenseIndex.check_prior` is the one check a prior passes before
:meth:`DenseIndex.aggregate` subtracts it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from pathlib import Path
from typing import Callable, Mapping, Sequence

import numpy as np

from .errors import (
    ConfigError,
    DimensionMismatch,
    DuplicateClass,
    EmptyClass,
    NonFiniteValue,
    UnreadableFile,
    VerbalizerError,
)
from .textfile import read_text
from .tokenization import UNK_TOKEN

__all__ = [
    "Aggregation",
    "Verbalizer",
    "ClassScores",
    "DenseIndex",
    "build_verbalizer",
    "load_verbalizer",
    "log_softmax",
    "project",
    "project_per_position",
    "calibrate",
]


class Aggregation(Enum):
    MEAN_LOG_PROB = "mean_log_prob"
    MAX = "max"
    FIRST = "first"

    @classmethod
    def parse(cls, value: "Aggregation | str") -> "Aggregation":
        """``value`` as an aggregation; a name matches case-insensitively.

        An unknown name raises :class:`~promptpipe.errors.ConfigError`
        listing the valid ones.
        """
        if isinstance(value, cls):
            return value
        try:
            return cls(str(value).lower())
        except ValueError:
            valid = ", ".join(a.value for a in cls)
            raise ConfigError(f"unknown aggregation {value!r}; expected one of {valid}") from None


@dataclass(frozen=True)
class Verbalizer:
    classes: tuple[str, ...]
    label_words: dict[str, tuple[str, ...]]
    label_word_ids: dict[str, tuple[tuple[int, ...], ...]]

    @cached_property
    def dense(self) -> "DenseIndex":
        """The padded label-word index, derived once on first use."""
        return DenseIndex.build(self)


@dataclass(frozen=True)
class ClassScores:
    """Per-class scores aligned with the verbalizer's class order."""

    classes: tuple[str, ...]
    scores: tuple[float, ...]

    @property
    def predicted_class(self) -> int:
        """Index of the best class; ties break toward the lowest index."""
        return int(np.argmax(self.scores))

    @property
    def predicted_label(self) -> str:
        return self.classes[self.predicted_class]

    def normalized(self) -> "ClassScores":
        """Scores log-softmaxed over classes, so their exps sum to one."""
        normed = log_softmax(np.asarray(self.scores, dtype=np.float64))
        return ClassScores(classes=self.classes, scores=tuple(float(v) for v in normed))


def log_softmax(row: np.ndarray) -> np.ndarray:
    shifted = row - np.max(row)
    return shifted - np.log(np.sum(np.exp(shifted)))


def build_verbalizer(label_words: Mapping[str, Sequence[str]], tokenizer) -> Verbalizer:
    """Construct a verbalizer from a class -> word-list mapping."""
    if not label_words:
        raise EmptyClass("verbalizer defines no classes")
    classes = tuple(label_words.keys())
    words: dict[str, tuple[str, ...]] = {}
    word_ids: dict[str, tuple[tuple[int, ...], ...]] = {}
    for name in classes:
        entries = tuple(label_words[name])
        if not entries:
            raise EmptyClass(f"class {name!r} has no label words")
        encoded = []
        for word in entries:
            if not isinstance(word, str):
                raise VerbalizerError(f"class {name!r} has a non-string label word")
            ids = tuple(tokenizer.encode(word))
            if not ids:
                raise VerbalizerError(f"label word {word!r} tokenizes to nothing")
            if tokenizer.vocab.unk_id in ids:
                raise VerbalizerError(
                    f"class {name!r}: label word {word!r} tokenizes to {UNK_TOKEN}"
                )
            encoded.append(ids)
        words[name] = entries
        word_ids[name] = tuple(encoded)
    return Verbalizer(classes=classes, label_words=words, label_word_ids=word_ids)


def load_verbalizer(path: str | Path, tokenizer) -> Verbalizer:
    """Load a JSON verbalizer file: a map from class name to word list."""

    def reject_duplicates(pairs):
        seen = {}
        for key, value in pairs:
            if key in seen:
                raise DuplicateClass(f"class {key!r} defined twice")
            seen[key] = value
        return seen

    try:
        raw = read_text(path)
    except OSError as exc:
        raise UnreadableFile(f"cannot read verbalizer file {path}: {exc}") from None
    try:
        mapping = json.loads(raw, object_pairs_hook=reject_duplicates)
    except DuplicateClass:
        raise
    except ValueError as exc:
        raise UnreadableFile(f"verbalizer file {path} is not valid JSON: {exc}") from None
    if not isinstance(mapping, dict):
        raise UnreadableFile(f"verbalizer file {path} must be a JSON object")
    for name, value in mapping.items():
        if not isinstance(value, list):
            raise VerbalizerError(f"class {name!r} must map to a list of words")
    return build_verbalizer(mapping, tokenizer)


@dataclass(frozen=True)
class DenseIndex:
    """A verbalizer's label words as one padded ``(C, W, P)`` id array.

    ``C`` is the class count, ``W`` the most label words of any class and
    ``P`` the most pieces of any word. Padding pieces and padding words
    are masked out. This is the ``label_words_ids`` / ``words_ids_mask``
    layout of OpenPrompt's ManualVerbalizer.

    Sums over a padded axis add trailing zeros, which leave a numpy sum
    unchanged while the axis has fewer than 8 entries; from 8 up numpy
    sums pairwise, so a class with 8 or more label words (or a word with
    8 or more pieces) may round differently in the last bit from a sum
    over its own entries. Every caller shares this index, so the runner
    and :func:`project` still agree exactly.
    """

    classes: tuple[str, ...]
    ids: np.ndarray  # (C, W, P) label-word piece ids; 0 at padding
    padding: np.ndarray | None  # flat indices into ``ids`` of padding; None if unpadded
    piece_counts: np.ndarray  # (C, W) pieces per word; 1 for padding words
    word_mask: np.ndarray  # (C, W) bool, True for a real word
    word_counts: np.ndarray  # (C,) words per class
    max_id: int

    @classmethod
    def build(cls, v: Verbalizer) -> "DenseIndex":
        words = [v.label_word_ids[name] for name in v.classes]
        n_words = max(len(ws) for ws in words)
        n_pieces = max(len(ids) for ws in words for ids in ws)
        shape = (len(words), n_words, n_pieces)
        ids = np.zeros(shape, dtype=np.intp)
        piece_mask = np.zeros(shape, dtype=bool)
        piece_counts = np.ones(shape[:2], dtype=np.float64)
        for c, ws in enumerate(words):
            for w, word in enumerate(ws):
                ids[c, w, : len(word)] = word
                piece_mask[c, w, : len(word)] = True
                piece_counts[c, w] = len(word)
        return cls(
            classes=v.classes,
            ids=ids,
            padding=None if piece_mask.all() else np.flatnonzero(~piece_mask),
            piece_counts=piece_counts,
            word_mask=piece_mask[:, :, 0].copy(),
            word_counts=np.array([len(ws) for ws in words], dtype=np.float64),
            max_id=int(ids.max()),
        )

    def check_rows(self, logits) -> np.ndarray:
        """``logits`` as a float64 ``(R, V)`` array of finite values, wide enough
        for the label ids."""
        rows = np.asarray(logits, dtype=np.float64)
        if rows.ndim == 1:
            rows = rows.reshape(1, -1)
        if rows.ndim != 2:
            raise DimensionMismatch(f"logits must be a 2-d array, got shape {rows.shape}")
        if rows.shape[0] == 0:
            raise DimensionMismatch("no logits rows: need one per mask position")
        if rows.shape[1] <= self.max_id:
            raise DimensionMismatch(
                f"logits rows have width {rows.shape[1]} but label words use id {self.max_id}"
            )
        if not np.isfinite(rows).all():
            raise NonFiniteValue("logits hold a NaN or an infinity")
        return rows

    def check_prior(self, prior, positions: tuple[int, ...]) -> np.ndarray:
        """``prior`` as a float64 ``(*positions, C, W)`` array, zero at padding words.

        ``prior`` is a :func:`calibrate` result, or for one mask position
        (``positions == ()``) one entry of it. A wrong shape raises
        :class:`~promptpipe.errors.DimensionMismatch` and a NaN or an
        infinity at a real word :class:`~promptpipe.errors.NonFiniteValue`;
        padding entries are ignored whatever they hold.
        """
        shape = (*positions, *self.word_mask.shape)
        try:
            values = np.asarray(prior, dtype=np.float64)
        except (TypeError, ValueError) as exc:
            raise DimensionMismatch(f"calibration must be a {shape} array: {exc}") from None
        if values.shape != shape:
            raise DimensionMismatch(f"calibration has shape {values.shape}, expected {shape}")
        values = np.where(self.word_mask, values, 0.0)
        if not np.isfinite(values).all():
            raise NonFiniteValue("calibration holds a non-finite prior")
        return values

    def word_scores(self, rows: np.ndarray) -> np.ndarray:
        """``(R, V)`` logits to ``(R, C, W)`` mean label-word log-probabilities.

        Each row is log-softmax normalized through its max and
        log-sum-exp; only the label columns are gathered, so the full
        log-probability matrix is never built. Padding words score 0. Finite
        logits that span more than the float64 range give ``-inf`` scores,
        without a warning; the callers that aggregate them reject them.
        """
        peak = np.maximum.reduce(rows, axis=1)
        # C order whatever the layout of ``rows`` (a broadcast view, say),
        # so each row's sum runs exactly as np.sum over one 1-d row does
        with np.errstate(over="ignore"):
            shifted = np.subtract(rows, peak[:, None], order="C")
        # gather on the flat (R, C*W*P) layout, cheaper than 4-d, before
        # ``shifted`` is exponentiated in place
        pieces = shifted[:, self.ids.reshape(-1)]
        log_z = np.log(np.add.reduce(np.exp(shifted, out=shifted), axis=1))
        pieces -= log_z[:, None]
        if self.padding is not None:
            pieces[:, self.padding] = 0.0
        n_classes, n_words, n_pieces = self.ids.shape
        if n_pieces == 1:  # one piece per word: its mean is itself
            return pieces.reshape(len(rows), n_classes, n_words)
        pieces = pieces.reshape(len(rows), n_classes, n_words, n_pieces)
        with np.errstate(over="ignore"):
            return np.add.reduce(pieces, axis=-1) / self.piece_counts

    def aggregate(
        self,
        words: np.ndarray,
        aggregation: Aggregation,
        prior: np.ndarray | None = None,
    ) -> np.ndarray:
        """``(..., M, C, W)`` :meth:`word_scores` to ``(..., C)`` class scores.

        An ``(M, C, W)`` :meth:`check_prior` ``prior`` is subtracted before each
        class's words are aggregated; the M positions are then summed left to
        right. A sum that overflows gives an infinity, without a warning.
        """
        with np.errstate(over="ignore", invalid="ignore"):
            if prior is not None:
                words = words - prior
            if aggregation is Aggregation.MEAN_LOG_PROB:
                per_position = np.add.reduce(words, axis=-1) / self.word_counts
            elif aggregation is Aggregation.MAX:
                per_position = np.where(self.word_mask, words, -np.inf).max(axis=-1)
            else:
                per_position = words[..., 0]
            totals = per_position[..., 0, :]
            for position in range(1, per_position.shape[-2]):
                totals = totals + per_position[..., position, :]
        return totals


def project(
    logits,
    v: Verbalizer,
    aggregation: Aggregation | str = Aggregation.MEAN_LOG_PROB,
    calibration: np.ndarray | None = None,
) -> ClassScores:
    """Project per-mask-position vocabulary logits onto class scores.

    ``logits`` is one row per mask position, each of vocabulary width.
    ``calibration`` is :func:`calibrate`'s ``(M, C, W)`` array, one set of
    priors per mask position. Scores from multiple mask positions are
    summed per class. The predicted class is the argmax, ties breaking
    toward index 0.
    """
    aggregation = Aggregation.parse(aggregation)
    index = v.dense
    rows = index.check_rows(logits)
    prior = None if calibration is None else index.check_prior(calibration, (len(rows),))
    totals = index.aggregate(index.word_scores(rows), aggregation, prior)
    return ClassScores(classes=v.classes, scores=tuple(_finite(totals).tolist()))


def project_per_position(
    logits,
    verbalizers: Sequence[Verbalizer],
    aggregation: Aggregation | str = Aggregation.MEAN_LOG_PROB,
    calibrations: Sequence[np.ndarray | None] | None = None,
) -> ClassScores:
    """Project with a distinct verbalizer per mask position.

    All verbalizers must share one class list; per-position class scores
    are summed, exactly as :func:`project` does for a single verbalizer
    (to which this reduces when every position uses the same one).
    ``calibrations[p]`` is position ``p``'s ``(C, W)`` priors for its own
    verbalizer (entry ``p`` of a :func:`calibrate` result), or None.
    """
    aggregation = Aggregation.parse(aggregation)
    if not verbalizers:
        raise DimensionMismatch("no verbalizers: need one per mask position")
    rows = verbalizers[0].dense.check_rows(logits)
    if rows.shape[0] != len(verbalizers):
        raise DimensionMismatch(
            f"{rows.shape[0]} logits rows for {len(verbalizers)} verbalizers"
        )
    if calibrations is not None and len(calibrations) != len(verbalizers):
        raise DimensionMismatch(
            f"{len(calibrations)} calibrations for {len(verbalizers)} verbalizers"
        )
    classes = verbalizers[0].classes
    for v in verbalizers[1:]:
        if v.classes != classes:
            raise VerbalizerError(
                f"per-position verbalizers must share classes: {classes} vs {v.classes}"
            )
    totals = np.zeros(len(classes), dtype=np.float64)
    for position, (row, v) in enumerate(zip(rows, verbalizers)):
        index = v.dense
        calibration = calibrations[position] if calibrations is not None else None
        prior = None if calibration is None else index.check_prior(calibration, ())
        scores = index.aggregate(index.word_scores(index.check_rows(row)), aggregation, prior)
        with np.errstate(over="ignore", invalid="ignore"):
            totals += scores
    return ClassScores(classes=classes, scores=tuple(_finite(totals).tolist()))


def calibrate(
    scores_fn: Callable[[object], object],
    v: Verbalizer,
    content_free_input,
) -> np.ndarray:
    """Measure label-word priors from a content-free input.

    ``scores_fn`` maps the content-free tokenized input to logits rows
    (one per mask position). The result is their ``(M, C, W)``
    :meth:`DenseIndex.word_scores`: per mask position, per class, each
    label word's prior log-probability there, 0 at padding words. It can
    be passed to :func:`project` as ``calibration``; projection then
    subtracts, at each mask position, that position's priors before
    aggregating, so the content-free input itself scores 0 everywhere.
    """
    index = v.dense
    priors = index.word_scores(index.check_rows(scores_fn(content_free_input)))
    if not np.isfinite(priors).all():
        raise NonFiniteValue("content-free label-word scores are beyond the float64 range")
    return priors


def _finite(totals: np.ndarray) -> np.ndarray:
    """``totals`` if every class score is finite; finite logits whose range
    overflows float64 can give a score that is not."""
    if not np.isfinite(totals).all():
        raise NonFiniteValue("class scores are beyond the float64 range")
    return totals
