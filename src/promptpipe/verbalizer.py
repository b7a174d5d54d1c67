"""Label-word verbalizer: project mask-position logits onto classes.

A verbalizer maps each class to one or more label words. Projection
log-softmax-normalizes each mask position's logits row, scores a label
word as the mean log-probability of its subword pieces, combines a
class's words with a selectable aggregation (mean log-prob by default),
and sums class scores across mask positions. Calibration subtracts each
label word's prior log-probability, measured at the same mask position
of a content-free input, before aggregation.

All projection goes through one kernel over a :class:`Verbalizer`'s
padded label-word arrays, and one verbalizer scores every mask position.
The kernel has two steps: :meth:`Verbalizer.word_scores`, the only one
that reads whole vocabulary-wide rows, and :meth:`Verbalizer.aggregate`,
which needs only the ``(M, C, W)`` label-word scores of one example (or
``(N, M, C, W)`` of many), so a caller can keep those and drop the rows.
Priors have that same form: a content-free input's priors are its rows'
word scores. A prior given to :func:`project` passes
:meth:`Verbalizer.check_prior` before :meth:`Verbalizer.aggregate`
subtracts it; ``run`` builds its priors itself, with
:meth:`Verbalizer.word_scores`, so its setup checks only that they are
finite.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from dataclasses import dataclass
from itertools import chain
from pathlib import Path
from types import MappingProxyType

import numpy as np

from .config import Aggregation
from .errors import (
    DimensionMismatch,
    DuplicateClass,
    EmptyClass,
    NonFiniteValue,
    UnreadableFile,
    VerbalizerError,
    check_instance,
    check_integer,
)
from .textfile import read_json_object
from .tokenization import UNK_TOKEN, _check_tokenizer, _derived

__all__ = [
    "Aggregation",
    "Verbalizer",
    "ClassScores",
    "build_verbalizer",
    "load_verbalizer",
    "project",
]

_NUMBERS = (int, float, np.integer, np.floating)
_FLOAT_LIMIT = 2**1024 - 2**970  # the least int that float() refuses: it rounds to 2**1024


def float_array(values, array: np.ndarray | None = None) -> np.ndarray:
    """``values`` as a float64 array, each a number: an ``int`` or a ``float``,
    Python's or numpy's, never a ``bool``.

    A numeric ndarray is taken as it is. Anything else is read by numpy
    (``array``, if the caller has read it; ragged values raise its
    ``ValueError``), and as numpy reads ``True`` as 1, the set of the
    values' types is checked. The first value that is not a number raises
    ``TypeError``, and the first int beyond float64 numpy's
    ``OverflowError``, either holding that value as ``value``.
    """
    if isinstance(values, np.ndarray) and values.dtype.kind in "iuf":
        return values.astype(np.float64, copy=False)
    array = np.asarray(values) if array is None else array

    def leaves():  # the values, nested as deep as numpy read them
        flat = [values]
        for _ in range(array.ndim):
            flat = chain.from_iterable(flat)
        return flat

    refused = {kind for kind in set(map(type, leaves()))
               if kind is bool or not issubclass(kind, _NUMBERS)}
    if refused:
        value = next(value for value in leaves() if type(value) in refused)
        error = TypeError(f"got {value.item() if isinstance(value, np.generic) else value!r}")
        error.value = value
        raise error
    try:
        return array.astype(np.float64, copy=False)
    except OverflowError as error:
        error.value = next(value for value in leaves() if abs(value) >= _FLOAT_LIMIT)
        raise


@dataclass(frozen=True)
class Verbalizer:
    """Classes, each class's label words, and each word's piece ids, with the
    words as one padded ``(C, W, P)`` piece-id array derived once.

    ``C`` is the class count, ``W`` the most label words of any class and
    ``P`` the most pieces of any word. Padding pieces and padding words
    are masked out. This is the ``label_words_ids`` / ``words_ids_mask``
    layout of OpenPrompt's ManualVerbalizer. Construction checks the three
    fields against each other and raises
    :class:`~promptpipe.errors.VerbalizerError` for a verbalizer that
    could not score: ``classes`` must be a non-empty tuple of distinct
    strings, and both mappings must hold exactly those keys, each class's
    words a non-empty tuple of strings and its ids a tuple, one per word,
    of one or more ints >= 0. Both mappings are read-only views of the
    copies that were checked. Two verbalizers are equal if these fields
    are.

    Sums over a padded axis add trailing zeros, which leave a numpy sum
    unchanged while the axis has fewer than 8 entries; from 8 up numpy
    sums pairwise, so a class with 8 or more label words (or a word with
    8 or more pieces) may round differently in the last bit from a sum
    over its own entries. Every caller shares these arrays, so the runner
    and :func:`project` still agree exactly.
    """

    classes: tuple[str, ...]
    label_words: Mapping[str, tuple[str, ...]]
    label_word_ids: Mapping[str, tuple[tuple[int, ...], ...]]
    piece_ids: np.ndarray = _derived()  # (C, W, P) label-word piece ids; 0 at padding
    padding: np.ndarray | None = _derived()  # flat indices into piece_ids; None if unpadded
    piece_counts: np.ndarray = _derived()  # (C, W) pieces per word; 1 for padding words
    word_mask: np.ndarray = _derived()  # (C, W) bool, True for a real word
    word_counts: np.ndarray = _derived()  # (C,) words per class
    max_id: int = _derived()

    def __post_init__(self):
        check_instance("classes", self.classes, tuple, VerbalizerError)
        if not self.classes:
            raise EmptyClass("verbalizer defines no classes")
        for name in self.classes:
            if not isinstance(name, str):
                raise VerbalizerError(f"class name must be a string, got {name!r}")
        names = set(self.classes)
        label_words, label_word_ids = maps = [
            dict(m) if isinstance(m, Mapping) else None
            for m in (self.label_words, self.label_word_ids)]
        if len(names) < len(self.classes) or not all(
                m is not None and m.keys() == names for m in maps):
            raise VerbalizerError(f"label_words and label_word_ids must each map every class "
                                  f"of {self.classes!r} once")
        for name in self.classes:
            entries, ids = label_words[name], label_word_ids[name]
            if not (isinstance(entries, tuple) and all(isinstance(w, str) for w in entries)
                    and isinstance(ids, tuple) and len(ids) == len(entries)):
                raise VerbalizerError(
                    f"class {name!r} must map to a tuple of words and a tuple of their ids")
            if not entries:
                raise EmptyClass(f"class {name!r} has no label words")
            for word, pieces in zip(entries, ids):
                if not isinstance(pieces, tuple) or not all(
                        type(i) is int and i >= 0 for i in pieces):
                    raise VerbalizerError(
                        f"label word {word!r} must have a tuple of ids >= 0, got {pieces!r}")
                if not pieces:
                    raise VerbalizerError(f"label word {word!r} tokenizes to nothing")
        words = [label_word_ids[name] for name in self.classes]
        shape = (len(words), max(map(len, words)), max(len(ids) for ws in words for ids in ws))
        piece_ids = np.zeros(shape, dtype=np.intp)
        piece_mask = np.zeros(shape, dtype=bool)
        piece_counts = np.ones(shape[:2], dtype=np.float64)
        for c, ws in enumerate(words):
            for w, word in enumerate(ws):
                piece_ids[c, w, : len(word)] = word
                piece_mask[c, w, : len(word)] = True
                piece_counts[c, w] = len(word)
        vars(self).update(  # the instance is frozen: set the derived fields directly
            label_words=MappingProxyType(label_words),
            label_word_ids=MappingProxyType(label_word_ids),
            piece_ids=piece_ids,
            padding=None if piece_mask.all() else np.flatnonzero(~piece_mask),
            piece_counts=piece_counts,
            word_mask=piece_mask[:, :, 0].copy(),
            word_counts=np.array([len(ws) for ws in words], dtype=np.float64),
            max_id=int(piece_ids.max()),
        )

    def __reduce__(self):
        # a view cannot be pickled: rebuild, and so check, from plain dicts
        return Verbalizer, (self.classes, dict(self.label_words), dict(self.label_word_ids))

    def check_rows(self, logits) -> np.ndarray:
        """``logits`` as a float64 ``(R, V)`` array of finite values, wide enough
        for the label ids; ``logits`` that numpy cannot read as such an array,
        or that hold a value that is not a number (:func:`float_array`),
        raise :class:`~promptpipe.errors.DimensionMismatch`."""
        try:
            rows = float_array(logits)
        except (TypeError, ValueError, OverflowError) as exc:
            raise DimensionMismatch(f"logits must be rows of numbers: {exc}") from None
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

    def check_prior(self, prior, mask_count: int) -> np.ndarray:
        """``prior`` as a float64 ``(M, C, W)`` array, zero at padding words.

        ``prior`` is the :meth:`word_scores` of ``mask_count`` content-free rows.
        A value that is not a number (:func:`float_array`) or any other
        shape raises :class:`~promptpipe.errors.DimensionMismatch`, and a
        NaN or an infinity at a real word
        :class:`~promptpipe.errors.NonFiniteValue`; padding entries are
        ignored, whatever number they hold. A ``mask_count`` that is not an
        ``int``, or is a ``bool``, raises
        :class:`~promptpipe.errors.ConfigError`.
        """
        check_integer("mask_count", mask_count)
        shape = (mask_count, *self.word_mask.shape)
        try:
            values = float_array(prior)
        except (TypeError, ValueError, OverflowError) as exc:
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
        Anything but a 2-d array wide enough for the label ids raises
        :class:`~promptpipe.errors.DimensionMismatch`, as :meth:`check_rows`
        words it; the values are :meth:`check_rows`'s to check.
        """
        check_instance("rows", rows, np.ndarray, DimensionMismatch)
        if rows.ndim != 2:
            raise DimensionMismatch(f"logits must be a 2-d array, got shape {rows.shape}")
        if rows.dtype.kind != "f":
            raise DimensionMismatch(f"logits must be floats, got dtype {rows.dtype}")
        if rows.shape[1] <= self.max_id:
            raise DimensionMismatch(
                f"logits rows have width {rows.shape[1]} but label words use id {self.max_id}"
            )
        peak = np.maximum.reduce(rows, axis=1)
        # C order whatever the layout of ``rows`` (a broadcast view, say),
        # so each row's sum runs exactly as np.sum over one 1-d row does
        with np.errstate(over="ignore"):
            shifted = np.subtract(rows, peak[:, None], order="C")
        # gather on the flat (R, C*W*P) layout, cheaper than 4-d, before
        # ``shifted`` is exponentiated in place
        pieces = shifted[:, self.piece_ids.reshape(-1)]
        log_z = np.log(np.add.reduce(np.exp(shifted, out=shifted), axis=1))
        pieces -= log_z[:, None]
        if self.padding is not None:
            pieces[:, self.padding] = 0.0
        n_classes, n_words, n_pieces = self.piece_ids.shape
        if n_pieces == 1:  # one piece per word: its mean is itself
            return pieces.reshape(len(rows), n_classes, n_words)
        pieces = pieces.reshape(len(rows), n_classes, n_words, n_pieces)
        with np.errstate(over="ignore"):
            return np.add.reduce(pieces, axis=-1) / self.piece_counts

    def aggregate(
        self,
        words: np.ndarray,
        aggregation: Aggregation | str,
        prior: np.ndarray | None = None,
    ) -> np.ndarray:
        """``(..., M, C, W)`` :meth:`word_scores` to ``(..., C)`` class scores.

        An ``(M, C, W)`` :meth:`check_prior` ``prior`` is subtracted before each
        class's words are aggregated; the M positions are then summed left to
        right. A sum that overflows gives an infinity, without a warning.
        Scores of another shape or with no mask position, or a prior that is
        not an array of the scores' last three axes, raise
        :class:`~promptpipe.errors.DimensionMismatch`, and an unknown
        aggregation :class:`~promptpipe.errors.ConfigError`.
        """
        check_instance("words", words, np.ndarray, DimensionMismatch)
        if prior is not None:
            check_instance("prior", prior, np.ndarray, DimensionMismatch)
        aggregation = Aggregation.parse(aggregation)
        shape = words.shape[-3:]
        if len(shape) < 3 or shape[0] == 0 or shape[1:] != self.word_mask.shape:
            raise DimensionMismatch(
                f"word scores have shape {words.shape}, expected (..., M, "
                f"{', '.join(map(str, self.word_mask.shape))}) with M >= 1"
            )
        if prior is not None and prior.shape != shape:
            raise DimensionMismatch(f"prior has shape {prior.shape}, expected {shape}")
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


@dataclass(frozen=True)
class ClassScores:
    """Per-class scores aligned with the verbalizer's class order: one finite
    number (:func:`float_array`'s) per class, and at least one class, named
    by a string. Scores given as a ``str``, ``bytes`` or ``bytearray`` are
    refused, as the classes are as a ``str``."""

    classes: tuple[str, ...]
    scores: tuple[float, ...]

    def __post_init__(self):
        check_instance("classes", self.classes, Sequence, DimensionMismatch)
        check_instance("scores", self.scores, Sequence, DimensionMismatch)
        if isinstance(self.scores, (str, bytes, bytearray)):
            raise DimensionMismatch(f"scores must be a sequence of numbers, got {self.scores!r}")
        if isinstance(self.classes, str) or not all(isinstance(c, str) for c in self.classes):
            raise DimensionMismatch(f"classes must be a sequence of strings, got {self.classes!r}")
        if not self.classes or len(self.classes) != len(self.scores):
            raise DimensionMismatch(
                f"{len(self.scores)} scores for {len(self.classes)} classes; need one per class"
            )
        try:
            finite = np.isfinite(float_array(np.fromiter(self.scores, object, len(self.scores))))
        except TypeError as exc:
            raise DimensionMismatch(
                f"a class score must be a real number, got {exc.value!r}") from None
        except OverflowError as exc:  # an int beyond float64: the first is not finite
            finite = [score is not exc.value for score in self.scores]
        if not all(finite):
            raise NonFiniteValue(f"class score {self.scores[np.argmin(finite)]!r} is not finite: "
                                 "a NaN, an infinity or a sum beyond the float64 range")

    @property
    def predicted_class(self) -> int:
        """Index of the best class; ties break toward the lowest index."""
        return int(np.argmax(self.scores))

    @property
    def predicted_label(self) -> str:
        return self.classes[self.predicted_class]


def build_verbalizer(label_words: Mapping[str, Sequence[str]], tokenizer) -> Verbalizer:
    """Construct a verbalizer from a class -> word-list mapping.

    Each class is named by a string and maps to a list (or tuple) of words;
    any other name, and a string or any other value for the words, raises
    :class:`~promptpipe.errors.VerbalizerError`, and a tokenizer of another
    type :class:`~promptpipe.errors.ConfigError`. :class:`Verbalizer` checks
    the words' ids.
    """
    check_instance("label_words", label_words, Mapping, VerbalizerError)
    _check_tokenizer(tokenizer)
    words: dict[str, tuple[str, ...]] = {}
    word_ids: dict[str, tuple[tuple[int, ...], ...]] = {}
    for name, entries in label_words.items():
        if not isinstance(entries, (list, tuple)):
            raise VerbalizerError(f"class {name!r} must map to a list of words")
        encoded = []
        for word in entries:
            if not isinstance(word, str):
                raise VerbalizerError(f"class {name!r} has a non-string label word")
            encoded.append(tuple(tokenizer.encode(word)))
            if tokenizer.vocab.unk_id in encoded[-1]:
                raise VerbalizerError(
                    f"class {name!r}: label word {word!r} tokenizes to {UNK_TOKEN}"
                )
        words[name], word_ids[name] = tuple(entries), tuple(encoded)
    return Verbalizer(classes=tuple(label_words), label_words=words, label_word_ids=word_ids)


def load_verbalizer(path: str | Path, tokenizer) -> Verbalizer:
    """Load a JSON verbalizer file: a map from class name to word list."""
    mapping = read_json_object(
        path, "verbalizer file", UnreadableFile,
        lambda key: DuplicateClass(f"verbalizer file {path}: class {key!r} defined twice"))
    return build_verbalizer(mapping, tokenizer)


def project(
    logits,
    v: Verbalizer,
    aggregation: Aggregation | str = Aggregation.MEAN_LOG_PROB,
    calibration: np.ndarray | None = None,
) -> ClassScores:
    """Project per-mask-position vocabulary logits onto class scores.

    ``logits`` is one row per mask position, each of vocabulary width.
    ``calibration`` is the ``(M, C, W)`` :meth:`Verbalizer.word_scores` of
    content-free rows, one set of priors per mask position. Scores from
    multiple mask positions are summed per class. The predicted class is
    the argmax, ties breaking toward index 0.
    """
    check_instance("verbalizer", v, Verbalizer, VerbalizerError)
    rows = v.check_rows(logits)
    prior = None if calibration is None else v.check_prior(calibration, len(rows))
    totals = v.aggregate(v.word_scores(rows), aggregation, prior)
    return ClassScores(classes=v.classes, scores=tuple(totals.tolist()))
