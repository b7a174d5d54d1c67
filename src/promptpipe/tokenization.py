"""Vocabulary, tokenizers, and the encoder of laid-out templates.

Encoding turns a template's positions into aligned integer arrays: token
ids, attention mask, loss flags, shortenable flags, soft-slot ids, and
mask positions. Each :class:`~promptpipe.wrapping.Segment` becomes one
run of positions that share its flags (:func:`_run`), whether it comes
from a :class:`~promptpipe.wrapping.WrappedSequence`
(:func:`encode_wrapped`) or from the layout a :class:`CompiledTemplate`
builds on. A mask is the only prediction slot: one MASK id, and the only
position with loss=1. Truncation removes tokens only from shortenable runs,
starting at the tail of the rightmost one and moving left, so template
control tokens and mask slots always survive.

A :class:`CompiledTemplate` encodes a template's static text once and,
per example, only its meta values; it shares the one truncate-and-assemble
step with :func:`encode_wrapped`.

Vocab files are plain UTF-8 text, one token per line; the line number
(from 0) is the token id. The five special tokens ``[PAD] [UNK] [MASK]
[CLS] [SEP]`` must be present; continuation pieces carry a ``##``
prefix.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Sequence

from .errors import (
    ConfigError,
    DataError,
    DuplicateToken,
    InvalidValueType,
    MissingSpecialToken,
    TemplateTooLong,
    VocabError,
    check_instance,
    check_integer,
)
from .soft_plan import build_soft_plan
from .template import Choice, TemplateAST
from .textfile import read_text
from .wrapping import Segment, TemplateLayout, WrappedSequence

__all__ = [
    "PAD_TOKEN",
    "UNK_TOKEN",
    "MASK_TOKEN",
    "CLS_TOKEN",
    "SEP_TOKEN",
    "TokenizerKind",
    "Vocab",
    "WhitespaceTokenizer",
    "WordPieceTokenizer",
    "build_tokenizer",
    "CompiledTemplate",
    "TokenizedInput",
    "encode_wrapped",
]

PAD_TOKEN = "[PAD]"
UNK_TOKEN = "[UNK]"
MASK_TOKEN = "[MASK]"
CLS_TOKEN = "[CLS]"
SEP_TOKEN = "[SEP]"
CONTINUATION_PREFIX = "##"


class TokenizerKind(Choice):
    WHITESPACE = "whitespace"
    WORDPIECE = "wordpiece"


def _derived():
    """A dataclass field that ``__post_init__`` derives from the others."""
    return field(init=False, compare=False, repr=False)


@dataclass(frozen=True)
class Vocab:
    """A token list; a token's id is its index. The id map and the five
    special ids are derived from ``tokens``, a tuple of distinct strings
    that holds every special token; anything else raises
    :class:`~promptpipe.errors.VocabError`."""

    tokens: tuple[str, ...]
    ids: dict[str, int] = _derived()
    pad_id: int = _derived()
    unk_id: int = _derived()
    mask_id: int = _derived()
    cls_id: int = _derived()
    sep_id: int = _derived()

    def __post_init__(self):
        check_instance("tokens", self.tokens, tuple, VocabError)
        if not all(issubclass(kind, str) for kind in set(map(type, self.tokens))):
            index, token = next((i, t) for i, t in enumerate(self.tokens) if not isinstance(t, str))
            raise VocabError(f"token {index} must be a string, got {token!r}")
        ids = dict(zip(self.tokens, range(len(self.tokens))))
        if len(ids) < len(self.tokens):
            first: dict[str, int] = {}
            for index, token in enumerate(self.tokens):
                if first.setdefault(token, index) != index:
                    raise DuplicateToken(
                        f"token {token!r} appears twice (ids {first[token]} and {index})"
                    )
        for name in (PAD_TOKEN, UNK_TOKEN, MASK_TOKEN, CLS_TOKEN, SEP_TOKEN):
            if name not in ids:
                raise MissingSpecialToken(f"vocabulary lacks special token {name}")
        vars(self).update(  # the instance is frozen: set the derived fields directly
            ids=ids, pad_id=ids[PAD_TOKEN], unk_id=ids[UNK_TOKEN], mask_id=ids[MASK_TOKEN],
            cls_id=ids[CLS_TOKEN], sep_id=ids[SEP_TOKEN])

    def __len__(self) -> int:
        return len(self.tokens)

    @classmethod
    def from_tokens(cls, tokens: Iterable[str]) -> "Vocab":
        check_instance("tokens", tokens, Iterable, VocabError)
        return cls(tuple(tokens))

    @classmethod
    def from_file(cls, path: str | Path) -> "Vocab":
        """Read one token per line; a token's id is its line number from 0.

        A line ends only at ``\\n``, ``\\r\\n`` or ``\\r``, so a token may hold
        characters such as ``\\x0c`` or ``\\u2028`` that ``str.splitlines``
        would break at.
        """
        lines = read_text(path).split("\n")
        if lines[-1] == "":
            lines.pop()
        if not all(lines):
            raise VocabError(
                f"{path}:{lines.index('') + 1}: blank line; every line must hold a token "
                "because a token's id is its line number"
            )
        return cls.from_tokens(lines)


def _text(text: object) -> str:
    """``text``, which a tokenizer splits; anything but a string raises :class:`VocabError`."""
    if not isinstance(text, str):
        raise VocabError(f"text must be a string, got {text!r}")
    return text


class WhitespaceTokenizer:
    """Splits on Unicode whitespace; out-of-vocabulary words map to UNK."""

    def __init__(self, vocab: Vocab):
        check_instance("vocab", vocab, Vocab, VocabError)
        self.vocab = vocab

    def tokenize(self, text: str) -> list[str]:
        return _text(text).split()

    def encode(self, text: str, limit: int | None = None) -> list[int]:
        """Token ids of ``text``; with ``limit`` (>= 0), only the first ``limit``."""
        get = self.vocab.ids.get
        unk = self.vocab.unk_id
        text = _text(text)
        words = text.split() if limit is None else text.split(None, limit)[:limit]
        return [get(word, unk) for word in words]


class WordPieceTokenizer:
    """Greedy longest-match subword tokenizer with ``##`` continuations.

    Words are first split on whitespace; within a word the longest
    vocabulary prefix is taken repeatedly (continuations are looked up
    with the ``##`` prefix). A word with an unmatchable remainder
    becomes a single UNK.
    """

    def __init__(self, vocab: Vocab):
        check_instance("vocab", vocab, Vocab, VocabError)
        self.vocab = vocab
        # no piece longer than the longest token can match, so candidates
        # start there rather than at the end of a long word
        self._max_piece = max(map(len, vocab.tokens))

    def _word_pieces(self, word: str) -> list[str] | None:
        ids = self.vocab.ids
        pieces: list[str] = []
        start = 0
        n = len(word)
        while start < n:
            end = min(n, start + self._max_piece)
            match = None
            while start < end:
                piece = word[start:end]
                if start > 0:
                    piece = CONTINUATION_PREFIX + piece
                if piece in ids:
                    match = piece
                    break
                end -= 1
            if match is None:
                return None
            pieces.append(match)
            start = end
        return pieces

    def tokenize(self, text: str) -> list[str]:
        return [self.vocab.tokens[i] for i in self.encode(text)]

    def encode(self, text: str, limit: int | None = None) -> list[int]:
        """Token ids of ``text``; with ``limit`` (>= 0), only the first ``limit``.

        A word that is itself a token is looked up whole: greedy longest
        match tries the whole word first, as no token is longer than the
        longest one. With ``limit``, words are tokenized only until
        ``limit`` ids are found.
        """
        ids = self.vocab.ids
        get = ids.get
        if limit is None:
            limit = sys.maxsize
        out: list[int] = []
        # every word gives at least one id, so the last item of the split,
        # which holds any words past the first `limit`, is never tokenized
        for word in _text(text).split(None, limit):
            if len(out) >= limit:
                break
            token_id = get(word)
            if token_id is not None:
                out.append(token_id)
                continue
            pieces = self._word_pieces(word)
            if pieces is None:
                out.append(self.vocab.unk_id)
            else:
                out += [ids[piece] for piece in pieces]
        del out[limit:]
        return out


def build_tokenizer(kind: TokenizerKind | str, vocab: Vocab):
    """Construct a tokenizer of the requested kind over a vocabulary."""
    if TokenizerKind.parse(kind) is TokenizerKind.WHITESPACE:
        return WhitespaceTokenizer(vocab)
    return WordPieceTokenizer(vocab)


@dataclass
class TokenizedInput:
    """Aligned arrays, all padded to the same length."""

    input_ids: list[int]
    attention_mask: list[int]
    loss_ids: list[int]
    shortenable_ids: list[int]
    soft_slot_ids: list[int]
    mask_positions: list[int]

    @property
    def length(self) -> int:
        """Number of real (non-padding) positions."""
        return sum(self.attention_mask)

    def to_dict(self) -> dict:
        return {
            "input_ids": self.input_ids,
            "attention_mask": self.attention_mask,
            "loss_ids": self.loss_ids,
            "shortenable_ids": self.shortenable_ids,
            "soft_slot_ids": self.soft_slot_ids,
            "mask_positions": self.mask_positions,
        }


# A run is a stretch of positions that share their flags:
# (ids, loss, shortenable, soft slot). Encoding makes one run per segment.
Run = tuple[list, int, int, int]


def _run(seg: Segment, tokenizer) -> Run:
    """The run of one segment.

    A mask is one MASK id with loss=1, the only prediction slot; a soft
    slot is one MASK placeholder carrying the slot; text is its token ids.
    """
    if seg.is_mask:
        return ([tokenizer.vocab.mask_id], 1, 0, -1)
    if seg.soft_slot is not None:
        return ([tokenizer.vocab.mask_id], 0, 0, seg.soft_slot)
    return (tokenizer.encode(seg.text), 0, int(seg.shortenable), -1)


def _cut(runs: list[Run], excess: int) -> None:
    """The truncation rule: drop the last ``excess`` shortenable positions.

    Removal starts at the tail of the rightmost shortenable run and moves
    leftward across runs, so early context survives longest. A cut run is
    replaced in ``runs`` by a shorter copy; no run is changed in place, so
    runs may be shared between calls.
    """
    for index in range(len(runs) - 1, -1, -1):
        if excess <= 0:
            return
        ids, loss, shortenable, slot = runs[index]
        if shortenable:
            cut = min(excess, len(ids))
            runs[index] = (ids[: len(ids) - cut], loss, shortenable, slot)
            excess -= cut


def _check_fits(fixed: int, n_special: int, max_len: int) -> None:
    """The length rule: non-shortenable content and specials must fit ``max_len``."""
    if fixed + n_special > max_len:
        raise TemplateTooLong(
            f"non-shortenable content ({fixed} tokens + {n_special} special) "
            f"exceeds max_len {max_len}"
        )


def _fit(
    runs: list[Run],
    tokenizer,
    max_len: int,
    add_special_tokens: bool,
    tail: tuple[int, str] | None = None,
) -> TokenizedInput:
    """Truncate runs that pass :func:`_check_fits` to ``max_len`` and lay
    them out as padded arrays.

    The one truncate-and-assemble step of :func:`encode_wrapped` and
    :class:`CompiledTemplate`. ``tail`` is ``(index, text)`` when
    ``runs[index]``, the rightmost shortenable run, is still empty and is
    to hold the ids of ``text``: only the ids that survive truncation are
    made.
    """
    vocab = tokenizer.vocab
    n_special = 2 if add_special_tokens else 0
    total = sum(len(run[0]) for run in runs)
    if tail is not None:
        # the rightmost shortenable run loses its tail first, so it keeps
        # what the other runs leave of max_len, whatever its own length
        index, text = tail
        ids = tokenizer.encode(text, max(0, max_len - n_special - total))
        runs[index] = (ids, *runs[index][1:])
        total += len(ids)
    _cut(runs, total + n_special - max_len)

    content_len = min(total + n_special, max_len)
    input_ids = [vocab.pad_id] * max_len
    loss_ids = [0] * max_len
    shortenable_ids = [0] * max_len
    soft_slot_ids = [-1] * max_len
    mask_positions: list[int] = []
    start = 0
    if add_special_tokens:
        input_ids[0] = vocab.cls_id
        input_ids[content_len - 1] = vocab.sep_id
        start = 1
    for ids, loss, shortenable, slot in runs:
        end = start + len(ids)
        input_ids[start:end] = ids
        if loss:
            loss_ids[start:end] = [1] * len(ids)
            mask_positions += range(start, end)
        if shortenable:
            shortenable_ids[start:end] = [1] * len(ids)
        if slot >= 0:
            soft_slot_ids[start:end] = [slot] * len(ids)
        start = end
    return TokenizedInput(
        input_ids=input_ids,
        attention_mask=[1] * content_len + [0] * (max_len - content_len),
        loss_ids=loss_ids,
        shortenable_ids=shortenable_ids,
        soft_slot_ids=soft_slot_ids,
        mask_positions=mask_positions,
    )


def _check_encoding(tokenizer, max_len, add_special_tokens) -> None:
    """Raise :class:`~promptpipe.errors.ConfigError` unless ``tokenizer`` has the
    two parts an encoding uses, whatever its type, ``max_len`` is an int and
    ``add_special_tokens`` a bool."""
    if not (isinstance(getattr(tokenizer, "vocab", None), Vocab)
            and callable(getattr(tokenizer, "encode", None))):
        raise ConfigError(f"tokenizer must have a Vocab vocab and an encode method, "
                          f"got {tokenizer!r}")
    check_integer("max_len", max_len)
    check_instance("add_special_tokens", add_special_tokens, bool)


def encode_wrapped(
    seq: WrappedSequence,
    tokenizer,
    max_len: int,
    add_special_tokens: bool = True,
) -> TokenizedInput:
    """Encode a wrapped sequence into aligned, padded arrays.

    Text segments are tokenized independently and inherit their
    segment's flags; each mask segment emits one MASK id with loss=1;
    each soft segment emits one placeholder position (the MASK id, with
    the real identity carried by ``soft_slot_ids``). With
    ``add_special_tokens`` a CLS/SEP pair is added and counted against
    ``max_len``.
    """
    check_instance("seq", seq, WrappedSequence, DataError)
    _check_encoding(tokenizer, max_len, add_special_tokens)
    runs = [_run(seg, tokenizer) for seg in seq.segments]
    fixed = sum(len(run[0]) for run in runs if not run[2])
    _check_fits(fixed, 2 if add_special_tokens else 0, max_len)
    return _fit(runs, tokenizer, max_len, add_special_tokens)


class CompiledTemplate(TemplateLayout):
    """A template's layout bound to a tokenizer and encoding settings.

    Built once per template, it plans the template's soft slots with its
    own tokenizer (:func:`~promptpipe.soft_plan.build_soft_plan`) and
    holds the run of every segment of its layout already encoded: the ids
    of each literal text, and one placeholder position per mask and per
    soft slot. Per example it resolves the meta values and renders the
    text as its layout does; :meth:`measure` checks the length rule,
    tokenizing only the non-shortenable values, and :meth:`encode` also
    tokenizes the shortenable ones (the rightmost only to its budget) and
    lays out the arrays. The results, errors included, equal those of
    ``wrap_example``, ``wrapped_text`` and :func:`encode_wrapped`.
    """

    def __init__(
        self,
        ast: TemplateAST,
        tokenizer,
        max_len: int,
        add_special_tokens: bool = True,
    ):
        check_instance("ast", ast, TemplateAST, InvalidValueType)
        _check_encoding(tokenizer, max_len, add_special_tokens)
        super().__init__(ast, build_soft_plan(ast, tokenizer).node_slots)
        self.tokenizer = tokenizer
        self.max_len = max_len
        self.add_special_tokens = add_special_tokens
        # one run per segment; a meta node's run is empty until its value is placed
        runs = [_run(seg, tokenizer) for seg in self.segments]
        self._runs = runs
        # the meta value, by node order, whose run is the rightmost shortenable one
        last = max((i for i, run in enumerate(runs) if run[2]), default=None)
        self._tail = next((k for k, meta in enumerate(self._metas) if meta[0] == last), None)
        self._fixed = sum(len(run[0]) for run in runs if not run[2])  # static, non-shortenable
        # (run index, value index) of the non-shortenable and the shortenable values
        self._fixed_metas = [(i, k) for k, (i, _, _) in enumerate(self._metas) if not runs[i][2]]
        self._short_metas = [(i, k) for k, (i, _, _) in enumerate(self._metas) if runs[i][2]]
        # without a non-shortenable value, the length rule has one verdict for
        # every example; a failing one is still raised per example
        self._always_fits = not self._fixed_metas and self._fixed + (
            2 if add_special_tokens else 0) <= max_len

    @property
    def measures_values(self) -> bool:
        """Whether :meth:`measure` reads the values: only a non-shortenable
        value counts toward the length rule."""
        return bool(self._fixed_metas)

    def measure(self, values: Sequence[str]) -> int:
        """The mask count for resolved meta values (masks are never cut);
        raises what :meth:`encode` raises."""
        if not self._always_fits:
            self._fixed_runs(values)
        return self.ast.mask_count

    def _fixed_runs(self, values: Sequence[str]) -> list[Run]:
        """The runs with the non-shortenable values' ids placed, once they fit."""
        runs = self._runs.copy()
        fixed = self._fixed
        for index, k in self._fixed_metas:
            runs[index] = (self.tokenizer.encode(values[k]), 0, 0, -1)
            fixed += len(runs[index][0])
        _check_fits(fixed, 2 if self.add_special_tokens else 0, self.max_len)
        return runs

    def encode(self, values: Sequence[str]) -> TokenizedInput:
        """The padded arrays for resolved meta values, as :func:`encode_wrapped`."""
        runs = self._fixed_runs(values)
        tail = None
        for index, k in self._short_metas:
            if k == self._tail:
                tail = (index, values[k])
            else:
                runs[index] = (self.tokenizer.encode(values[k]), 0, 1, -1)
        return _fit(runs, self.tokenizer, self.max_len, self.add_special_tokens, tail)
