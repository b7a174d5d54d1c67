"""Vocabulary, tokenizers, and the wrapped-sequence encoder.

Encoding turns a :class:`~promptpipe.wrapping.WrappedSequence` into
aligned integer arrays: token ids, attention mask, loss flags,
shortenable flags, soft-slot ids, and mask positions. Truncation removes
tokens only from shortenable segments, starting at the tail of the
rightmost shortenable run and moving left, so template control tokens
and mask slots always survive.

Vocab files are plain UTF-8 text, one token per line; the line number
(from 0) is the token id. The five special tokens ``[PAD] [UNK] [MASK]
[CLS] [SEP]`` must be present; continuation pieces carry a ``##``
prefix.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import Iterable, NamedTuple, Sequence

from .errors import (
    ConfigError,
    DuplicateToken,
    MissingSpecialToken,
    TemplateTooLong,
    VocabError,
)
from .wrapping import WrappedSequence

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
    "TokenEntry",
    "TokenizedInput",
    "truncate",
    "encode_wrapped",
]

PAD_TOKEN = "[PAD]"
UNK_TOKEN = "[UNK]"
MASK_TOKEN = "[MASK]"
CLS_TOKEN = "[CLS]"
SEP_TOKEN = "[SEP]"
CONTINUATION_PREFIX = "##"


class TokenizerKind(Enum):
    WHITESPACE = "whitespace"
    WORDPIECE = "wordpiece"


@dataclass(frozen=True)
class Vocab:
    tokens: tuple[str, ...]
    ids: dict[str, int] = field(compare=False, repr=False)
    pad_id: int
    unk_id: int
    mask_id: int
    cls_id: int
    sep_id: int

    def __len__(self) -> int:
        return len(self.tokens)

    @classmethod
    def from_tokens(cls, tokens: Iterable[str]) -> "Vocab":
        token_list = tuple(tokens)
        ids: dict[str, int] = {}
        for index, token in enumerate(token_list):
            if token in ids:
                raise DuplicateToken(f"token {token!r} appears twice (ids {ids[token]} and {index})")
            ids[token] = index
        specials = {}
        for name in (PAD_TOKEN, UNK_TOKEN, MASK_TOKEN, CLS_TOKEN, SEP_TOKEN):
            if name not in ids:
                raise MissingSpecialToken(f"vocabulary lacks special token {name}")
            specials[name] = ids[name]
        return cls(
            tokens=token_list,
            ids=ids,
            pad_id=specials[PAD_TOKEN],
            unk_id=specials[UNK_TOKEN],
            mask_id=specials[MASK_TOKEN],
            cls_id=specials[CLS_TOKEN],
            sep_id=specials[SEP_TOKEN],
        )

    @classmethod
    def from_file(cls, path: str | Path) -> "Vocab":
        """Read one token per line; a token's id is its line number from 0.

        A line ends only at ``\\n``, ``\\r\\n`` or ``\\r``, so a token may hold
        characters such as ``\\x0c`` or ``\\u2028`` that ``str.splitlines``
        would break at.
        """
        # reading in text mode turns "\r\n" and "\r" into "\n"
        lines = Path(path).read_text(encoding="utf-8").split("\n")
        if lines[-1] == "":
            lines.pop()
        for line_no, line in enumerate(lines, start=1):
            if not line:
                raise VocabError(
                    f"{path}:{line_no}: blank line; every line must hold a token "
                    "because a token's id is its line number"
                )
        return cls.from_tokens(lines)


class WhitespaceTokenizer:
    """Splits on Unicode whitespace; out-of-vocabulary words map to UNK."""

    def __init__(self, vocab: Vocab):
        self.vocab = vocab

    def tokenize(self, text: str) -> list[str]:
        return text.split()

    def encode(self, text: str) -> list[int]:
        ids = self.vocab.ids
        unk = self.vocab.unk_id
        return [ids.get(word, unk) for word in text.split()]


class WordPieceTokenizer:
    """Greedy longest-match subword tokenizer with ``##`` continuations.

    Words are first split on whitespace; within a word the longest
    vocabulary prefix is taken repeatedly (continuations are looked up
    with the ``##`` prefix). A word with an unmatchable remainder
    becomes a single UNK.
    """

    def __init__(self, vocab: Vocab):
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
        out: list[str] = []
        for word in text.split():
            pieces = self._word_pieces(word)
            out.extend(pieces if pieces is not None else [UNK_TOKEN])
        return out

    def encode(self, text: str) -> list[int]:
        ids = self.vocab.ids
        return [ids[piece] for piece in self.tokenize(text)]


def build_tokenizer(kind: TokenizerKind | str, vocab: Vocab):
    """Construct a tokenizer of the requested kind over a vocabulary."""
    if isinstance(kind, str):
        kind = TokenizerKind(kind.lower())
    if kind is TokenizerKind.WHITESPACE:
        return WhitespaceTokenizer(vocab)
    return WordPieceTokenizer(vocab)


class TokenEntry(NamedTuple):
    token_id: int
    loss: int
    shortenable: int
    soft_slot: int


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


def truncate(stream: Sequence[TokenEntry], budget: int) -> list[TokenEntry]:
    """Drop shortenable tokens until the stream fits the budget.

    Removal starts at the tail of the rightmost shortenable run and
    moves leftward across runs; survivor order is preserved. The caller
    guarantees the budget covers all non-shortenable tokens.
    """
    excess = len(stream) - budget
    if excess <= 0:
        return list(stream)
    keep = [True] * len(stream)
    for i in range(len(stream) - 1, -1, -1):
        if stream[i].shortenable:
            keep[i] = False
            excess -= 1
            if excess == 0:
                break
    return [entry for entry, kept in zip(stream, keep) if kept]


def encode_wrapped(
    seq: WrappedSequence,
    tokenizer,
    max_len: int,
    add_special_tokens: bool = True,
    objective: str = "mlm",
) -> TokenizedInput:
    """Encode a wrapped sequence into aligned, padded arrays.

    Text segments are tokenized independently and inherit their
    segment's flags; each mask segment emits one MASK id with loss=1;
    each soft segment emits one placeholder position (the MASK id, with
    the real identity carried by ``soft_slot_ids``). With
    ``add_special_tokens`` a CLS/SEP pair is added and counted against
    ``max_len``.

    ``objective`` selects the prediction-slot layout: ``"mlm"`` places a
    MASK token per mask segment; ``"lm"`` and ``"seq2seq"`` emit no MASK
    id and instead flag the final content position as the single
    generation slot (the template must then contain exactly one mask
    segment).
    """
    if objective not in ("mlm", "lm", "seq2seq"):
        raise ConfigError(f"unknown objective {objective!r}")
    causal = objective != "mlm"
    if causal and seq.mask_count != 1:
        raise ConfigError(
            f"{objective} layout needs exactly one mask segment, got {seq.mask_count}"
        )

    vocab = tokenizer.vocab
    # one (ids, loss, shortenable, soft slot) run per segment
    runs: list[tuple[list[int], int, int, int]] = []
    for seg in seq.segments:
        if seg.is_mask:
            if not causal:
                runs.append(([vocab.mask_id], 1, 0, -1))
        elif seg.soft_slot is not None:
            runs.append(([vocab.mask_id], 0, 0, seg.soft_slot))
        elif seg.text:
            runs.append((tokenizer.encode(seg.text), 0, 1 if seg.shortenable else 0, -1))

    n_special = 2 if add_special_tokens else 0
    fixed = sum(len(ids) for ids, _, shortenable, _ in runs if not shortenable)
    if fixed + n_special > max_len:
        raise TemplateTooLong(
            f"non-shortenable content ({fixed} tokens + {n_special} special) "
            f"exceeds max_len {max_len}"
        )
    # the same tokens `truncate` drops: the last `excess` shortenable ones,
    # taken from the tail of the rightmost shortenable run, moving left
    excess = sum(len(run[0]) for run in runs) + n_special - max_len
    for index in range(len(runs) - 1, -1, -1):
        if excess <= 0:
            break
        ids, loss, shortenable, slot = runs[index]
        if shortenable:
            cut = min(excess, len(ids))
            runs[index] = (ids[: len(ids) - cut], loss, shortenable, slot)
            excess -= cut

    input_ids: list[int] = []
    loss_ids: list[int] = []
    shortenable_ids: list[int] = []
    soft_slot_ids: list[int] = []
    if add_special_tokens:
        runs = [([vocab.cls_id], 0, 0, -1), *runs, ([vocab.sep_id], 0, 0, -1)]
    for ids, loss, shortenable, slot in runs:
        n = len(ids)
        input_ids += ids
        loss_ids += [loss] * n
        shortenable_ids += [shortenable] * n
        soft_slot_ids += [slot] * n
    content_len = len(input_ids)
    attention_mask = [1] * content_len
    if causal:
        if content_len == 0:
            raise ConfigError("cannot place a generation slot in an empty sequence")
        loss_ids[content_len - 1] = 1

    pad = max_len - content_len
    input_ids.extend([vocab.pad_id] * pad)
    attention_mask.extend([0] * pad)
    loss_ids.extend([0] * pad)
    shortenable_ids.extend([0] * pad)
    soft_slot_ids.extend([-1] * pad)
    mask_positions = [i for i in range(content_len) if loss_ids[i] == 1]
    return TokenizedInput(
        input_ids=input_ids,
        attention_mask=attention_mask,
        loss_ids=loss_ids,
        shortenable_ids=shortenable_ids,
        soft_slot_ids=soft_slot_ids,
        mask_positions=mask_positions,
    )
