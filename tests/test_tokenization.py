from __future__ import annotations

import random
from pathlib import Path
from typing import NamedTuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from promptpipe import (
    InputExample,
    TokenizerKind,
    Vocab,
    build_tokenizer,
    encode_wrapped,
    parse_template,
    wrap_example,
)
from promptpipe.errors import (
    ConfigError,
    DuplicateToken,
    MissingSpecialToken,
    PromptPipeError,
    TemplateTooLong,
    VocabError,
)
from promptpipe.wrapping import Segment, WrappedSequence

SPECIALS = ["[PAD]", "[UNK]", "[MASK]", "[CLS]", "[SEP]"]


# --- vocabulary --------------------------------------------------------------


def test_vocab_ids_follow_line_order(fixtures_dir):
    vocab = Vocab.from_file(fixtures_dir / "vocab.txt")
    lines = (fixtures_dir / "vocab.txt").read_text(encoding="utf-8").splitlines()
    assert list(vocab.tokens) == lines
    assert vocab.ids["[PAD]"] == 0


def test_vocab_requires_special_tokens():
    with pytest.raises(MissingSpecialToken):
        Vocab.from_tokens(["[PAD]", "[UNK]", "[MASK]", "[CLS]", "hello"])


def test_vocab_rejects_duplicates():
    with pytest.raises(DuplicateToken):
        Vocab.from_tokens(SPECIALS + ["x", "x"])
    # the first repeat is named, with both of its ids
    with pytest.raises(DuplicateToken, match=r"^token 'x' appears twice \(ids 5 and 7\)$"):
        Vocab.from_tokens(SPECIALS + ["x", "y", "x", "y"])


def test_vocab_rejects_blank_line_and_names_it(tmp_path):
    # skipping the blank line would give "b" id 6, not its line number 7
    path = tmp_path / "vocab.txt"
    path.write_text("\n".join(SPECIALS + ["a", "", "b"]) + "\n", encoding="utf-8")
    with pytest.raises(VocabError, match=r"vocab.txt:7: blank line"):
        Vocab.from_file(path)


@pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"])
def test_vocab_lines_end_only_at_newlines(tmp_path, newline):
    # str.splitlines would also break at \x0c and shift "b" to id 7
    path = tmp_path / "vocab.txt"
    tokens = SPECIALS + ["a\x0cb", "b\x1cc\x85d\u2028e"]
    path.write_bytes(newline.join(tokens + [""]).encode("utf-8"))
    vocab = Vocab.from_file(path)
    assert vocab.tokens == tuple(tokens)
    assert vocab.ids["a\x0cb"] == 5


# --- tokenizers --------------------------------------------------------------


def test_tokenizer_kind_parses_names_and_rejects_unknown_ones(vocab):
    assert TokenizerKind.parse("WordPiece") is TokenizerKind.WORDPIECE
    assert TokenizerKind.parse(TokenizerKind.WHITESPACE) is TokenizerKind.WHITESPACE
    message = "unknown tokenizer_kind 'bogus'; expected one of whitespace, wordpiece"
    with pytest.raises(ConfigError, match=message):
        TokenizerKind.parse("bogus")
    with pytest.raises(ConfigError, match=message):
        build_tokenizer("bogus", vocab)


def test_whitespace_tokenizer_splits_and_maps(whitespace, vocab):
    assert whitespace.tokenize("It is great") == ["It", "is", "great"]
    ids = whitespace.encode("It is zzz")
    assert ids[:2] == [vocab.ids["It"], vocab.ids["is"]]
    assert ids[2] == vocab.unk_id


def test_wordpiece_greedy_example():
    vocab = Vocab.from_tokens(SPECIALS + ["great", "##est"])
    tok = build_tokenizer("wordpiece", vocab)
    assert tok.tokenize("greatest") == ["great", "##est"]


def test_wordpiece_unmatched_word_is_unk(wordpiece, vocab):
    assert wordpiece.encode("zzzz") == [vocab.unk_id]
    # the failure is per word, not per text
    assert wordpiece.tokenize("zzzz great") == ["[UNK]", "great"]


def test_wordpiece_has_no_word_length_cut_off(wordpiece, vocab):
    # BERT's max_input_chars_per_word would map a word over 100 characters to [UNK]
    pieces = wordpiece.tokenize("a" * 150)
    assert pieces == ["a"] + ["##a"] * 149
    assert wordpiece.encode("a" * 150) == [vocab.ids[piece] for piece in pieces]


def _oracle_pieces(word: str, ids: dict[str, int]) -> list[str] | None:
    """Recursive greedy longest-prefix matcher, independent of the library."""
    if not word:
        return []

    def longest(rest: str, continuation: bool) -> list[str] | None:
        for length in range(len(rest), 0, -1):
            piece = ("##" + rest[:length]) if continuation else rest[:length]
            if piece in ids:
                tail = longest(rest[length:], True) if rest[length:] else []
                if tail is None:
                    return None
                return [piece] + tail
        return None

    return longest(word, False)


def test_wordpiece_matches_recursive_oracle(wordpiece, vocab):
    rng = random.Random(1234)
    alphabet = "abc"
    for _ in range(500):
        word = "".join(rng.choice(alphabet) for _ in range(rng.randrange(0, 12)))
        expected = _oracle_pieces(word, vocab.ids)
        got = wordpiece.tokenize(word)
        if word == "":
            assert got == []
        elif expected is None:
            assert got == ["[UNK]"]
        else:
            assert got == expected


class _CountingIds(dict):
    """A token-id map that counts membership tests."""

    lookups = 0

    def __contains__(self, key):
        self.lookups += 1
        return super().__contains__(key)


def test_wordpiece_long_word_has_bounded_lookups():
    vocab = Vocab.from_tokens(SPECIALS + ["a", "ab", "abc", "##a", "##ab", "##abc"])
    ids = _CountingIds(vocab.ids)
    # ids is derived from the tokens; put the counting copy where the
    # tokenizer reads it, so every piece's lookup is counted
    object.__setattr__(vocab, "ids", ids)
    tok = build_tokenizer("wordpiece", vocab)
    word = "abc" * 1333 + "a"  # 4000 characters
    # no token is longer than "##abc", so the unbounded greedy rule can only
    # ever match "abc" pieces, then the final "a"
    assert tok.tokenize(word) == ["abc"] + ["##abc"] * 1332 + ["##a"]
    # at most one lookup per candidate length up to the longest token, per piece;
    # candidates running to the end of the word would take millions
    assert 1334 <= ids.lookups <= 1334 * len("##abc")
    short = word[:301]
    assert tok.tokenize(short) == _oracle_pieces(short, vocab.ids)


def test_wordpiece_words_longer_than_any_token_match_oracle(wordpiece, vocab):
    rng = random.Random(4321)
    longest = max(map(len, vocab.tokens))
    for _ in range(200):
        word = "".join(rng.choice("abc") for _ in range(rng.randrange(longest, 4 * longest)))
        expected = _oracle_pieces(word, vocab.ids)
        assert wordpiece.tokenize(word) == (expected if expected is not None else ["[UNK]"])


# --- truncation --------------------------------------------------------------


# Truncation is checked through encode_wrapped against this file's own
# oracle, one position at a time: an entry is (token id, loss,
# shortenable, soft slot), as the encoded arrays hold it.
class Entry(NamedTuple):
    token_id: int
    loss: int
    shortenable: int
    soft_slot: int


# enough distinct words for every generated position to be told apart
TRUNC_VOCAB = Vocab.from_tokens(SPECIALS + [f"w{i}" for i in range(100)])
TRUNC_TOKENIZER = build_tokenizer("whitespace", TRUNC_VOCAB)


def entry(shortenable: int, token_id: int = 9, loss: int = 0) -> Entry:
    """A mask position for ``loss``, else the position of word ``w<token_id>``."""
    if loss:
        return Entry(TRUNC_VOCAB.mask_id, 1, 0, -1)
    return Entry(TRUNC_VOCAB.ids[f"w{token_id}"], 0, shortenable, -1)


def _oracle_truncate(stream: list[Entry], budget: int) -> list[Entry]:
    """Remove the rightmost shortenable token until the budget is met."""
    out = list(stream)
    while len(out) > budget:
        index = max(i for i, e in enumerate(out) if e.shortenable)
        del out[index]
    return out


def _entries(enc) -> list[Entry]:
    """The encoded positions, padding excluded."""
    columns = zip(enc.input_ids, enc.loss_ids, enc.shortenable_ids, enc.soft_slot_ids)
    return [Entry(*column) for column in columns][: enc.length]


def _encode_stream(stream: list[Entry], budget: int) -> list[Entry]:
    """``stream`` as one segment per entry, encoded to ``budget`` positions."""
    segments = tuple(
        Segment(text="", is_mask=True) if e.loss
        else Segment(text=TRUNC_VOCAB.tokens[e.token_id], shortenable=bool(e.shortenable))
        for e in stream
    )
    enc = encode_wrapped(WrappedSequence(segments, example_guid="g"), TRUNC_TOKENIZER,
                         max_len=budget, add_special_tokens=False)
    return _entries(enc)


def test_truncate_tail_of_rightmost_run():
    # [t, t, m, s1..s6] with budget 6 keeps s1..s3
    stream = [entry(0), entry(0), entry(0, loss=1)] + [entry(1, token_id=i) for i in range(6)]
    result = _encode_stream(stream, 6)
    assert result == stream[:3] + stream[3:6]
    assert result == _oracle_truncate(stream, 6)


def test_truncate_two_runs_consumes_right_run_first():
    # 4 shortenable, 3 fixed, 4 shortenable; budget 9 -> right run loses 2
    left = [entry(1, token_id=i) for i in range(4)]
    fixed = [entry(0), entry(0), entry(0)]
    right = [entry(1, token_id=10 + i) for i in range(4)]
    stream = left + fixed + right
    result = _encode_stream(stream, 9)
    assert result == left + fixed + right[:2]
    assert result == _oracle_truncate(stream, 9)


def test_truncate_noop_when_within_budget():
    stream = [entry(1), entry(0), entry(1)]
    assert _encode_stream(stream, 3) == stream
    assert _encode_stream(stream, 5) == stream


def test_truncate_matches_oracle_on_random_streams():
    rng = random.Random(99)
    for _ in range(300):
        stream = [entry(rng.randrange(2), token_id=i) for i in range(rng.randrange(1, 30))]
        n_fixed = sum(1 for e in stream if not e.shortenable)
        budget = rng.randrange(n_fixed, len(stream) + 1)
        assert _encode_stream(stream, budget) == _oracle_truncate(stream, budget)


# --- encoding ----------------------------------------------------------------


def _counting_fixture():
    tokens = SPECIALS + [f"w{i}" for i in range(16)]
    vocab = Vocab.from_tokens(tokens)
    return vocab, build_tokenizer("whitespace", vocab)


def test_encode_budget_arithmetic():
    # 1 mask + 4 template tokens + 6 shortenable tokens, max_len 8, no specials:
    # budget leaves 8 - 5 = 3 shortenable survivors
    vocab, tok = _counting_fixture()
    ast = parse_template('w0 w1 w2 w3 {"mask"} {"meta": "body"}')
    example = InputExample(guid="g", meta={"body": "w4 w5 w6 w7 w8 w9"})
    wrapped = wrap_example(ast, example)
    enc = encode_wrapped(wrapped, tok, max_len=8, add_special_tokens=False)
    assert sum(enc.attention_mask) == 8
    assert sum(enc.shortenable_ids) == 3
    assert sum(enc.loss_ids) == 1
    survivors = [vocab.tokens[i] for i in enc.input_ids]
    assert survivors == ["w0", "w1", "w2", "w3", "[MASK]", "w4", "w5", "w6"]


def test_encode_no_truncation_when_it_fits():
    vocab, tok = _counting_fixture()
    ast = parse_template('{"meta": "body"} w0 {"mask"}')
    wrapped = wrap_example(ast, InputExample(guid="g", meta={"body": "w1 w2"}))
    enc = encode_wrapped(wrapped, tok, max_len=10, add_special_tokens=False)
    assert enc.length == 4
    assert enc.input_ids[4:] == [vocab.pad_id] * 6


def test_encode_template_too_long():
    vocab, tok = _counting_fixture()
    ast = parse_template('w0 w1 w2 w3 w4 w5 w6 w7 w8 {"mask"}')  # 10 fixed tokens
    wrapped = wrap_example(ast, InputExample(guid="g"))
    with pytest.raises(TemplateTooLong):
        encode_wrapped(wrapped, tok, max_len=8, add_special_tokens=False)


def test_encode_special_tokens_count_against_max_len():
    vocab, tok = _counting_fixture()
    ast = parse_template('{"meta": "body"} {"mask"}')
    wrapped = wrap_example(ast, InputExample(guid="g", meta={"body": "w1 w2 w3"}))
    enc = encode_wrapped(wrapped, tok, max_len=4, add_special_tokens=True)
    assert enc.input_ids[0] == vocab.cls_id
    assert enc.input_ids[3] == vocab.sep_id
    # only one shortenable token fits beside CLS, mask, SEP
    assert sum(enc.shortenable_ids) == 1
    assert enc.mask_positions == [2]


def test_encode_soft_segments_use_mask_placeholder(vocab, wordpiece):
    ast = parse_template('{"soft": None, "duplicate": 3} {"mask"}')
    wrapped = wrap_example(ast, InputExample(guid="g"))
    enc = encode_wrapped(wrapped, wordpiece, max_len=8, add_special_tokens=False)
    assert enc.input_ids[:4] == [vocab.mask_id] * 4
    assert enc.soft_slot_ids[:4] == [0, 1, 2, -1]
    assert enc.loss_ids[:4] == [0, 0, 0, 1]
    assert enc.mask_positions == [3]


def test_encode_mask_positions_align_with_loss(vocab, wordpiece):
    ast = parse_template('{"mask"} x {"mask"}')
    wrapped = wrap_example(ast, InputExample(guid="g"))
    enc = encode_wrapped(wrapped, wordpiece, max_len=8, add_special_tokens=True)
    assert enc.mask_positions == [i for i, v in enumerate(enc.loss_ids) if v == 1]
    assert len(enc.mask_positions) == 2


def test_encoding_equals_per_segment_tokenization(vocab, wordpiece):
    # the flag-aligned encoding is the concatenation of independently
    # tokenized segments, each tagged with its segment's flags
    ast = parse_template(
        '{"soft": "It was"} {"meta": "a", "shortenable": False} '
        'and {"meta": "b"} {"mask"}'
    )
    from promptpipe import build_soft_plan

    plan = build_soft_plan(ast, wordpiece)
    example = InputExample(guid="g", meta={"a": "great movie", "b": "loved it truly"})
    wrapped = wrap_example(ast, example, plan)
    expected: list[tuple[int, int, int, int]] = []
    for seg in wrapped.segments:
        if seg.is_mask:
            expected.append((vocab.mask_id, 1, 0, -1))
        elif seg.soft_slot is not None:
            expected.append((vocab.mask_id, 0, 0, seg.soft_slot))
        else:
            for tid in wordpiece.encode(seg.text):
                expected.append((tid, 0, int(seg.shortenable), -1))
    enc = encode_wrapped(wrapped, wordpiece, max_len=64, add_special_tokens=False)
    got = [
        (enc.input_ids[i], enc.loss_ids[i], enc.shortenable_ids[i], enc.soft_slot_ids[i])
        for i in range(enc.length)
    ]
    assert got == expected


@st.composite
def _wrapped_sequence(draw) -> WrappedSequence:
    """Text, mask and soft segments; no word or soft slot appears twice."""
    segments = []
    words = iter(range(100))
    slots = iter(range(8))
    kinds = draw(st.lists(st.sampled_from(["text", "mask", "soft"]), min_size=1, max_size=8))
    for kind in kinds:
        if kind == "mask":
            segments.append(Segment(text="", is_mask=True))
        elif kind == "soft":
            segments.append(Segment(text="", soft_slot=next(slots)))
        else:
            text = " ".join(f"w{next(words)}" for _ in range(draw(st.integers(0, 10))))
            segments.append(Segment(text=text, shortenable=draw(st.booleans())))
    return WrappedSequence(segments=tuple(segments), example_guid="g")


def _stream(seq: WrappedSequence) -> list[Entry]:
    """Every position of ``seq`` before truncation, without specials."""
    stream = []
    for seg in seq.segments:
        if seg.is_mask:
            stream.append(Entry(TRUNC_VOCAB.mask_id, 1, 0, -1))
        elif seg.soft_slot is not None:
            stream.append(Entry(TRUNC_VOCAB.mask_id, 0, 0, seg.soft_slot))
        else:
            stream += [Entry(t, 0, int(seg.shortenable), -1)
                       for t in TRUNC_TOKENIZER.encode(seg.text)]
    return stream


def _encode_generated(seq, add_specials, slack):
    """The stream, the encoded positions without specials, max_len, the
    special count and the mask positions."""
    stream = _stream(seq)
    n_special = 2 if add_specials else 0
    max_len = sum(1 for e in stream if not e.shortenable) + n_special + slack
    enc = encode_wrapped(seq, TRUNC_TOKENIZER, max_len=max_len, add_special_tokens=add_specials)
    kept = _entries(enc)
    if add_specials:
        assert kept[0] == Entry(TRUNC_VOCAB.cls_id, 0, 0, -1)
        assert kept[-1] == Entry(TRUNC_VOCAB.sep_id, 0, 0, -1)
        kept = kept[1:-1]
    return stream, kept, max_len, n_special, enc.mask_positions


@settings(max_examples=300, deadline=None, derandomize=True)
@given(seq=_wrapped_sequence(), add_specials=st.booleans(), slack=st.integers(0, 40))
def test_encode_keeps_exactly_what_truncate_keeps(seq, add_specials, slack):
    stream, kept, max_len, n_special, mask_positions = _encode_generated(seq, add_specials, slack)
    want = _oracle_truncate(stream, max_len - n_special)
    assert kept == want
    assert mask_positions == [i + n_special // 2 for i, e in enumerate(want) if e.loss]


@settings(max_examples=300, deadline=None, derandomize=True)
@given(seq=_wrapped_sequence(), add_specials=st.booleans(), slack=st.integers(0, 40))
def test_truncation_invariants(seq, add_specials, slack):
    stream, kept, max_len, n_special, _ = _encode_generated(seq, add_specials, slack)
    # the length is min(total + specials, max_len)
    assert len(kept) + n_special == min(len(stream) + n_special, max_len)
    # survivors keep their order: they are a subsequence of the stream
    rest = iter(stream)
    assert all(any(e == s for s in rest) for e in kept)
    # only shortenable positions are removed
    fixed = [e for e in stream if not e.shortenable]
    assert [e for e in kept if not e.shortenable] == fixed
    # the rightmost run is cut first: the shortenable survivors are the
    # leading shortenable positions, so every cut one lies right of them
    shortenable = [e for e in stream if e.shortenable]
    survivors = [e for e in kept if e.shortenable]
    assert survivors == shortenable[: len(survivors)]


# --- totality over arbitrary text -------------------------------------------

FIXTURE_VOCAB = Vocab.from_file(Path(__file__).resolve().parent.parent / "fixtures" / "vocab.txt")
# vocabulary pieces and Unicode whitespace, so generated text also matches
# whole words and continuations, not only UNK
_PIECES = list(FIXTURE_VOCAB.tokens) + [" ", "\t", "\n", "\u3000", "\xa0", "##"]
_TEXT = st.one_of(st.text(), st.lists(st.one_of(st.sampled_from(_PIECES), st.text(max_size=3)))
                  .map("".join))


@pytest.mark.parametrize("kind", list(TokenizerKind))
@settings(max_examples=400, deadline=None, derandomize=True)
@given(text=_TEXT, limit=st.integers(0, 12))
def test_tokenizers_are_total_and_encode_ids_of_tokenize(kind, text, limit):
    tokenizer = build_tokenizer(kind, FIXTURE_VOCAB)
    try:
        pieces = tokenizer.tokenize(text)
        ids = tokenizer.encode(text)
        limited = tokenizer.encode(text, limit)
    except PromptPipeError:
        return  # the only kind of error a tokenizer may raise
    get, unk = FIXTURE_VOCAB.ids.get, FIXTURE_VOCAB.unk_id
    assert ids == [get(piece, unk) for piece in pieces]
    assert limited == ids[:limit]
