from __future__ import annotations

import builtins
import json
import os
import threading
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from promptpipe import Dataset, InputExample, fewshot_sample, load_jsonl, textfile
from promptpipe.data import SplitMix64, example_to_dict, fnv1a64
from promptpipe.errors import (
    ConfigError,
    DataError,
    DuplicateGuid,
    InsufficientExamples,
    InvalidEncoding,
    MalformedLine,
    PromptPipeError,
)

from line_reader import read_guid_lines


def write_jsonl(path, rows):
    path.write_text("".join(json.dumps(r) + "\n" for r in rows), encoding="utf-8")


def test_load_well_formed_lines(tmp_path):
    path = tmp_path / "d.jsonl"
    write_jsonl(
        path,
        [
            {"guid": "a", "label": "x", "meta": {"text": "one"}},
            {"guid": "b", "meta": {"text": "two"}},
            {"guid": "c", "label": "y", "meta": {}},
        ],
    )
    dataset = load_jsonl(path)
    assert len(dataset) == 3
    assert [ex.guid for ex in dataset] == ["a", "b", "c"]
    assert dataset.label_set == {"x", "y"}
    assert dataset.examples[1].label is None


def test_legacy_text_fields_fold_into_meta(tmp_path):
    path = tmp_path / "d.jsonl"
    write_jsonl(path, [{"guid": "a", "text_a": "left", "text_b": "right"}])
    dataset = load_jsonl(path)
    assert dataset.examples[0].meta == {"text_a": "left", "text_b": "right"}


def test_legacy_field_conflicting_with_meta_is_malformed(tmp_path):
    path = tmp_path / "d.jsonl"
    write_jsonl(path, [{"guid": "a", "text_a": "x", "meta": {"text_a": "y"}}])
    with pytest.raises(MalformedLine):
        load_jsonl(path)


def test_duplicate_guid_rejected(tmp_path):
    path = tmp_path / "d.jsonl"
    write_jsonl(path, [{"guid": "a", "meta": {}}, {"guid": "a", "meta": {}}])
    with pytest.raises(DuplicateGuid):
        load_jsonl(path)


def test_duplicate_guid_names_file_and_both_lines(tmp_path):
    path = tmp_path / "d.jsonl"
    path.write_text('{"guid": "a"}\n\n{"guid": "b"}\n{"guid": "a"}\n', encoding="utf-8")
    with pytest.raises(DuplicateGuid, match=r"d\.jsonl:4: guid 'a' already appears on line 1"):
        load_jsonl(path)
    with pytest.raises(DuplicateGuid):
        Dataset.from_examples([InputExample(guid="a", meta={})] * 2)


@pytest.mark.parametrize(
    "line, reason",
    [
        ("not json", "invalid JSON"),
        ("[1, 2]", "expected a JSON object"),
        ('{"guid": ""}', "'guid'"),
        ('{"guid": "b", "label": 3}', "'label'"),
        ('{"guid": "b", "label": ""}', "'label' must be a non-empty string"),
        ('{"guid": "b", "meta": {"text": 5}}', "meta value for 'text'"),
        ('{"guid": "b", "meta": []}', "'meta'"),
        ('{"guid": "b", "text_a": 1}', "'text_a'"),
    ],
)
def test_malformed_line_names_file_and_line(tmp_path, line, reason):
    path = tmp_path / "d.jsonl"
    path.write_text('{"guid": "a"}\r\n' + line + "\r\n", encoding="utf-8")
    with pytest.raises(MalformedLine, match=r"d\.jsonl:2: .*" + reason) as err:
        load_jsonl(path)
    assert err.value.line_no == 2


def test_malformed_line_reports_line_number(tmp_path):
    path = tmp_path / "d.jsonl"
    path.write_text('{"guid": "a", "meta": {}}\nnot json\n', encoding="utf-8")
    with pytest.raises(MalformedLine) as err:
        load_jsonl(path)
    assert err.value.line_no == 2
    write_jsonl(path, [{"guid": "a", "meta": {"k": 5}}])
    with pytest.raises(MalformedLine):
        load_jsonl(path)
    write_jsonl(path, [{"meta": {}}])
    with pytest.raises(MalformedLine):
        load_jsonl(path)


def test_save_round_trips(tmp_path):
    path = tmp_path / "d.jsonl"
    write_jsonl(
        path,
        [
            {"guid": "a", "label": "x", "meta": {"text": "café"}},
            {"guid": "b", "meta": {"text": "two"}},
        ],
    )
    dataset = load_jsonl(path)
    out = tmp_path / "out.jsonl"
    # as `sample` writes its sample
    textfile.write_jsonl(map(example_to_dict, dataset), out)
    assert load_jsonl(out) == dataset


# --- the block reader and the line reader -------------------------------------

# far past the decoder's recursion limit from any caller, so both readers fail
_DEEP = "[" * 100_000 + "]" * 100_000

# lines that both readers must read alike, valid or not, written as UTF-8
_ODD_LINES = [
    # blank: every character is whitespace to str.isspace
    "", " ", "\t", " \t ", "\x0c", "\x85", "\u2028",
    # valid, with JSON whitespace around the record or odd characters inside strings
    '  {"guid": "i1"}  ', '\t{"guid": "i2"}\t',
    '{"guid": "c2", "meta": {"t": "a\u2028b\x85c"}}', '{"guid": "c3", "meta": {"t": "a\\fb"}}',
    '{"guid": "u3", "meta": {"t": "\\ud83d\\ude00"}}', '{"guid": "x1", "other": [1, {"k": null}]}',
    # legacy fields: the line reader's alone
    '{"guid": "l1", "text_a": "x"}', '{"guid": "l2", "text_a": "x", "meta": {"text_a": "y"}}',
    '{"guid": "l3", "text_b": 5}',
    # invalid JSON: a raw control character, a mid-file byte-order mark, a repeated key at
    # each depth, two values on a line, a trailing comma, and a record cut over two lines
    '{"guid": "c1", "meta": {"t": "a\x0cb"}}', '\ufeff{"guid": "b1"}', '{"guid": "w1"}\x0c',
    '\x0c{"guid": "w2"}', '{"guid": "w3"}\u2028', '{"guid": "w4"} \x85',
    '{"guid": "r1", "guid": "r2"}', '{"guid": "r3", "meta": {"t": "x", "t": "y"}}',
    '{"guid": "r4", "x": [{"k": 1, "k": 2}]}', '{"guid": "t1"} {"guid": "t2"}',
    '{"guid": "t3"}, {"guid": "t4"}', '{"guid": "t5"},', '{"guid": "p1", "x": [1', '2]}',
    '{"guid": "p2"}, {"guid": "p3"}', '{"guid": "d1", "x": ' + _DEEP + '}',
    # not an object, or a bad guid, meta or label
    "[1]", "5", '"s"', "null", '{"meta": {"t": "x"}}', '{"guid": ""}', '{"guid": 5}',
    '{"guid": "m1", "meta": {"t": 5}}', '{"guid": "m2", "meta": []}', '{"guid": "m3", "meta": null}',
    '{"guid": "m4", "label": ""}',
    # lone surrogates
    '{"guid": "u1", "meta": {"t": "\\ud800"}}', '{"guid": "u\\udfff"}',
    '{"guid": "u2", "label": "\\ud83d"}', '{"guid": "u4", "meta": {"\\udc00": "x"}}',
]
# bytes that are not UTF-8: a stray byte, a cut sequence, an encoded surrogate
_BAD_BYTES = [b'{"guid": "n1", "meta": {"t": "\xff"}}', b'{"guid": "n2\xc3"}', b"\xed\xa0\x80"]


@st.composite
def _dataset_files(draw) -> bytes:
    """A dataset file's bytes: records, most of them valid, blank lines, and
    in most files one or two odd lines or lines of bytes that are not UTF-8,
    with any line ends and maybe a BOM."""
    record = st.builds(
        lambda guid, meta, label, spaced, ascii: json.dumps(
            {"guid": guid, **({"label": label} if label else {}), "meta": meta},
            ensure_ascii=ascii, separators=(", ", ": ") if spaced else (",", ":")),
        st.sampled_from(["a", "b", "c", "d", "é", "e\u2028"]),
        st.dictionaries(st.sampled_from(["t", "u", "ü"]),
                        st.text(alphabet='ab "\\\u2028\x85\x0c\x1fé😀', max_size=4), max_size=2),
        st.sampled_from([None, "pos", "nég"]), st.booleans(), st.booleans())
    lines = draw(st.lists(st.one_of(record, st.sampled_from(["", " "])).map(str.encode),
                          max_size=6))
    odd = st.sampled_from([line.encode() for line in _ODD_LINES] + _BAD_BYTES)
    for line in draw(st.lists(odd, max_size=2)):
        lines.insert(draw(st.integers(0, len(lines))), line)
    ends = draw(st.lists(st.sampled_from([b"\n", b"\r\n", b"\r"]), min_size=len(lines),
                         max_size=len(lines)))
    if lines and draw(st.booleans()):
        ends[-1] = b""  # no line end after the last line
    bom = b"\xef\xbb\xbf" if draw(st.booleans()) else b""
    return bom + b"".join(line + end for line, end in zip(lines, ends))


def _parse_example(path, line_no: int, guid: str, obj: dict) -> InputExample:
    """The line's example; the legacy ``text_a``/``text_b`` fields fold into ``meta``."""
    meta = obj.get("meta", {})
    for legacy in ("text_a", "text_b"):
        if legacy in obj and isinstance(meta, dict):
            if legacy in meta:
                raise MalformedLine(path, line_no, f"{legacy!r} given both top-level and in meta")
            meta = {**meta, legacy: obj[legacy]}
    try:
        return InputExample(guid=guid, meta=meta, label=obj.get("label"))
    except DataError as exc:
        raise MalformedLine(path, line_no, str(exc)) from None


def _read_by_lines(path) -> Dataset:
    """The dataset as a line reader gives it, the oracle of load_jsonl's one
    pass: each line read by the test-local line reader, which checks UTF-8,
    JSON, object, guid and repeated guid, then folded and built."""
    return Dataset.from_examples(_parse_example(path, line_no, guid, record)
                                 for line_no, guid, record in read_guid_lines(path))


def _outcome(read):
    try:
        return read()
    except PromptPipeError as exc:
        return type(exc), str(exc)


@settings(max_examples=500, deadline=None, derandomize=True)
@given(file=_dataset_files(), block=st.sampled_from([None, 1, 3, 40]))
# three bad lines that, joined by commas into one JSON array, would read as
# three records: a value cut over two lines, then two values on one line
@example(file=b'{"guid": "p1", "x": [1\n2]}\n{"guid": "p2"}, {"guid": "p3"}\n', block=None)
@example(file=b'{"guid": "p1", "x": [{}\n{}]}\r{"guid": "p2"},{"guid": "p3"}', block=1)
def test_load_jsonl_gives_the_line_readers_dataset_or_error(tmp_path_factory, file, block):
    """Whatever the file and the block size, load_jsonl gives the dataset the
    line reader gives, or raises its error: the same type and message."""
    path = tmp_path_factory.mktemp("blocks") / "d.jsonl"
    path.write_bytes(file)
    expected = _outcome(lambda: _read_by_lines(path))
    with mock.patch.object(textfile, "_BLOCK", block or textfile._BLOCK):
        assert _outcome(lambda: load_jsonl(path)) == expected


# valid datasets: crafted ones, and the fixtures every golden reads
VALID_DATASETS = {
    "lf": '{"guid": "a", "meta": {"text": "x"}}\n\n{"guid": "b", "label": "y"}\n',
    "bom_crlf_cr": '\ufeff{"guid": "a"}\r\n \t\r\n{"guid": "b", "meta": {"k": "\u2028"}}\r{"guid": "c"}',
    "sentiment": None,
    "topics": None,
}


@pytest.mark.parametrize("name", VALID_DATASETS)
def test_a_valid_dataset_loads_without_the_line_reader(fixtures_dir, tmp_path, monkeypatch, name):
    text = VALID_DATASETS[name]
    path = fixtures_dir / f"{name}.jsonl" if text is None else tmp_path / "d.jsonl"
    if text is not None:
        path.write_text(text, encoding="utf-8", newline="")
    expected = _read_by_lines(path)
    assert len(expected) >= 2

    def refuse(*args, **kwargs):
        raise AssertionError("the line reader was used")

    monkeypatch.setattr(textfile, "read_spans", refuse)
    assert load_jsonl(path) == expected


@pytest.mark.parametrize("path", [5, 0, None, "", b"d.jsonl"])
def test_a_path_that_is_not_a_file_path_is_refused_before_any_open(monkeypatch, path):
    """``open(5)`` would open, and close, file descriptor 5."""
    def refuse(target, *args, **kwargs):
        raise AssertionError(f"{target!r} was opened")

    monkeypatch.setattr(builtins, "open", refuse)
    monkeypatch.setattr(os, "stat", refuse)
    with pytest.raises(ConfigError, match=f"^input must be a file path, got {path!r}$"):
        load_jsonl(path)


def _load_from_pipe(fifo, data: bytes):
    """``load_jsonl(fifo)`` while a thread writes ``data`` into the named pipe."""
    def write():
        with open(fifo, "wb") as handle:
            handle.write(data)

    writer = threading.Thread(target=write, daemon=True)
    writer.start()
    try:
        return load_jsonl(fifo)
    finally:
        writer.join(timeout=10)
        assert not writer.is_alive()


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
def test_a_pipe_is_read_once_by_the_line_reader(tmp_path):
    """A pipe cannot be read a second time, and it never needs to be: the one
    pass over its lines loads a legacy record, and names the first bad line
    itself, here line 2, not UTF-8, before line 3, not JSON."""
    fifo = tmp_path / "d.jsonl"
    os.mkfifo(fifo)
    dataset = _load_from_pipe(fifo, b'{"guid": "a", "text_a": "x"}\n')
    assert dataset == Dataset((InputExample("a", {"text_a": "x"}),))
    with pytest.raises(InvalidEncoding) as failure:
        _load_from_pipe(fifo, b'{"guid": "a"}\n{"guid": "b\xff"}\n{"guid": \n')
    assert str(failure.value) == f"{fifo}:2: not valid UTF-8 (byte 0xff: invalid start byte)"


@pytest.mark.parametrize(("line", "message"), [
    ('{"guid": "s\\ud800"}', "'guid' must not hold a lone surrogate, got 's\\ud800'"),
    ('{"guid": "a", "label": "\\udfff"}',
     "'label' must not hold a lone surrogate, got '\\udfff'"),
    ('{"guid": "a", "meta": {"k\\ud800": "x"}}',
     "meta key must not hold a lone surrogate, got 'k\\ud800'"),
    ('{"guid": "a", "meta": {"text": "\\ud800"}}',
     "meta value for 'text' must not hold a lone surrogate, got '\\ud800'"),
], ids=["guid", "label", "meta_key", "meta_value"])
def test_a_lone_surrogate_is_refused_where_the_dataset_is_read(tmp_path, line, message):
    """No output could write it: a UTF-8 encoder refuses a lone surrogate."""
    path = tmp_path / "d.jsonl"
    path.write_text('{"guid": "ok", "meta": {"text": "é"}}\n' + line + "\n", encoding="utf-8")
    with pytest.raises(MalformedLine) as failure:
        load_jsonl(path)
    assert str(failure.value) == f"{path}:2: {message}"
    record = json.loads(line)
    with pytest.raises(DataError) as failure:
        InputExample(record["guid"], record.get("meta", {}), record.get("label"))
    assert str(failure.value) == message


def test_a_surrogate_pair_is_one_character_and_loads(tmp_path):
    path = tmp_path / "d.jsonl"
    path.write_text('{"guid": "a", "meta": {"text": "\\ud83d\\ude00"}}\n', encoding="utf-8")
    assert load_jsonl(path).examples[0].meta == {"text": "\U0001F600"}


# --- PRNG reference vectors ---------------------------------------------------


def test_splitmix64_published_outputs():
    gen = SplitMix64(0)
    assert [gen.next() for _ in range(3)] == [
        0xE220A8397B1DCDAF,
        0x6E789E6AA1B965F4,
        0x06C45D188009454F,
    ]


def test_fnv1a64_published_outputs():
    assert fnv1a64(b"") == 0xCBF29CE484222325
    assert fnv1a64(b"a") == 0xAF63DC4C8601EC8C
    assert fnv1a64(b"foobar") == 0x85944171F73967E8


# --- few-shot sampling ----------------------------------------------------------


def test_fewshot_golden_sample(fixtures_dir):
    dataset = load_jsonl(fixtures_dir / "topics.jsonl")
    sample = fewshot_sample(dataset, 2, 7)
    assert [ex.guid for ex in sample] == ["t03", "t01", "t08", "t10"]
    golden = load_jsonl(fixtures_dir / "golden" / "fewshot_topics_k2_seed7.jsonl")
    assert sample == golden


def test_fewshot_balance_and_subset(fixtures_dir):
    dataset = load_jsonl(fixtures_dir / "topics.jsonl")
    sample = fewshot_sample(dataset, 3, 123)
    by_label: dict[str, int] = {}
    for ex in sample:
        by_label[ex.label] = by_label.get(ex.label, 0) + 1
    assert by_label == {"sports": 3, "world": 3}
    guids = [ex.guid for ex in sample]
    assert len(set(guids)) == len(guids)
    assert set(guids) <= {ex.guid for ex in dataset}


def test_fewshot_k_equal_to_class_size_permutes_whole_class(fixtures_dir):
    dataset = load_jsonl(fixtures_dir / "topics.jsonl")
    sample = fewshot_sample(dataset, 5, 7)
    assert len(sample) == 10
    assert {ex.guid for ex in sample} == {ex.guid for ex in dataset}
    assert [ex.guid for ex in sample] != [ex.guid for ex in dataset.examples]


def test_fewshot_strict_insufficient(fixtures_dir):
    dataset = load_jsonl(fixtures_dir / "topics.jsonl")
    with pytest.raises(InsufficientExamples) as err:
        fewshot_sample(dataset, 6, 7)
    assert err.value.have == 5 and err.value.need == 6


def test_fewshot_lenient_takes_whole_class(fixtures_dir):
    dataset = load_jsonl(fixtures_dir / "topics.jsonl")
    with pytest.warns(UserWarning):
        sample = fewshot_sample(dataset, 6, 7, strict=False)
    assert len(sample) == 10


@pytest.mark.parametrize("k, seed, message", [
    (2.5, 7, "'k_per_class' must be an integer, got 2.5"),
    (True, 7, "'k_per_class' must be an integer, got True"),
    (2, "x", "'seed' must be an integer, got 'x'"),
    (2, None, "'seed' must be an integer, got None"),
])
def test_fewshot_rejects_counts_that_are_not_integers(fixtures_dir, k, seed, message):
    dataset = load_jsonl(fixtures_dir / "topics.jsonl")
    with pytest.raises(ConfigError) as failure:
        fewshot_sample(dataset, k, seed)
    assert str(failure.value) == message


def test_fewshot_skips_unlabeled():
    examples = [InputExample(guid=f"g{i}", meta={}, label="x") for i in range(3)]
    examples.append(InputExample(guid="u", meta={}))
    dataset = Dataset.from_examples(examples)
    sample = fewshot_sample(dataset, 3, 0)
    assert all(ex.label == "x" for ex in sample)


def test_fewshot_deterministic_and_seed_sensitive(fixtures_dir):
    dataset = load_jsonl(fixtures_dir / "topics.jsonl")
    runs = [tuple(ex.guid for ex in fewshot_sample(dataset, 2, 7)) for _ in range(3)]
    assert len(set(runs)) == 1
    other = tuple(ex.guid for ex in fewshot_sample(dataset, 2, 8))
    assert other != runs[0]


def test_disjoint_dev_sample_from_the_remaining_examples(fixtures_dir):
    dataset = load_jsonl(fixtures_dir / "topics.jsonl")
    train = fewshot_sample(dataset, 2, 7)
    taken = {ex.guid for ex in train}
    rest = Dataset.from_examples(ex for ex in dataset if ex.guid not in taken)
    dev = fewshot_sample(rest, 2, 7)
    assert not {ex.guid for ex in train} & {ex.guid for ex in dev}
