"""Every input file is read as UTF-8 with an optional byte-order mark;
bytes that are not UTF-8 raise an error naming the file and the line.
Every JSON or YAML input rejects a repeated key, every reader takes
only a ``str`` or ``os.PathLike`` path, and an input that cannot be
opened is an ``UnreadableFile`` naming it."""

from __future__ import annotations

import builtins
import json
import re
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from promptpipe import (
    PipelineConfig,
    TokenizedInput,
    ToyScorer,
    Vocab,
    build_tokenizer,
    load_jsonl,
    load_template_file,
    load_verbalizer,
    parse_template,
)
from promptpipe.errors import (
    ConfigError,
    DuplicateClass,
    InvalidEncoding,
    MalformedLine,
    PromptPipeError,
    UnreadableFile,
    VerbalizerError,
)
from promptpipe import textfile
from promptpipe.logits import LogitsFileScorer, read_logits_records
from promptpipe.textfile import decode_line, read_lines, read_spans, write_jsonl

BOM = b"\xef\xbb\xbf"  # U+FEFF in UTF-8


def _vocab_tokens(fixtures_dir) -> list[str]:
    return (fixtures_dir / "vocab.txt").read_text(encoding="utf-8").split("\n")[:-1]


def _read_vocab(path, fixtures_dir):
    return Vocab.from_file(path)


def _read_templates(path, fixtures_dir):
    return load_template_file(path)


def _read_dataset(path, fixtures_dir):
    return load_jsonl(path)


def _read_logits(path, fixtures_dir):
    return [(guid, rows.tolist()) for guid, rows in read_logits_records(path, 3)]


def _read_verbalizer(path, fixtures_dir):
    vocab = Vocab.from_file(fixtures_dir / "vocab.txt")
    return load_verbalizer(path, build_tokenizer("wordpiece", vocab))


def _read_frequencies(path, fixtures_dir):
    scorer = ToyScorer.from_file(path, Vocab.from_file(fixtures_dir / "vocab.txt"))
    return scorer("g", TokenizedInput([], [], [], [], [], mask_positions=[0])).tolist()


def _read_config(path, fixtures_dir):
    return PipelineConfig.from_file(path)


# reader, then at least three lines of a valid file in its format
READERS = {
    "vocab": (_read_vocab, None),
    "template": (_read_templates, ['# templates', '{"mask"} x', 'It is {"mask"}']),
    "dataset": (_read_dataset, [json.dumps({"guid": g, "meta": {"t": "x"}}) for g in "abc"]),
    "logits": (_read_logits, [json.dumps({"guid": g, "mask_logits": [[0, 1, 2]]}) for g in "abc"]),
    # short decimals: read from their bytes, never decoded to text
    "logits_decimal": (_read_logits, [json.dumps({"guid": g, "mask_logits": [[0.5, -1.25, 2.0]]})
                                      for g in "abc"]),
    "verbalizer": (_read_verbalizer, ["{", '"negative": ["bad"],', '"positive": ["good"]}']),
    "frequency": (_read_frequencies, ["{", '"great": 1.0,', '"bad": 2.0}']),
    "config": (_read_config, ["templates: [t.txt]", "dataset: d.jsonl", "vocab: v.txt",
                              "verbalizer: b.json", "frequency_file: f.json", "max_len: 16"]),
}


def _lines(name, fixtures_dir) -> list[str]:
    lines = READERS[name][1]
    return _vocab_tokens(fixtures_dir) if lines is None else lines


@pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"])
@pytest.mark.parametrize("name", sorted(READERS))
def test_invalid_utf8_names_file_and_line(fixtures_dir, tmp_path, name, newline):
    read, _ = READERS[name]
    lines = _lines(name, fixtures_dir)
    path = tmp_path / f"{name}.txt"
    data = newline.join(lines[:1] + [lines[1] + "\udcff"] + lines[2:]) + newline
    path.write_bytes(data.encode("utf-8", "surrogateescape"))
    with pytest.raises(InvalidEncoding) as failure:
        read(path, fixtures_dir)
    assert str(failure.value).startswith(f"{path}:2: not valid UTF-8 (byte 0xff")


@pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"])
def test_invalid_utf8_in_the_guid_of_a_decimal_line_names_the_line(tmp_path, newline):
    lines = READERS["logits_decimal"][1].copy()
    lines[1] = lines[1].replace('"b"', '"b\udcff"')
    path = tmp_path / "logits.jsonl"
    path.write_bytes((newline.join(lines) + newline).encode("utf-8", "surrogateescape"))
    message = f"{path}:2: not valid UTF-8 (byte 0xff: invalid start byte)"
    with pytest.raises(InvalidEncoding, match=f"^{re.escape(message)}$"):
        list(read_logits_records(path, 3))
    # a line whose record is only checked, not converted, alike
    with pytest.raises(InvalidEncoding, match=f"^{re.escape(message)}$"):
        LogitsFileScorer(path, 3, guids=["a"])


@pytest.mark.parametrize("first", ["not UTF-8", "bad record"])
@pytest.mark.parametrize("name", ["dataset", "logits", "logits_decimal"])
def test_the_first_bad_line_in_the_file_gives_the_error(fixtures_dir, tmp_path, name, first):
    """Each line is decoded as it is read, so of a line that is not UTF-8 and
    a bad record, the error is the one of the line that comes first."""
    read, lines = READERS[name]
    undecodable, bad = lines[0].encode() + b"\xff", b"[1, 2]"
    if first == "bad record":
        undecodable, bad = bad, undecodable
    path = tmp_path / f"{name}.jsonl"
    path.write_bytes(b"\n".join([undecodable, lines[1].encode(), bad]) + b"\n")
    error = InvalidEncoding if first == "not UTF-8" else MalformedLine
    with pytest.raises(error, match=f"^{re.escape(str(path))}:1: "):
        read(path, fixtures_dir)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    parts=st.lists(st.sampled_from(["a", "é", "\n", "\r", "\r\n", "\ufeff", "\x0c", "\u2028"])),
    bom=st.booleans(),
    size=st.integers(4, 9),
)
def test_read_lines_reads_as_text_mode_does(tmp_path_factory, parts, bom, size):
    """Lines end at \\n, \\r\\n or \\r, one leading byte-order mark is
    dropped, and a line or line end cut by the buffer's end reads the same."""
    from unittest import mock

    path = tmp_path_factory.mktemp("lines") / "lines.txt"
    path.write_bytes((BOM if bom else b"") + "".join(parts).encode("utf-8"))
    with open(path, encoding="utf-8-sig") as handle:
        expected = list(enumerate(handle, start=1))
    with mock.patch.object(textfile, "_BUFFER", size):
        assert list(read_lines(path)) == expected


def test_lines_ending_at_a_lone_cr_are_framed_in_linear_time(tmp_path, monkeypatch):
    """The byte reader that frames every logits line, read_spans, frames a
    file of many short lines with a bounded number of bytes scanned per
    byte at the real buffer size, whichever line end it uses: a line
    ending at a lone \r does not scan the rest of the buffer for a \n
    that is not there."""
    scanned = 0

    class Buffer(bytearray):
        def find(self, sub, start, end):
            nonlocal scanned
            found = super().find(sub, start, end)
            scanned += (end if found < 0 else found + 1) - start
            return found

    monkeypatch.setattr(textfile, "bytearray", Buffer, raising=False)
    lines = [f"line {i}".ljust(39, ".") for i in range(30_000)]  # 1.2 MB: more than one buffer
    for newline in ("\n", "\r\n", "\r"):
        path = tmp_path / "lines.txt"
        path.write_bytes((newline.join(lines) + newline).encode())
        scanned = 0
        spans = [decode_line(path, *span) for span in read_spans(path)]
        assert spans == [line + "\n" for line in lines]
        # the count must cover the file: a reader that scans no patched buffer
        # would pass the bound with nothing counted
        assert path.stat().st_size <= scanned <= 3 * path.stat().st_size, repr(newline)


@pytest.mark.parametrize("name", sorted(READERS))
def test_byte_order_mark_is_dropped(fixtures_dir, tmp_path, name):
    read, _ = READERS[name]
    text = "\n".join(_lines(name, fixtures_dir)) + "\n"
    plain, marked = tmp_path / f"plain_{name}.txt", tmp_path / f"bom_{name}.txt"
    plain.write_bytes(text.encode("utf-8"))
    marked.write_bytes(BOM + text.encode("utf-8"))
    assert read(marked, fixtures_dir) == read(plain, fixtures_dir)


def test_vocab_with_bom_keeps_line_number_ids(fixtures_dir, tmp_path):
    path = tmp_path / "vocab.txt"
    path.write_bytes(BOM + (fixtures_dir / "vocab.txt").read_bytes())
    vocab = Vocab.from_file(path)
    assert vocab.tokens == tuple(_vocab_tokens(fixtures_dir))
    assert [vocab.ids[token] for token in vocab.tokens] == list(range(len(vocab)))
    assert vocab.pad_id == 0


def test_template_with_bom_has_no_bom_text(tmp_path):
    path = tmp_path / "templates.txt"
    path.write_bytes(BOM + b'{"mask"} is it\n')
    (ast,) = load_template_file(path)
    assert ast.nodes == parse_template('{"mask"} is it').nodes


def test_dataset_with_bom_loads(tmp_path):
    path = tmp_path / "data.jsonl"
    path.write_bytes(BOM + b'{"guid": "a", "meta": {"text": "x"}}\n')
    assert [ex.guid for ex in load_jsonl(path)] == ["a"]


def test_bom_after_the_start_is_text(tmp_path):
    path = tmp_path / "templates.txt"
    path.write_bytes(b'{"mask"}\n' + BOM + b"x\n")
    assert load_template_file(path)[1].nodes[0].text == "\ufeffx"


def test_write_jsonl_writes_the_bytes_json_dumps_gives(tmp_path, capsys):
    records = [
        {"guid": "ü1", "text": 'café "q" \\ \t\n\u2028\u2029 😀 日本', "scores": [0.1, -2.5e-300, 1e16]},
        {"nested": {"k": [None, True, False, 3]}, "nan": float("nan"), "inf": float("-inf")},
    ]
    want = "".join(json.dumps(r, ensure_ascii=False) + "\n" for r in records)
    path = tmp_path / "out.jsonl"
    write_jsonl(records, path)
    assert path.read_bytes() == want.encode("utf-8")
    write_jsonl(iter(records))
    assert capsys.readouterr().out == want


# input, file name, a file whose last object repeats a key (on line 2 of
# each JSONL file), the key and the error
REPEATED_KEYS = {
    "dataset": ("dataset", "d.jsonl", '{"guid": "a", "meta": {"t": "x"}}\n'
                '{"guid": "b", "meta": {"t": "x"}, "guid": "c"}\n', "guid", MalformedLine),
    "dataset_meta": ("dataset", "d.jsonl", '{"guid": "a", "meta": {"t": "x"}}\n'
                     '{"guid": "b", "meta": {"t": "x", "t": "y"}}\n', "t", MalformedLine),
    "logits": ("logits", "l.jsonl", '{"guid": "a", "mask_logits": [[0, 1, 2]]}\n'
               '{"guid": "b", "mask_logits": [[0, 1, 2]], "guid": "c"}\n', "guid", MalformedLine),
    "verbalizer": ("verbalizer", "v.json", '{"positive": ["good"], "negative": ["bad"], '
                   '"positive": ["great"]}', "positive", DuplicateClass),
    # a key repeated below the top level names no class
    "verbalizer_nested": ("verbalizer", "v.json", '{"positive": ["good"], '
                          '"negative": {"x": 1, "x": 2}}', "x", UnreadableFile),
    "frequency": ("frequency", "f.json", '{"great": 1.0, "bad": 2.0, "great": 3.0}', "great",
                  ConfigError),
    "json_config": ("config", "c.json", '{"templates": ["t.txt"], "max_len": 32, "max_len": 8}',
                    "max_len", ConfigError),
    "yaml_config": ("config", "c.yaml", "templates: [t.txt]\nmax_len: 32\nmax_len: 8\n",
                    "max_len", ConfigError),
}


@pytest.mark.parametrize("case", REPEATED_KEYS)
def test_a_repeated_key_is_an_error_naming_file_and_key(fixtures_dir, tmp_path, case):
    name, file_name, text, key, error = REPEATED_KEYS[case]
    path = tmp_path / file_name
    path.write_text(text, encoding="utf-8")
    with pytest.raises(error) as failure:
        READERS[name][0](path, fixtures_dir)
    message = str(failure.value)
    assert str(path) in message
    assert repr(key) in message
    if path.suffix == ".jsonl":
        assert message.startswith(f"{path}:2: ")


_DEEP = "[" * 50_000 + "]" * 50_000

# input, file name, a file nested past the decoder's recursion limit (on line
# 2 of each JSONL file), the error and the start of its message
DEEP_VALUES = {
    "dataset": ("dataset", "d.jsonl", '{"guid": "a", "meta": {"t": "x"}}\n'
                '{"guid": "b", "meta": {"t": "x"}, "x": %s}\n' % _DEEP, MalformedLine,
                "{path}:2: invalid JSON: maximum recursion depth exceeded"),
    "logits": ("logits", "l.jsonl", '{"guid": "a", "mask_logits": [[0, 1, 2]]}\n'
               '{"guid": "b", "mask_logits": %s}\n' % _DEEP, MalformedLine,
               "{path}:2: invalid JSON: maximum recursion depth exceeded"),
    "verbalizer": ("verbalizer", "v.json", '{"positive": %s}' % _DEEP, UnreadableFile,
                   "verbalizer file {path} is not valid JSON: maximum recursion depth exceeded"),
    "json_config": ("config", "c.json", '{"dataset": %s}' % _DEEP, ConfigError,
                    "config file {path} is not valid JSON: maximum recursion depth exceeded"),
    "yaml_config": ("config", "c.yaml", "dataset: " + "[" * 5000 + "]" * 5000 + "\n",
                    ConfigError,
                    "config file {path} is not valid YAML: maximum recursion depth exceeded"),
}


@pytest.mark.parametrize("case", DEEP_VALUES)
def test_a_value_nested_too_deeply_is_an_error_naming_the_file(fixtures_dir, tmp_path, case):
    """Past the decoder's recursion limit a value is bad input, not a crash."""
    name, file_name, text, error, start = DEEP_VALUES[case]
    path = tmp_path / file_name
    path.write_text(text, encoding="utf-8")
    with pytest.raises(error) as failure:
        READERS[name][0](path, fixtures_dir)
    assert str(failure.value).startswith(start.format(path=path))


def _called_from(frames: int, call):
    """``call()``, made ``frames`` Python frames deeper than this one."""
    return call() if frames == 0 else _called_from(frames - 1, call)


@pytest.mark.parametrize("frames", [0, 500])
def test_the_nesting_limit_is_the_files_not_the_stacks(fixtures_dir, tmp_path, frames):
    """A record nested MAX_DEPTH deep loads and one a level deeper is refused,
    however deep the caller's stack; brackets inside strings do not nest."""
    from promptpipe.textfile import MAX_DEPTH

    def dataset(depth: int):
        inner = "[" * (depth - 1) + "]" * (depth - 1)
        path = tmp_path / f"d{depth}.jsonl"
        path.write_text('{"guid": "a", "meta": {"t": "[{\\"[ %s"}}\n'
                        '{"guid": "b", "meta": {"t": "x"}, "x": %s}\n' % ("[{" * 200, inner),
                        encoding="utf-8")
        return path

    assert MAX_DEPTH == 100
    loaded = _called_from(frames, lambda: READERS["dataset"][0](dataset(100), fixtures_dir))
    assert [example.guid for example in loaded.examples] == ["a", "b"]
    assert loaded.examples[0].meta["t"] == '[{"[ ' + "[{" * 200
    path = dataset(101)
    with pytest.raises(MalformedLine) as failure:
        _called_from(frames, lambda: READERS["dataset"][0](path, fixtures_dir))
    assert str(failure.value).startswith(
        f"{path}:2: invalid JSON: maximum recursion depth exceeded")


@pytest.mark.parametrize("name", ["logits", "logits_decimal"])
def test_a_logits_guid_with_a_lone_surrogate_names_its_line(fixtures_dir, tmp_path, name):
    """No output could write the guid: a UTF-8 encoder refuses a lone surrogate."""
    lines = _lines(name, fixtures_dir)
    path = tmp_path / "l.jsonl"
    path.write_text("\n".join([lines[0], lines[1].replace('"b"', '"s\\ud800"')]) + "\n",
                    encoding="utf-8")
    message = f"{path}:2: 'guid' must not hold a lone surrogate, got 's\\ud800'"
    with pytest.raises(MalformedLine, match=f"^{re.escape(message)}$"):
        READERS[name][0](path, fixtures_dir)


@pytest.mark.parametrize(("text", "key", "line", "column"), [
    ("templates: [t.txt]\nmax_len: 32\nmax_len: 8\n", "max_len", 3, 1),
    ("templates: [t.txt]\nx:\n  a: 1\n  a: 2\n", "a", 4, 3),
    # a merge gives its keys first, so the mapping's own key is the repeat
    ("base: &b {max_len: 3}\n<<: *b\nmax_len: 8\n", "max_len", 3, 1),
], ids=["top_level", "nested", "after_merge"])
def test_a_repeated_yaml_key_names_its_line_and_column(tmp_path, text, key, line, column):
    path = tmp_path / "c.yaml"
    path.write_text(text, encoding="utf-8")
    message = (f"config file {path} is not valid YAML at line {line}, column {column}: "
               f"repeated key {key!r}")
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        PipelineConfig.from_file(path)


@pytest.mark.parametrize("path", [5, 0, None, "", b"data.jsonl"])
@pytest.mark.parametrize("name", sorted(READERS))
def test_a_path_that_is_not_str_or_pathlike_is_a_config_error(fixtures_dir, name, path):
    read, _ = READERS[name]
    message = f"input must be a file path, got {path!r}"
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        read(path, fixtures_dir)


@pytest.mark.parametrize("output", [5, 0, "", b"out.jsonl"])
def test_write_jsonl_takes_a_file_path_or_none(output, capsys):
    message = f"output must be a file path, got {output!r}"
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        write_jsonl([{"a": 1}], output)
    write_jsonl([{"a": 1}], None)
    assert capsys.readouterr().out == '{"a": 1}\n'


# every public loader of an input file, the replaying scorer too
LOADERS = {**{name: read for name, (read, _) in READERS.items()},
           "logits_scorer": lambda path, fixtures_dir: LogitsFileScorer(path, 3)}


@pytest.mark.parametrize("suffix", [".json", ".yaml"])
@pytest.mark.parametrize("kind", ["missing", "directory"])
@pytest.mark.parametrize("name", sorted(LOADERS))
def test_an_input_that_cannot_be_opened_is_an_unreadable_file(fixtures_dir, tmp_path, name,
                                                                kind, suffix):
    """One rule for every input, where the file is opened: UnreadableFile,
    a PromptPipeError naming the file, never a bare OSError."""
    path = tmp_path / f"{kind}{suffix}"
    if kind == "directory":
        path.mkdir()
    reason = "No such file or directory" if kind == "missing" else "Is a directory"
    with pytest.raises(UnreadableFile) as failure:
        LOADERS[name](path, fixtures_dir)
    assert str(failure.value) == f"cannot read {path}: {reason}"
    assert isinstance(failure.value, PromptPipeError)
    assert not isinstance(failure.value, (OSError, VerbalizerError))


# a reader, at least three lines of a valid file in its format (the
# vocabulary's are the fixture's), and a third line that breaks it
ONE_OPEN = {
    "dataset": (_read_dataset, ['{"guid": "a"}', '{"guid": "b"}', '{"guid": "c"}'],
                '{"guid": "c", "meta": 5}'),
    "vocab": (_read_vocab, None, ""),
    "template": (_read_templates, ['# templates', '{"mask"} x', 'It is {"mask"}'], '{"mask" x'),
}


@pytest.mark.parametrize("third", ["valid", "not UTF-8", "bad"])
@pytest.mark.parametrize("name", sorted(ONE_OPEN))
def test_an_input_is_opened_once_valid_or_not(fixtures_dir, tmp_path, monkeypatch, name, third):
    """A text input is read in one pass: a valid file, one whose line 3 is
    not UTF-8 and one whose line 3 is bad are each opened exactly once."""
    read, lines, bad = ONE_OPEN[name]
    lines = list(_vocab_tokens(fixtures_dir) if lines is None else lines)
    if third == "not UTF-8":
        lines[2] += "\udcff"
    elif third == "bad":
        lines[2] = bad
    path = tmp_path / f"{name}.txt"
    path.write_bytes(("\n".join(lines) + "\n").encode("utf-8", "surrogateescape"))
    opened = []
    real_open = builtins.open

    def counting_open(file, *args, **kwargs):
        opened.append(file)
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr(builtins, "open", counting_open)
    if third == "valid":
        read(path, fixtures_dir)
    else:
        with pytest.raises(PromptPipeError, match=f"^{re.escape(str(path))}:3: "):
            read(path, fixtures_dir)
    assert opened == [path]


def _spans_or_error(path) -> list:
    """The byte reader's lines, each decoded as the logits reader decodes
    it, then the message of the first line that is not UTF-8, if any."""
    got = []
    try:
        for line_no, *span in read_spans(path):
            got.append((line_no, decode_line(path, line_no, *span)))
    except InvalidEncoding as exc:
        got.append(str(exc))
    return got


def _lines_or_error(read) -> list:
    got = []
    try:
        got.extend(read())
    except InvalidEncoding as exc:
        got.append(str(exc))
    return got


@settings(max_examples=500, deadline=None, derandomize=True)
@given(
    parts=st.lists(st.sampled_from(
        [b"a", b" ", "\u00e9".encode(), "\u2028".encode(), "\x85".encode(), b"\n", b"\r",
         b"\r\n", BOM, b"\xff", b"\x80", b"\xc3", b"\xe2\x80", b"\xed\xa0\x80", b"\xf0\x9f"]),
        max_size=12),
    block=st.sampled_from([1, 3, 16, 1 << 16]),
)
def test_the_text_pass_names_the_line_and_byte_the_byte_reader_names(tmp_path_factory, parts,
                                                                      block):
    """Whatever bytes a file holds, the one text pass (read_lines, and so
    read_line_blocks, and read_text) gives the lines the byte reader gives
    up to the first line that is not UTF-8, then that line's error, the
    message decode_line words: file, line, first bad byte and reason."""
    path = tmp_path_factory.mktemp("text") / "t.txt"
    path.write_bytes(b"".join(parts))
    expected = _spans_or_error(path)
    with mock.patch.object(textfile, "_BLOCK", block):
        assert _lines_or_error(lambda: read_lines(path)) == expected
    lines = [line for line in expected if isinstance(line, tuple)]
    if len(lines) == len(expected):
        assert textfile.read_text(path) == "".join(line for _, line in lines)
    else:
        with pytest.raises(InvalidEncoding, match=f"^{re.escape(expected[-1])}$"):
            textfile.read_text(path)
