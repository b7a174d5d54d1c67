"""Every input file is read as UTF-8 with an optional byte-order mark;
bytes that are not UTF-8 raise an error naming the file and the line.
Every JSON or YAML input rejects a repeated key, and every reader takes
only a ``str`` or ``os.PathLike`` path."""

from __future__ import annotations

import json
import re

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
    UnreadableFile,
)
from promptpipe import textfile
from promptpipe.logits import LogitsFileScorer, read_logits_records
from promptpipe.textfile import read_lines, write_jsonl

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
    """A file of many short lines is framed with a bounded number of bytes
    scanned per byte at the real buffer size, whichever line end it uses:
    a line ending at a lone \r does not scan the rest of the buffer for a
    \n that is not there."""
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
        assert [line for _, line in read_lines(path)] == [line + "\n" for line in lines]
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
