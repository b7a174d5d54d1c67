"""Every input file is read as UTF-8 with an optional byte-order mark;
bytes that are not UTF-8 raise an error naming the file and the line."""

from __future__ import annotations

import json

import pytest

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
from promptpipe.errors import InvalidEncoding
from promptpipe.runner import read_logits_records
from promptpipe.textfile import write_jsonl

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
