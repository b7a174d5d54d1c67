"""The CLI is total over bad input: exit code 1 and one ``error:`` line."""

from __future__ import annotations

import json

import pytest

from promptpipe.cli import main


def _bad_aggregation(fixtures, tmp):
    logits = tmp / "logits.jsonl"
    logits.write_text("")
    argv = ["score", "--logits-file", str(logits), "--aggregation", "bogus",
            "--verbalizer", str(fixtures / "verbalizer.json"),
            "--vocab", str(fixtures / "vocab.txt")]
    return argv, ["'bogus'", "mean_log_prob, max, first"]


def _malformed_dataset_line(fixtures, tmp):
    dataset = tmp / "data.jsonl"
    dataset.write_text('{"guid": "a", "meta": {"text": "x"}}\n{"guid": "b", "meta": \n')
    argv = ["wrap", "--template-file", str(fixtures / "template_sentiment.txt"),
            "--dataset", str(dataset)]
    return argv, [f"{dataset}:2: invalid JSON"]


def _duplicate_dataset_guid(fixtures, tmp):
    dataset = tmp / "data.jsonl"
    dataset.write_text("".join(
        json.dumps({"guid": guid, "meta": {"text": "x"}}) + "\n" for guid in "aba"))
    argv = ["tokenize", "--template-file", str(fixtures / "template_sentiment.txt"),
            "--dataset", str(dataset), "--vocab", str(fixtures / "vocab.txt")]
    return argv, [f"{dataset}:3:", "line 1"]


def _blank_vocab_line(fixtures, tmp):
    vocab = tmp / "vocab.txt"
    tokens = (fixtures / "vocab.txt").read_text(encoding="utf-8").split("\n")
    vocab.write_text("\n".join(tokens[:5] + [""] + tokens[5:]), encoding="utf-8")
    logits = tmp / "logits.jsonl"
    logits.write_text("")
    argv = ["score", "--logits-file", str(logits),
            "--verbalizer", str(fixtures / "verbalizer.json"), "--vocab", str(vocab)]
    return argv, [f"{vocab}:6: blank line"]


def _invalid_utf8_dataset_line(fixtures, tmp):
    dataset = tmp / "data.jsonl"
    dataset.write_bytes(b'{"guid": "a", "meta": {"text": "x"}}\n'
                        b'{"guid": "b", "meta": {"text": "\xff"}}\n')
    argv = ["wrap", "--template-file", str(fixtures / "template_sentiment.txt"),
            "--dataset", str(dataset)]
    return argv, [f"{dataset}:2: not valid UTF-8", "0xff"]


def _bad_template_node(fixtures, tmp):
    templates = tmp / "templates.txt"
    templates.write_text('{"mask"}\nIt is {"mask", "shortenable": true}\n')
    return ["parse", "--template-file", str(templates)], [f"{templates}:2:", "offset 6"]


@pytest.mark.parametrize(
    "case",
    [
        _bad_aggregation,
        _malformed_dataset_line,
        _duplicate_dataset_guid,
        _blank_vocab_line,
        _invalid_utf8_dataset_line,
        _bad_template_node,
    ],
)
def test_bad_input_gives_one_error_line(fixtures_dir, tmp_path, capsys, case):
    argv, expected = case(fixtures_dir, tmp_path)
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    for part in expected:
        assert part in lines[0]
    assert "Traceback" not in captured.err
