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


def _text_initialized_soft_wrap(fixtures, tmp):
    # template 2 initializes a soft node from text, whose slots need a tokenizer
    template_file = fixtures / "templates_showcase.txt"
    argv = ["wrap", "--template-file", str(template_file), "--template-index", "2",
            "--dataset", str(fixtures / "sentiment.jsonl")]
    return argv, [f"{template_file} template 2", "text-initialized soft nodes"]


def _sample_k_zero(fixtures, tmp):
    argv = ["sample", "--dataset", str(fixtures / "topics.jsonl"), "--k", "0"]
    return argv, ["k_per_class must be >= 1, got 0"]


def _config_case(name: str, text: str, *expected: str):
    def case(fixtures, tmp):
        config = tmp / name
        config.write_text(text, encoding="utf-8")
        return ["run", "--config", str(config)], [f"config file {config}", *expected]

    case.__name__ = f"_config_{name}"
    return case


_unclosed_yaml_list = _config_case("unclosed.yaml", "templates: [a.txt, b.txt\n", "not valid YAML")
_truncated_json = _config_case("truncated.json", '{"templates": ["a.txt"], "max_len": 3',
                               "not valid JSON")
_max_len_not_integer = _config_case("max_len.yaml", 'max_len: "abc"\n',
                                    "'max_len' must be an integer", "'abc'")
_boolean_not_boolean = _config_case("calibrate.yaml", "calibrate: 1\n",
                                    "'calibrate' must be true or false")
_templates_not_paths = _config_case("templates.yaml", "templates: {a: 1}\n",
                                    "'templates' must be a list of file paths")
# set-up checks these before it opens a file, so the named files need not exist
_missing_dataset = _config_case(
    "no_dataset.yaml", "templates: [t.txt]\nvocab: v.txt\nverbalizer: b.json\n"
    "frequency_file: f.json\n", "config is missing 'dataset'")
_both_scorers = _config_case(
    "two_scorers.json", json.dumps({"templates": ["t.txt"], "dataset": "d.jsonl",
                                    "vocab": "v.txt", "verbalizer": "b.json",
                                    "logits_file": "l.jsonl", "frequency_file": "f.json"}),
    "exactly one model interface")


def _unknown_tokenizer_kind(fixtures, tmp):
    config = tmp / "kind.yaml"
    config.write_text((fixtures / "run_sentiment.yaml").read_text(encoding="utf-8")
                      .replace("tokenizer_kind: wordpiece", "tokenizer_kind: sentencepiece"))
    for name in ("template_sentiment.txt", "sentiment.jsonl", "vocab.txt", "verbalizer.json",
                 "word_scores.json"):
        (tmp / name).write_bytes((fixtures / name).read_bytes())
    return ["run", "--config", str(config)], [f"config file {config}: unknown tokenizer_kind",
                                              "'sentencepiece'", "whitespace, wordpiece"]


@pytest.mark.parametrize(
    "case",
    [
        _unclosed_yaml_list,
        _truncated_json,
        _max_len_not_integer,
        _boolean_not_boolean,
        _templates_not_paths,
        _unknown_tokenizer_kind,
        _missing_dataset,
        _both_scorers,
        _bad_aggregation,
        _malformed_dataset_line,
        _duplicate_dataset_guid,
        _blank_vocab_line,
        _invalid_utf8_dataset_line,
        _bad_template_node,
        _text_initialized_soft_wrap,
        _sample_k_zero,
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
