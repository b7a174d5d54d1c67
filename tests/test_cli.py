"""The CLI is total over bad input: exit code 1 and one ``error:`` line."""

from __future__ import annotations

import dataclasses
import json
import re

import pytest

from promptpipe import cli
from promptpipe.cli import main
from promptpipe.runner import PipelineConfig, RunReport


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


def _frequency_run(fixtures, tmp, frequencies: str) -> list[str]:
    path = tmp / "frequencies.json"
    path.write_text(frequencies, encoding="utf-8")
    return ["run", "--config", str(fixtures / "run_sentiment.yaml"), "--frequency-file", str(path),
            "--output", str(tmp / "out.jsonl")]


def _integer_frequency_beyond_float(fixtures, tmp):
    argv = _frequency_run(fixtures, tmp, '{"great": 1' + "0" * 400 + "}")
    return argv, [f"frequency file {tmp / 'frequencies.json'}", "'great'", "too large for a float"]


def _class_score_beyond_float(fixtures, tmp):
    # every label-word score is finite; positive's mean_log_prob sum is not
    argv = _frequency_run(fixtures, tmp, '{"great": 1e308}')
    return argv, ["guid 's1'", "beyond the float64 range"]


def _score_beyond_float(fixtures, tmp):
    tokens = (fixtures / "vocab.txt").read_text(encoding="utf-8").splitlines()
    row = [0.0] * len(tokens)
    row[tokens.index("great")] = 1e308
    logits = tmp / "logits.jsonl"
    logits.write_text(json.dumps({"guid": "x", "mask_logits": [row]}) + "\n")
    argv = ["score", "--logits-file", str(logits),
            "--verbalizer", str(fixtures / "verbalizer.json"),
            "--vocab", str(fixtures / "vocab.txt")]
    return argv, [f"{logits}: guid 'x'", "beyond the float64 range"]


def _wrap_missing_meta_key(fixtures, tmp):
    template = tmp / "title.txt"
    template.write_text('{"meta": "title"} {"mask"}\n')
    argv = ["wrap", "--template-file", str(template),
            "--dataset", str(fixtures / "sentiment.jsonl")]
    return argv, ["stage 'wrap' failed for guid 's1'", "no meta value for key 'title'"]


def _tokenize_template_too_long(fixtures, tmp):
    template = tmp / "fixed.txt"
    template.write_text('{"meta": "text", "shortenable": false} {"mask"}\n')
    argv = ["tokenize", "--template-file", str(template), "--max-len", "8",
            "--dataset", str(fixtures / "sentiment.jsonl"), "--vocab", str(fixtures / "vocab.txt")]
    return argv, ["stage 'encode' failed for guid 's1'", "exceeds max_len 8"]


def _tokenize_max_len_zero(fixtures, tmp):
    template = tmp / "text.txt"
    template.write_text('{"meta": "text"}\n')
    argv = ["tokenize", "--template-file", str(template), "--max-len", "0", "--no-special-tokens",
            "--dataset", str(fixtures / "sentiment.jsonl"), "--vocab", str(fixtures / "vocab.txt")]
    return argv, ["max_len must be positive"]


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
        _integer_frequency_beyond_float,
        _class_score_beyond_float,
        _score_beyond_float,
        _wrap_missing_meta_key,
        _tokenize_template_too_long,
        _tokenize_max_len_zero,
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


def test_ensemble_of_finite_scores_near_the_float_limit_is_finite(fixtures_dir, tmp_path):
    # each template scores negative at about -1e308: finite, while the sum of
    # two such scores is not
    template = str(fixtures_dir / "template_sentiment.txt")
    argv = _frequency_run(fixtures_dir, tmp_path, '{"great": 1e308}') + ["--aggregation", "max"]
    assert main(argv + ["--templates", template]) == 0
    single = (tmp_path / "out.jsonl").read_bytes()
    assert main(argv + ["--templates", template] * 2) == 0
    assert (tmp_path / "out.jsonl").read_bytes() == single


# (flags, the config fields they set): every spelling `run` accepts, with both
# orders of each boolean pair (the last flag wins)
_FLAG_SPELLINGS = [
    ([], {}),
    (["--templates", "a.txt"], {"templates": ["a.txt"]}),
    (["--templates", "a.txt", "--templates", "b.txt"], {"templates": ["a.txt", "b.txt"]}),
    (["--add-special-tokens"], {"add_special_tokens": True}),
    (["--no-special-tokens"], {"add_special_tokens": False}),
    (["--no-special-tokens", "--add-special-tokens"], {"add_special_tokens": True}),
    (["--add-special-tokens", "--no-special-tokens"], {"add_special_tokens": False}),
    (["--calibrate"], {"calibrate": True}),
    (["--no-calibrate"], {"calibrate": False}),
    (["--no-calibrate", "--calibrate"], {"calibrate": True}),
    (["--calibrate", "--no-calibrate"], {"calibrate": False}),
    (["--max-len", "7"], {"max_len": 7}),
    (["--seed", "-3"], {"seed": -3}),
    (["--tokenizer-kind", "whitespace"], {"tokenizer_kind": "whitespace"}),
    (["--tokenizer-kind", "wordpiece"], {"tokenizer_kind": "wordpiece"}),
    (["--dataset", "d.jsonl", "--vocab", "v.txt", "--verbalizer", "b.json",
      "--aggregation", "max", "--output", "o.jsonl"],
     {"dataset": "d.jsonl", "vocab": "v.txt", "verbalizer": "b.json", "aggregation": "max",
      "output": "o.jsonl"}),
    (["--frequency-file", "f.json"], {"frequency_file": "f.json"}),
]


def _run_config(monkeypatch, argv: list[str]) -> PipelineConfig:
    """The config ``run`` builds from ``argv``, without running it."""
    built = []

    def run_pipeline(cfg):
        built.append(cfg)
        return RunReport(results=[], accuracy=None, n_examples=0, n_labeled=0)

    monkeypatch.setattr(cli, "run_pipeline", run_pipeline)
    assert main(["run", *argv]) == 0
    return built[0]


@pytest.mark.parametrize("flags, fields", _FLAG_SPELLINGS)
def test_run_flags_parse_to_the_same_config(fixtures_dir, monkeypatch, capsys, flags, fields):
    assert _run_config(monkeypatch, flags) == PipelineConfig(**fields)
    config = fixtures_dir / "run_sentiment.yaml"
    # an absent flag leaves the file's value; a given one overrides it
    expected = dataclasses.replace(PipelineConfig.from_file(config), **fields)
    assert _run_config(monkeypatch, ["--config", str(config), *flags]) == expected


def test_logits_file_flag_parses(monkeypatch, capsys):
    assert _run_config(monkeypatch, ["--logits-file", "l.jsonl"]) == PipelineConfig(
        logits_file="l.jsonl"
    )


@pytest.mark.parametrize(
    "flags", [["--max-len", "x"], ["--seed", "1.5"], ["--tokenizer-kind", "sentencepiece"]]
)
def test_run_flag_types_are_checked_by_argparse(monkeypatch, capsys, flags):
    with pytest.raises(SystemExit) as exit_:
        _run_config(monkeypatch, flags)
    assert exit_.value.code == 2


def test_run_help_offers_one_flag_per_config_field(capsys):
    with pytest.raises(SystemExit):
        main(["run", "--help"])
    options = capsys.readouterr().out.split("options:")[1]
    offered = re.findall(r"^  (--[a-z-]+)", options, flags=re.MULTILINE)
    fields = ["--" + f.name.replace("_", "-") for f in dataclasses.fields(PipelineConfig)]
    negations = ["--no-special-tokens", "--no-calibrate"]
    assert sorted(offered) == sorted(["--config", *fields, *negations])
