"""The public API: every exported name resolves, removed names stay gone,
and an ill-typed argument raises a PromptPipeError that names it."""

from __future__ import annotations

import dataclasses
import importlib
import inspect
import pkgutil
from pathlib import Path

import pytest

import promptpipe
from promptpipe.errors import (
    ClassListMismatch,
    ConfigError,
    DataError,
    DimensionMismatch,
    InvalidValueType,
    VerbalizerError,
    VocabError,
)
from promptpipe.runner import evaluate_accuracy
from promptpipe.template import validate_template
from promptpipe.textfile import write_jsonl

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
MODULES = [
    importlib.import_module(f"promptpipe.{info.name}")
    for info in pkgutil.iter_modules(promptpipe.__path__)
    if info.name != "__main__"
]


@pytest.mark.parametrize("module", [promptpipe, *MODULES], ids=lambda m: m.__name__)
def test_every_exported_name_resolves(module):
    exported = getattr(module, "__all__", [])
    assert len(exported) == len(set(exported))
    missing = [name for name in exported if not hasattr(module, name)]
    assert missing == []


def test_star_import_binds_every_exported_name():
    namespace: dict = {}
    exec("from promptpipe import *", namespace)
    assert [name for name in promptpipe.__all__ if name not in namespace] == []


REMOVED_NAMES = ["SegmentOrigin", "TokenEntry", "truncate", "project_per_position",
                 "save_jsonl", "log_softmax"]


@pytest.mark.parametrize("name", REMOVED_NAMES)
def test_removed_names_are_not_importable(name):
    assert not hasattr(promptpipe, name)
    assert name not in promptpipe.__all__
    with pytest.raises(ImportError):
        exec(f"from promptpipe import {name}", {})


def test_removed_members_are_gone():
    assert not hasattr(promptpipe.Dataset, "without_guids")
    assert not hasattr(promptpipe.verbalizer.DenseIndex, "prior")
    assert not hasattr(promptpipe.verbalizer.DenseIndex, "class_scores")
    assert not hasattr(promptpipe.runner, "BLOCK_BYTES")
    assert not hasattr(promptpipe.ClassScores, "normalized")
    assert not {"Setting", "CONFIG_SCHEMA"} & {*promptpipe.runner.__all__}
    assert not {"origin", "loss"} & {f.name for f in dataclasses.fields(promptpipe.Segment)}
    for fn in (promptpipe.CompiledTemplate, promptpipe.encode_wrapped):
        assert "objective" not in inspect.signature(fn).parameters, fn
    assert not hasattr(promptpipe.tokenization, "_is_causal")
    for module in MODULES:
        for name in (*REMOVED_NAMES, "read_records"):
            assert not hasattr(module, name), (module.__name__, name)


def _vocab():
    return promptpipe.Vocab.from_tokens(["[PAD]", "[UNK]", "[MASK]", "[CLS]", "[SEP]", "a"])


def _verbalizer():
    tokenizer = promptpipe.WhitespaceTokenizer(_vocab())
    return promptpipe.build_verbalizer({"a": ["a"]}, tokenizer)


# a public call with an ill-typed argument: the stage error it raises, and its
# message, which names the argument. A file descriptor taken for a path would
# be opened, and 0 is standard input.
BAD_ARGUMENTS = {
    "validate_template": (lambda: validate_template(5, set()), InvalidValueType,
                          "validate_template takes a TemplateAST, got 5"),
    "segment_text": (lambda: promptpipe.Segment(text=5), InvalidValueType,
                     "segment text must be a string, got 5"),
    "mask_segment_text": (lambda: promptpipe.Segment(text=None, is_mask=True), InvalidValueType,
                          "segment text must be a string, got None"),
    "load_template_file": (lambda: promptpipe.load_template_file(5), ConfigError,
                           "input must be a file path, got 5"),
    "vocab_from_file": (lambda: promptpipe.Vocab.from_file(0), ConfigError,
                        "input must be a file path, got 0"),
    "load_jsonl": (lambda: promptpipe.load_jsonl(5), ConfigError,
                   "input must be a file path, got 5"),
    "write_jsonl": (lambda: write_jsonl([{}], 5), ConfigError,
                    "output must be a file path, got 5"),
    "from_examples": (lambda: promptpipe.Dataset.from_examples([1]), DataError,
                      "examples must hold InputExample values, got 1"),
    "evaluate_accuracy": (
        lambda: evaluate_accuracy([("a",)], [("a", "b")]), DataError,
        "preds and golds must hold (guid, class) pairs, got ('a',) and ('a', 'b')"),
    "evaluate_accuracy_not_sequences": (lambda: evaluate_accuracy(5, 5), DataError,
                                        "preds must be a Sequence, got 5"),
    "toy_scorer_frequencies": (lambda: promptpipe.ToyScorer(5, _vocab()), ConfigError,
                               "frequencies must be a Mapping, got 5"),
    "toy_scorer_vocab": (lambda: promptpipe.ToyScorer({}, 5), ConfigError,
                         "vocab must be a Vocab, got 5"),
    # vocab is checked before the file is read, so the file need not exist
    "toy_scorer_from_file_vocab": (lambda: promptpipe.ToyScorer.from_file("freq.json", 5),
                                   ConfigError, "vocab must be a Vocab, got 5"),
    "run_pipeline": (lambda: promptpipe.run_pipeline(5), ConfigError,
                     "cfg must be a PipelineConfig, got 5"),
    "ensemble_scores": (lambda: promptpipe.ensemble_scores([1]), ClassListMismatch,
                        "per_template must hold ClassScores, got 1"),
    "ensemble_scores_not_a_sequence": (lambda: promptpipe.ensemble_scores(5), ClassListMismatch,
                                       "per_template must be a Sequence, got 5"),
    "fewshot_sample": (lambda: promptpipe.fewshot_sample(5, 1, 0), DataError,
                       "dataset must be a Dataset, got 5"),
    "wordpiece_encode": (lambda: promptpipe.WordPieceTokenizer(_vocab()).encode(5), VocabError,
                         "text must be a string, got 5"),
    "whitespace_encode": (lambda: promptpipe.WhitespaceTokenizer(_vocab()).encode(5), VocabError,
                          "text must be a string, got 5"),
    "build_verbalizer_label_words": (
        lambda: promptpipe.build_verbalizer(5, promptpipe.WhitespaceTokenizer(_vocab())),
        VerbalizerError, "label_words must be a Mapping, got 5"),
    "build_verbalizer_tokenizer": (
        lambda: promptpipe.build_verbalizer({"a": ["good"]}, 5), ConfigError,
        "tokenizer must be a WhitespaceTokenizer or WordPieceTokenizer, got 5"),
    # the file is read first, and its words are built with the tokenizer
    "load_verbalizer_tokenizer": (
        lambda: promptpipe.load_verbalizer(FIXTURES / "verbalizer.json", 5), ConfigError,
        "tokenizer must be a WhitespaceTokenizer or WordPieceTokenizer, got 5"),
    "project_verbalizer": (lambda: promptpipe.project([[0.0] * 6], 5), VerbalizerError,
                           "verbalizer must be a Verbalizer, got 5"),
    "calibrate_verbalizer": (
        lambda: promptpipe.calibrate(lambda _: [[0.0] * 6], 5, None), VerbalizerError,
        "verbalizer must be a Verbalizer, got 5"),
    "calibrate_scores_fn": (lambda: promptpipe.calibrate(5, _verbalizer(), None), ConfigError,
                            "scores_fn must be a Callable, got 5"),
    "class_scores_classes": (lambda: promptpipe.ClassScores(5, (1.0,)), DimensionMismatch,
                             "classes must be a Sequence, got 5"),
    "class_scores_scores": (lambda: promptpipe.ClassScores(("a",), 5), DimensionMismatch,
                            "scores must be a Sequence, got 5"),
    "compiled_template_ast": (
        lambda: promptpipe.CompiledTemplate(5, promptpipe.WhitespaceTokenizer(_vocab()), 8),
        InvalidValueType, "ast must be a TemplateAST, got 5"),
    "compiled_template_tokenizer": (
        lambda: promptpipe.CompiledTemplate(promptpipe.parse_template('{"mask"}'), 5, 8),
        ConfigError, "tokenizer must have a Vocab vocab and an encode method, got 5"),
    "build_soft_plan": (
        lambda: promptpipe.build_soft_plan(5, promptpipe.WhitespaceTokenizer(_vocab())),
        InvalidValueType, "ast must be a TemplateAST, got 5"),
    "build_soft_plan_tokenizer": (
        lambda: promptpipe.build_soft_plan(promptpipe.parse_template('{"mask"}'), 5),
        ConfigError, "tokenizer must have an encode method, got 5"),
    "wordpiece_tokenizer": (lambda: promptpipe.WordPieceTokenizer(5), VocabError,
                            "vocab must be a Vocab, got 5"),
    "whitespace_tokenizer": (lambda: promptpipe.WhitespaceTokenizer(5), VocabError,
                             "vocab must be a Vocab, got 5"),
    "build_tokenizer": (lambda: promptpipe.build_tokenizer("wordpiece", 5), VocabError,
                        "vocab must be a Vocab, got 5"),
    "vocab_from_tokens": (lambda: promptpipe.Vocab.from_tokens(5), VocabError,
                          "tokens must be an Iterable, got 5"),
    "dataset_examples": (lambda: promptpipe.Dataset(5, frozenset()), DataError,
                         "examples must be a tuple, got 5"),
    "dataset_label_set": (lambda: promptpipe.Dataset((), {"a"}), DataError,
                          "label_set must be a frozenset, got {'a'}"),
}


@pytest.mark.parametrize("name", BAD_ARGUMENTS)
def test_an_ill_typed_argument_raises_its_stage_error(name):
    call, error, message = BAD_ARGUMENTS[name]
    with pytest.raises(error) as failure:
        call()
    assert str(failure.value) == message
