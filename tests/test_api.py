"""The public API: every exported name resolves, removed names stay gone,
and an ill-typed argument raises a PromptPipeError that names it."""

from __future__ import annotations

import copy
import dataclasses
import importlib
import inspect
import pickle
import pkgutil
from pathlib import Path

import numpy as np
import pytest

import promptpipe
from promptpipe.errors import (
    ClassListMismatch,
    ConfigError,
    DataError,
    DimensionMismatch,
    DuplicateGuid,
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
                 "save_jsonl", "log_softmax", "DenseIndex"]


@pytest.mark.parametrize("name", REMOVED_NAMES)
def test_removed_names_are_not_importable(name):
    assert not hasattr(promptpipe, name)
    assert name not in promptpipe.__all__
    with pytest.raises(ImportError):
        exec(f"from promptpipe import {name}", {})


def test_removed_members_are_gone():
    assert not hasattr(promptpipe.Dataset, "without_guids")
    for member in ("dense", "prior", "class_scores"):
        assert not hasattr(promptpipe.Verbalizer, member), member
    # a Vocab's id map and special ids are derived from its tokens, never given
    assert [f.name for f in dataclasses.fields(promptpipe.Vocab) if f.init] == ["tokens"]
    assert not hasattr(promptpipe.runner, "BLOCK_BYTES")
    assert not hasattr(promptpipe.ClassScores, "normalized")
    assert not {"Setting", "CONFIG_SCHEMA"} & {*promptpipe.runner.__all__}
    assert not {"origin", "loss"} & {f.name for f in dataclasses.fields(promptpipe.Segment)}
    for fn in (promptpipe.CompiledTemplate, promptpipe.encode_wrapped):
        assert "objective" not in inspect.signature(fn).parameters, fn
    assert not hasattr(promptpipe.tokenization, "_is_causal")
    # a template's per-example steps on a values list are private: render and
    # encode take an example
    for member in ("resolve", "check_keys"):
        assert not hasattr(promptpipe.TemplateLayout, member), member
    for member in ("resolve", "check_keys", "measure", "measures_values"):
        assert not hasattr(promptpipe.CompiledTemplate, member), member
    for module in MODULES:
        for name in (*REMOVED_NAMES, "read_records"):
            assert not hasattr(module, name), (module.__name__, name)


def _vocab():
    return promptpipe.Vocab.from_tokens(["[PAD]", "[UNK]", "[MASK]", "[CLS]", "[SEP]", "a"])


def _verbalizer():
    tokenizer = promptpipe.WhitespaceTokenizer(_vocab())
    return promptpipe.build_verbalizer({"a": ["a"]}, tokenizer)


def _ast():
    return promptpipe.parse_template('{"meta": "text"} {"mask"}')


def _example():
    return promptpipe.InputExample(guid="a", meta={"text": "a"})


def _wrapped():
    return promptpipe.wrap_example(_ast(), _example())


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
    "segment_soft_slot": (lambda: promptpipe.Segment(text="", soft_slot="x"), InvalidValueType,
                          "segment soft_slot must be None or an int >= 0, got 'x'"),
    "segment_soft_slot_bool": (lambda: promptpipe.Segment(text="", soft_slot=True),
                               InvalidValueType,
                               "segment soft_slot must be None or an int >= 0, got True"),
    "segment_soft_slot_negative": (lambda: promptpipe.Segment(text="", soft_slot=-1),
                                   InvalidValueType,
                                   "segment soft_slot must be None or an int >= 0, got -1"),
    "segment_is_mask": (lambda: promptpipe.Segment(text="", is_mask=1), InvalidValueType,
                        "segment is_mask must be a bool, got 1"),
    "segment_shortenable": (lambda: promptpipe.Segment(text="a", shortenable="yes"),
                            InvalidValueType, "segment shortenable must be a bool, got 'yes'"),
    # refused when built, so no consumer (encode_wrapped, wrapped_text) sees it
    "wrapped_sequence_segments": (lambda: promptpipe.WrappedSequence(5, "g"), DataError,
                                  "segments must be a tuple of Segment, got 5"),
    "wrapped_sequence_segment_items": (lambda: promptpipe.WrappedSequence((5,), "g"), DataError,
                                       "segments must be a tuple of Segment, got (5,)"),
    "wrapped_sequence_example_guid": (lambda: promptpipe.WrappedSequence((), 5), DataError,
                                      "example_guid must be a str, got 5"),
    "wrapped_sequence_label": (lambda: promptpipe.WrappedSequence((), "g", 5), DataError,
                               "label must be a str or None, got 5"),
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
    "toy_scorer_call": (lambda: promptpipe.ToyScorer({}, _vocab())("a", 5), DataError,
                        "tokenized must have mask_positions, got 5"),
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
    "wordpiece_encode_limit": (
        lambda: promptpipe.WordPieceTokenizer(_vocab()).encode("a", 1.5), ConfigError,
        "'limit' must be an integer, got 1.5"),
    "whitespace_encode_limit": (
        lambda: promptpipe.WhitespaceTokenizer(_vocab()).encode("a", True), ConfigError,
        "'limit' must be an integer, got True"),
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
    "class_scores_scores_bytes": (lambda: promptpipe.ClassScores(("a",), b"x"), DimensionMismatch,
                                  "scores must be a sequence of numbers, got b'x'"),
    "class_scores_scores_bytearray": (
        lambda: promptpipe.ClassScores(("a",), bytearray(b"x")), DimensionMismatch,
        "scores must be a sequence of numbers, got bytearray(b'x')"),
    "class_scores_scores_str": (lambda: promptpipe.ClassScores(("a",), "x"), DimensionMismatch,
                                "scores must be a sequence of numbers, got 'x'"),
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
    # a string's encode names a codec: "It was" would be looked up as one
    "build_soft_plan_string_tokenizer": (
        lambda: promptpipe.build_soft_plan(promptpipe.parse_template('{"soft": "It was"}'), "x"),
        ConfigError, "tokenizer must have an encode method, got 'x'"),
    "wordpiece_tokenizer": (lambda: promptpipe.WordPieceTokenizer(5), VocabError,
                            "vocab must be a Vocab, got 5"),
    "whitespace_tokenizer": (lambda: promptpipe.WhitespaceTokenizer(5), VocabError,
                             "vocab must be a Vocab, got 5"),
    "build_tokenizer": (lambda: promptpipe.build_tokenizer("wordpiece", 5), VocabError,
                        "vocab must be a Vocab, got 5"),
    "vocab_from_tokens": (lambda: promptpipe.Vocab.from_tokens(5), VocabError,
                          "tokens must be an Iterable, got 5"),
    "dataset_examples": (lambda: promptpipe.Dataset(5), DataError,
                         "examples must be a tuple, got 5"),
    "dataset_repeated_guid": (lambda: promptpipe.Dataset((_example(), _example())), DuplicateGuid,
                              "guid 'a' appears twice"),
    "dataset_from_examples_not_iterable": (lambda: promptpipe.Dataset.from_examples(5), DataError,
                                           "examples must be an Iterable, got 5"),
    "input_example_meta_key": (lambda: promptpipe.InputExample(guid="a", meta={5: "x"}),
                               DataError, "meta key must be a string, got 5"),
    "template_layout_ast": (lambda: promptpipe.TemplateLayout(5, ()), InvalidValueType,
                            "ast must be a TemplateAST, got 5"),
    "template_layout_render": (lambda: promptpipe.TemplateLayout(_ast(), ((),) * 3).render(5),
                               DataError, "example must be an InputExample, got 5"),
    "compiled_template_encode": (
        lambda: promptpipe.CompiledTemplate(_ast(), promptpipe.WhitespaceTokenizer(_vocab()),
                                            8).encode(5),
        DataError, "example must be an InputExample, got 5"),
    "compiled_template_render": (
        lambda: promptpipe.CompiledTemplate(_ast(), promptpipe.WhitespaceTokenizer(_vocab()),
                                            8).render(5),
        DataError, "example must be an InputExample, got 5"),
    "template_layout_node_slots": (lambda: promptpipe.TemplateLayout(_ast(), 5), ConfigError,
                                   "node_slots must be a Sequence, got 5"),
    "template_layout_node_slots_items": (
        lambda: promptpipe.TemplateLayout(_ast(), b"xy"), ConfigError,
        "node_slots must hold one sequence of int slot ids per node, got b'xy'"),
    "template_layout_node_slots_ids": (
        lambda: promptpipe.TemplateLayout(_ast(), [("x",), (), ()]), ConfigError,
        "node_slots must hold one sequence of int slot ids per node, got [('x',), (), ()]"),
    "validate_template_known_meta_keys": (lambda: validate_template(_ast(), 5), InvalidValueType,
                                          "known_meta_keys must be a Set, got 5"),
    "wrap_example_ast": (lambda: promptpipe.wrap_example(5, 5), InvalidValueType,
                         "ast must be a TemplateAST, got 5"),
    "wrap_example_example": (lambda: promptpipe.wrap_example(_ast(), 5), DataError,
                             "example must be an InputExample, got 5"),
    "wrapped_text": (lambda: promptpipe.wrapped_text(5), DataError,
                     "seq must be a WrappedSequence, got 5"),
    "encode_wrapped": (
        lambda: promptpipe.encode_wrapped(5, promptpipe.WhitespaceTokenizer(_vocab()), 8),
        DataError, "seq must be a WrappedSequence, got 5"),
    "encode_wrapped_tokenizer": (
        lambda: promptpipe.encode_wrapped(_wrapped(), 5, 8), ConfigError,
        "tokenizer must have a Vocab vocab and an encode method, got 5"),
    "compiled_template_add_special_tokens": (
        lambda: promptpipe.CompiledTemplate(promptpipe.parse_template('{"mask"}'),
                                            promptpipe.WhitespaceTokenizer(_vocab()), 8, 5),
        ConfigError, "add_special_tokens must be a bool, got 5"),
    "encode_wrapped_add_special_tokens": (
        lambda: promptpipe.encode_wrapped(_wrapped(), promptpipe.WhitespaceTokenizer(_vocab()),
                                          8, "no"),
        ConfigError, "add_special_tokens must be a bool, got 'no'"),
    "encode_wrapped_max_len": (
        lambda: promptpipe.encode_wrapped(_wrapped(), promptpipe.WhitespaceTokenizer(_vocab()),
                                          "8"),
        ConfigError, "'max_len' must be an integer, got '8'"),
    "wrap_example_plan": (lambda: promptpipe.wrap_example(_ast(), _example(), 5), ConfigError,
                          "plan must be a SoftEmbeddingPlan, got 5"),
    "apply_post_processing_text": (
        lambda: promptpipe.apply_post_processing(promptpipe.PostProcessing.LOWERCASE, 5),
        DataError, "text must be a str, got 5"),
    "verbalizer_word_scores": (lambda: _verbalizer().word_scores(np.zeros(6)),
                               DimensionMismatch, "logits must be a 2-d array, got shape (6,)"),
    "verbalizer_word_scores_width": (
        lambda: _verbalizer().word_scores(np.zeros((1, 5))), DimensionMismatch,
        "logits rows have width 5 but label words use id 5"),
    "verbalizer_word_scores_dtype": (
        lambda: _verbalizer().word_scores(np.zeros((1, 6), dtype=np.int64)), DimensionMismatch,
        "logits must be floats, got dtype int64"),
    "verbalizer_check_prior_bool": (lambda: _verbalizer().check_prior(np.zeros((1, 1, 1)), True),
                                    ConfigError, "'mask_count' must be an integer, got True"),
    "verbalizer_check_prior_float": (lambda: _verbalizer().check_prior(np.zeros((1, 1, 1)), 1.0),
                                     ConfigError, "'mask_count' must be an integer, got 1.0"),
    "verbalizer_aggregate": (lambda: _verbalizer().aggregate([[[0.0]]], "max"),
                             DimensionMismatch, "words must be a ndarray, got [[[0.0]]]"),
    "verbalizer_aggregate_prior": (
        lambda: _verbalizer().aggregate(np.zeros((1, 1, 1)), "max", 5), DimensionMismatch,
        "prior must be a ndarray, got 5"),
    "verbalizer_empty_maps": (
        lambda: promptpipe.Verbalizer(("a",), {}, {}), VerbalizerError,
        "label_words and label_word_ids must each map every class of ('a',) once"),
    "verbalizer_negative_id": (
        lambda: promptpipe.Verbalizer(("a",), {"a": ("a",)}, {"a": ((-1,),)}), VerbalizerError,
        "label word 'a' must have a tuple of ids >= 0, got (-1,)"),
    "verbalizer_string_id": (
        lambda: promptpipe.Verbalizer(("a",), {"a": ("a",)}, {"a": (("5",),)}), VerbalizerError,
        "label word 'a' must have a tuple of ids >= 0, got ('5',)"),
    "verbalizer_classes_list": (
        lambda: promptpipe.Verbalizer(["a"], {"a": ("a",)}, {"a": ((5,),)}), VerbalizerError,
        "classes must be a tuple, got ['a']"),
    "vocab_token": (lambda: promptpipe.Vocab.from_tokens([*_vocab().tokens, 5]), VocabError,
                    "token 6 must be a string, got 5"),
    "vocab_tokens_list": (lambda: promptpipe.Vocab(list(_vocab().tokens)), VocabError,
                          "tokens must be a tuple, got ['[PAD]', '[UNK]', '[MASK]', '[CLS]', "
                          "'[SEP]', 'a']"),
    # the vocab size is checked before the file is read, so the file need not exist
    "logits_file_scorer_vocab_size": (lambda: promptpipe.LogitsFileScorer("logits.jsonl", "8"),
                                      ConfigError, "'vocab_size' must be an integer, got '8'"),
    "pipeline_config_from_file": (lambda: promptpipe.PipelineConfig.from_file(5), ConfigError,
                                  "input must be a file path, got 5"),
    # overrides are checked before the file is read, so the file need not exist
    "pipeline_config_from_file_overrides": (
        lambda: promptpipe.PipelineConfig.from_file("run.yaml", 5), ConfigError,
        "overrides must be None or a Mapping, got 5"),
    "template_ast_nodes": (lambda: promptpipe.TemplateAST(5), InvalidValueType,
                           "nodes must be a tuple, got int"),
    "template_node_kind": (lambda: promptpipe.TemplateNode(5), InvalidValueType,
                           "node kind must be a NodeKind, got 5"),
    "parse_template": (lambda: promptpipe.parse_template(5), InvalidValueType,
                       "template source must be a string, got 5"),
    "serialize_template": (lambda: promptpipe.serialize_template(5), InvalidValueType,
                           "serialize_template takes a TemplateAST, got 5"),
    "apply_post_processing": (
        lambda: promptpipe.apply_post_processing("lowercase", "x"), ConfigError,
        "unknown post-processing function 'lowercase'; expected one of "
        "strip_trailing_punctuation, lowercase, prepend_space"),
}


@pytest.mark.parametrize("name", BAD_ARGUMENTS)
def test_an_ill_typed_argument_raises_its_stage_error(name):
    call, error, message = BAD_ARGUMENTS[name]
    with pytest.raises(error) as failure:
        call()
    assert str(failure.value) == message


# public names that take no ill-typed argument from a user: the enums, the base
# error, and the records that only promptpipe builds (a parse, a plan, an
# encoding, a report)
NO_BAD_ARGUMENTS = {
    "Aggregation", "NodeKind", "PostProcessing", "TokenizerKind",
    "PromptPipeError",
    "Diagnostic", "RunReport", "SlotSpec", "SoftEmbeddingPlan", "TokenizedInput",
}


def _rows_calling(name: str) -> list[str]:
    """The rows whose key starts with ``name`` in snake case (underscores aside)."""
    return [key for key in BAD_ARGUMENTS
            if key.replace("_", "").startswith(name.replace("_", "").lower())]


def test_every_public_name_has_a_bad_argument_row_or_is_exempt():
    assert NO_BAD_ARGUMENTS <= {*promptpipe.__all__}
    uncovered = [name for name in promptpipe.__all__
                 if name not in NO_BAD_ARGUMENTS and not _rows_calling(name)]
    assert uncovered == []


# --- frozen records -----------------------------------------------------------------


def _scoring():
    """A vocab, a verbalizer, an example and a compiled template from the
    fixtures, and what project, encode and render give for them."""
    vocab = promptpipe.Vocab.from_file(FIXTURES / "vocab.txt")
    tokenizer = promptpipe.build_tokenizer("wordpiece", vocab)
    verbalizer = promptpipe.load_verbalizer(FIXTURES / "verbalizer.json", tokenizer)
    example = promptpipe.load_jsonl(FIXTURES / "sentiment.jsonl").examples[0]
    template = promptpipe.CompiledTemplate(
        promptpipe.load_template_file(FIXTURES / "template_sentiment.txt")[0], tokenizer, 32)
    rows = np.sin(np.arange(len(vocab), dtype=np.float64))[None]

    def results():
        return (promptpipe.project(rows, verbalizer), template.encode(example),
                template.render(example))

    return vocab, verbalizer, example, results


# each read-only map, and a key and a value that would change a result
READ_ONLY_MAPS = {
    "Verbalizer.label_words": (lambda v, verbalizer, ex: verbalizer.label_words,
                               "negative", ("great",)),
    "Verbalizer.label_word_ids": (lambda v, verbalizer, ex: verbalizer.label_word_ids,
                                  "negative", ((62,),)),
    "InputExample.meta": (lambda v, verbalizer, ex: ex.meta, "text", "bad"),
    "Vocab.ids": (lambda v, verbalizer, ex: v.ids, "great", 0),
}


@pytest.mark.parametrize("name", READ_ONLY_MAPS)
def test_a_frozen_records_map_is_read_only(name):
    vocab, verbalizer, example, results = _scoring()
    get, key, value = READ_ONLY_MAPS[name]
    mapping = get(vocab, verbalizer, example)
    before = results()
    with pytest.raises(TypeError):
        mapping[key] = value
    with pytest.raises(TypeError):
        del mapping[key]
    assert results() == before


def test_a_record_holds_a_copy_of_the_maps_it_was_given():
    meta = {"text": "good"}
    example = promptpipe.InputExample("a", meta)
    meta["text"] = 5
    assert example.meta == {"text": "good"}
    words, ids = {"a": ("a",)}, {"a": ((5,),)}
    verbalizer = promptpipe.Verbalizer(("a",), words, ids)
    ids["a"] = ((-1,),)
    assert verbalizer.label_word_ids == {"a": ((5,),)}


@pytest.mark.parametrize("name", ["Vocab", "Verbalizer", "InputExample", "Dataset"])
def test_a_frozen_record_round_trips_through_pickle_and_deepcopy(name):
    vocab, verbalizer, example, _ = _scoring()
    record = {"Vocab": vocab, "Verbalizer": verbalizer, "InputExample": example,
              "Dataset": promptpipe.load_jsonl(FIXTURES / "topics.jsonl")}[name]
    for copied in (pickle.loads(pickle.dumps(record)), copy.deepcopy(record)):
        assert type(copied) is type(record)
        assert copied == record
    assert pickle.loads(pickle.dumps(vocab)).ids["great"] == vocab.ids["great"]


class _Forged:
    """Pickles as an InputExample whose meta breaks its rules."""

    def __reduce__(self):
        return promptpipe.InputExample, ("a", {"text": 5})


def test_a_loaded_record_is_checked_again():
    with pytest.raises(DataError, match="meta value for 'text' must be a string, got 5"):
        pickle.loads(pickle.dumps(_Forged()))
