"""Every public callable is total: a hypothesis strategy per callable in
``promptpipe.__all__`` and per public method of a public class draws its
arguments from valid values and from values of the wrong type or range,
and each call must return or raise a ``PromptPipeError``.

``test_every_public_callable_has_a_strategy`` fails when a public callable
has no strategy, or a strategy names a callable that is gone. Integers are
drawn within +-4096, so no call allocates by its argument; a path argument
is a fixture file or a value that is no path, and every output goes under
a temporary directory of the test run.
"""

from __future__ import annotations

import dataclasses
import enum
import inspect
import json
import math
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import promptpipe
from promptpipe import (
    Aggregation,
    ClassScores,
    CompiledTemplate,
    Dataset,
    Diagnostic,
    InputExample,
    LogitsFileScorer,
    NodeKind,
    PipelineConfig,
    PostProcessing,
    PromptPipeError,
    RunReport,
    Segment,
    SlotSpec,
    SoftEmbeddingPlan,
    TemplateAST,
    TemplateLayout,
    TemplateNode,
    TokenizedInput,
    TokenizerKind,
    ToyScorer,
    Verbalizer,
    Vocab,
    WhitespaceTokenizer,
    WordPieceTokenizer,
    WrappedSequence,
    apply_post_processing,
    build_soft_plan,
    build_tokenizer,
    build_verbalizer,
    encode_wrapped,
    ensemble_scores,
    evaluate_accuracy,
    fewshot_sample,
    load_jsonl,
    load_template_file,
    load_verbalizer,
    parse_template,
    project,
    run_pipeline,
    serialize_template,
    validate_template,
    wrap_example,
    wrapped_text,
)
from promptpipe.soft_plan import assign_soft_slots

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
FIXTURE_FILES = sorted(path for path in FIXTURES.rglob("*") if path.is_file())

# --- valid values, built from the fixtures ------------------------------------

VOCAB = Vocab.from_file(FIXTURES / "vocab.txt")
V = len(VOCAB)
TOKENIZERS = [WordPieceTokenizer(VOCAB), WhitespaceTokenizer(VOCAB)]
VERBALIZER = load_verbalizer(FIXTURES / "verbalizer.json", TOKENIZERS[0])
C, W = VERBALIZER.word_mask.shape
ASTS = [ast for name in ("template_sentiment.txt", "template_topic.txt", "templates_showcase.txt")
        for ast in load_template_file(FIXTURES / name)]
DATASETS = [load_jsonl(FIXTURES / "sentiment.jsonl"), load_jsonl(FIXTURES / "topics.jsonl"),
            Dataset(())]
EXAMPLES = [*DATASETS[0].examples[:2], *DATASETS[1].examples[:2], InputExample("g")]
PLANS = [build_soft_plan(ast, TOKENIZERS[0]) for ast in ASTS]
LAYOUTS = [TemplateLayout(ast, plan.node_slots) for ast, plan in zip(ASTS, PLANS)]
COMPILED = [CompiledTemplate(ast, tokenizer, max_len)
            for ast in ASTS[:3] for tokenizer in TOKENIZERS for max_len in (8, 64)]
WRAPPED = [wrap_example(ASTS[0], example) for example in DATASETS[0].examples[:2]]
ENCODED = [encode_wrapped(seq, TOKENIZERS[0], 32) for seq in WRAPPED]
ROWS = [np.zeros((1, V)), np.sin(np.arange(2.0 * V)).reshape(2, V), np.zeros(V),
        np.zeros((1, 3)), np.zeros((0, V)), np.full((1, V), np.nan), np.zeros((1, 1, V)),
        np.zeros((1, V), dtype=np.int64), np.full((1, V), 1e308), [[0.0] * V]]
SCORES = [project(ROWS[1], VERBALIZER), project(ROWS[0], VERBALIZER),
          ClassScores(("a",), (1.0,))]
PRIORS = [VERBALIZER.word_scores(ROWS[1][:1]), VERBALIZER.word_scores(ROWS[1]), np.zeros((1, C)),
          np.full((1, C, W), np.inf), [[[0.0] * W] * C]]
WORDS = [VERBALIZER.word_scores(ROWS[1]), np.zeros((3, 2, C, W)), np.zeros((0, C, W)),
         np.zeros((C, W)), np.full((1, C, W), -np.inf)]

# --- argument strategies --------------------------------------------------------

INTS = st.integers(-4096, 4096)
# values of the wrong type for most arguments: no value here is a path
NOT_PATHS = st.sampled_from([None, True, False, 0, -1, 5, 1.5, math.nan, math.inf, "", b"x",
                             [], (), {}, [5], (5,), {"x": 5}, {5}, object()]) | INTS
JUNK = NOT_PATHS | st.sampled_from(["x", " ", "good", "\ud800"])
TEXT = st.text(max_size=40) | st.sampled_from(["great movie", "It was", " ", "{", "}{",
                                                "a {\"mask\"} b", "\ud800"])
PATHS = st.sampled_from(FIXTURE_FILES) | st.sampled_from([str(p) for p in FIXTURE_FILES]) \
    | NOT_PATHS


def valid_or(values, junk=JUNK):
    """A valid value from ``values`` or a value of ``junk``."""
    return st.sampled_from(values) | junk


AST = valid_or(ASTS)
TOKENIZER = valid_or(TOKENIZERS)
EXAMPLE = valid_or(EXAMPLES)
DATASET = valid_or(DATASETS)
VERBALIZERS = valid_or([VERBALIZER])
NODE_SLOTS = valid_or([plan.node_slots for plan in PLANS] + [assign_soft_slots(ASTS[0]), ()])
PLAN = valid_or(PLANS)
SEQ = valid_or(WRAPPED)
ENCODING = valid_or(ENCODED)
ROW = valid_or(ROWS)
PRIOR = valid_or(PRIORS) | st.none()
AGGREGATION = valid_or([*Aggregation, "max", "First", "mean-log-prob", "median"])
# a scorer's verbalizer; its bound word_scores is a callable of the wrong type
SCORER_VERBALIZER = valid_or([None, VERBALIZER], JUNK | st.just(VERBALIZER.word_scores))
BOOL = st.booleans() | JUNK
TOKENS = valid_or([VOCAB.tokens, list(VOCAB.tokens), ("[PAD]",), (*VOCAB.tokens, "a")]) \
    | st.builds(lambda: iter(VOCAB.tokens))
LABEL_WORDS = valid_or([{"negative": ["bad"], "positive": ["good", "great"]}, {"a": ("zzz",)},
                      {"a": "good"}, {"a": []}, {5: ["good"]}, {}])
TEXTS = valid_or([{"text": "great"}, {"title": "a", "description": "b"}, {}])
KEYS = valid_or([set(), {"text"}, frozenset({"title", "description"})])
GUIDS = valid_or(["s1", "e0", "__content_free__", "missing"])
PAIRS = valid_or([[("s1", "positive")], [("s1", "negative")], [], [("s1",)], [("s2", "positive")],
                "ab"])
OVERRIDES = st.none() | valid_or([{}, {"max_len": 8}, {"max_len": "8"}, {"bogus": 1},
                                {"calibrate": True}, {"templates": 5}, {"output": None}])
FREQUENCIES = valid_or([{"great": 3.0}, {"great": "x"}, {"great": math.nan}, {"great": 10**400},
                      {5: 1.0}, {}])


def call(fn, *args):
    """A strategy of ``(fn, args)``, one argument from each of ``args``."""
    return st.tuples(*args).map(lambda drawn: (fn, drawn))


def method(receivers, name, *args):
    """A strategy of ``(bound method, args)`` on a receiver from ``receivers``."""
    return st.tuples(receivers, *args).map(lambda drawn: (getattr(drawn[0], name), drawn[1:]))


def sweep(out: Path) -> dict:
    """Each public callable's strategy. Outputs, and the logits file the
    replay scorers are built from, go under ``out``."""
    logits = out / "logits.jsonl"
    logits.write_text("".join(
        json.dumps({"guid": guid, "mask_logits": [[0.5] * V] * m}) + "\n"
        for guid, m in (("s1", 1), ("s2", 2), ("__content_free__", 1))), encoding="utf-8")
    scorers = [LogitsFileScorer(logits, V), LogitsFileScorer(logits, V, VERBALIZER)]
    toys = [ToyScorer({"great": 3.0}, VOCAB), ToyScorer({}, VOCAB, VERBALIZER)]
    output = st.sampled_from([None, str(out / "out.jsonl")])
    config = st.builds(
        PipelineConfig,
        templates=valid_or([[str(FIXTURES / "template_sentiment.txt")], [],
                          [str(FIXTURES / "vocab.txt")]]),
        dataset=PATHS, vocab=PATHS, verbalizer=PATHS, tokenizer_kind=valid_or(list(TokenizerKind)),
        max_len=INTS, add_special_tokens=BOOL, aggregation=AGGREGATION, calibrate=BOOL,
        seed=INTS, logits_file=st.none() | PATHS,
        frequency_file=st.none() | PATHS, output=output | NOT_PATHS)
    # the fixture config with its output moved under ``out``
    base = PipelineConfig.from_file(FIXTURES / "run_sentiment.yaml")
    fixture_config = output.map(lambda path: dataclasses.replace(base, output=path))
    layouts = valid_or(LAYOUTS + COMPILED, st.nothing())
    return {
        # records and their checked constructors
        "ClassScores": call(ClassScores, valid_or([VERBALIZER.classes, ("a",), "ab", ()]),
                            valid_or([(1.0, 2.0), (1.0,), [math.nan], (True,), (10**400,)])),
        "CompiledTemplate": call(CompiledTemplate, AST, TOKENIZER, INTS | JUNK, BOOL),
        "Dataset": call(Dataset, valid_or([tuple(EXAMPLES), (EXAMPLES[0],) * 2, ()])),
        "Dataset.from_examples": call(Dataset.from_examples,
                                      valid_or([EXAMPLES, [EXAMPLES[0]] * 2])
                                      | st.builds(lambda: iter(EXAMPLES))),
        "Diagnostic": call(Diagnostic, JUNK, JUNK, JUNK),
        "InputExample": call(InputExample, GUIDS, TEXTS, GUIDS | st.none()),
        "LogitsFileScorer": call(LogitsFileScorer, PATHS, INTS | JUNK, SCORER_VERBALIZER,
                                 valid_or([None, ["s1"], ("s2", "s1"), "s1", [5]])),
        "LogitsFileScorer.__call__": method(st.sampled_from(scorers), "__call__", GUIDS,
                                            ENCODING),
        "LogitsFileScorer.rows": method(st.sampled_from(scorers), "rows", GUIDS, INTS | JUNK),
        "PipelineConfig": call(PipelineConfig, PATHS, PATHS, PATHS, PATHS, JUNK, INTS | JUNK),
        "PipelineConfig.from_file": call(
            PipelineConfig.from_file, st.just(FIXTURES / "run_sentiment.yaml") | PATHS, OVERRIDES),
        "PipelineConfig.validate": method(config | fixture_config, "validate"),
        "PromptPipeError": call(PromptPipeError, JUNK),
        "RunReport": call(RunReport, JUNK, JUNK, JUNK, JUNK),
        "Segment": call(Segment, TEXT | JUNK, BOOL, INTS | JUNK, BOOL),
        "SlotSpec": call(SlotSpec, INTS | JUNK, JUNK, JUNK, BOOL, JUNK),
        "SoftEmbeddingPlan": call(SoftEmbeddingPlan, JUNK, JUNK),
        "SoftEmbeddingPlan.to_json": method(st.sampled_from(PLANS), "to_json"),
        "TemplateAST": call(TemplateAST, valid_or([ast.nodes for ast in ASTS] + [()]), TEXT | JUNK),
        "TemplateAST.meta_keys": method(st.sampled_from(ASTS), "meta_keys"),
        "TemplateLayout": call(TemplateLayout, AST, NODE_SLOTS),
        "TemplateLayout.render": method(layouts, "render", EXAMPLE),
        "CompiledTemplate.render": method(st.sampled_from(COMPILED), "render", EXAMPLE),
        "CompiledTemplate.encode": method(st.sampled_from(COMPILED), "encode", EXAMPLE),
        "TemplateNode": call(TemplateNode, valid_or(list(NodeKind)), TEXT | JUNK, TEXT | JUNK,
                             INTS | JUNK, INTS | JUNK, BOOL, valid_or(list(PostProcessing))),
        "TokenizedInput": call(TokenizedInput, JUNK, JUNK, JUNK, JUNK, JUNK, JUNK),
        "TokenizedInput.to_dict": method(st.sampled_from(ENCODED), "to_dict"),
        "ToyScorer": call(ToyScorer, FREQUENCIES, valid_or([VOCAB]), SCORER_VERBALIZER),
        "ToyScorer.from_file": call(ToyScorer.from_file, PATHS, valid_or([VOCAB]),
                                    SCORER_VERBALIZER),
        "ToyScorer.rows": method(st.sampled_from(toys), "rows", GUIDS, INTS | JUNK),
        "ToyScorer.__call__": method(st.sampled_from(toys), "__call__", GUIDS, ENCODING),
        "Verbalizer": call(Verbalizer, valid_or([VERBALIZER.classes, ("a",), ()]),
                           valid_or([VERBALIZER.label_words, {"a": ("a",)}, {"a": ()}]),
                           valid_or([VERBALIZER.label_word_ids, {"a": ((5,),)}, {"a": ((-1,),)},
                                   {"a": ((True,),)}])),
        "Verbalizer.aggregate": method(st.just(VERBALIZER), "aggregate", valid_or(WORDS),
                                       AGGREGATION, PRIOR),
        "Verbalizer.check_prior": method(st.just(VERBALIZER), "check_prior", PRIOR,
                                         INTS | JUNK),
        "Verbalizer.check_rows": method(st.just(VERBALIZER), "check_rows", ROW),
        "Verbalizer.word_scores": method(st.just(VERBALIZER), "word_scores", ROW),
        "Vocab": call(Vocab, TOKENS),
        "Vocab.from_file": call(Vocab.from_file, PATHS),
        "Vocab.from_tokens": call(Vocab.from_tokens, TOKENS),
        "WhitespaceTokenizer": call(WhitespaceTokenizer, valid_or([VOCAB])),
        "WhitespaceTokenizer.encode": method(st.just(TOKENIZERS[1]), "encode", TEXT | JUNK,
                                             st.none() | INTS | JUNK),
        "WhitespaceTokenizer.tokenize": method(st.just(TOKENIZERS[1]), "tokenize", TEXT | JUNK),
        "WordPieceTokenizer": call(WordPieceTokenizer, valid_or([VOCAB])),
        "WordPieceTokenizer.encode": method(st.just(TOKENIZERS[0]), "encode", TEXT | JUNK,
                                            st.none() | INTS | JUNK),
        "WordPieceTokenizer.tokenize": method(st.just(TOKENIZERS[0]), "tokenize", TEXT | JUNK),
        "WrappedSequence": call(WrappedSequence, JUNK, JUNK, JUNK),
        # the choices' one checked entry
        "Aggregation.parse": call(Aggregation.parse, AGGREGATION),
        "PostProcessing.parse": call(PostProcessing.parse, valid_or([*PostProcessing, "Lowercase"])),
        "TokenizerKind.parse": call(TokenizerKind.parse, valid_or([*TokenizerKind, "WordPiece"])),
        # functions
        "apply_post_processing": call(apply_post_processing, valid_or(list(PostProcessing)),
                                      TEXT | JUNK),
        "build_soft_plan": call(build_soft_plan, AST, TOKENIZER),
        "build_tokenizer": call(build_tokenizer, valid_or([*TokenizerKind, "whitespace"]),
                                valid_or([VOCAB])),
        "build_verbalizer": call(build_verbalizer, LABEL_WORDS, TOKENIZER),
        "encode_wrapped": call(encode_wrapped, SEQ, TOKENIZER, INTS | JUNK, BOOL),
        "ensemble_scores": call(ensemble_scores, valid_or([SCORES[:2], SCORES, [], SCORES[:1]])),
        "evaluate_accuracy": call(evaluate_accuracy, PAIRS, PAIRS),
        "fewshot_sample": call(fewshot_sample, DATASET, INTS | JUNK, INTS | JUNK, BOOL),
        "load_jsonl": call(load_jsonl, PATHS),
        "load_template_file": call(load_template_file, PATHS),
        "load_verbalizer": call(load_verbalizer, PATHS, TOKENIZER),
        "parse_template": call(parse_template, TEXT | JUNK),
        "project": call(project, ROW, VERBALIZERS, AGGREGATION, PRIOR),
        "run_pipeline": call(run_pipeline, config | fixture_config | JUNK),
        "serialize_template": call(serialize_template, AST),
        "validate_template": call(validate_template, AST, KEYS, BOOL),
        "wrap_example": call(wrap_example, AST, EXAMPLE, PLAN | st.none()),
        "wrapped_text": call(wrapped_text, SEQ),
    }


# enum members are looked up by calling the class, as Enum defines it; the
# checked entry of a choice is its ``parse``
NOT_SWEPT = {"Aggregation", "NodeKind", "PostProcessing", "TokenizerKind"}


def public_callables() -> set[str]:
    """Every callable name of ``promptpipe.__all__`` and every public method,
    and ``__call__``, that a promptpipe class defines or inherits from one."""
    names = set()
    for name in promptpipe.__all__:
        obj = getattr(promptpipe, name)
        if callable(obj):
            names.add(name)
        if not inspect.isclass(obj):
            continue
        owners = [owner for owner in obj.__mro__ if owner.__module__.startswith("promptpipe")]
        for member in {member for owner in owners for member in vars(owner)}:
            if member.startswith("_") and member != "__call__":
                continue
            attr = inspect.getattr_static(obj, member)
            if isinstance(attr, (classmethod, staticmethod)) or inspect.isfunction(attr):
                names.add(f"{name}.{member}")
    return names - NOT_SWEPT


@pytest.fixture(scope="module")
def strategies(tmp_path_factory) -> dict:
    return sweep(tmp_path_factory.mktemp("sweep"))


def test_every_public_callable_has_a_strategy(strategies):
    assert NOT_SWEPT <= {name for name in promptpipe.__all__
                         if issubclass(type(getattr(promptpipe, name)), enum.EnumMeta)}
    assert sorted(public_callables() - set(strategies)) == []
    assert sorted(set(strategies) - public_callables()) == []


@pytest.mark.parametrize("name", sorted(public_callables()))
@settings(max_examples=40, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_every_public_callable_returns_or_raises_a_promptpipe_error(name, data, strategies):
    fn, args = data.draw(strategies[name], label=name)
    with warnings.catch_warnings():
        # the lenient sampler warns of a short class, as documented
        warnings.filterwarnings("ignore", r"class .* has only", UserWarning)
        try:
            fn(*args)
        except PromptPipeError:
            pass
