"""A compiled template gives what the reference path gives: this file's own
node-by-node wrap (``reference_wrap``), then ``wrapped_text`` and
``encode_wrapped``, field for field, errors included; ``wrap_example``,
built on the template's layout, equals that reference wrap; a compiled
template's ``measure`` raises what its ``encode`` raises or counts its
masks; and the runner built on it fails at the same guid and stage while
tokenizing only non-shortenable meta values."""

from __future__ import annotations

import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from promptpipe import (
    CompiledTemplate,
    InputExample,
    NodeKind,
    PipelineConfig,
    PostProcessing,
    Segment,
    TemplateAST,
    TemplateNode,
    Vocab,
    WrappedSequence,
    apply_post_processing,
    build_soft_plan,
    build_tokenizer,
    encode_wrapped,
    parse_template,
    run_pipeline,
    wrap_example,
    wrapped_text,
)
from promptpipe.errors import (
    ConfigError,
    MissingMetaKey,
    PipelineStageError,
    PromptPipeError,
    TemplateTooLong,
)
from promptpipe.runner import CONFIG_SCHEMA, _setup
from promptpipe.soft_plan import assign_soft_slots

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
VOCAB = Vocab.from_file(FIXTURES / "vocab.txt")
TOKENIZERS = {kind: build_tokenizer(kind, VOCAB) for kind in ("wordpiece", "whitespace")}
LONGEST = max(map(len, VOCAB.tokens))

# whole tokens, multi-piece words, unknown words, punctuation, capitals and braces
WORDS = ["great", "greatest", "Great", "movie,", "abcab", "cab", "zzz", "It's", "!", "the",
         "news.", "acbacbacbacbacbacbacb", "{0}", "}{"]
TEXT = st.lists(st.sampled_from(WORDS), max_size=12).map(" ".join) | st.sampled_from(
    ["", " ", " \t\n ", "  great  movie  "]
)
KEYS = ["a", "b", "c"]
# one init text per soft_id, as a template allows
SOFT_TEXTS = {None: ["It was", "great", "zzz"], 1: ["It was"], 2: ["movie"]}


@st.composite
def _node(draw) -> TemplateNode:
    kind = draw(st.sampled_from(list(NodeKind)))
    if kind is NodeKind.TEXT:
        return TemplateNode(kind, text=draw(TEXT), shortenable=draw(st.booleans()))
    if kind is NodeKind.MASK:
        return TemplateNode(kind)
    if kind is NodeKind.META:
        return TemplateNode(
            kind,
            meta_key=draw(st.sampled_from(KEYS)),
            shortenable=draw(st.booleans()),
            post_processing=draw(st.none() | st.sampled_from(list(PostProcessing))),
        )
    soft_id = draw(st.none() | st.integers(1, 2))
    return TemplateNode(
        kind,
        text=draw(st.none() | st.sampled_from(SOFT_TEXTS[soft_id])),
        soft_id=soft_id,
        duplicate=draw(st.integers(1, 3)),
    )


@st.composite
def _case(draw):
    """A template, an example (maybe missing a key), a tokenizer and settings."""
    ast = TemplateAST(nodes=tuple(draw(st.lists(_node(), min_size=1, max_size=7))))
    meta = {key: draw(TEXT) for key in KEYS if draw(st.integers(0, 9))}
    tokenizer = TOKENIZERS[draw(st.sampled_from(sorted(TOKENIZERS)))]
    add_specials = draw(st.booleans())
    return ast, InputExample(guid="g", meta=meta), tokenizer, add_specials


def reference_wrap(ast, example, plan=None) -> WrappedSequence:
    """Wrap ``example`` node by node, independently of the template layout."""
    node_slots = plan.node_slots if plan is not None else assign_soft_slots(ast)
    segments = []
    for index, node in enumerate(ast.nodes):
        if node.kind is NodeKind.TEXT:
            segments.append(Segment(text=node.text, shortenable=node.shortenable))
        elif node.kind is NodeKind.MASK:
            segments.append(Segment(text="", is_mask=True))
        elif node.kind is NodeKind.META:
            value = example.meta.get(node.meta_key)
            if value is None:
                raise MissingMetaKey(node.meta_key)
            if node.post_processing is not None:
                value = apply_post_processing(node.post_processing, value)
            segments.append(Segment(text=value, shortenable=node.shortenable))
        else:
            segments += [Segment(text="", soft_slot=slot) for slot in node_slots[index]]
    return WrappedSequence(tuple(segments), example_guid=example.guid, label=example.label)


def _outcome(fn):
    """What ``fn`` returns, or the class and message of the error it raises."""
    try:
        return fn()
    except PromptPipeError as exc:
        return type(exc), str(exc)


def _max_lens(ast, example, tokenizer, plan, add_specials) -> list[int]:
    """Lengths under, at and over the example's full length, and at and
    just under its non-shortenable length."""
    try:
        wrapped = reference_wrap(ast, example, plan)
        full = encode_wrapped(wrapped, tokenizer, 10_000, add_specials)
    except PromptPipeError:
        return [8]
    length = full.length
    fixed = sum(1 for i in range(length) if not full.shortenable_ids[i])
    return sorted({n for n in (fixed - 1, fixed, (fixed + length) // 2, length - 1, length,
                               length + 3) if n >= 0})


@settings(max_examples=500, deadline=None, derandomize=True)
@given(case=_case(), data=st.data())
def test_compiled_template_equals_reference_path(case, data):
    ast, example, tokenizer, add_specials = case
    plan = build_soft_plan(ast, tokenizer)
    max_len = data.draw(st.sampled_from(_max_lens(ast, example, tokenizer, plan, add_specials)))
    template = CompiledTemplate(ast, tokenizer, max_len, add_specials)

    def reference():
        wrapped = reference_wrap(ast, example, plan)
        text = wrapped_text(wrapped)
        return text, encode_wrapped(wrapped, tokenizer, max_len, add_specials)

    def compiled():
        values = template.resolve(example)
        return template.render(values), template.encode(values)

    assert _outcome(compiled) == _outcome(reference)


@settings(max_examples=500, deadline=None, derandomize=True)
@given(case=_case(), data=st.data())
def test_measure_raises_what_encode_raises_or_counts_its_masks(case, data):
    ast, example, tokenizer, add_specials = case
    assume(set(ast.meta_keys()) <= set(example.meta))
    plan = build_soft_plan(ast, tokenizer)
    max_len = data.draw(st.sampled_from(_max_lens(ast, example, tokenizer, plan, add_specials)))
    template = CompiledTemplate(ast, tokenizer, max_len, add_specials)
    values = template.resolve(example)
    assert _outcome(lambda: template.measure(values)) == _outcome(
        lambda: len(template.encode(values).mask_positions))


@settings(max_examples=500, deadline=None, derandomize=True)
@given(case=_case(), with_plan=st.booleans())
def test_wrap_example_equals_reference_wrap(case, with_plan):
    ast, example, tokenizer, _ = case
    plan = build_soft_plan(ast, tokenizer) if with_plan else None
    assert _outcome(lambda: wrap_example(ast, example, plan)) == _outcome(
        lambda: reference_wrap(ast, example, plan))


@pytest.mark.parametrize("kind", sorted(TOKENIZERS))
def test_missing_meta_key_raised_alike(kind):
    tokenizer = TOKENIZERS[kind]
    ast = parse_template('{"meta": "a"} {"mask"} {"meta": "b"} {"meta": "c"}')
    plan = build_soft_plan(ast, tokenizer)
    example = InputExample(guid="g", meta={"a": "great", "c": ""})
    template = CompiledTemplate(ast, tokenizer, 32)
    with pytest.raises(MissingMetaKey) as want:
        reference_wrap(ast, example, plan)
    with pytest.raises(MissingMetaKey) as got:
        template.resolve(example)
    assert got.value.key == want.value.key == "b"


@pytest.mark.parametrize("kind", sorted(TOKENIZERS))
def test_template_too_long_raised_alike(kind):
    tokenizer = TOKENIZERS[kind]
    ast = parse_template('{"meta": "a", "shortenable": False} It is {"mask"} {"meta": "b"}')
    plan = build_soft_plan(ast, tokenizer)
    example = InputExample(guid="g", meta={"a": "the great movie", "b": "great " * 50})
    template = CompiledTemplate(ast, tokenizer, 6)
    with pytest.raises(TemplateTooLong) as want:
        encode_wrapped(reference_wrap(ast, example, plan), tokenizer, 6)
    with pytest.raises(TemplateTooLong) as got:
        template.encode(template.resolve(example))
    assert str(got.value) == str(want.value)


@pytest.mark.parametrize("max_len", ["8", 8.0, True, None])
def test_max_len_must_be_an_integer_as_the_config_schema_says(max_len):
    ast = parse_template('{"meta": "a"} {"mask"}')
    with pytest.raises(ConfigError) as got:
        CompiledTemplate(ast, TOKENIZERS["wordpiece"], max_len)
    with pytest.raises(ConfigError) as want:
        CONFIG_SCHEMA["max_len"].check("max_len", max_len)
    assert str(got.value) == str(want.value) == f"'max_len' must be an integer, got {max_len!r}"


def test_last_shortenable_field_is_tokenized_only_to_its_budget():
    class Counting:
        def __init__(self, inner):
            self.inner, self.vocab, self.limits = inner, inner.vocab, []

        def encode(self, text, limit=None):
            self.limits.append(limit)
            return self.inner.encode(text, limit)

    tokenizer = Counting(TOKENIZERS["wordpiece"])
    ast = parse_template('a {"mask"} news: {"meta": "title"} {"meta": "body"}')
    plan = build_soft_plan(ast, tokenizer)
    template = CompiledTemplate(ast, tokenizer, 16)
    example = InputExample(guid="g", meta={"title": "the movie", "body": "greatest " * 400})
    tokenizer.limits.clear()
    encoded = template.encode(template.resolve(example))
    # CLS a MASK news : the movie SEP leave 16 - 8 = 8 positions for the body
    assert tokenizer.limits == [None, 8]
    assert encoded.length == 16
    assert encoded == encode_wrapped(reference_wrap(ast, example, plan), tokenizer.inner, 16)


# --- tokenizers -------------------------------------------------------------------

_LONG_WORD = st.text(alphabet="abc", min_size=LONGEST, max_size=4 * LONGEST)
_TOKEN_TEXT = st.lists(
    st.sampled_from(WORDS) | st.sampled_from(VOCAB.tokens) | _LONG_WORD, max_size=15
).flatmap(lambda words: st.sampled_from([" ", "  ", "\t", "\n "]).map(lambda sep: sep.join(words)))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(text=_TOKEN_TEXT, limit=st.integers(0, 20))
def test_wordpiece_encode_equals_tokenize_and_stops_at_limit(text, limit):
    tokenizer = TOKENIZERS["wordpiece"]
    ids = tokenizer.encode(text)
    assert ids == [VOCAB.ids[piece] for piece in tokenizer.tokenize(text)]
    assert tokenizer.encode(text, limit) == ids[:limit]


@settings(max_examples=200, deadline=None, derandomize=True)
@given(text=_TOKEN_TEXT, limit=st.integers(0, 20))
def test_whitespace_encode_stops_at_limit(text, limit):
    tokenizer = TOKENIZERS["whitespace"]
    ids = tokenizer.encode(text)
    assert ids == [VOCAB.ids.get(word, VOCAB.unk_id) for word in tokenizer.tokenize(text)]
    assert tokenizer.encode(text, limit) == ids[:limit]


# --- the runner -------------------------------------------------------------------

_RUN_TEMPLATES = [
    '{"meta": "a", "shortenable": False} It is {"mask"} {"meta": "b"}',
    '{"meta": "c"} {"mask"} {"meta": "a", "shortenable": False}',
]
_RUN_MAX_LEN = 9


def _reference_failure(examples) -> tuple[str, str] | None:
    """The first (guid, stage) that fails on the reference path."""
    tokenizer = TOKENIZERS["wordpiece"]
    asts = [parse_template(source) for source in _RUN_TEMPLATES]
    plans = [build_soft_plan(ast, tokenizer) for ast in asts]
    for example in examples:
        for ast, plan in zip(asts, plans):
            try:
                wrapped = reference_wrap(ast, example, plan)
            except PromptPipeError:
                return example.guid, "wrap"
            try:
                encode_wrapped(wrapped, tokenizer, _RUN_MAX_LEN)
            except PromptPipeError:
                return example.guid, "encode"
    return None


_RUN_EXAMPLE = st.fixed_dictionaries(
    {},
    optional={
        "a": st.lists(st.sampled_from(["great", "movie", "the"]), max_size=7).map(" ".join),
        "b": TEXT,
        "c": TEXT,
    },
)


def _write_run(tmp: Path, examples, sources=_RUN_TEMPLATES) -> PipelineConfig:
    """A toy-scorer run of ``sources`` over ``examples``, written under ``tmp``."""
    templates = []
    for i, source in enumerate(sources):
        templates.append(tmp / f"t{i}.txt")
        templates[-1].write_text(source + "\n", encoding="utf-8")
    dataset = tmp / "data.jsonl"
    dataset.write_text("".join(
        json.dumps({"guid": ex.guid, "meta": dict(ex.meta)}) + "\n" for ex in examples))
    return PipelineConfig(
        templates=[str(path) for path in templates],
        dataset=str(dataset),
        vocab=str(FIXTURES / "vocab.txt"),
        verbalizer=str(FIXTURES / "verbalizer.json"),
        frequency_file=str(FIXTURES / "word_scores.json"),
        max_len=_RUN_MAX_LEN,
    )


def _assert_run_fails_as_reference(examples) -> None:
    with tempfile.TemporaryDirectory() as tmp:
        cfg = _write_run(Path(tmp), examples)
        want = _reference_failure(examples)
        if want is None:
            assert run_pipeline(cfg).n_examples == len(examples)
            return
        with pytest.raises(PipelineStageError) as failure:
            run_pipeline(cfg)
        assert (failure.value.guid, failure.value.stage) == want


@settings(max_examples=60, deadline=None, derandomize=True)
@given(metas=st.lists(_RUN_EXAMPLE, min_size=1, max_size=6))
def test_runner_reports_the_first_failing_guid_and_stage(metas):
    _assert_run_fails_as_reference(
        [InputExample(guid=f"e{i}", meta=meta) for i, meta in enumerate(metas)])


def test_runner_fails_where_a_non_shortenable_field_overflows():
    # seven words of "a" leave no room in max_len 9 for either template
    metas = [{"a": "great", "b": "the movie", "c": ""},
             {"a": "the movie " * 3 + "great", "b": "", "c": "the"},
             {"a": "great"}]
    examples = [InputExample(guid=f"e{i}", meta=meta) for i, meta in enumerate(metas)]
    assert _reference_failure(examples) == ("e1", "encode")
    _assert_run_fails_as_reference(examples)


def _runner_tokenizer_calls(tmp_path: Path, sources, examples) -> list[str]:
    """The texts the runner tokenizes per example, after set-up."""
    pipeline, dataset = _setup(_write_run(tmp_path, examples, sources))
    tokenizer = pipeline.templates[0].tokenizer
    assert all(template.tokenizer is tokenizer for template in pipeline.templates)
    calls = []
    encode = tokenizer.encode

    def counting(text, limit=None):
        calls.append(text)
        return encode(text, limit)

    tokenizer.encode = counting
    pipeline.process(dataset.examples)
    return calls


_EXAMPLES = [InputExample(guid=f"e{i}", meta={"a": f"great {i}", "b": "the movie", "c": "!"})
             for i in range(5)]


def test_runner_tokenizes_no_shortenable_field(tmp_path):
    sources = ['{"meta": "a"} It is {"mask"} {"meta": "b"}', '{"meta": "c"} {"mask"} {"meta": "a"}']
    assert _runner_tokenizer_calls(tmp_path, sources, _EXAMPLES) == []


def test_runner_tokenizes_each_non_shortenable_field_once(tmp_path):
    calls = _runner_tokenizer_calls(tmp_path, _RUN_TEMPLATES, _EXAMPLES)
    assert calls == [example.meta["a"] for example in _EXAMPLES for _ in _RUN_TEMPLATES]
