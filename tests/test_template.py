from __future__ import annotations

import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from promptpipe import (
    NodeKind,
    PostProcessing,
    TemplateAST,
    TemplateNode,
    load_template_file,
    parse_template,
    serialize_template,
    validate_template,
)
from promptpipe.errors import (
    ConflictingAttributes,
    ConflictingSoftIdInitialization,
    EmptyTemplate,
    InvalidValueType,
    TemplateError,
    UnbalancedBrace,
    UnknownAttributeKey,
)


def text(s: str, shortenable: bool = False) -> TemplateNode:
    return TemplateNode(kind=NodeKind.TEXT, text=s, shortenable=shortenable)


def meta(key: str, shortenable: bool = True, pp=None) -> TemplateNode:
    return TemplateNode(
        kind=NodeKind.META, meta_key=key, shortenable=shortenable, post_processing=pp
    )


MASK = TemplateNode(kind=NodeKind.MASK)


def test_topic_template_golden_ast():
    ast = parse_template('a {"mask"} news: {"meta": "title"} {"meta": "description"}')
    assert ast.nodes == (
        text("a "),
        MASK,
        text(" news: "),
        meta("title"),
        text(" "),
        meta("description"),
    )


def test_anonymous_duplicated_soft_golden_ast():
    ast = parse_template('{"soft": None, "duplicate": 100} {"meta": "text"} {"mask"}')
    assert ast.nodes == (
        TemplateNode(kind=NodeKind.SOFT, duplicate=100),
        text(" "),
        meta("text"),
        text(" "),
        MASK,
    )


def test_plain_text_parses_to_single_node():
    ast = parse_template("hello world")
    assert ast.nodes == (text("hello world"),)


def test_unclosed_node_is_unbalanced():
    with pytest.raises(UnbalancedBrace):
        parse_template('{"mask"')


def test_stray_closing_brace_is_unbalanced():
    with pytest.raises(UnbalancedBrace):
        parse_template('oops } here')


def test_empty_source_is_structured_error():
    with pytest.raises(EmptyTemplate):
        parse_template("")


def test_unknown_key_rejected():
    with pytest.raises(UnknownAttributeKey):
        parse_template('{"msak"}')
    with pytest.raises(UnknownAttributeKey):
        parse_template('{"meta": "t", "color": "red"}')


def test_mask_plus_meta_conflict():
    with pytest.raises(ConflictingAttributes):
        parse_template('{"mask": None, "meta": "title"}')


def test_duplicate_restricted_to_soft_nodes():
    with pytest.raises(ConflictingAttributes):
        parse_template('{"meta": "title", "duplicate": 3}')
    with pytest.raises(ConflictingAttributes):
        parse_template('{"mask": None, "duplicate": 2}')


def test_value_type_errors():
    with pytest.raises(InvalidValueType):
        parse_template('{"meta": 3}')
    with pytest.raises(InvalidValueType):
        parse_template('{"soft": None, "duplicate": "many"}')
    with pytest.raises(InvalidValueType):
        parse_template('{"soft": None, "duplicate": 0}')
    with pytest.raises(InvalidValueType):
        parse_template('{"soft_id": -1}')
    with pytest.raises(InvalidValueType):
        parse_template('{"meta": "t", "shortenable": "no"}')


def test_shortenable_never_true_on_control_nodes():
    with pytest.raises(ConflictingAttributes):
        parse_template('{"mask": None, "shortenable": True}')
    with pytest.raises(ConflictingAttributes):
        parse_template('{"soft": "hi", "shortenable": True}')
    # explicit False is redundant but legal
    ast = parse_template('{"soft": "hi", "shortenable": False} {"mask"}')
    assert ast.nodes[0].shortenable is False


def test_conflicting_soft_id_initialization_rejected():
    with pytest.raises(ConflictingSoftIdInitialization):
        parse_template('{"soft": "the", "soft_id": 1} x {"soft": "a", "soft_id": 1}')


def test_hand_built_ast_with_conflicting_soft_id_rejected():
    nodes = (
        TemplateNode(kind=NodeKind.SOFT, text="the", soft_id=1),
        TemplateNode(kind=NodeKind.SOFT, soft_id=1),
        TemplateNode(kind=NodeKind.SOFT, text="a", soft_id=1),
        MASK,
    )
    with pytest.raises(ConflictingSoftIdInitialization, match="soft_id 1"):
        TemplateAST(nodes=nodes)


# Each bad node sits at offset 4, after "abc ". The error names that offset
# whichever rule rejects it.
NODE_ERRORS = [
    ('{"mask", "post_processing": "lowercase"}', ConflictingAttributes),
    ('{"mask", "duplicate": 1}', ConflictingAttributes),
    ('{"mask", "shortenable": True}', ConflictingAttributes),
    ('{"mask": "x"}', InvalidValueType),
    ('{"meta": ""}', InvalidValueType),
    ('{"meta"}', InvalidValueType),
    ('{"meta": "t", "duplicate": 1}', ConflictingAttributes),
    ('{"soft_id": 0}', InvalidValueType),
    ('{"soft_id": "1"}', InvalidValueType),
    ('{"soft", "shortenable": True}', ConflictingAttributes),
    ('{"soft": 3}', InvalidValueType),
    ('{"soft", "duplicate": 0}', InvalidValueType),
    ('{"soft", "post_processing": 1}', InvalidValueType),
    ('{"soft", "soft", "soft_id": 1}', ConflictingAttributes),
    ('{"soft", "meta": "t"}', ConflictingAttributes),
    ('{"shortenable": False}', ConflictingAttributes),
    ("{}", ConflictingAttributes),
    ('{"colour": 1}', UnknownAttributeKey),
    ('{"mask",}', InvalidValueType),
    ('{"soft", "duplicate": 1.5}', InvalidValueType),
    ('{"soft_id": true}', InvalidValueType),
    ('{"meta": abc}', InvalidValueType),
]


@pytest.mark.parametrize("node, error", NODE_ERRORS)
def test_node_errors_name_class_and_offset(node, error):
    with pytest.raises(error, match=r"node at offset 4: ") as err:
        parse_template("abc " + node + " {\"mask\"}")
    assert type(err.value) is error


@pytest.mark.parametrize(
    "node, message",
    [
        ('{"soft", "duplicate": 1.5}', "duplicate must be an integer, got 1.5"),
        ('{"soft_id": true}', "soft_id must be an integer, got True"),
        ('{"meta": abc}', "meta_key must be a string, got abc"),
        ('{"meta": 3}', "meta_key must be a string, got 3"),
        ('{"soft", "post_processing": null}', '"post_processing" needs a value'),
        ('{"soft_id"}', '"soft_id" needs a value'),
    ],
)
def test_value_type_errors_name_the_field_and_value(node, message):
    with pytest.raises(InvalidValueType) as failure:
        parse_template(node)
    assert str(failure.value) == f"node at offset 0: {message}"


@pytest.mark.parametrize("kind", ["x", "text", None])
def test_node_kind_must_be_a_node_kind(kind):
    with pytest.raises(InvalidValueType, match="node kind must be a NodeKind") as failure:
        TemplateNode(kind=kind)
    assert isinstance(failure.value, TemplateError)


@pytest.mark.parametrize(
    "kind, field, value",
    [
        (NodeKind.SOFT, "soft_id", "1"),
        (NodeKind.SOFT, "soft_id", True),
        (NodeKind.SOFT, "soft_id", 1.0),
        (NodeKind.SOFT, "duplicate", "many"),
        (NodeKind.SOFT, "duplicate", True),
        (NodeKind.SOFT, "duplicate", 2.5),
        (NodeKind.TEXT, "text", 5),
        (NodeKind.SOFT, "text", b"It was"),
        (NodeKind.META, "meta_key", 5),
        (NodeKind.META, "shortenable", "no"),
        (NodeKind.META, "shortenable", 1),
        (NodeKind.META, "post_processing", "lowercase"),
    ],
)
def test_node_fields_are_type_checked_at_construction(kind, field, value):
    fields = {"text": "x"} if kind is NodeKind.TEXT else {}
    if kind is NodeKind.META:
        fields["meta_key"] = "t"
    fields[field] = value
    with pytest.raises(InvalidValueType) as failure:
        TemplateNode(kind, **fields)
    assert str(failure.value).startswith(f"{field} must be ")
    assert str(failure.value).endswith(f", got {value!r}")


# a value other than the default for each field, and the fields each kind
# may carry (as the module docstring describes)
_NOT_DEFAULT = {"text": "x", "meta_key": "k", "soft_id": 1, "duplicate": 2, "shortenable": True,
        "post_processing": PostProcessing.LOWERCASE}
_CARRIES = {
    NodeKind.TEXT: {"text", "shortenable"},
    NodeKind.MASK: set(),
    NodeKind.META: {"meta_key", "shortenable", "post_processing"},
    NodeKind.SOFT: {"text", "soft_id", "duplicate", "post_processing"},
}


@pytest.mark.parametrize(
    "kind, field", [(k, f) for k in NodeKind for f in _NOT_DEFAULT if f not in _CARRIES[k]]
)
def test_a_kind_carries_only_its_own_fields(kind, field):
    required = {NodeKind.TEXT: {"text": "x"}, NodeKind.META: {"meta_key": "k"}}.get(kind, {})
    with pytest.raises(ConflictingAttributes, match=f"^{kind.value} node cannot carry {field}$"):
        TemplateNode(kind, **{**required, field: _NOT_DEFAULT[field]})
    for allowed in _CARRIES[kind]:
        TemplateNode(kind, **{**required, allowed: _NOT_DEFAULT[allowed]})


@pytest.mark.parametrize(
    "fields, message",
    [
        ({"nodes": (1,)}, "nodes[0] must be a TemplateNode, got 1"),
        ({"nodes": [MASK]}, "nodes must be a tuple, got list"),
        ({"nodes": (MASK,), "source": None}, "source must be a string, got None"),
    ],
    ids=["int_node", "list_nodes", "none_source"],
)
def test_ast_fields_are_type_checked_at_construction(fields, message):
    with pytest.raises(InvalidValueType) as failure:
        TemplateAST(**fields)
    assert str(failure.value) == message


@pytest.mark.parametrize("source", [5, None, b'{"mask"}'])
def test_parse_template_takes_only_a_string(source):
    with pytest.raises(InvalidValueType, match="template source must be a string"):
        parse_template(source)


def test_serialize_template_takes_only_an_ast():
    with pytest.raises(InvalidValueType, match="serialize_template takes a TemplateAST, got 5"):
        serialize_template(5)


def test_same_initialization_twice_is_fine():
    ast = parse_template('{"soft": "the", "soft_id": 1} x {"soft": "the", "soft_id": 1}')
    assert sum(1 for n in ast.nodes if n.kind is NodeKind.SOFT) == 2


def test_python_and_json_literal_spellings():
    for spelling in ("None", "null"):
        ast = parse_template('{"soft": %s} {"mask"}' % spelling)
        assert ast.nodes[0].text is None
    for spelling in ("False", "false"):
        ast = parse_template('{"meta": "t", "shortenable": %s} {"mask"}' % spelling)
        assert ast.nodes[0].shortenable is False
    for spelling in ("True", "true"):
        ast = parse_template('{"meta": "t", "shortenable": %s} {"mask"}' % spelling)
        assert ast.nodes[0].shortenable is True


def test_post_processing_lambda_alias_and_names():
    ast = parse_template(
        '{"meta": "context", "post_processing": lambda s: s.rstrip(string.punctuation)} {"mask"}'
    )
    assert ast.nodes[0].post_processing is PostProcessing.STRIP_TRAILING_PUNCTUATION
    ast = parse_template('{"meta": "t", "post_processing": "lowercase"} {"mask"}')
    assert ast.nodes[0].post_processing is PostProcessing.LOWERCASE
    with pytest.raises(InvalidValueType):
        parse_template('{"meta": "t", "post_processing": lambda s: s[::-1]} {"mask"}')


@pytest.mark.parametrize("name, member", [
    ("Lowercase", PostProcessing.LOWERCASE),
    (" lowercase ", PostProcessing.LOWERCASE),
    ("Strip-Trailing-Punctuation", PostProcessing.STRIP_TRAILING_PUNCTUATION),
], ids=["capitalized", "padded", "hyphenated"])
def test_post_processing_names_match_as_every_choice_does(name, member):
    ast = parse_template('{"meta": "t", "post_processing": %s} {"mask"}' % json.dumps(name))
    assert ast.nodes[0].post_processing is member is PostProcessing.parse(name)


def test_unknown_post_processing_name_lists_the_valid_ones():
    with pytest.raises(InvalidValueType) as failure:
        parse_template('abc {"meta": "t", "post_processing": "reverse"} {"mask"}')
    assert str(failure.value) == (
        "node at offset 4: unknown post_processing 'reverse'; expected one of "
        "strip_trailing_punctuation, lowercase, prepend_space"
    )


def test_meta_defaults_shortenable_others_not():
    ast = parse_template('x {"meta": "t"} {"soft"} {"mask"}')
    kinds = {n.kind: n for n in ast.nodes}
    assert kinds[NodeKind.META].shortenable is True
    assert kinds[NodeKind.TEXT].shortenable is False
    assert kinds[NodeKind.SOFT].shortenable is False
    assert kinds[NodeKind.MASK].shortenable is False


def test_whitespace_between_nodes_preserved_exactly():
    source = '  a  {"mask"}   b {"meta": "t"}\tc  '
    ast = parse_template(source)
    texts = [n.text for n in ast.nodes if n.kind is NodeKind.TEXT]
    assert texts == ["  a  ", "   b ", "\tc  "]


def test_whitespace_fidelity_against_source():
    # replacing each brace node span with a marker reproduces the source
    source = 'a {"mask"} news: {"meta": "title"} {"meta": "description"}'
    ast = parse_template(source)
    rebuilt = "".join(
        n.text if n.kind is NodeKind.TEXT else "\x00" for n in ast.nodes
    )
    import re

    stripped = re.sub(r"\{[^{}]*\}", "\x00", source)
    assert rebuilt == stripped


SHOWCASE_VARIANTS = [
    '{"mask"}',
    '{"soft"}',
    '{"soft": "warm start"} {"mask"}',
    '{"soft_id": 2} {"soft_id": 2} {"mask"}',
    '{"soft": "a b c", "soft_id": 3} and {"soft_id": 3} {"mask"}',
    'prefix {"meta": "x", "shortenable": false} suffix {"mask"}',
    '{"meta": "x", "post_processing": "prepend_space"}{"mask"}',
    '{"meta": "x", "post_processing": "strip_trailing_punctuation"}. {"mask"}',
    '{"soft": None, "duplicate": 7} {"mask"}',
    '{"soft": "It was", "duplicate": 2} {"mask"}',
    'unicode éàü {"meta": "café"} {"mask"}',
    'tight{"mask"}fit',
    '{ "meta" : "spaced" } {"mask"}',
    '{"meta":"nospace"}{"mask"}',
    'a {"mask"} b {"mask"} c',
    '{"soft": "x"}{"soft": "y"}{"mask"}',
    '{"meta": "m1"} {"meta": "m2"} {"meta": "m1"} {"mask"}',
    'json-ish text: 1, 2, 3 {"mask"}',
    '{"soft": "quote \\" inside"} {"mask"}',
    'trailing text after {"mask"} the end ',
]


@pytest.mark.parametrize("source", SHOWCASE_VARIANTS)
def test_round_trip_on_generated_variants(source):
    ast = parse_template(source)
    again = parse_template(serialize_template(ast))
    assert again.nodes == ast.nodes


def test_round_trip_on_showcase_file(fixtures_dir):
    templates = load_template_file(fixtures_dir / "templates_showcase.txt")
    assert len(templates) == 7
    for ast in templates:
        again = parse_template(serialize_template(ast))
        assert again.nodes == ast.nodes


_LITERAL = st.text(st.characters(exclude_characters="{}"), min_size=1)
_POST_PROCESSING = st.none() | st.sampled_from(list(PostProcessing))


@st.composite
def _node_sequences(draw) -> tuple[TemplateNode, ...]:
    """Valid nodes as a parse yields them: no two text nodes in a row, one
    init text per soft_id."""
    init_texts: dict[int, str] = {}
    nodes: list[TemplateNode] = []
    for _ in range(draw(st.integers(0, 6))):
        if draw(st.booleans()):
            nodes.append(text(draw(_LITERAL)))
        kind = draw(st.sampled_from([NodeKind.MASK, NodeKind.META, NodeKind.SOFT]))
        if kind is NodeKind.MASK:
            nodes.append(MASK)
        elif kind is NodeKind.META:
            key = draw(st.text(min_size=1))
            nodes.append(meta(key, draw(st.booleans()), draw(_POST_PROCESSING)))
        else:
            soft_id = draw(st.none() | st.integers(1, 3))
            init = draw(st.none() | st.text(min_size=1))
            if soft_id is not None and init is not None:
                init = init_texts.setdefault(soft_id, init)
            nodes.append(
                TemplateNode(
                    kind=NodeKind.SOFT,
                    text=init,
                    soft_id=soft_id,
                    duplicate=draw(st.integers(1, 5)),
                    post_processing=draw(_POST_PROCESSING),
                )
            )
    if not nodes or draw(st.booleans()):
        nodes.append(text(draw(_LITERAL)))
    return tuple(nodes)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(nodes=_node_sequences())
def test_parse_inverts_serialize_on_generated_nodes(nodes):
    ast = TemplateAST(nodes=nodes)
    assert parse_template(serialize_template(ast)).nodes == ast.nodes


def test_serialize_keeps_duplicate_count():
    ast = parse_template('{"soft": None, "duplicate": 100} {"mask"}')
    assert '"duplicate": 100' in serialize_template(ast)


def test_serialize_pure_text_is_identity():
    ast = TemplateAST(nodes=(text("x"),), source="x")
    assert serialize_template(ast) == "x"


def test_validate_meta_keys():
    ast = parse_template('a {"mask"} news: {"meta": "title"} {"meta": "description"}')
    assert validate_template(ast, {"title", "description"}) == []
    diags = validate_template(ast, {"title"})
    assert [d.code for d in diags] == ["unknown_meta_key"]
    assert "description" in diags[0].message


def test_validate_shared_soft_with_one_initialization_is_clean():
    ast = parse_template(
        '{"meta": "premise"} {"meta": "hypothesis"} {"soft": "Does"} '
        '{"soft": "the", "soft_id": 1} first sentence entails {"soft_id": 1} second?'
    )
    assert validate_template(ast, {"premise", "hypothesis"}, require_mask=False) == []


def test_validate_flags_missing_mask_for_classification():
    ast = parse_template("no slots here")
    codes = [d.code for d in validate_template(ast, set())]
    assert "no_mask_node" in codes


def test_template_file_comments_and_blanks(tmp_path):
    path = tmp_path / "t.txt"
    path.write_text('# comment\n\n{"mask"} one\n\n# two\nplain\n', encoding="utf-8")
    templates = load_template_file(path)
    assert len(templates) == 2


@pytest.mark.parametrize("char", ["\u2028", "\u2029", "\x85", "\x0c", "\x1c", "\x1d", "\x1e"])
def test_template_file_lines_end_only_at_newlines(tmp_path, char):
    path = tmp_path / "t.txt"
    source = f'one{char}two {{"mask"}} three{char}'
    path.write_bytes(("# c\r\n" + source + "\r\n" + source).encode("utf-8"))
    templates = load_template_file(path)
    assert [ast.source for ast in templates] == [source, source]
    assert templates[0].nodes[0].text == f"one{char}two "


def test_template_file_errors_carry_line_number(tmp_path):
    path = tmp_path / "t.txt"
    path.write_text('{"mask"}\n{"mask"\n', encoding="utf-8")
    with pytest.raises(UnbalancedBrace) as err:
        load_template_file(path)
    assert ":2:" in str(err.value)


def test_parsing_is_total_on_fuzzed_input():
    rng = random.Random(20240817)
    alphabet = '{}":, \\\'abXYZ09-é中\nlambda().'
    for _ in range(10_000):
        source = "".join(rng.choice(alphabet) for _ in range(rng.randrange(0, 40)))
        try:
            ast = parse_template(source)
            assert ast.nodes
        except TemplateError:
            pass
