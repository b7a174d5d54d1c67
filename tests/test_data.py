from __future__ import annotations

import json

import pytest

from promptpipe import Dataset, InputExample, fewshot_sample, load_jsonl, save_jsonl
from promptpipe.data import SplitMix64, fnv1a64
from promptpipe.errors import ConfigError, DuplicateGuid, InsufficientExamples, MalformedLine


def write_jsonl(path, rows):
    path.write_text("".join(json.dumps(r) + "\n" for r in rows), encoding="utf-8")


def test_load_well_formed_lines(tmp_path):
    path = tmp_path / "d.jsonl"
    write_jsonl(
        path,
        [
            {"guid": "a", "label": "x", "meta": {"text": "one"}},
            {"guid": "b", "meta": {"text": "two"}},
            {"guid": "c", "label": "y", "meta": {}},
        ],
    )
    dataset = load_jsonl(path)
    assert len(dataset) == 3
    assert [ex.guid for ex in dataset] == ["a", "b", "c"]
    assert dataset.label_set == {"x", "y"}
    assert dataset.examples[1].label is None


def test_legacy_text_fields_fold_into_meta(tmp_path):
    path = tmp_path / "d.jsonl"
    write_jsonl(path, [{"guid": "a", "text_a": "left", "text_b": "right"}])
    dataset = load_jsonl(path)
    assert dataset.examples[0].meta == {"text_a": "left", "text_b": "right"}


def test_legacy_field_conflicting_with_meta_is_malformed(tmp_path):
    path = tmp_path / "d.jsonl"
    write_jsonl(path, [{"guid": "a", "text_a": "x", "meta": {"text_a": "y"}}])
    with pytest.raises(MalformedLine):
        load_jsonl(path)


def test_duplicate_guid_rejected(tmp_path):
    path = tmp_path / "d.jsonl"
    write_jsonl(path, [{"guid": "a", "meta": {}}, {"guid": "a", "meta": {}}])
    with pytest.raises(DuplicateGuid):
        load_jsonl(path)


def test_duplicate_guid_names_file_and_both_lines(tmp_path):
    path = tmp_path / "d.jsonl"
    path.write_text('{"guid": "a"}\n\n{"guid": "b"}\n{"guid": "a"}\n', encoding="utf-8")
    with pytest.raises(DuplicateGuid, match=r"d\.jsonl:4: guid 'a' already appears on line 1"):
        load_jsonl(path)
    with pytest.raises(DuplicateGuid):
        Dataset.from_examples([InputExample(guid="a", meta={})] * 2)


@pytest.mark.parametrize(
    "line, reason",
    [
        ("not json", "invalid JSON"),
        ("[1, 2]", "expected a JSON object"),
        ('{"guid": ""}', "'guid'"),
        ('{"guid": "b", "label": 3}', "'label'"),
        ('{"guid": "b", "label": ""}', "'label' must be a non-empty string"),
        ('{"guid": "b", "meta": {"text": 5}}', "meta value for 'text'"),
        ('{"guid": "b", "meta": []}', "'meta'"),
        ('{"guid": "b", "text_a": 1}', "'text_a'"),
    ],
)
def test_malformed_line_names_file_and_line(tmp_path, line, reason):
    path = tmp_path / "d.jsonl"
    path.write_text('{"guid": "a"}\r\n' + line + "\r\n", encoding="utf-8")
    with pytest.raises(MalformedLine, match=r"d\.jsonl:2: .*" + reason) as err:
        load_jsonl(path)
    assert err.value.line_no == 2


def test_malformed_line_reports_line_number(tmp_path):
    path = tmp_path / "d.jsonl"
    path.write_text('{"guid": "a", "meta": {}}\nnot json\n', encoding="utf-8")
    with pytest.raises(MalformedLine) as err:
        load_jsonl(path)
    assert err.value.line_no == 2
    write_jsonl(path, [{"guid": "a", "meta": {"k": 5}}])
    with pytest.raises(MalformedLine):
        load_jsonl(path)
    write_jsonl(path, [{"meta": {}}])
    with pytest.raises(MalformedLine):
        load_jsonl(path)


def test_save_round_trips(tmp_path):
    path = tmp_path / "d.jsonl"
    write_jsonl(
        path,
        [
            {"guid": "a", "label": "x", "meta": {"text": "café"}},
            {"guid": "b", "meta": {"text": "two"}},
        ],
    )
    dataset = load_jsonl(path)
    out = tmp_path / "out.jsonl"
    save_jsonl(dataset, out)
    assert load_jsonl(out) == dataset


# --- PRNG reference vectors ---------------------------------------------------


def test_splitmix64_published_outputs():
    gen = SplitMix64(0)
    assert [gen.next() for _ in range(3)] == [
        0xE220A8397B1DCDAF,
        0x6E789E6AA1B965F4,
        0x06C45D188009454F,
    ]


def test_fnv1a64_published_outputs():
    assert fnv1a64(b"") == 0xCBF29CE484222325
    assert fnv1a64(b"a") == 0xAF63DC4C8601EC8C
    assert fnv1a64(b"foobar") == 0x85944171F73967E8


# --- few-shot sampling ----------------------------------------------------------


def test_fewshot_golden_sample(fixtures_dir):
    dataset = load_jsonl(fixtures_dir / "topics.jsonl")
    sample = fewshot_sample(dataset, 2, 7)
    assert [ex.guid for ex in sample] == ["t03", "t01", "t08", "t10"]
    golden = load_jsonl(fixtures_dir / "golden" / "fewshot_topics_k2_seed7.jsonl")
    assert sample == golden


def test_fewshot_balance_and_subset(fixtures_dir):
    dataset = load_jsonl(fixtures_dir / "topics.jsonl")
    sample = fewshot_sample(dataset, 3, 123)
    by_label: dict[str, int] = {}
    for ex in sample:
        by_label[ex.label] = by_label.get(ex.label, 0) + 1
    assert by_label == {"sports": 3, "world": 3}
    guids = [ex.guid for ex in sample]
    assert len(set(guids)) == len(guids)
    assert set(guids) <= {ex.guid for ex in dataset}


def test_fewshot_k_equal_to_class_size_permutes_whole_class(fixtures_dir):
    dataset = load_jsonl(fixtures_dir / "topics.jsonl")
    sample = fewshot_sample(dataset, 5, 7)
    assert len(sample) == 10
    assert {ex.guid for ex in sample} == {ex.guid for ex in dataset}
    assert [ex.guid for ex in sample] != [ex.guid for ex in dataset.examples]


def test_fewshot_strict_insufficient(fixtures_dir):
    dataset = load_jsonl(fixtures_dir / "topics.jsonl")
    with pytest.raises(InsufficientExamples) as err:
        fewshot_sample(dataset, 6, 7)
    assert err.value.have == 5 and err.value.need == 6


def test_fewshot_lenient_takes_whole_class(fixtures_dir):
    dataset = load_jsonl(fixtures_dir / "topics.jsonl")
    with pytest.warns(UserWarning):
        sample = fewshot_sample(dataset, 6, 7, strict=False)
    assert len(sample) == 10


@pytest.mark.parametrize("k, seed, message", [
    (2.5, 7, "'k_per_class' must be an integer, got 2.5"),
    (True, 7, "'k_per_class' must be an integer, got True"),
    (2, "x", "'seed' must be an integer, got 'x'"),
    (2, None, "'seed' must be an integer, got None"),
])
def test_fewshot_rejects_counts_that_are_not_integers(fixtures_dir, k, seed, message):
    dataset = load_jsonl(fixtures_dir / "topics.jsonl")
    with pytest.raises(ConfigError) as failure:
        fewshot_sample(dataset, k, seed)
    assert str(failure.value) == message


def test_fewshot_skips_unlabeled():
    examples = [InputExample(guid=f"g{i}", meta={}, label="x") for i in range(3)]
    examples.append(InputExample(guid="u", meta={}))
    dataset = Dataset.from_examples(examples)
    sample = fewshot_sample(dataset, 3, 0)
    assert all(ex.label == "x" for ex in sample)


def test_fewshot_deterministic_and_seed_sensitive(fixtures_dir):
    dataset = load_jsonl(fixtures_dir / "topics.jsonl")
    runs = [tuple(ex.guid for ex in fewshot_sample(dataset, 2, 7)) for _ in range(3)]
    assert len(set(runs)) == 1
    other = tuple(ex.guid for ex in fewshot_sample(dataset, 2, 8))
    assert other != runs[0]


def test_disjoint_dev_sample_from_the_remaining_examples(fixtures_dir):
    dataset = load_jsonl(fixtures_dir / "topics.jsonl")
    train = fewshot_sample(dataset, 2, 7)
    taken = {ex.guid for ex in train}
    rest = Dataset.from_examples(ex for ex in dataset if ex.guid not in taken)
    dev = fewshot_sample(rest, 2, 7)
    assert not {ex.guid for ex in train} & {ex.guid for ex in dev}
