"""The public API: every exported name resolves, and removed names stay gone."""

from __future__ import annotations

import dataclasses
import importlib
import inspect
import pkgutil

import pytest

import promptpipe

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


@pytest.mark.parametrize("name", ["SegmentOrigin", "TokenEntry", "truncate"])
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
    assert not {"origin", "loss"} & {f.name for f in dataclasses.fields(promptpipe.Segment)}
    for fn in (promptpipe.CompiledTemplate, promptpipe.encode_wrapped):
        assert "objective" not in inspect.signature(fn).parameters, fn
    assert not hasattr(promptpipe.tokenization, "_is_causal")
    for module in MODULES:
        for name in ("SegmentOrigin", "TokenEntry", "truncate"):
            assert not hasattr(module, name), (module.__name__, name)
