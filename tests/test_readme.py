"""The README's code and config blocks run against the package as documented."""

import json
import re
from pathlib import Path

import pytest

from qefilters import FilterBankParams
from qefilters.cli import (
    _REDUCE_KEYS,
    _REDUCE_REQUIRED,
    _REG_KEYS,
    _TRAIN_KEYS,
    _TRAIN_REQUIRED,
    _read_config,
    _synth_specs,
    _train_settings,
)

README = Path(__file__).resolve().parent.parent / "README.md"


def _block(heading: str, language: str) -> str:
    """The first ``language`` block under ``heading``."""
    text = README.read_text()
    section = text[text.index(heading) :]
    return re.search(rf"```{language}\n(.*?)```", section, re.DOTALL).group(1)


def test_library_quick_start_runs_with_the_commented_shapes():
    namespace = {}
    exec(compile(_block("## Library quick start", "python"), str(README), "exec"), namespace)
    bank = namespace["bank"]
    assert namespace["reduced"].shape == (2, 3, 32, 32)
    assert namespace["grads"].shape == bank.table.shape == (3, 1, 4)
    assert namespace["reg_grads"].shape == (3, 1, 4)


@pytest.mark.parametrize(
    "heading, reader",
    [
        ("### gen-synth config", _synth_specs),
        ("### train config", _train_settings),
        ("### reduce config", lambda doc: _read_config(doc, _REDUCE_REQUIRED, _REDUCE_KEYS, "reduce config")),
        ("### Filter-bank JSON", FilterBankParams.from_json_dict),
    ],
    ids=["gen-synth", "train", "reduce", "filter-bank"],
)
def test_config_block_passes_the_cli_reader(heading, reader):
    # The readers reject a key they do not know, so every documented key must be one.
    reader(json.loads(_block(heading, "json")))


def test_train_and_reduce_blocks_set_every_key_the_cli_reads():
    # With the reader test above, each block sets exactly the keys its command reads.
    train = json.loads(_block("### train config", "json"))
    assert set(train) == {*_TRAIN_REQUIRED, *_TRAIN_KEYS}
    assert set(train["reg"]) == set(_REG_KEYS)
    reduce = json.loads(_block("### reduce config", "json"))
    assert set(reduce) == {*_REDUCE_REQUIRED, *_REDUCE_KEYS}
