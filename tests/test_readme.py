"""README.md stays true to the code: its library imports run and its list
of global options is the parser's."""

import re
from pathlib import Path

from tractodist.cli import build_parser
from tractodist.embedding import DEFAULT_PROTOTYPE_COUNT, DEFAULT_SUBSET_CAP, default_subset_size

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()


def test_library_entry_points_block_runs():
    block = re.search(r"## Library entry points\s*```python\n(.*?)```", README, re.S)
    assert block is not None
    exec(block.group(1), {})


def test_global_options_sentence_names_every_global_option():
    sentence = re.search(r"Global options\s*\((.*?)\)\s*go\s+before\s+the\s+subcommand",
                         README, re.S)
    assert sentence is not None
    documented = re.findall(r"`(--[a-z-]+)`", sentence.group(1))
    defined = [opt for action in build_parser()._actions
               for opt in action.option_strings
               if opt.startswith("--") and opt != "--help"]
    assert sorted(documented) == sorted(defined)


def test_prototype_selection_states_the_subset_rule():
    section = re.search(r"### Prototype selection\n(.*?)\n### ", README, re.S).group(1)
    text = " ".join(section.split())
    subset = default_subset_size(10_000, DEFAULT_PROTOTYPE_COUNT)
    assert f"min(N, {DEFAULT_SUBSET_CAP}, max(p, ⌈3·p·ln p⌉))" in text
    assert f"{subset} at the default {DEFAULT_PROTOTYPE_COUNT} prototypes" in text
    assert f"N ≤ {subset} at {DEFAULT_PROTOTYPE_COUNT} prototypes" in text
    first_capped = next(p for p in range(1, DEFAULT_SUBSET_CAP)
                        if default_subset_size(10_000, p) == DEFAULT_SUBSET_CAP)
    assert f"from p = {first_capped} on" in text
