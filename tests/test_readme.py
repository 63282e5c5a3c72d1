"""The README's library sketch runs as written, and its configuration
tables name the keys of cli._KEYS and each command's other options."""

import re
from pathlib import Path

import numpy as np

from fhn_meanfield import cli

README = Path(__file__).resolve().parents[1] / "README.md"


def test_the_library_sketch_runs_as_written():
    text = README.read_text()
    sketch = text[text.index("## Library sketch"):]
    code = re.search(r"```python\n(.*?)```", sketch, re.S).group(1)
    names = {}
    exec(compile(code, str(README), "exec"), names)
    rec, comp = names["rec"], names["comp"]
    assert np.array_equal(comp.t, rec.t) and np.isfinite(comp.mean_error).all()
    assert names["report"].regime


def _table(text: str, header: str) -> list[list[str]]:
    """The cells of each body row of the README table whose header line
    starts with header."""
    lines = text[text.index(header):].splitlines()
    rows = []
    for line in lines[2:]:
        if not line.startswith("|"):
            break
        rows.append([cell.strip() for cell in line.strip().strip("|").split("|")])
    return rows


def _named(cell: str) -> set[str]:
    """The names a cell sets in backticks, outside parentheses (the values
    of [init] kind, for one)."""
    return set(re.findall(r"`([^`]+)`", re.sub(r"\([^)]*\)", "", cell)))


def _keys_of(section: str, model: str | None = None) -> set[str]:
    return {key for sec, key, _, _, models in cli._KEYS
            if sec == section and (model is None or model in models)}


def test_the_per_command_key_table_matches_the_key_table():
    text = README.read_text()
    header = "| command | `[params]` |"
    sections = re.findall(r"\[(\w+)\]", text[text.index(header):].splitlines()[0])
    sub = next(a for a in cli.build_parser()._actions if a.choices)
    rows = _table(text, header)
    assert {_named(row[0]).pop() for row in rows} == set(sub.choices)
    for row in rows:
        model = sub.choices[_named(row[0]).pop()].get_default("model")
        for section, cell in zip(sections, row[1:]):
            every = _keys_of(section)
            if cell == "all":
                listed = every
            elif cell.startswith("all but "):
                listed = every - _named(cell)
            else:
                listed = _named(cell)
            expected = set() if model is None else _keys_of(section, model)
            assert listed == expected, (row[0], section)


def test_the_per_command_table_names_every_other_option():
    # the other column: each option outside -h, --config, --preset and the
    # flags of the keys the command reads
    rows = _table(README.read_text(), "| command | `[params]` |")
    sub = next(a for a in cli.build_parser()._actions if a.choices)
    for row in rows:
        parser = sub.choices[_named(row[0]).pop()]
        model = parser.get_default("model")
        common = {"-h", "--help", "--config", "--preset"}
        for section, key, _, _, models in cli._KEYS:
            if model in models:
                common.update(cli._flag(section, key)[1])
        options = {name for action in parser._actions for name in action.option_strings}
        assert _named(row[-1]) == options - common, row[0]


def test_the_section_key_table_matches_the_key_table():
    rows = _table(README.read_text(), "| section | keys |")
    assert [_named(row[0]).pop() for row in rows] == [f"[{s}]" for s in cli._SECTIONS]
    for section, keys in rows:
        assert _named(keys) == _keys_of(section.strip("`[]")), section
