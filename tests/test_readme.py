"""The README's Python stays live: the quick tour runs as printed, every
``hf.<name>[.<attr>]`` chain of its Python blocks resolves in ``hdffm``, and
its "API" table lists exactly the names that ``hdffm`` exports.

The "Library workflows" block is only name-checked: it reads a mortality
CSV, ``rates.csv``, that the repository does not hold.
"""

import os
import re
import types

import hdffm

README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")


def python_blocks() -> dict:
    """The README's Python blocks, each by the heading above it."""
    blocks, heading, block, fenced = {}, None, None, False
    with open(README, encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("```"):
                if block is not None:
                    blocks[heading] = "".join(block)
                fenced = not fenced
                block = [] if fenced and line.strip() == "```python" else None
            elif block is not None:
                block.append(line)
            elif not fenced and line.startswith("#"):
                heading = line.lstrip("#").strip()
    return blocks


def test_quick_tour_selects_three_factors():
    namespace = {}
    exec(compile(python_blocks()["Library quick tour"], README, "exec"), namespace)
    assert namespace["r"] == 3  # as the tour's comment says


def test_every_hf_chain_resolves():
    blocks = python_blocks()
    assert {"Library quick tour", "Library workflows"} <= set(blocks)
    missing = []
    for heading, code in blocks.items():
        chains = re.findall(r"\bhf\.(\w+)(?:\.(\w+))?", code)
        assert chains, heading
        for name, attr in chains:
            obj = getattr(hdffm, name, None)
            if obj is None or (attr and not hasattr(obj, attr)):
                missing.append(f"{heading}: hf.{name}" + (f".{attr}" if attr else ""))
    assert missing == []


def api_table_names() -> list:
    """The first-column names of the table in the README's "API" section."""
    names, in_api = [], False
    with open(README, encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("## "):
                in_api = line.strip() == "## API"
            elif in_api and line.startswith("| `"):
                names.append(line.split("|")[1].strip().strip("`"))
    return names


def test_api_table_is_the_export_list():
    exported = {name for name, obj in vars(hdffm).items()
                if not name.startswith("_") and not isinstance(obj, types.ModuleType)}
    table = api_table_names()
    assert len(table) == len(set(table)), "a name has two rows"
    assert sorted(set(table) - exported) == [], "in the table but not exported"
    assert sorted(exported - set(table)) == [], "exported but not in the table"
