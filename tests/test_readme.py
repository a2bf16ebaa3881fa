"""The README's Python stays live: the quick tour runs as printed, and every
``hf.<name>[.<attr>]`` chain of its Python blocks resolves in ``hdffm``.

The "Library workflows" block is only name-checked: it reads a mortality
CSV, ``rates.csv``, that the repository does not hold.
"""

import os
import re

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
