"""The README's library tour runs as written, so it cannot name a deleted function."""

import pathlib
import re

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def _tour_blocks() -> list:
    """The python blocks of the "Library tour" section, before its first subsection."""
    text = README.read_text("utf-8")
    tour = text.split("\n## Library tour\n", 1)[1]
    tour = re.split(r"^#{2,3} ", tour, maxsplit=1, flags=re.M)[0]
    return re.findall(r"^```python\n(.*?)^```$", tour, flags=re.M | re.S)


def test_library_tour_runs():
    blocks = _tour_blocks()
    assert len(blocks) == 2
    namespace = {}
    for block in blocks:  # the second block reuses the first one's data
        exec(compile(block, str(README), "exec"), namespace)
    t, ci = namespace["t"], namespace["ci"]
    assert 0.0 <= t.p_value <= 1.0 and ci.contains(float(namespace["cfit"].beta[5]))
    assert len(namespace["pairs_star"]) == namespace["data"].p
