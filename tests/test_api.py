import re
from pathlib import Path

import g2abc

README = Path(__file__).resolve().parents[1] / "README.md"


def test_every_public_name_resolves_once():
    names = g2abc.__all__
    assert len(names) == len(set(names))
    missing = [name for name in names if not hasattr(g2abc, name)]
    assert not missing


def test_readme_python_blocks_run():
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(), re.M | re.S)
    assert blocks
    for block in blocks:
        exec(compile(block, str(README), "exec"), {})
