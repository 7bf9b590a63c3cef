import json
import re
import subprocess
import sys
from pathlib import Path

import g2abc
from g2abc import gabc

from helpers import python_dash_m_env

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


def readme_section(title):
    """The text of the README section `## title`, up to the next section."""
    return re.search(rf"^## {re.escape(title)}\n(.*?)(?=^## |\Z)", README.read_text(),
                     re.M | re.S).group(1)


def run_g2abc(args, cwd):
    """`python -m g2abc args` in the directory cwd."""
    return subprocess.run([sys.executable, "-m", "g2abc", *args], cwd=cwd,
                          env=python_dash_m_env(), capture_output=True, text=True, timeout=60,
                          check=False)


def test_readme_command_lines_run(tmp_path):
    section = readme_section("Command line")
    block = re.search(r"^```sh\n(.*?)^```$", section, re.M | re.S).group(1)
    lines = [line.split("#")[0].split() for line in block.splitlines()]
    assert [line[:2] for line in lines] == [["g2abc", "gen"], ["g2abc", "analyze"],
                                            ["g2abc", "verify"]]
    for line in lines:
        # the bracketed options too, in order, so that gen writes what analyze reads
        args = [word.strip("[]") for word in line[1:]]
        proc = run_g2abc(args, tmp_path)
        assert proc.returncode == 0, (args, proc.stderr)


def test_readme_example_triple_has_its_stated_properties(tmp_path):
    section = readme_section("Command line")
    example = re.search(r"^```json\n(.*?)^```$", section, re.M | re.S).group(1)
    assert "This one is closed (`d phi = 0`), has `tau2 = -2 e34 + 2 e56`, and its full\n" \
        "torsion tensor is divergence-free." in section
    (tmp_path / "example.json").write_text(example)
    proc = run_g2abc(["analyze", "--input", "example.json", "--json"], tmp_path)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["flags"]["closed"]
    assert report["tau2"] == {"34": -2.0, "56": 2.0}
    assert report["div_torsion"] == [0.0] * 7


def side_text(side):
    """A side of gabc's table of the gated quantities as README writes it: `source: block`,
    then the gabc constant that selects its columns, if any; 0 for the zero side."""
    if side is None:
        return "0"
    text = f"`{': '.join(side[:2])}`"
    for selected in side[2:]:
        text += " at `" + next(name for name, value in vars(gabc).items() if value is selected) + "`"
    return text


def test_readme_shows_the_table_of_the_gated_quantities():
    rows = [line for line in readme_section("The gated quantities").splitlines()
            if line.startswith("|")]
    assert rows[:2] == ["| quantity | left | right | families | kind |", "|---|---|---|---|---|"]
    families = lambda kinds: "all" if kinds == gabc._FAMILIES else ", ".join(k.value for k in kinds)
    assert rows[2:] == [f"| `{name}` | {side_text(left)} | {side_text(right)} | "
                        f"{families(kinds)} | {kind} |"
                        for name, left, right, kinds, kind in gabc._QUANTITY_TABLE]
