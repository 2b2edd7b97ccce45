"""The README's library example runs verbatim."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_example_runs(capsys):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {})
    assert re.fullmatch(r"P_com = -?\d+\.\d{3}, P_up = -?\d+\.\d{3}\n"
                        r"cross cmc@1: unaligned star \d\.\d{3}, aligned \d\.\d{3}\n",
                        capsys.readouterr().out)
