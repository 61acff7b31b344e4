"""The README's Python API block runs and prints what its comments say."""

import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_api_block(capsys):
    block = re.search(r"## Python API\n+```python\n(.*?)```", README.read_text(), re.S).group(1)
    prints = [line for line in block.splitlines() if line.startswith("print(")]
    expected = [line.split("#", 1)[1].split()[0] for line in prints]
    assert expected == ["success", "23.0", "+-+", "~0.0365"]
    exec(compile(block, str(README), "exec"), {})
    printed = capsys.readouterr().out.splitlines()
    assert printed[:3] == expected[:3]
    assert float(printed[3]) == pytest.approx(0.0365, abs=5e-5)
    assert len(printed) == 4
