"""The README's library quick start runs as written."""

import pathlib
import re

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def test_readme_python_block_runs(capsys):
    text = README.read_text()
    (block,) = re.finditer(r"```python\n(.*?)```", text, re.S)
    # pad with the lines above the block, so a traceback names README lines
    source = "\n" * text.count("\n", 0, block.start(1)) + block.group(1)
    exec(compile(source, str(README), "exec"), {})
    assert capsys.readouterr().out
