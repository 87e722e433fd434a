import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_quick_start_runs(capsys):
    # The quick start is the public API's front page: it must run as written.
    text = README.read_text()
    section = text[text.index("## Quick start") :]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(code, f"{README}:quick start", "exec"), {})
    assert capsys.readouterr().out.strip()
