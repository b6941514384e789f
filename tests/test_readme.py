"""The README's library quick start runs as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_quick_start_runs(tmp_path, monkeypatch):
    section = README.read_text().split("## Library quick start", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    monkeypatch.chdir(tmp_path)
    namespace = {}
    exec(compile(code, str(README), "exec"), namespace)
    assert namespace["J"].shape == (namespace["qp"].n, 2)
    assert (tmp_path / "pieces.csv").exists()
