"""The README's library example runs against the current API."""
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_example_runs(capsys):
    (code,) = re.findall(r"```python\n(.*?)```", README.read_text(), flags=re.DOTALL)
    namespace = {}
    exec(compile(code, str(README), "exec"), namespace)
    assert namespace["report"].empirical_cov.shape == (2, 2)
    assert "0.58578644" in capsys.readouterr().out
