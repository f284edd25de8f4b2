import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_library_example_runs(capsys):
    # a documented name that is deleted or renamed fails here
    block = re.search(r"^## Library example\n\n```python\n(.*?)^```",
                      README.read_text(), re.S | re.M).group(1)
    exec(compile(block, "README.md: Library example", "exec"), {})
    printed = capsys.readouterr().out.splitlines()
    assert len(printed) == 2
    assert printed[-1].startswith("True ")
