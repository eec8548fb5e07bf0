"""The README's library snippets hold against the library as it is, so a
renamed function breaks the suite rather than the docs."""

import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parent.parent / "README.md"
SNIPPETS = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)


def test_sample_set_snippet_runs():
    (snippet,) = [s for s in SNIPPETS if "SampleSet(" in s]
    namespace = {}
    exec(compile(snippet, "README.md", "exec"), namespace)
    assert namespace["members"].boxes.std(axis=0).tolist() == [0.5, 0.25, 0.5, 0.5]


@pytest.mark.parametrize("snippet", SNIPPETS, ids=range(len(SNIPPETS)))
def test_snippet_imports_exist(snippet):
    # The other snippets read files; their imports still have to resolve.
    imports = [line for line in snippet.splitlines() if line.startswith(("import ", "from "))]
    assert imports
    exec("\n".join(imports), {})
