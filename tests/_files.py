"""Reading test input through the file readers, the one entry point per format."""

import tempfile
from pathlib import Path


def read_text(read, text, *args):
    """``read(path, *args)`` on a temporary UTF-8 file holding ``text`` as given."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "input.jsonl"
        path.write_text(text, encoding="utf-8", newline="")
        return read(path, *args)
