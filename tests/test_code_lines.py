import importlib.util
from pathlib import Path

_PATH = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"
_SPEC = importlib.util.spec_from_file_location("code_lines", _PATH)
code_lines = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(code_lines)

SNIPPET = '''"""A module docstring
over two lines."""

# a comment
import os  # a trailing comment


def join(a,
         b):
    """A function docstring."""
    # a comment inside
    return os.path.join(
        a,

        b,
    )
'''


def test_counts_lines_with_code_only(tmp_path, capsys):
    # the import, the two lines of the def and the four of the call count;
    # docstrings, comments and blank lines do not, even inside the call
    assert code_lines.code_lines(SNIPPET) == 7
    path = tmp_path / "snippet.py"
    path.write_text(SNIPPET)
    assert code_lines.main([str(tmp_path)]) == 0
    assert capsys.readouterr().out.splitlines()[-1].split()[:2] == ["7", "16"]
