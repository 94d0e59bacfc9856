"""Every demo imports only public names that exist.

Each demo guards its body with ``if __name__ == "__main__"``, so running
it under another name executes its imports alone.
"""

import pathlib
import runpy

import pytest

_DEMOS = sorted((pathlib.Path(__file__).parent.parent / "demos").glob("*.py"))


def test_demos_found():
    assert len(_DEMOS) >= 6


@pytest.mark.parametrize("path", _DEMOS, ids=lambda p: p.name)
def test_demo_imports(path):
    runpy.run_path(str(path), run_name="demo")
