"""Every test lives where the test runners collect it.

Tier-1 collects ``tests/``; the benchmark's own tests live in
``perfbench/``. A ``def test_...`` anywhere else is never run by either,
so a claim asserted there silently drops out of CI. This walks the
repository and fails on any such function.
"""

import ast
import os

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_COLLECTED = {"tests", "perfbench"}


def _test_defs(path):
    """(line, name) of every ``test_*`` function or method in ``path``."""
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), filename=path)
    return [(node.lineno, node.name) for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and node.name.startswith("test_")]


def _python_files(root):
    for dirpath, dirnames, filenames in os.walk(root):
        if dirpath == root:
            dirnames[:] = [d for d in dirnames if d not in _COLLECTED]
        # Hidden dirs (.git, caches), bytecode and virtualenvs hold no
        # project code.
        dirnames[:] = sorted(
            d for d in dirnames
            if not d.startswith(".") and d != "__pycache__"
            and not os.path.exists(os.path.join(dirpath, d, "pyvenv.cfg")))
        for name in sorted(filenames):
            if name.endswith(".py"):
                yield os.path.join(dirpath, name)


def test_no_test_functions_outside_collected_dirs():
    orphans = [f"{os.path.relpath(path, _ROOT)}:{line} {name}"
               for path in _python_files(_ROOT)
               for line, name in _test_defs(path)]
    assert orphans == [], \
        f"test functions no runner collects (move them to tests/): {orphans}"


def test_detector_finds_a_planted_orphan(tmp_path):
    (tmp_path / "tests").mkdir()
    (tmp_path / "tests" / "test_ok.py").write_text("def test_a(): pass\n")
    (tmp_path / "bench").mkdir()
    (tmp_path / "bench" / "bench_x.py").write_text(
        "class TestX:\n    def test_claim(self): pass\n")
    found = [(os.path.relpath(p, tmp_path), _test_defs(p))
             for p in _python_files(str(tmp_path))]
    assert found == [(os.path.join("bench", "bench_x.py"),
                      [(2, "test_claim")])]
