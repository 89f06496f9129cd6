"""The test configuration imports the voltsentry that PYTHONPATH names,
else the checkout's own."""

import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

STUB_TEST = """
import voltsentry


def test_stub_imported():
    assert voltsentry.STUB
"""


def test_pythonpath_package_wins_over_checkout(tmp_path):
    """pytest run with the repository's configuration on a test that
    imports voltsentry, with PYTHONPATH naming a stub package: the stub is
    what the test imports, not the checkout's src."""
    stub = tmp_path / "stub" / "voltsentry"
    stub.mkdir(parents=True)
    (stub / "__init__.py").write_text("STUB = True\n")
    test = tmp_path / "run" / "test_stub.py"
    test.parent.mkdir()
    test.write_text(STUB_TEST)
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", os.path.join(ROOT, "pyproject.toml"), str(test)],
        cwd=test.parent, capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=str(stub.parent)))
    assert done.returncode == 0, done.stdout + done.stderr


WHICH_TEST = """
import os

import voltsentry


def test_copy_imported():
    here = os.path.dirname(os.path.abspath(__file__))
    src = os.path.join(os.path.dirname(here), "src")
    assert os.path.dirname(os.path.dirname(voltsentry.__file__)) == src
"""


def test_bare_run_imports_its_own_tree(tmp_path):
    """A bare pytest run in a copy of the repository, with another
    voltsentry importable (here a stub in the working directory, as an
    editable install of another checkout would be): the copy's own src is
    what its tests import."""
    tree = tmp_path / "tree"
    shutil.copytree(os.path.join(ROOT, "src", "voltsentry"),
                    tree / "src" / "voltsentry",
                    ignore=shutil.ignore_patterns("__pycache__"))
    (tree / "tests").mkdir()
    shutil.copy(os.path.join(ROOT, "pyproject.toml"), tree)
    shutil.copy(os.path.join(ROOT, "tests", "conftest.py"), tree / "tests")
    (tree / "tests" / "test_which.py").write_text(WHICH_TEST)
    other = tmp_path / "other"
    (other / "voltsentry").mkdir(parents=True)
    (other / "voltsentry" / "__init__.py").write_text("STUB = True\n")
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(tree / "pyproject.toml"), str(tree / "tests")],
        cwd=other, capture_output=True, text=True, env=env)
    assert done.returncode == 0, done.stdout + done.stderr
