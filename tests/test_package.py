"""The package as a caller reaches it: `python -m tcsde`, each module's
`__all__`, and the settings the suite itself runs under."""

import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import mutants
import tcsde
from tcsde.cli import main

ROOT = Path(__file__).resolve().parent.parent

TINY_CONFIG = """\
coefficient    = smooth-sin
params         = 2.0, 1.0
T              = 1.0
x0             = 0.0
resolutions    = 4, 8
ref_resolution = 32
p              = 2
samples        = 4
master_seed    = 7
"""


def _python(*args, cwd=None):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env=env, cwd=cwd)


def test_python_m_tcsde_version():
    out = _python("-m", "tcsde", "--version")
    assert out.returncode == 0, out.stderr
    assert out.stdout == f"tcsde {tcsde.__version__}\n"


def test_python_m_tcsde_run_writes_the_in_process_report(tmp_path):
    cfg = tmp_path / "tiny.cfg"
    cfg.write_text(TINY_CONFIG)
    argv = ["run", str(cfg), "--jobs", "1", "--out"]
    out = _python("-m", "tcsde", *argv, str(tmp_path / "sub"))
    assert out.returncode == 0, out.stderr
    assert main(argv + [str(tmp_path / "in")]) == 0
    sub = (tmp_path / "sub" / "report.json").read_bytes()
    assert sub == (tmp_path / "in" / "report.json").read_bytes()


def test_every_module_all_name_resolves():
    modules = [m.name for m in pkgutil.iter_modules(tcsde.__path__) if m.name != "__main__"]
    assert "baseline" in modules
    for name in modules:
        module = importlib.import_module(f"tcsde.{name}")
        missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
        assert not missing, f"tcsde.{name}.__all__ names {missing}"


def test_failing_property_test_is_reported_not_an_internal_error(tmp_path):
    # on a failure hypothesis imports libcst, which warns; pyproject.toml's
    # filterwarnings must not turn that warning into an INTERNALERROR
    (tmp_path / "test_pair.py").write_text(
        "from hypothesis import given, strategies as st\n\n\n"
        "@given(st.integers())\n"
        "def test_fails(x):\n"
        "    assert x < 0\n\n\n"
        "def test_passes():\n"
        "    pass\n"
    )
    out = _python("-m", "pytest", "-c", str(ROOT / "pyproject.toml"), "--rootdir",
                  str(tmp_path), "-q", "-p", "no:cacheprovider", "test_pair.py",
                  cwd=tmp_path)
    assert out.returncode == 1, out.stdout + out.stderr
    assert "1 failed, 1 passed" in out.stdout
    assert "INTERNALERROR" not in out.stdout + out.stderr


def test_every_mutant_text_is_found_once():
    # tests/mutants.py runs outside the suite; a change that moves the text of
    # one of its rows fails here, not at the next mutant run
    assert mutants.main(["--check"]) == 0
