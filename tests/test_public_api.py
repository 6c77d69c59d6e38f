"""The package's public surface: every name in ``__all__`` is exported."""

import os
import subprocess
import sys

import pytest

import todagibbs


def test_all_names_resolve_and_star_import_succeeds():
    assert len(set(todagibbs.__all__)) == len(todagibbs.__all__)
    assert [name for name in todagibbs.__all__ if not hasattr(todagibbs, name)] == []
    namespace = {}
    exec("from todagibbs import *", namespace)
    assert set(todagibbs.__all__) <= namespace.keys()


def test_submodules_import_by_name_and_other_names_raise():
    # the lazy package raises AttributeError for a name outside __all__, so the
    # import system falls back to the submodule; run where none is loaded yet
    script = ("from todagibbs import cli, dos, equilibrium, matrices, metrics, sampling; "
              "print(' '.join(m.__name__ for m in (cli, dos, equilibrium, matrices, metrics, "
              "sampling)))")
    src = os.path.dirname(os.path.dirname(todagibbs.__file__))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == [f"todagibbs.{name}" for name in
                                   ("cli", "dos", "equilibrium", "matrices", "metrics",
                                    "sampling")]
    with pytest.raises(AttributeError, match="no_such_name"):
        todagibbs.no_such_name
    assert set(todagibbs.__all__) <= set(dir(todagibbs))
