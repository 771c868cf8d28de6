"""What each entry point imports, and the lazy public namespace of ``egtan``.

The exact certificates need only ``fractions``: ``import egtan``, ``--help``
and every ``verify-certificates`` run must leave numpy unloaded, which only a
fresh interpreter can show.
"""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import egtan

SRC = Path(egtan.__file__).resolve().parents[1]
# runs the command line on argv, then prints its exit code and whether numpy loaded
CLI_PROBE = (
    "import sys\n"
    "from egtan.cli import main\n"
    "code = main(sys.argv[1:])\n"
    "print(code, 'numpy' in sys.modules)\n"
)


def fresh(*args: str) -> tuple[int, bool]:
    """Run ``python -c`` in a fresh interpreter; its exit code and last line's verdict."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    done = subprocess.run([sys.executable, "-c", *args], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    code, numpy_loaded = done.stdout.splitlines()[-1].split()
    return int(code), numpy_loaded == "True"


def test_import_egtan_loads_no_numpy():
    assert fresh("import sys, egtan; dir(egtan); print(0, 'numpy' in sys.modules)") == (0, False)


def test_verification_report_loads_no_numpy():
    assert fresh(
        "import sys\n"
        "from egtan.certificates import verification_report\n"
        "print(0 if verification_report()['all_pass'] else 2, 'numpy' in sys.modules)\n"
    ) == (0, False)


@pytest.mark.parametrize("argv, code", [
    (["--help"], 0),
    (["verify-certificates"], 0),
    (["verify-certificates", "--mutate", "sos-5"], 2),
    (["verify-certificates", "--report-table"], 0),
    (["verify-certificates", "--out", "{out}"], 0),
], ids=["help", "clean", "mutate", "report-table", "out"])
def test_exact_commands_load_no_numpy(argv, code, tmp_path):
    argv = [a.format(out=tmp_path / "out") for a in argv]
    assert fresh(CLI_PROBE, *argv) == (code, False)


def test_counterexample_loads_numpy_when_it_runs():
    assert fresh(CLI_PROBE, "counterexample", "natural-residual") == (0, True)


class TestLazyNamespace:
    @pytest.mark.parametrize("name", egtan.__all__)
    def test_name_is_the_object_its_module_defines(self, name):
        obj = getattr(egtan, name)
        assert obj.__module__.startswith("egtan.")
        assert getattr(importlib.import_module(obj.__module__), name) is obj

    def test_star_import_binds_every_name(self):
        namespace = {}
        exec("from egtan import *", namespace)
        assert {name: namespace[name] for name in egtan.__all__} == {
            name: getattr(egtan, name) for name in egtan.__all__
        }

    def test_dir_lists_every_name(self):
        assert set(egtan.__all__) <= set(dir(egtan))

    def test_unknown_name_raises_attribute_error_naming_egtan(self):
        with pytest.raises(AttributeError, match="^module 'egtan' has no attribute 'no_such_name'$"):
            egtan.no_such_name
