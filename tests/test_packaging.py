"""Packaging metadata sanity checks.

``setup.py`` has always claimed "the pyproject.toml metadata is
authoritative" -- these tests make that claim true and keep it true: the
file must exist, parse, agree with the package's ``__version__``, declare
no third-party runtime dependency (the README promises a pure standard
library install), and expose a console entry point that actually resolves.
"""

import os
import subprocess
import sys
import tomllib
from pathlib import Path

import repro

REPO_ROOT = Path(__file__).resolve().parent.parent
PYPROJECT = REPO_ROOT / "pyproject.toml"


def load_pyproject():
    with PYPROJECT.open("rb") as handle:
        return tomllib.load(handle)


class TestPyprojectMetadata:
    def test_pyproject_exists_as_setup_py_claims(self):
        setup_py = (REPO_ROOT / "setup.py").read_text()
        assert "pyproject.toml" in setup_py, (
            "setup.py no longer documents its relationship to pyproject.toml"
        )
        assert PYPROJECT.is_file(), (
            "setup.py declares pyproject.toml authoritative, but the file "
            "does not exist"
        )

    def test_version_matches_package(self):
        project = load_pyproject()["project"]
        assert project["version"] == repro.__version__

    def test_no_runtime_dependencies(self):
        project = load_pyproject()["project"]
        assert project["dependencies"] == []

    def test_cli_import_loads_no_numpy(self):
        """A fresh interpreter importing the CLI (and through it every
        simulator module) must not pull NumPy in."""
        env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
        loaded = subprocess.run(
            [sys.executable, "-c",
             "import repro.cli, sys; print('numpy' in sys.modules)"],
            capture_output=True, text=True, check=True, env=env,
        ).stdout.strip()
        assert loaded == "False"

    def test_simulation_run_loads_no_numpy(self):
        """Running a simulation (device, timing plane, REF/RFM, counters)
        must not import NumPy lazily either."""
        env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
        script = (
            "import sys\n"
            "from repro.experiments.sweep import build_job_traces, mechanism_job\n"
            "from repro.system.config import paper_system_config\n"
            "from repro.system.simulator import simulate\n"
            "job = mechanism_job(paper_system_config(), ('429.mcf',), 'Chronus', 64, 200)\n"
            "result = simulate(job.config, build_job_traces(job))\n"
            "assert result.command_counts['ACT'] > 0\n"
            "print('numpy' in sys.modules)\n"
        )
        loaded = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True, text=True, check=True, env=env,
        ).stdout.strip()
        assert loaded == "False"

    def test_requires_python_matches_running_interpreter(self):
        # The suite runs on the interpreter CI provisions; the floor must
        # not exclude it.
        project = load_pyproject()["project"]
        floor = project["requires-python"].removeprefix(">=")
        major, minor = (int(part) for part in floor.split("."))
        assert sys.version_info[:2] >= (major, minor)

    def test_console_script_resolves(self):
        project = load_pyproject()["project"]
        target = project["scripts"]["repro"]
        module_name, _, attribute = target.partition(":")
        module = __import__(module_name, fromlist=[attribute])
        assert callable(getattr(module, attribute))

    def test_src_layout_discovery(self):
        tool = load_pyproject()["tool"]["setuptools"]
        assert tool["packages"]["find"]["where"] == ["src"]
