"""Start-up: the package's public names resolve on first use, and a fresh
process imports only the gridfreq modules its call reaches."""
import importlib
import json
import os
import pathlib
import subprocess
import sys

import pytest

import gridfreq
from gridfreq import model
from gridfreq.model import save_scenario, toy_grid

SRC = str(pathlib.Path(gridfreq.__file__).resolve().parents[1])


def loaded_after(code, *args):
    """The gridfreq modules a fresh interpreter has loaded after running
    code with args as sys.argv[1:]."""
    probe = (code + "\nimport json, sys\n"
             "print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'gridfreq')))")
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH"))))}
    run = subprocess.run([sys.executable, "-c", probe, *args], env=env,
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    return set(json.loads(run.stdout.splitlines()[-1]))


def test_loading_and_validating_imports_model_alone(tmp_path):
    path = tmp_path / "toy.json"
    save_scenario(toy_grid(), path)
    code = ("import sys, gridfreq\n"
            "assert gridfreq.validate(gridfreq.load_scenario(sys.argv[1])) == []")
    assert loaded_after(code, str(path)) == {"gridfreq", "gridfreq.model"}


def test_every_public_name_is_its_modules_object():
    for name in gridfreq.__all__:
        module = importlib.import_module(f"gridfreq.{gridfreq._MODULE_OF[name]}")
        assert getattr(gridfreq, name) is getattr(module, name), name
        assert name in dir(gridfreq), name
        assert name not in vars(gridfreq), name
    namespace = {}
    exec("from gridfreq import *", namespace)
    assert set(gridfreq.__all__) <= set(namespace)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="KERNEL_BACKEND"):
        gridfreq.KERNEL_BACKEND
    assert getattr(gridfreq, "KERNEL_BACKEND", "n/a") == "n/a"


def test_rebinding_a_module_name_shows_through_the_package(monkeypatch):
    original = model.load_scenario

    def replacement(path):
        return original(path)

    monkeypatch.setattr(model, "load_scenario", replacement)
    assert gridfreq.load_scenario is replacement
    monkeypatch.undo()
    assert model.load_scenario is original and gridfreq.load_scenario is original


CLI = "import sys\nfrom gridfreq import cli\nrc = cli.main(sys.argv[1:])\nassert rc in (0, 2), rc"


def test_parser_imports_no_simulator():
    loaded = loaded_after("from gridfreq import cli\ncli._parser()")
    assert loaded == {"gridfreq", "gridfreq.cli", "gridfreq.experiments", "gridfreq.model"}


def test_optimal_imports_neither_simulator_nor_stability():
    loaded = loaded_after(CLI, "optimal", "toy")
    assert "gridfreq.dispatch" in loaded
    assert not loaded & {"gridfreq.simulator", "gridfreq.stability"}


def test_simulate_does_not_import_stability(tmp_path):
    loaded = loaded_after(CLI, "simulate", "toy", "--horizon", "1",
                          "--out", str(tmp_path / "run"))
    assert "gridfreq.simulator" in loaded and "gridfreq.stability" not in loaded
