"""Start-up budget, per command: each subcommand runs in a fresh process
and must not load the modules it does not run. No command loads scipy or
dataclasses; catalog and expand load none of modelmat, linalg, evaluate,
fit or numpy.ma; no analysis command loads catalog; check-blocks, eval,
power and fit load no pwo; check-blocks loads neither linalg nor the power
kernel (_nct); fit does not load evaluate. No oamix module imports scipy or
dataclasses, and none reads the environment."""

import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import oamix

SCRIPT = r"""
import json, sys
import oamix
assert not [m for m in sys.modules if m.startswith("oamix.")], "import oamix"
from oamix.cli import main
code = main(sys.argv[1:])
print(json.dumps([code, sorted(sys.modules)]))
"""

MODEL = ["-i", "design.csv", "--model", "scheffe-q"]
COMMANDS = {
    "catalog": ["catalog", "czitrom-d", "-o", "out.csv"],
    "expand": ["expand", "-i", "base.csv", "-o", "out.csv"],
    "check-blocks": ["check-blocks", *MODEL, "--json"],
    "eval": ["eval", *MODEL, "--json"],
    "power": ["power", *MODEL, "--json"],
    "fit": ["fit", *MODEL, "--response", "y.csv", "-o", "coef.csv"],
    "fds": ["fds", *MODEL, "--samples", "50", "-o", "fds"],
}
LIGHT = ("oamix.modelmat", "oamix.linalg", "oamix.evaluate", "oamix.fit",
         "numpy.ma")
UNUSED = {  # command -> modules it must not load, besides scipy
    "catalog": LIGHT,
    "expand": LIGHT,
    "check-blocks": ("oamix.catalog", "oamix.pwo", "oamix.linalg",
                     "oamix._nct", "oamix.fit"),
    "eval": ("oamix.catalog", "oamix.pwo", "oamix.fit"),
    "power": ("oamix.catalog", "oamix.pwo", "oamix.fit"),
    "fit": ("oamix.catalog", "oamix.pwo", "oamix.evaluate"),
    "fds": ("oamix.catalog", "oamix._nct", "oamix.fit"),
}


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """A directory with an unordered base design, its expansion and a
    response, written by the CLI in this process."""
    from oamix.cli import main
    tmp = tmp_path_factory.mktemp("commands")
    cwd = os.getcwd()
    os.chdir(tmp)
    try:
        assert main(["catalog", "czitrom-d", "-o", "base.csv"]) == 0
        assert main(["expand", "-i", "base.csv", "-o", "design.csv"]) == 0
    finally:
        os.chdir(cwd)
    (tmp / "y.csv").write_text(
        "y\n" + "\n".join(str(0.5 * k) for k in range(24)) + "\n")
    return tmp


def loaded_by(command: str, cwd) -> list[str]:
    """The modules one command leaves loaded in a fresh process."""
    src = str(Path(oamix.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, *COMMANDS[command]], cwd=cwd, env=env,
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    code, modules = json.loads(proc.stdout.splitlines()[-1])
    assert code == 0, (command, proc.stderr)
    return modules


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_each_command_loads_only_what_it_runs(command, workdir):
    modules = loaded_by(command, workdir)
    scipy = [m for m in modules if m == "scipy" or m.startswith("scipy.")]
    assert scipy == []
    assert "dataclasses" not in modules
    assert sorted(set(UNUSED[command]) & set(modules)) == []


def _imports_of(package: str) -> list[str]:
    """Every import of package or its submodules by an oamix module."""
    found = []
    for path in sorted(Path(oamix.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module or ""]
            else:
                continue
            found += [f"{path.name}:{node.lineno} {name}" for name in names
                      if name == package or name.startswith(package + ".")]
    return found


def test_no_module_imports_scipy():
    assert _imports_of("scipy") == []


def test_no_module_imports_dataclasses():
    assert _imports_of("dataclasses") == []


def test_no_module_reads_the_environment():
    # the same argv and input files give the same bytes in any environment
    reads = []
    for path in sorted(Path(oamix.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if (isinstance(node, ast.Attribute)
                    and node.attr in ("environ", "getenv", "environb")
                    and isinstance(node.value, ast.Name)
                    and node.value.id == "os"):
                reads.append(f"{path.name}:{node.lineno} os.{node.attr}")
            elif isinstance(node, ast.ImportFrom) and node.module == "os":
                reads += [f"{path.name}:{node.lineno} from os import "
                          f"{a.name}" for a in node.names
                          if a.name in ("environ", "getenv", "environb")]
    assert reads == []


def test_public_names_resolve_to_their_submodule_objects():
    for name, source in oamix._SOURCES.items():
        module = importlib.import_module(f"oamix.{source}")
        want = module if name == source else getattr(module, name)
        assert getattr(oamix, name) is want, name
    assert set(oamix.__all__) <= set(dir(oamix))


def test_unknown_public_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'nope'"):
        oamix.nope
    assert not hasattr(oamix, "nope")
