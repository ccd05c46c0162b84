"""Start-up budget: no command loads any scipy module, the power commands
eval and power included, and no oamix module imports scipy; catalog and
expand load none of modelmat, evaluate, fit or numpy.ma, and fit does not
load evaluate. No module reads the environment."""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import oamix

SCRIPT = r"""
import sys

def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

def loaded(*names):
    return [name for name in names if name in sys.modules]

import oamix
assert not [m for m in sys.modules if m.startswith("oamix.")], "import oamix"
from oamix.cli import main
assert not scipy_modules(), ("import oamix", scipy_modules()[:5])

model = ["--model", "scheffe-q"]
for argv, unused in (
        (["catalog", "czitrom-d", "-o", "base.csv"],
         ("oamix.modelmat", "oamix.evaluate", "oamix.fit", "numpy.ma")),
        (["expand", "-i", "base.csv", "-o", "design.csv"],
         ("oamix.modelmat", "oamix.evaluate", "oamix.fit", "numpy.ma")),
        (["fit", "-i", "design.csv", *model, "--response", "y.csv",
          "-o", "coef.csv"], ("oamix.evaluate",)),
        (["check-blocks", "-i", "design.csv", *model], ()),
        (["fds", "-i", "design.csv", *model, "--samples", "50", "-o", "fds"],
         ()),
        (["eval", "-i", "design.csv", *model], ()),
        (["power", "-i", "design.csv", *model, "--json"], ())):
    assert main(argv) == 0, argv
    assert not scipy_modules(), (argv[0], scipy_modules()[:5])
    assert not loaded(*unused), (argv[0], loaded(*unused))
"""


def test_no_command_loads_scipy(tmp_path):
    (tmp_path / "y.csv").write_text(
        "y\n" + "\n".join(str(0.5 * k) for k in range(24)) + "\n")
    src = str(Path(oamix.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", SCRIPT], cwd=tmp_path,
                          env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_no_module_imports_scipy():
    imports = []
    for path in sorted(Path(oamix.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module or ""]
            else:
                continue
            imports += [f"{path.name}:{node.lineno} {name}" for name in names
                        if name == "scipy" or name.startswith("scipy.")]
    assert imports == []


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
