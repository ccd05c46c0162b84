"""Start-up budget: scipy stays out of every command that reports no power,
and the power commands load scipy.special, never scipy.stats."""

import os
import subprocess
import sys
from pathlib import Path

import oamix

SCRIPT = r"""
import sys

def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

import oamix
from oamix.cli import main
assert not scipy_modules(), ("import oamix", scipy_modules()[:5])

model = ["--model", "scheffe-q"]
for argv in (
        ["catalog", "czitrom-d", "-o", "base.csv"],
        ["expand", "-i", "base.csv", "-o", "design.csv"],
        ["check-blocks", "-i", "design.csv", *model],
        ["fit", "-i", "design.csv", *model, "--response", "y.csv",
         "-o", "coef.csv"],
        ["fds", "-i", "design.csv", *model, "--samples", "50", "-o", "fds"]):
    assert main(argv) == 0, argv
    assert not scipy_modules(), (argv[0], scipy_modules()[:5])

for argv in (["eval", "-i", "design.csv", *model],
             ["power", "-i", "design.csv", *model]):
    assert main(argv) == 0, argv
    assert "scipy.stats" not in sys.modules, argv[0]
"""


def test_scipy_stays_off_the_start_up_path(tmp_path):
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
