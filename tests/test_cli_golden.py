"""The CLI's bytes, pinned: stdout, stderr, exit code and output files of
every case below must match the files under tests/golden/cli exactly.

After a change that is meant to alter output, regenerate them with

    PYTHONPATH=src python tests/test_cli_golden.py
"""

import io
import shutil
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from oamix.cli import main

GOLDEN = Path(__file__).parent / "golden"
CLI = GOLDEN / "cli"
DESIGNS = {  # name -> (design file, model, response file)
    "oofa": (GOLDEN / "czitrom-d-oofa.csv", "scheffe-q",
             CLI / "response-24.csv"),
    "ca100": (GOLDEN / "ca-projection-100.csv", "ca-q",
              CLI / "response-36.csv"),
}
# runs 1 (block 1) and 13 (block 2) of czitrom-d-oofa trade blocks
SWAPPED = CLI / "czitrom-d-oofa-swapped.csv"


def _cases():
    """case name -> (argv, exit code, names of the files it writes)."""
    cases = {f"help-{cmd or 'oamix'}": ([cmd, "-h"] if cmd else ["-h"], 0, ())
             for cmd in ("", "catalog", "expand", "check-blocks", "eval",
                         "fds", "power", "fit")}
    for design, (path, model, y) in DESIGNS.items():
        opts = ["-i", path, "--model", model]
        for cmd in ("check-blocks", "eval", "power"):
            # amount sums in mg do not balance to the default tol
            code = 3 if (cmd, design) == ("check-blocks", "ca100") else 0
            cases[f"{cmd}-{design}"] = ([cmd, *opts], code, ())
            cases[f"{cmd}-{design}-json"] = ([cmd, *opts, "--json"], code, ())
        cases[f"fit-{design}"] = (
            ["fit", *opts, "--response", y, "-o", "coef.csv"], 0,
            ("coef.csv",))
        cases[f"fds-{design}"] = (
            ["fds", *opts, "--samples", "200", "--seed", "7", "-o", "fds"], 0,
            ("fds.csv", "fds.svg"))
    # the failing cases of the benchmark's cold-start cycle
    model = ["--model", "scheffe-q", "--json"]
    cases["check-blocks-swapped-json"] = (
        ["check-blocks", "-i", SWAPPED, *model], 3, ())
    cases["eval-unexpanded-json"] = (
        ["eval", "-i", GOLDEN / "czitrom-d.csv", *model], 4, ())
    return cases


CASES = _cases()


def run_case(case: str, cwd) -> tuple[int, bytes, bytes]:
    """Exit code, stdout and stderr of one case run in process in cwd."""
    argv = [str(a) for a in CASES[case][0]]
    out, err = io.StringIO(), io.StringIO()
    with pytest.MonkeyPatch.context() as mp, redirect_stdout(out), \
            redirect_stderr(err):
        mp.chdir(cwd)
        mp.setenv("COLUMNS", "80")  # argparse wraps help to the terminal
        code = main(argv)
    return code, out.getvalue().encode(), err.getvalue().encode()


@pytest.mark.parametrize("case", sorted(CASES))
def test_cli_bytes_match_golden(case, tmp_path):
    _, want_code, files = CASES[case]
    code, out, err = run_case(case, tmp_path)
    assert code == want_code
    assert out == (CLI / f"{case}.out").read_bytes()
    err_file = CLI / f"{case}.err"
    assert err == (err_file.read_bytes() if err_file.exists() else b"")
    for name in files:
        assert (tmp_path / name).read_bytes() == \
            (CLI / f"{case}.{name}").read_bytes(), name


def write_golden() -> None:
    """Rewrite every golden file of CASES from the CLI as it is now."""
    for case, (_, want_code, files) in sorted(CASES.items()):
        with tempfile.TemporaryDirectory() as tmp:
            code, out, err = run_case(case, tmp)
            (CLI / f"{case}.out").write_bytes(out)
            err_file = CLI / f"{case}.err"
            if err:
                err_file.write_bytes(err)
            elif err_file.exists():
                err_file.unlink()
            for name in files:
                shutil.copyfile(Path(tmp) / name, CLI / f"{case}.{name}")
        flag = "" if code == want_code else f" (CASES says {want_code})"
        print(f"{case}: exit {code}{flag}")


if __name__ == "__main__":
    write_golden()
