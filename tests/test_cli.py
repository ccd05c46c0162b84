import json
import re
import shlex
import warnings
from pathlib import Path

import numpy as np
import pytest

from oamix.catalog import (CATALOG, component_amount_projection_design,
                           czitrom_d_oofa, oofa_expand)
from oamix.cli import CATALOG_NAMES, main
from oamix.core import BlockedDesign, ModelSpec, Run
from oamix.evaluate import FDS_SAMPLER, criteria_report
from oamix.modelmat import build_model_matrix, default_interaction_subset
from oamix.serialize import parse_design_csv, write_design_csv

GOLDEN = Path(__file__).parent / "golden"


def run_cli(*args):
    return main(list(args))


def catalog_file(tmp_path, name, *extra):
    out = tmp_path / f"{name}.csv"
    assert run_cli("catalog", name, "-o", str(out), *extra) == 0
    return out


def test_catalog_choices_are_the_catalog():
    # the CLI names them without importing catalog
    assert CATALOG_NAMES == tuple(sorted(CATALOG))


def test_catalog_round_trip(tmp_path):
    out = catalog_file(tmp_path, "czitrom-d-oofa")
    text = out.read_text()
    design = parse_design_csv(text)
    assert design.n == 24
    assert write_design_csv(design) == text
    tabulated = czitrom_d_oofa()
    for got, want in zip(design.runs, tabulated.runs):
        assert got.values == pytest.approx(want.values, abs=1e-12)
        assert got.pwo == want.pwo and got.block == want.block


def test_catalog_amount_round_trip(tmp_path):
    out = catalog_file(tmp_path, "ca-projection", "--a-max", "100")
    design = parse_design_csv(out.read_text())
    want = component_amount_projection_design(100.0)
    assert design.kind == "amount"
    for got, ref in zip(design.runs, want.runs):
        assert got.values == pytest.approx(ref.values, abs=1e-9)
        assert got.amount == pytest.approx(ref.amount, abs=1e-9)
    assert write_design_csv(design) == out.read_text()


@pytest.mark.parametrize("a_max", ["1.2345678", "3.3333333", "0.123456789",
                                   "123456.789"])
def test_catalog_amount_file_evaluates_at_any_a_max(tmp_path, a_max):
    # cells keep 6 digits, so printed values and totals differ by ~1e-5
    out = catalog_file(tmp_path, "ca-projection", "--a-max", a_max)
    assert write_design_csv(parse_design_csv(out.read_text())) == \
        out.read_text()
    assert run_cli("eval", "-i", str(out), "--model", "ca-q") == 0


def test_catalog_rejects_a_max_elsewhere(tmp_path, capsys):
    # any explicit --a-max, the default value included
    for a_max in ("50", "1"):
        code = run_cli("catalog", "czitrom-d", "--a-max", a_max,
                       "-o", str(tmp_path / "x.csv"))
        assert code == 2
        assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize("a_max", ["inf", "1e-320"])
def test_catalog_refuses_a_max_without_a_normal_square(tmp_path, capsys,
                                                       a_max):
    out = tmp_path / "x.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = run_cli("catalog", "ca-projection", "--a-max", a_max,
                       "-o", str(out))
    assert code == 3 and not out.exists()
    assert "a_max must be positive" in capsys.readouterr().err


def test_unknown_subcommand_is_usage_error():
    assert run_cli("frobnicate") == 2


def test_expand_matches_tabulated_blocks(tmp_path):
    for name in ("czitrom-d", "aggarwal-a"):
        base = catalog_file(tmp_path, name)
        out = tmp_path / "expanded.csv"
        assert run_cli("expand", "-i", str(base), "-o", str(out)) == 0
        assert out.read_text() == \
            catalog_file(tmp_path, f"{name}-oofa").read_text() == \
            (GOLDEN / f"{name}-oofa.csv").read_text()


def test_check_blocks_pass_and_fail(tmp_path, capsys):
    t3 = catalog_file(tmp_path, "czitrom-d-oofa")
    assert run_cli("check-blocks", "-i", str(t3), "--model", "scheffe-q") == 0
    capsys.readouterr()

    # swap two runs across blocks to break the balance
    lines = t3.read_text().splitlines()
    r1, r13 = lines[1].split(","), lines[13].split(",")
    r1[-1], r13[-1] = "2", "1"
    lines[1], lines[13] = ",".join(r1), ",".join(r13)
    bad = tmp_path / "bad.csv"
    bad.write_text("\n".join(lines) + "\n")
    assert run_cli("check-blocks", "-i", str(bad),
                   "--model", "scheffe-q") == 3
    out = capsys.readouterr().out
    assert "FAIL" in out


@pytest.mark.parametrize("tol", ["-1", "nan"])
def test_check_blocks_refuses_a_negative_or_nan_tol(tmp_path, capsys, tol):
    t3 = catalog_file(tmp_path, "czitrom-d-oofa")
    capsys.readouterr()
    assert run_cli("check-blocks", "-i", str(t3), "--model", "scheffe-q",
                   "--tol", tol) == 3
    out, err = capsys.readouterr()
    assert "FAIL" not in out
    assert f"tol must be a number >= 0, got {float(tol)}" in err


def test_check_blocks_json(tmp_path, capsys):
    t3 = catalog_file(tmp_path, "czitrom-d-oofa")
    capsys.readouterr()
    assert run_cli("check-blocks", "-i", str(t3), "--model", "scheffe-q",
                   "--json") == 0
    obj = json.loads(capsys.readouterr().out)
    assert list(obj) == ["passed", "tol", "conditions"]
    assert obj["passed"] is True
    assert {c["condition"] for c in obj["conditions"]} >= {"pwo_sum"}


@pytest.mark.parametrize("option", ["--block", "--no-block"])
def test_check_blocks_takes_no_block_option(tmp_path, capsys, option):
    # the blocking check never reads the block column, so the option that
    # would add it is not offered; the model commands keep it
    t3 = catalog_file(tmp_path, "czitrom-d-oofa")
    capsys.readouterr()
    assert run_cli("check-blocks", "-i", str(t3), "--model", "scheffe-q",
                   option) == 2
    assert "unrecognized arguments" in capsys.readouterr().err
    assert run_cli("eval", "-i", str(t3), "--model", "scheffe-q",
                   option) == 0


def test_eval_json_reports_published_metrics(tmp_path, capsys):
    t3 = catalog_file(tmp_path, "czitrom-d-oofa")
    capsys.readouterr()
    assert run_cli("eval", "-i", str(t3), "--model", "scheffe-q",
                   "--json") == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["n"] == 24 and obj["p"] == 13
    assert obj["avg_pv"] == pytest.approx(13 / 24, abs=1e-10)
    assert obj["max_pv"] == pytest.approx(0.922, abs=0.02)
    assert obj["g_efficiency"] == pytest.approx(58.8, abs=1.0)
    assert {"det_xtx", "d_criterion", "a_criterion", "notes"} <= obj.keys()
    assert len(obj["columns"]) == 13
    assert {"name", "se", "r_squared", "power_2sd"} <= obj["columns"][0].keys()


def test_eval_rank_deficient_exits_4(tmp_path, capsys):
    t3 = catalog_file(tmp_path, "czitrom-d-oofa")
    # eight runs cannot support a thirteen-term model
    lines = t3.read_text().splitlines()
    short = tmp_path / "short.csv"
    short.write_text("\n".join(lines[:9]) + "\n")
    code = run_cli("eval", "-i", str(short), "--model", "scheffe-q",
                   "--no-block")
    assert code == 4
    assert "numerical error" in capsys.readouterr().err


def test_eval_points_flag(tmp_path, capsys):
    t3 = catalog_file(tmp_path, "czitrom-d-oofa")
    capsys.readouterr()
    assert run_cli("eval", "-i", str(t3), "--model", "scheffe-q",
                   "--eval-points", str(t3), "--json") == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["avg_pv"] == pytest.approx(13 / 24, abs=1e-10)


def test_eval_points_of_another_width_exit_3(tmp_path, capsys):
    t3 = catalog_file(tmp_path, "czitrom-d-oofa")
    m4 = BlockedDesign(4, "proportion",
                       (Run((0.25, 0.25, 0.25, 0.25), (0,) * 6, 1),
                        Run((0.5, 0.5, 0, 0), (0,) * 6, 2)), 2)
    points = tmp_path / "m4.csv"
    points.write_text(write_design_csv(m4))
    capsys.readouterr()
    assert run_cli("eval", "-i", str(t3), "--model", "scheffe-q",
                   "--eval-points", str(points)) == 3
    assert "13 columns" in capsys.readouterr().err


def test_power_json_matches_published_table(tmp_path, capsys):
    t8 = catalog_file(tmp_path, "ca-projection", "--a-max", "100")
    capsys.readouterr()
    assert run_cli("power", "-i", str(t8), "--model", "ca-q", "--json") == 0
    obj = json.loads(capsys.readouterr().out)
    by_name = {c["name"]: c for c in obj["columns"]}
    assert by_name["a1"]["se"] == pytest.approx(1.09, abs=0.02)
    assert by_name["z12"]["se"] == pytest.approx(0.28, abs=0.02)
    assert by_name["a1"]["r_squared"] == pytest.approx(0.9484, abs=0.01)
    assert obj["basis"] == "coded"
    assert obj["notes"]


def strict_json(text):
    def refuse(constant):
        raise ValueError(f"{constant} is not JSON")
    return json.loads(text, parse_constant=refuse)


def test_json_writes_non_finite_values_as_null(tmp_path, capsys):
    # n = p: no residual degrees of freedom, so every power is nan
    base = catalog_file(tmp_path, "czitrom-d").read_text().splitlines()
    square = tmp_path / "square.csv"
    square.write_text("\n".join(base[:8]) + "\n")
    capsys.readouterr()
    assert run_cli("eval", "-i", str(square), "--model", "scheffe-q",
                   "--no-pwo", "--json") == 0
    obj = strict_json(capsys.readouterr().out)
    assert obj["n"] == obj["p"] == 7
    assert [c["power_2sd"] for c in obj["columns"]] == [None] * 7
    assert all(isinstance(c["se"], float) for c in obj["columns"])
    # det(X'X) past the float range
    big = catalog_file(tmp_path, "ca-projection", "--a-max", "1e100")
    capsys.readouterr()
    for command in ("eval", "power"):
        assert run_cli(command, "-i", str(big), "--model", "ca-q",
                       "--json") == 0
        obj = strict_json(capsys.readouterr().out)
        if command == "eval":
            assert obj["det_xtx"] is None
            assert isinstance(obj["d_criterion"], float)


def test_power_of_a_huge_effect_warns_nothing(tmp_path, capsys):
    design = catalog_file(tmp_path, "ca-projection", "--a-max", "100")
    capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run_cli("power", "-i", str(design), "--model", "ca-q",
                       "--effect-sd", "1e308", "--json") == 0
    out, err = capsys.readouterr()
    assert not err
    # effect_sd/se overflows: past the noncentrality range, so nan
    assert {c["power"] for c in strict_json(out)["columns"]} == {None}


@pytest.mark.parametrize("option,value", [
    ("--alpha", "1.5"), ("--alpha", "0"), ("--alpha", "nan"),
    ("--effect-sd", "nan"), ("--effect-sd", "inf")])
def test_power_refuses_bad_alpha_or_effect(tmp_path, capsys, option, value):
    t3 = catalog_file(tmp_path, "czitrom-d-oofa")
    capsys.readouterr()
    assert run_cli("power", "-i", str(t3), "--model", "scheffe-q",
                   option, value) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert option[2:].replace("-", "_") in err


def test_power_factorizes_once(tmp_path, capsys, qr_calls):
    t8 = catalog_file(tmp_path, "ca-projection", "--a-max", "100")
    qr_calls.clear()
    assert run_cli("power", "-i", str(t8), "--model", "ca-q") == 0
    assert len(qr_calls) == 1


def _with_nan(path, line, col):
    lines = path.read_text().splitlines()
    cells = lines[line].split(",")
    cells[col] = "nan"
    lines[line] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")


@pytest.mark.parametrize("command", [
    ["eval"], ["power"], ["fit", "--response", "y.csv", "-o", "fit.csv"]])
def test_non_finite_component_is_a_data_error(tmp_path, capsys, command):
    t3 = catalog_file(tmp_path, "czitrom-d-oofa")
    _with_nan(t3, 1, 1)
    code = run_cli(*command, "-i", str(t3), "--model", "scheffe-q")
    assert code == 3
    assert "non_finite_value" in capsys.readouterr().err


def test_non_finite_response_is_a_data_error(tmp_path, capsys):
    t3 = catalog_file(tmp_path, "czitrom-d-oofa")
    y = tmp_path / "y.csv"
    y.write_text("y\nnan\n" + "1\n" * 23)
    assert run_cli("fit", "-i", str(t3), "--model", "scheffe-q",
                   "--response", str(y), "-o", str(tmp_path / "c.csv")) == 3
    assert "non-finite" in capsys.readouterr().err


def test_non_finite_amount_is_a_data_error(tmp_path, capsys):
    t8 = catalog_file(tmp_path, "ca-projection", "--a-max", "100")
    _with_nan(t8, 1, -1)
    assert run_cli("eval", "-i", str(t8), "--model", "ca-q") == 3
    assert "non_finite_value" in capsys.readouterr().err


@pytest.mark.parametrize("command", [
    ["eval", "--model", "scheffe-q"], ["check-blocks", "--model", "scheffe-q"],
    ["expand", "-o", "out.csv"]])
@pytest.mark.parametrize("pwo, rule", [("1,-1,1", "pwo_cyclic"),
                                       ("1,0,0", "pwo_partial")])
def test_partial_or_cyclic_pwo_is_a_data_error(tmp_path, capsys, command,
                                               pwo, rule):
    # run 7 is the first full-support centroid of czitrom-d-oofa
    t3 = catalog_file(tmp_path, "czitrom-d-oofa")
    t3.write_text(t3.read_text().replace("\n7,0.333,0.333,0.334,1,1,1,1\n",
                                         f"\n7,0.333,0.333,0.334,{pwo},1\n"))
    assert run_cli(command[0], "-i", str(t3), *command[1:]) == 3
    assert f"run 7: {rule}" in capsys.readouterr().err


def test_fractional_block_is_a_data_error(tmp_path, capsys):
    t3 = catalog_file(tmp_path, "czitrom-d-oofa")
    t3.write_text(t3.read_text().replace("\n1,0.168,0.832,0,1,0,0,1\n",
                                         "\n1,0.168,0.832,0,1,0,0,1.7\n"))
    assert run_cli("eval", "-i", str(t3), "--model", "scheffe-q") == 3
    assert "line 2: not an integer" in capsys.readouterr().err


@pytest.mark.parametrize("kind", ["design", "response", "eval-points"])
def test_undecodable_input_file_is_a_data_error(tmp_path, capsys, kind):
    # every input file is read as UTF-8 whatever the locale; a byte that
    # is not UTF-8 is refused by file name, not raised as a traceback
    t3 = catalog_file(tmp_path, "czitrom-d-oofa")
    responses = tmp_path / "y.txt"
    responses.write_text("1\n" * 24)
    bad = tmp_path / "bad.csv"
    files = {"design": t3, "response": responses, "eval-points": t3}
    bad.write_bytes(files[kind].read_bytes().replace(b"\n", b"\xff\n", 1))
    files[kind] = bad
    argv = ["-i", str(files["design"]), "--model", "scheffe-q"]
    if kind == "response":
        argv = ["fit", *argv, "--response", str(bad), "-o",
                str(tmp_path / "fit.csv")]
    else:
        argv = ["eval", *argv, "--eval-points", str(files["eval-points"])]
    capsys.readouterr()
    assert run_cli(*argv) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"error: {bad} is not UTF-8 text: ")
    assert "0xff" in err and err.count("\n") == 1


def test_fds_outputs_are_deterministic(tmp_path, capsys):
    t3 = catalog_file(tmp_path, "czitrom-d-oofa")
    b1, b2 = tmp_path / "c1", tmp_path / "c2"
    for b in (b1, b2):
        capsys.readouterr()
        assert run_cli("fds", "-i", str(t3), "--model", "scheffe-q",
                       "--samples", "100", "--seed", "7", "-o", str(b)) == 0
        assert (f"seed=7  sampler={FDS_SAMPLER}  median="
                in capsys.readouterr().out)
    assert (tmp_path / "c1.csv").read_bytes() == (tmp_path / "c2.csv").read_bytes()
    assert (tmp_path / "c1.svg").read_text().startswith("<svg")


@pytest.mark.parametrize("samples", ["0", "-3", "ten"])
def test_fds_sample_count_must_be_positive(tmp_path, capsys, samples):
    t3 = catalog_file(tmp_path, "czitrom-d-oofa")
    capsys.readouterr()
    assert run_cli("fds", "-i", str(t3), "--model", "scheffe-q",
                   "--samples", samples, "-o", str(tmp_path / "f")) == 2
    assert "--samples: expected an integer >= 1" in capsys.readouterr().err
    assert not (tmp_path / "f.csv").exists()


def test_fds_seed_defaults_to_0_whatever_the_environment(tmp_path,
                                                          monkeypatch, capsys):
    t3 = catalog_file(tmp_path, "czitrom-d-oofa")
    fds = ("fds", "-i", str(t3), "--model", "scheffe-q", "--samples", "50")
    outputs = {}
    for name, env, seed in (("zero", None, ("--seed", "0")),
                            ("default", None, ()),
                            ("env", "99", ())):
        if env is not None:
            monkeypatch.setenv("OAMIX_SEED", env)
        capsys.readouterr()
        assert run_cli(*fds, *seed, "-o", str(tmp_path / name)) == 0
        out = capsys.readouterr().out.replace(str(tmp_path / name), "base")
        outputs[name] = (out, (tmp_path / f"{name}.csv").read_bytes(),
                         (tmp_path / f"{name}.svg").read_bytes())
    assert "seed=0  " in outputs["zero"][0]
    assert outputs["default"] == outputs["zero"]
    assert outputs["env"] == outputs["zero"]


def test_fit_recovers_synthetic_coefficients(tmp_path, capsys):
    t3 = catalog_file(tmp_path, "czitrom-d-oofa")
    from oamix.core import ModelSpec
    from oamix.modelmat import build_model_matrix, default_interaction_subset
    spec = ModelSpec("scheffe_quadratic", include_pwo=True,
                     interaction_terms=default_interaction_subset(3),
                     include_block=True)
    X = build_model_matrix(czitrom_d_oofa(), spec)
    y = X.data @ np.ones(X.p)
    resp = tmp_path / "y.csv"
    resp.write_text("y\n" + "\n".join(repr(float(v)) for v in y) + "\n")
    out = tmp_path / "coef.csv"
    assert run_cli("fit", "-i", str(t3), "--model", "scheffe-q",
                   "--response", str(resp), "-o", str(out)) == 0
    rows = out.read_text().splitlines()
    assert rows[0] == "term,estimate,se"
    for line in rows[1:]:
        _, est, _ = line.split(",")
        assert float(est) == pytest.approx(1.0, abs=1e-6)


@pytest.mark.parametrize("cell", ["1_000", "\u0661\u0662", "1\x0c2"])
def test_response_cells_follow_the_design_number_rule(tmp_path, capsys, cell):
    # float() reads the first two, and str.splitlines would split the
    # third into two responses; a design file refuses all three by line
    t3 = catalog_file(tmp_path, "czitrom-d-oofa")
    y = tmp_path / "y.csv"
    y.write_text("y\n" + "1\n" * 4 + f"{cell}\n" + "1\n" * 19)
    capsys.readouterr()
    assert run_cli("fit", "-i", str(t3), "--model", "scheffe-q",
                   "--response", str(y), "-o", str(tmp_path / "c.csv")) == 3
    assert "response line 6" in capsys.readouterr().err


def test_fit_of_a_huge_response_prints_its_statistics(tmp_path, capsys):
    t3 = catalog_file(tmp_path, "czitrom-d-oofa")
    y = tmp_path / "y.csv"
    rng = np.random.default_rng(131)
    y.write_text("".join(f"{v!r}\n"
                         for v in (1e160 * rng.normal(size=24)).tolist()))
    capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run_cli("fit", "-i", str(t3), "--model", "scheffe-q",
                       "--response", str(y), "-o",
                       str(tmp_path / "c.csv")) == 0
    assert capsys.readouterr().out.startswith(
        "sigma_hat=8.97523e+159  df=11  r_squared=0.7134\n")


def interaction_columns(capsys, path, *options):
    """The names of the interaction columns eval reports."""
    capsys.readouterr()
    assert run_cli("eval", "-i", str(path), "--model", "scheffe-q",
                   "--json", *options) == 0
    return [c["name"] for c in json.loads(capsys.readouterr().out)["columns"]
            if "*z" in c["name"]]


def test_interactions_list_gives_exactly_its_terms(tmp_path, capsys):
    t3 = catalog_file(tmp_path, "czitrom-d-oofa")
    assert interaction_columns(capsys, t3, "--interactions", " 1:12, 2:23") \
        == ["x1*z12", "x2*z23"]


@pytest.mark.parametrize("piece", ["1-12", "1:1", "x:12", "1:12:3"])
def test_malformed_interaction_exits_3(tmp_path, capsys, piece):
    t3 = catalog_file(tmp_path, "czitrom-d-oofa")
    capsys.readouterr()
    assert run_cli("eval", "-i", str(t3), "--model", "scheffe-q",
                   "--interactions", f"1:13,{piece}") == 3
    assert f"bad interaction {piece!r}" in capsys.readouterr().err


def test_default_interactions_are_none_beyond_three_components(tmp_path,
                                                               capsys):
    # the {4, 2} lattice, expanded over addition orders, in two blocks
    edges = [(j, k) for j in range(4) for k in range(j + 1, 4)]
    values = [np.eye(4)[i] for i in range(4)]
    values += [(np.eye(4)[j] + np.eye(4)[k]) / 2 for j, k in edges]
    base = BlockedDesign.from_arrays(4, "proportion", values * 2,
                                     np.zeros((20, 6)), [1] * 10 + [2] * 10,
                                     None, 2)
    m4 = tmp_path / "m4.csv"
    m4.write_text(write_design_csv(oofa_expand(base)))
    assert interaction_columns(capsys, m4) == []


@pytest.mark.parametrize("terms", ["1:12", "full"])
def test_explicit_interactions_without_pwo_exit_3(tmp_path, capsys, terms):
    # only `default` yields to --no-pwo; a request is refused, not dropped
    t3 = catalog_file(tmp_path, "czitrom-d-oofa")
    capsys.readouterr()
    assert run_cli("eval", "-i", str(t3), "--model", "scheffe-q", "--no-pwo",
                   "--interactions", terms) == 3
    assert "interaction terms require include_pwo=True" in \
        capsys.readouterr().err
    assert interaction_columns(capsys, t3, "--no-pwo") == []


def test_missing_input_is_data_error(tmp_path, capsys):
    assert run_cli("eval", "-i", str(tmp_path / "nope.csv"),
                   "--model", "scheffe-q") == 3


def test_bad_model_name_is_usage_error(tmp_path, capsys):
    t3 = catalog_file(tmp_path, "czitrom-d-oofa")
    assert run_cli("eval", "-i", str(t3), "--model", "cubic") == 2


def test_amount_columns_need_amount_header(tmp_path, capsys):
    text = "run,a1,a2,a3,z12,z13,z23,block\n1,1,2,3,0,0,0,1\n"
    f = tmp_path / "bad.csv"
    f.write_text(text)
    assert run_cli("eval", "-i", str(f), "--model", "ca-q") == 3


def test_kind_model_mismatch_is_data_error(tmp_path, capsys):
    t3 = catalog_file(tmp_path, "czitrom-d-oofa")
    assert run_cli("eval", "-i", str(t3), "--model", "ca-q") == 3


def test_power_refuses_an_amount_design_whose_totals_are_all_0(tmp_path,
                                                               capsys):
    zeros = tmp_path / "zeros.csv"
    zeros.write_text("run,a1,a2,a3,z12,z13,z23,block,A\n" + "".join(
        f"{k},0,0,0,0,0,0,{1 + (k - 1) // 4},0\n" for k in range(1, 9)))
    code = run_cli("power", "-i", str(zeros), "--model", "ca-l", "--no-pwo",
                   "--interactions", "none")
    assert code == 3
    assert "divides by the largest total, 0.0" in capsys.readouterr().err


@pytest.mark.parametrize("model", ["ca-q", "ca-l"])
@pytest.mark.parametrize("a_max", ["1.5e-154", "1.3e154"])
def test_eval_at_the_edges_of_the_catalog_amount_range(tmp_path, capsys,
                                                       a_max, model):
    # RuntimeWarning is an error here, so an overflow would raise
    design = catalog_file(tmp_path, "ca-projection", "--a-max", a_max)
    capsys.readouterr()
    for extra in ((), ("--json",)):
        code = run_cli("eval", "-i", str(design), "--model", model, *extra)
        err = capsys.readouterr().err
        assert code == 0 and not err or code in (3, 4) and err.startswith(
            ("error: ", "numerical error: "))


@pytest.mark.parametrize("a_max", ["1e20", "1e50", "1e100", "3e150"])
def test_large_amount_designs_survive_the_file_round_trip(tmp_path, capsys,
                                                          a_max):
    # cells keep 6 digits: a total and its value sum agree only relatively
    path = catalog_file(tmp_path, "ca-projection", "--a-max", a_max)
    design = parse_design_csv(path.read_text())
    unit = parse_design_csv(catalog_file(tmp_path, "ca-projection",
                                         "--a-max", "1").read_text())
    spec = ModelSpec("component_amount_quadratic", include_pwo=True,
                     interaction_terms=default_interaction_subset(3),
                     include_block=True)
    got, want = (criteria_report(build_model_matrix(d, spec))
                 for d in (design, unit))
    assert got.g_efficiency == pytest.approx(want.g_efficiency, rel=1e-12)
    capsys.readouterr()
    assert run_cli("eval", "-i", str(path), "--model", "ca-q") == 0
    assert not capsys.readouterr().err


def test_eval_names_the_columns_whose_norms_pass_the_largest_float(
        tmp_path, capsys):
    path = catalog_file(tmp_path, "ca-projection", "--a-max", "1.3e154")
    capsys.readouterr()
    assert run_cli("eval", "-i", str(path), "--model", "ca-q") == 4
    assert ("; the norms of columns a1^2, a2^2, a3^2 are past the largest "
            "float, so they count as zero") in capsys.readouterr().err


def test_block_column_with_three_blocks_is_rejected(tmp_path, capsys):
    runs = tuple(Run(r.values, r.pwo, 1 + k % 3)
                 for k, r in enumerate(czitrom_d_oofa().runs))
    three = tmp_path / "three.csv"
    three.write_text(write_design_csv(BlockedDesign(
        m=3, kind="proportion", runs=runs, n_blocks=3, as_printed=True)))
    assert run_cli("eval", "-i", str(three), "--model", "scheffe-q") == 3
    assert "3 blocks" in capsys.readouterr().err


README = Path(__file__).resolve().parents[1] / "README.md"


MUTANT_CELLS = ("0", "5e-324", "1e-300", "1e-160", "1e160", "1.7e308",
                "0.333", "0.5", "2", "-1", "nan", "inf", "a", "")


@pytest.mark.parametrize("name, model, extra", [
    ("czitrom-d", ("scheffe-q", "--no-pwo"), ()),
    ("czitrom-d-oofa", ("scheffe-q",), ()),
    ("ca-projection", ("ca-q",), ("--a-max", "100"))])
def test_mutated_design_files_exit_with_a_documented_code(tmp_path, capsys,
                                                          name, model, extra):
    # exit 1 would be a traceback: every subcommand answers a design file
    # with 1-4 cells replaced by 0, 2, 3 or 4, and warns nothing
    clean = catalog_file(tmp_path, name, *extra).read_text().splitlines()
    rng = np.random.default_rng(sum(map(ord, name)))
    response = tmp_path / "y.csv"
    response.write_text("y\n" + "".join(
        f"{v!r}\n" for v in rng.standard_normal(len(clean) - 1).tolist()))
    path, out = str(tmp_path / "mutant.csv"), str(tmp_path / "out")
    model_opts = ("-i", path, "--model", *model)
    commands = [("eval", *model_opts), ("eval", *model_opts,
                                        "--interactions", "full"),
                ("power", *model_opts), ("power", *model_opts,
                                         "--alpha", "1e-9"),
                ("check-blocks", *model_opts),
                ("fit", *model_opts, "--response", str(response), "-o", out),
                ("fds", *model_opts, "--samples", "50", "-o", out),
                ("expand", "-i", path, "-o", out)]
    codes = set()
    for _ in range(30):
        lines = [line.split(",") for line in clean]
        for _ in range(rng.integers(1, 5)):
            row = lines[rng.integers(1, len(lines))]
            row[rng.integers(1, len(row))] = str(rng.choice(MUTANT_CELLS))
        Path(path).write_text("\n".join(map(",".join, lines)) + "\n")
        for command in commands:
            codes.add(run_cli(*command))
    capsys.readouterr()
    assert codes <= {0, 2, 3, 4}


def readme_commands() -> list[list[str]]:
    """Argument lists of every `oamix ...` line in the README's sh blocks."""
    blocks = re.findall(r"```sh\n(.*?)```", README.read_text(), re.S)
    return [shlex.split(line)[1:] for block in blocks
            for line in block.splitlines() if line.startswith("oamix ")]


def test_readme_commands_run(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "y.csv").write_text(
        "y\n" + "\n".join(str(1.0 + 0.1 * k) for k in range(24)) + "\n")
    commands = readme_commands()
    assert len(commands) >= 6
    for argv in commands:
        assert run_cli(*argv) == 0, argv
