"""Tests for the command line interface and report format."""

import json

import pytest

from tadic.cli import (
    EXIT_OK,
    EXIT_USAGE,
    JobConfig,
    main,
    parse_f_spec,
    parse_lseries,
    run,
)
from tadic.errors import UsageError


def test_parse_f_spec():
    assert parse_f_spec("1:1") == {1: 1}
    assert parse_f_spec("3:1,1:2") == {3: 1, 1: 2}
    assert parse_f_spec("-1:1,1:1") == {-1: 1, 1: 1}
    assert parse_f_spec({"2": 3}) == {2: 3}
    assert parse_f_spec("0") == {}
    with pytest.raises(UsageError):
        parse_f_spec("1;2")


def test_config_validation():
    with pytest.raises(UsageError):
        JobConfig("lfun", 2, "klein-bottle", {1: 1})
    with pytest.raises(UsageError):
        JobConfig("lfun", 2, "affine", {-1: 1})
    cfg = JobConfig("lfun", 2, "affine", {3: 1}, a=5, b=6, smax=3, dmax=3)
    assert cfg.profile.D == 3 * (6 + 3)
    assert cfg.tower.degree == 3


def test_run_lfun_zero_tower():
    cfg = JobConfig("lfun", 2, "affine", {}, a=6, b=6, smax=3, dmax=3)
    report, code = run(cfg)
    assert code == EXIT_OK
    L = parse_lseries(report["results"]["L"])
    assert L[0][0] == 1
    assert L[1][0] == (-2) % 2 ** report["results"]["effective_precision"]
    assert all(v == 0 for v in L[2])


def test_run_compare_agrees():
    cfg = JobConfig("compare", 2, "affine", {1: 1}, a=6, b=6, smax=3, dmax=3)
    report, code = run(cfg)
    assert code == EXIT_OK
    assert report["results"]["verdict"] == "agree"
    assert report["results"]["effective_precision"] >= 4
    assert report["results"]["trace_formula_L"] == report["results"]["oracle_L"]


def test_run_report_round_trip(tmp_path):
    cfg = JobConfig("compare", 2, "torus", {1: 1, -1: 1},
                    a=5, b=5, smax=3, dmax=3, out=str(tmp_path / "r.json"))
    report, code = run(cfg)
    text = json.dumps(report, indent=2)
    back = json.loads(text)
    assert parse_lseries(back["results"]["trace_formula_L"]) == \
        parse_lseries(report["results"]["trace_formula_L"])
    digits = report["results"]["effective_precision"]
    m = 2 ** digits
    for row in parse_lseries(back["results"]["oracle_L"]):
        assert all(0 <= v < m for v in row)


def test_determinism_modulo_timing():
    cfg1 = JobConfig("compare", 3, "affine", {2: 1, 1: 1}, a=5, b=5, smax=3, dmax=3)
    cfg2 = JobConfig("compare", 3, "affine", {2: 1, 1: 1}, a=5, b=5, smax=3, dmax=3)
    r1, _ = run(cfg1)
    r2, _ = run(cfg2)
    r1.pop("timing_seconds")
    r2.pop("timing_seconds")
    assert json.dumps(r1, sort_keys=True) == json.dumps(r2, sort_keys=True)


def test_run_slopes_command():
    cfg = JobConfig("slopes", 2, "affine", {1: 1}, a=5, b=8, smax=4, dmax=4)
    report, code = run(cfg)
    assert code == EXIT_OK
    res = report["results"]
    assert "polygon" in res and "hodge_bound" in res
    assert res["polygon"]["points"][0] == {"index": 0, "v_T": 0, "exact": True}


def test_run_selfcheck_command():
    cfg = JobConfig("selfcheck", 2, "affine", {1: 1}, a=5, b=5, smax=3, dmax=3)
    report, code = run(cfg)
    assert code == EXIT_OK
    assert report["results"]["ok"]
    names = {c["name"] for c in report["results"]["checks"]}
    assert "doubling-D stability" in names
    assert "route agreement" in names


def test_main_exit_codes(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = main(["compare", "--p", "2", "--geometry", "affine", "--f", "1:1",
                 "--prec-p", "5", "--prec-T", "5", "--s-degree", "3",
                 "--d-max", "3", "--out", str(out)])
    assert code == EXIT_OK
    data = json.loads(out.read_text())
    assert data["results"]["verdict"] == "agree"
    # malformed f exponent on the affine line: usage error
    code = main(["lfun", "--p", "2", "--geometry", "affine", "--f=-1:1"])
    assert code == EXIT_USAGE
    err = capsys.readouterr().err
    assert "usage error" in err


def test_main_budget_exit_code(capsys):
    # 7^9 points blow the enumeration budget before any work starts
    code = main(["oracle", "--p", "7", "--geometry", "affine", "--f", "3:1",
                 "--prec-p", "4", "--prec-T", "4", "--s-degree", "9",
                 "--d-max", "9"])
    assert code == 3
    assert "resource limit" in capsys.readouterr().err


def test_main_config_document(tmp_path):
    cfgfile = tmp_path / "job.json"
    cfgfile.write_text(json.dumps({
        "p": 2, "geometry": "torus", "f": {"1": 1, "-1": 1},
        "a": 5, "b": 5, "smax": 3, "dmax": 3,
    }))
    out = tmp_path / "r.json"
    code = main(["compare", "--config", str(cfgfile), "--out", str(out)])
    assert code == EXIT_OK
    data = json.loads(out.read_text())
    assert data["config"]["geometry"] == "torus"
    # flag overrides the document
    code = main(["compare", "--config", str(cfgfile), "--p", "3",
                 "--out", str(out)])
    assert code == EXIT_OK
    assert json.loads(out.read_text())["config"]["p"] == 3


@pytest.mark.parametrize("block_degree", ["x", 0, -2])
def test_main_rejects_bad_block_degree(tmp_path, capsys, block_degree):
    cfgfile = tmp_path / "job.json"
    cfgfile.write_text(json.dumps({
        "p": 2, "geometry": "affine", "f": {"1": 1},
        "a": 5, "b": 5, "smax": 3, "dmax": 3, "block_degree": block_degree,
    }))
    code = main(["slopes", "--config", str(cfgfile)])
    assert code == EXIT_USAGE
    err = capsys.readouterr().err
    assert "usage error" in err and "Traceback" not in err


def test_main_rejects_p_zero(capsys):
    # p is checked before the tower reduces coefficients mod p
    assert main(["lfun", "--p", "0", "--f", "1:1"]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert "usage error" in err and "Traceback" not in err


def test_main_rejects_degree_bound_below_p(capsys):
    assert main(["lfun", "--p", "2", "--f", "1:1", "--x-degree", "1"]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert "usage error" in err and "D = 1" in err
