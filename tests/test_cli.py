"""Tests for the command line interface and report format."""

import json
import os
import pathlib
import subprocess
import sys
import time

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import tadic
from tadic import pipeline, splitting
from tadic.cli import (
    EXIT_MISMATCH,
    EXIT_OK,
    EXIT_RESOURCE,
    EXIT_USAGE,
    JobConfig,
    main,
    parse_f_spec,
    run,
)
from tadic.errors import UsageError
from tadic.profile import PRIME_TEST_BOUND, PrecisionProfile, is_prime
from tadic.splitting import TowerInput
from tadic.xseries import Geometry


def parse_lseries(block):
    """A serialized L block back to integers: s-index -> T-index -> residue."""
    return [[int(s) for s in row] for row in block]


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


# One process per hash seed runs every case: random towers over p = 2, 3, 5
# in both geometries, each through all five commands.
_HASH_SEED_CASES = """
import json, random, warnings
from tadic.cli import JobConfig, run
warnings.simplefilter("ignore")
rng = random.Random(20)
reports = []
for p in (2, 3, 5):
    for geometry in ("affine", "torus"):
        exps = [u for u in range(1 if geometry == "affine" else -3, 4) if u]
        f = {u: rng.randrange(1, p) for u in rng.sample(exps, rng.randint(1, 3))}
        for command in ("lfun", "oracle", "compare", "slopes", "selfcheck"):
            report, code = run(JobConfig(command, p, geometry, f, a=3, b=4, smax=2, dmax=2))
            del report["timing_seconds"]
            reports.append([code, report])
print(json.dumps(reports, indent=1))
"""


def test_reports_do_not_depend_on_the_hash_seed():
    src = str(pathlib.Path(tadic.__file__).resolve().parents[1])
    outs = []
    for seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=seed,
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        outs.append(subprocess.run([sys.executable, "-c", _HASH_SEED_CASES], env=env,
                                   capture_output=True, text=True, check=True).stdout)
    assert len(json.loads(outs[0])) == 30
    assert outs[0] == outs[1]


def test_run_slopes_command():
    cfg = JobConfig("slopes", 2, "affine", {1: 1}, a=5, b=8, smax=4, dmax=4)
    report, code = run(cfg)
    assert code == EXIT_OK
    res = report["results"]
    assert "polygon" in res and "hodge_bound" in res
    assert res["polygon"]["points"][0] == {"index": 0, "v_T": 0, "exact": True}


def test_torus_slopes_report_no_block_model_violation(capsys):
    # the polygon of x^2 + 1/x at p = 7 is HP(Delta); the affine block
    # model r (n + beta_j) used to call its slope 6 of block 1 a violation.
    # D = 18 and a = 3 give the same exact polygon as the defaults, sooner
    argv = ["slopes", "--p", "7", "--geometry", "torus", "--f=2:1,-1:1", "--prec-T", "40",
            "--s-degree", "8", "--x-degree", "18", "--prec-p", "3"]
    assert main(argv) == EXIT_OK
    res = json.loads(capsys.readouterr().out)["results"]
    assert [pt["v_T"] for pt in res["polygon"]["points"][:7]] == [0, 0, 3, 9, 15, 24, 36]
    assert "slope_report" not in res
    assert "affine line only" in res["slope_report_error"]
    assert res["hodge_bound"]["holds"] and res["hodge_bound"]["violations"] == []


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


def test_main_reads_negative_first_exponent_joined_to_flag():
    # "--f -1:1" would read -1:1 as an option; the joined form is the documented one
    assert main(["lfun", "--p", "2", "--geometry", "torus", "--f=-1:1"]) == EXIT_OK


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


def test_main_rejects_large_prime_fast(capsys):
    # 10^18 + 3 is prime; deciding so must not take trial division to 10^9
    t0 = time.perf_counter()
    assert main(["lfun", "--p", "1000000000000000003", "--f", "1:1"]) == EXIT_USAGE
    assert time.perf_counter() - t0 < 2
    err = capsys.readouterr().err
    assert "usage error" in err and "Traceback" not in err


def test_is_prime_is_exact():
    def trial_division(n):
        return n >= 2 and all(n % d for d in range(2, int(n ** 0.5) + 1))

    assert all(is_prime(n) == trial_division(n) for n in range(10 ** 4))
    # strong pseudoprimes to the bases 2..23 and to 2..37
    assert not is_prime(3825123056546413051)
    assert not is_prime(318665857834031151167461)
    assert is_prime(2 ** 61 - 1) and is_prime(10 ** 18 + 3)
    with pytest.raises(UsageError):
        is_prime(PRIME_TEST_BOUND)


def test_main_rejects_degree_bound_below_p(capsys):
    assert main(["lfun", "--p", "2", "--f", "1:1", "--x-degree", "1"]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert "usage error" in err and "D = 1" in err


@pytest.mark.parametrize("argv", [
    ["lfun", "--p", "13", "--f", "1:1"],
    ["compare", "--p", "7", "--f", "1:1", "--prec-T", "4", "--s-degree", "2", "--d-max", "2"],
])
def test_default_degree_bound_is_at_least_p(capsys, argv):
    # deg * (b + smax) is 12 and 6 here, below p
    assert main(argv) == EXIT_OK
    report = json.loads(capsys.readouterr().out)
    assert report["config"]["D"] == int(argv[2])
    assert report["results"].get("verdict", "agree") == "agree"


def test_main_rejects_degree_bound_beyond_matrix_limit(capsys):
    # the torus basis x^-D..x^D has 2D + 1 rows
    argv = ["lfun", "--p", "2", "--geometry", "torus", "--f", "1:1", "--x-degree", "1024"]
    assert main(argv) == EXIT_USAGE
    err = capsys.readouterr().err
    assert "usage error" in err and "2049 matrix rows" in err


def test_main_refuses_a_prime_past_the_matrix_limit(capsys):
    # the default D = p gives p + 1 rows; past the limit the run is refused
    # before any matrix is built, where it would take minutes
    t0 = time.process_time()
    assert main(["lfun", "--p", "1283", "--f", "1:1"]) == EXIT_USAGE
    assert time.process_time() - t0 < 5
    assert "1284 matrix rows" in capsys.readouterr().err


@pytest.mark.parametrize("argv, code, message", [
    # 211^4 points are past the enumeration budget
    (["compare", "--p", "211", "--f", "1:1"], EXIT_RESOURCE, "211^4"),
    # the base run fits (57 rows at b = 100), but the doubling check builds
    # the rows |v| <= K = (2D + R) // p = (112 + 99) // 2 = 105, past the cost limit
    (["selfcheck", "--p", "2", "--f", "1:1", "--prec-T", "100", "--x-degree", "56"],
     EXIT_USAGE, "106 matrix rows"),
    # the oracle cannot assemble s^3 from sums of degree <= 2
    (["compare", "--p", "211", "--f", "1:1", "--s-degree", "3", "--d-max", "2"],
     EXIT_USAGE, "need dmax >= smax"),
    # the matrices fit (K = D = 647), but the fiber identity's 647 + 647^2
    # points would take minutes
    (["selfcheck", "--p", "647", "--f", "1:1"], EXIT_RESOURCE, "fiber identity"),
])
def test_limits_are_checked_before_the_trace_route(monkeypatch, capsys, argv, code, message):
    def refuse(*args):
        raise AssertionError("the trace route ran before the limit was checked")

    monkeypatch.setattr(pipeline, "run_trace_formula", refuse)
    assert main(argv) == code
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("command", ["lfun", "slopes", "compare"])
def test_matrix_limit_is_checked_before_the_splitting_function(monkeypatch, capsys, command):
    # D = 1304 at b = 1300 gives 1305 rows; pi and E_f at that b alone
    # would take minutes
    def refuse(*args):
        raise AssertionError("E_f was built before the matrix limit was checked")

    monkeypatch.setattr(pipeline, "build_Ef", refuse)
    assert main([command, "--p", "2", "--prec-T", "1300"]) == EXIT_USAGE
    assert "1305 matrix rows" in capsys.readouterr().err


@pytest.mark.parametrize("argv, message", [
    # 605 rows are under the rows limit, but at b = 600 they take minutes
    (["--p", "2", "--prec-T", "600"], "605 matrix rows at T-adic order b = 600"),
    # three rows, but pi and E_f alone grow as about b^4
    (["--p", "2", "--prec-T", "500", "--x-degree", "2"], "3 matrix rows at T-adic order b = 500"),
])
def test_cost_limit_in_b_is_checked_before_pi(monkeypatch, capsys, argv, message):
    def refuse(*args):
        raise AssertionError("pi was computed before the cost limit was checked")

    monkeypatch.setattr(splitting, "pi_from_T", refuse)
    assert main(["lfun", *argv]) == EXIT_USAGE
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("p,b,smax", [(7, 80, 9), (11, 120, 6)])
def test_cost_limit_admits_the_deep_slope_runs(p, b, smax):
    # criterion 8 and the p = 11 stretch case, at the decay-based D
    D = -(-3 * b // (p - 1)) + 6
    tower = TowerInput(p, Geometry.AFFINE_LINE, {3: 1})
    assert pipeline.check_job("lfun", tower, PrecisionProfile.create(p, 6, b, smax, 1, D=D)) == D


def test_sizing_admits_the_p11_b120_selfcheck():
    # the doubling check of D = 42 builds only K = 42 rows, not the 85 of
    # 2D, and the fiber identity's 11 + 11^2 points fit at b = 120
    tower = TowerInput(11, Geometry.AFFINE_LINE, {3: 1})
    prof = PrecisionProfile.create(11, 6, 120, 6, 6, D=42)
    assert pipeline.check_job("selfcheck", tower, prof) == 42
    assert pipeline.check_job("doubling", tower, prof) == 42


def test_main_rejects_unwritable_out(capsys):
    code = main(["lfun", "--p", "2", "--f", "1:1", "--out", "/nonexistent/dir/x.json"])
    assert code == EXIT_USAGE
    err = capsys.readouterr().err
    assert "usage error" in err and "Traceback" not in err


@pytest.mark.parametrize("doc, message", [
    ({"p": 2, "f": {"1": 1}, "out": 5}, "out must be a path string"),
    ([1, 2], "config must be a JSON object"),
    ({"p": 2, "f": {"1": 1.5}}, "must be an integer"),
    ({"p": 3, "f": {"1": 1}, "prec_p": 2, "dmax ": 1}, "unknown config keys ['dmax ', 'prec_p']"),
    ({"p": 3, "f": "1:1,1:2"}, "f exponent 1 appears twice"),
    ({"p": 3, "f": {"1": 1, "01": 2}}, "f exponent 1 appears twice"),
    # documents json.dumps cannot write, given as text
    pytest.param('{"p": 2, "p": 3, "f": {"1": 1}}', "config key 'p' appears twice",
                 id="repeated-key"),
    pytest.param("[" * 100000 + "]" * 100000, "cannot read config", id="nested-100000"),
])
def test_main_rejects_malformed_config(tmp_path, capsys, doc, message):
    cfgfile = tmp_path / "job.json"
    cfgfile.write_text(doc if isinstance(doc, str) else json.dumps(doc))
    assert main(["lfun", "--config", str(cfgfile)]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert "usage error" in err and message in err and "Traceback" not in err


def test_defaults_live_in_job_config(tmp_path):
    cfgfile = tmp_path / "job.json"
    cfgfile.write_text(json.dumps({"f": {"1": 1}}))
    out = tmp_path / "r.json"
    assert main(["lfun", "--config", str(cfgfile), "--out", str(out)]) == EXIT_OK
    echo = json.loads(out.read_text())["config"]
    assert echo == JobConfig("lfun", f={1: 1}).echo()
    assert (echo["p"], echo["geometry"], echo["a"], echo["b"]) == (2, "affine", 6, 8)


def test_echo_reports_the_computed_tower(capsys):
    # 3 = 0 mod 3 drops the x term: the L-series is that of x^2 alone
    reports = []
    for f in ("1:3,2:1", "2:1"):
        assert main(["lfun", "--p", "3", "--f", f]) == EXIT_OK
        reports.append(json.loads(capsys.readouterr().out))
    dropped, alone = reports
    assert dropped["config"]["f"] == alone["config"]["f"] == {"2": 1}
    assert dropped["results"] == alone["results"]
    assert JobConfig("lfun", 3, f="1:-1").echo()["f"] == {"1": 2}


_WRONG = (st.none() | st.booleans() | st.floats() | st.text(max_size=3)
          | st.lists(st.integers(-2, 2), max_size=2) | st.just({}))


def _field(valid):
    """A field value of the right type four times in five, else any type."""
    return st.integers(0, 4).flatmap(lambda k: valid if k else _WRONG)


def _config_documents(tmp_path):
    small = st.integers(-1, 6)
    f_map = st.dictionaries(
        st.integers(-3, 3).map(str) | st.text(max_size=2),
        st.integers(-3, 3) | st.floats(-3, 3) | st.text(max_size=2), max_size=3)
    outs = st.none() | st.integers(-1, 9) | st.sampled_from(
        [str(tmp_path / "r.json"), str(tmp_path / "missing" / "r.json"), str(tmp_path)])
    fields = {
        "p": _field(st.integers(0, 7)),
        "geometry": _field(st.sampled_from(["affine", "torus", "gm", "klein"])),
        "f": _field(f_map | st.sampled_from(["1:1", "2:1,-1:1", "1;1", "0"])),
        "a": _field(small), "b": _field(small), "smax": _field(small),
        "dmax": _field(small), "D": _field(small | st.just("auto")),
        "block_degree": _field(small),
        "out": outs,
    }
    return _field(st.fixed_dictionaries({}, optional=fields))


@pytest.mark.filterwarnings("ignore::UserWarning")
@settings(max_examples=150, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data(),
       command=st.sampled_from(["lfun", "oracle", "compare", "slopes", "selfcheck"]))
def test_any_config_document_exits_cleanly(tmp_path, data, command):
    doc = data.draw(_config_documents(tmp_path))
    cfgfile = tmp_path / "job.json"
    cfgfile.write_text(json.dumps(doc))
    code = main([command, "--config", str(cfgfile)])
    assert code in (EXIT_OK, EXIT_USAGE, EXIT_RESOURCE, EXIT_MISMATCH)
