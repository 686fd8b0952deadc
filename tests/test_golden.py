"""Golden-file regression tests: the committed JSON reports of the
acceptance compare runs must reproduce byte for byte (timing aside), as
the text `tadic compare --out` writes, so key order counts too."""

import json
import pathlib

import pytest

from tadic.cli import JobConfig, run

GOLDEN = pathlib.Path(__file__).parent / "golden"

CASES = [
    ("p2-affine-x", dict(p=2, geometry="affine", f={"1": 1})),
    ("p2-affine-x3", dict(p=2, geometry="affine", f={"3": 1})),
    ("p3-affine-x2+x", dict(p=3, geometry="affine", f={"2": 1, "1": 1})),
    ("p2-torus-x+1over-x", dict(p=2, geometry="torus", f={"1": 1, "-1": 1})),
    ("p5-affine-x4", dict(p=5, geometry="affine", f={"4": 1})),
]


@pytest.mark.parametrize("name,kw", CASES, ids=[c[0] for c in CASES])
def test_golden_compare_report(name, kw):
    cfg = JobConfig("compare", kw["p"], kw["geometry"], kw["f"],
                    a=6, b=8, smax=4, dmax=4)
    report, code = run(cfg)
    assert code == 0
    report.pop("timing_seconds")
    want = (GOLDEN / f"{name}.json").read_text(encoding="utf-8")
    assert json.dumps(report, indent=2) + "\n" == want
