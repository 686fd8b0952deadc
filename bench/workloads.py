"""The benchmark's workloads: seeded inputs, the jobs of one pass, and the
check of every job's output.

A seed picks the nonzero coefficients c in F_p^x of a fixed monomial
support, so the work keeps its shape while the answers change.  Seed 0
gives the golden coefficients, all equal to 1.  Jobs only call the package
through module attributes (`ns.cli.run`, `ns.pipeline.run_slopes`) looked up
at call time, so the traced run sees its wrappers.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable

# name of the golden report, p, geometry, support of f
GOLDEN_TOWERS = [
    ("p2-affine-x", 2, "affine", (1,)),
    ("p2-affine-x3", 2, "affine", (3,)),
    ("p3-affine-x2+x", 3, "affine", (2, 1)),
    ("p2-torus-x+1over-x", 2, "torus", (1, -1)),
    ("p5-affine-x4", 5, "affine", (4,)),
]


@dataclass
class Job:
    """One program call of a pass and the check of its output.

    `check` returns (ok, effective precision or None, detail)."""

    name: str
    f: dict[str, int]
    call: Callable[[], Any]
    check: Callable[[Any], tuple[bool, int | None, str]]


def coefficients(rng: random.Random, seed: int, p: int, support) -> dict[str, int]:
    return {str(u): 1 if seed == 0 else rng.randrange(1, p) for u in support}


def compare_golden(ns, seed: int, golden: dict[str, str]) -> list[Job]:
    rng = random.Random(seed)
    jobs = []
    for name, p, geometry, support in GOLDEN_TOWERS:
        f = coefficients(rng, seed, p, support)
        config = ns.cli.JobConfig("compare", p, geometry, f, a=6, b=8, smax=4, dmax=4)
        # p = 2 leaves no choice of coefficient, so the golden report
        # applies whenever the drawn f is the golden one
        want = golden[name] if all(c == 1 for c in f.values()) else None

        def check(out, want=want):
            report, code = out
            res = report["results"]
            if code != 0 or res["verdict"] != "agree":
                return False, None, f"exit {code}, verdict {res['verdict']}"
            if want is not None:
                report = {k: v for k, v in report.items() if k != "timing_seconds"}
                if json.dumps(report, indent=2) + "\n" != want:
                    return False, None, "report differs from its golden file"
            return True, res["effective_precision"], ""

        jobs.append(Job(name, f, lambda config=config: ns.cli.run(config), check))
    return jobs


def slopes_deep(ns, seed: int, golden: dict[str, str]) -> list[Job]:
    """The checks of acceptance criterion 8 (p = 7, f = c x^3) with the
    decay-based degree bound D = ceil(3 b / (p - 1)) + 2 deg f, at b = 64,
    smax = 6: the least precision that still yields two full blocks of
    non-provisional slopes, so a pass takes seconds, not the 17-23 s of
    the b = 80, smax = 9 test case."""
    p, b, d = 7, 64, 3
    f = coefficients(random.Random(seed), seed, p, (d,))
    tower = ns.splitting.TowerInput(p, ns.xseries.Geometry.AFFINE_LINE,
                                    {int(u): c for u, c in f.items()})
    D = -(-d * b // (p - 1)) + 2 * d
    prof = ns.profile.PrecisionProfile.create(p, 6, b, 6, 1, degree=d, D=D)

    def call():
        run = ns.pipeline.run_slopes(tower, prof)
        return run, ns.pipeline.doubling_check(tower, prof, base=run.trace)

    def check(out):
        run, (doubled, info) = out
        rep = run.report
        if rep is None:
            return False, None, f"no slope report: {run.report_error}"
        slopes = run.polygon.slope_list()
        nblocks = len(slopes) // d
        steady = all(slopes[(n + 1) * d + j] - slopes[n * d + j] == rep.increment_r
                     for n in range(nblocks - 1) for j in range(d))
        failures = [
            what for what, ok in (
                ("block degree", rep.block_degree == d),
                ("increment r = p - 1", rep.increment_r == p - 1),
                ("residues (0, 1/3, 2/3)",
                 rep.residues == tuple(Fraction(j, d) for j in range(d))),
                ("two full blocks", nblocks >= 2),
                ("slopes on model", all(q in ("exact", "within-window")
                                        for q in rep.all_qualities())),
                ("increment across blocks", steady),
                ("Hodge bound", run.hodge["holds"]),
                (f"doubling {info}", doubled),
            ) if not ok]
        a_eff = ns.cli.effective_digits(run.trace.c0.coeffs)
        return not failures, a_eff, "; ".join(failures)

    return [Job("p7-affine-x3-b80", f, call, check)]


def selfcheck_torus(ns, seed: int, golden: dict[str, str]) -> list[Job]:
    """The torus self check, followed by the `lfun` report of the same
    tower: the self check reports no precision, the L-series does."""
    f = coefficients(random.Random(seed), seed, 3, (2, -1))
    kw = dict(a=6, b=12, smax=5, dmax=5)
    selfcheck = ns.cli.JobConfig("selfcheck", 3, "torus", f, **kw)
    lfun = ns.cli.JobConfig("lfun", 3, "torus", f, **kw)
    first: list = []

    def check_selfcheck(out):
        report, code = out
        bad = [c["name"] for c in report["results"]["checks"] if not c["ok"]]
        ok = code == 0 and report["results"]["ok"] and not bad
        return ok, None, f"exit {code}, failed checks {bad}"

    def check_lfun(out):
        report, code = out
        res = report["results"]
        unit = ["1"] + ["0"] * (kw["b"] - 1)
        # the report may not change from pass to pass
        if not first:
            first.append(res)
        ok = (code == 0 and res["effective_precision"] >= kw["a"]
              and res["L"][0] == unit and res["C0"][0] == unit and res == first[0])
        return ok, res["effective_precision"], f"exit {code}, L[0] {res['L'][0]}"

    return [
        Job("p3-torus-selfcheck", f, lambda: ns.cli.run(selfcheck), check_selfcheck),
        Job("p3-torus-lfun", f, lambda: ns.cli.run(lfun), check_lfun),
    ]


WORKLOADS = {
    "compare-golden": compare_golden,
    "slopes-deep": slopes_deep,
    "selfcheck-torus": selfcheck_torus,
}
