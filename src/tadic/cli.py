"""Command line front end.

One subcommand of {lfun, oracle, compare, slopes, selfcheck}; options may
come from a JSON config document, with flags overriding fields.  Reports
are UTF-8 JSON with residues serialized as decimal strings at the
reported effective precision, so they parse back to exact values on any
platform.  Exit codes: 0 success or agreement, 2 usage error, 3 resource
limit, 4 route mismatch or failed self check.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from .errors import BudgetError, TadicError, UsageError
from .pipeline import (
    run_compare,
    run_selfcheck,
    run_slopes,
    run_trace_formula,
)
from .pointcount import oracle_lfun
from .profile import PrecisionProfile, is_prime
from .splitting import TowerInput
from .xseries import Geometry

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_RESOURCE = 3
EXIT_MISMATCH = 4

_GEOMETRIES = {
    "affine": Geometry.AFFINE_LINE,
    "affine-line": Geometry.AFFINE_LINE,
    "a1": Geometry.AFFINE_LINE,
    "torus": Geometry.TORUS,
    "gm": Geometry.TORUS,
}


def _integer(name: str, value) -> int:
    """An integral field: an int, an integral float or a decimal string;
    anything else (1.5, true, a list) is a usage error."""
    if isinstance(value, bool) or (isinstance(value, float) and not value.is_integer()):
        raise UsageError(f"{name} must be an integer, got {value!r}")
    try:
        return int(value)
    except (TypeError, ValueError) as exc:
        raise UsageError(f"{name} must be an integer, got {value!r}") from exc


def _unique(pairs, what: str) -> dict:
    """A dict of (key, value) pairs; a key given twice is a usage error,
    not last-wins."""
    out = {}
    for key, value in pairs:
        if key in out:
            raise UsageError(f"{what} {key!r} appears twice")
        out[key] = value
    return out


def parse_f_spec(spec) -> dict[int, int]:
    """Accept {'u': c} maps (from JSON) or 'u:c,u:c' strings (from flags);
    an exponent given twice, as in '1:1,1:2' or {"1": 1, "01": 2}, is a
    usage error."""
    if isinstance(spec, dict):
        pairs = spec.items()
    else:
        spec = str(spec).strip()
        pairs = [part.split(":") for part in spec.split(",")] if spec not in ("", "0") else []
        if any(len(pair) != 2 for pair in pairs):
            raise UsageError(f"bad f {spec!r}, expected 'u:c,u:c,...'")
    return _unique([(_integer("f exponent", u), _integer(f"f coefficient of x^{u}", c))
                    for u, c in pairs], "f exponent")


class JobConfig:
    """Validated job description built from a config document and flags."""

    FIELDS = ("command", "p", "geometry", "f", "a", "b", "D", "smax",
              "dmax", "block_degree", "out")

    def __init__(self, command: str, p: int = 2, geometry: str = "affine", f=None,
                 a: int = 6, b: int = 8, smax: int = 4, dmax: int = 4,
                 D=None, block_degree=None, out=None):
        self.command = command
        if geometry is None or str(geometry).lower() not in _GEOMETRIES:
            raise UsageError(f"unknown geometry {geometry!r}; use affine or torus")
        f = parse_f_spec(f if f is not None else {})
        p = _integer("p", p)
        a, b = _integer("a", a), _integer("b", b)
        smax, dmax = _integer("smax", smax), _integer("dmax", dmax)
        D = None if D in (None, "auto") else _integer("D", D)
        self.block_degree = (None if block_degree in (None, "auto")
                             else _integer("block_degree", block_degree))
        if self.block_degree is not None and self.block_degree < 1:
            raise UsageError(f"block_degree must be >= 1, got {self.block_degree}")
        if out is not None and not isinstance(out, str):
            raise UsageError(f"out must be a path string, got {out!r}")
        self.out = out
        # the tower reduces coefficients mod p, so p is checked first
        if not is_prime(p):
            raise UsageError(f"p = {p} is not prime")
        self.tower = TowerInput(p, _GEOMETRIES[str(geometry).lower()], f)
        self.profile = PrecisionProfile.create(
            p, a, b, smax, dmax, degree=max(self.tower.degree, 1), D=D)

    def echo(self) -> dict:
        """The job as computed: the tower's f (reduced mod p, zero
        coefficients dropped) and the profile's fields."""
        prof = self.profile
        return {"command": self.command, "p": prof.p, "geometry": self.tower.geometry.value,
                "f": {str(u): c for u, c in sorted(self.tower.f_coeffs.items())},
                **{k: getattr(prof, k) for k in ("a", "b", "D", "smax", "dmax", "guard")},
                "block_degree": self.block_degree}


def serialize_lseries(coeffs, digits: int) -> list[list[str]]:
    """s-index -> T-index -> residue as a decimal string, all reduced to
    the common effective precision."""
    out = []
    for c in coeffs:
        m = c.p ** digits
        out.append([str(v % m) for v in c.vals])
    return out


def effective_digits(coeffs) -> int:
    return min(min(c.prec) for c in coeffs)


def polygon_payload(npoly) -> dict:
    return {
        "points": [
            {"index": pt.index, "v_T": pt.valuation, "exact": pt.exact}
            for pt in npoly.points
        ],
        "hull": [list(v) for v in npoly.hull],
        "slopes": [
            {"slope": str(s.slope), "multiplicity": s.multiplicity,
             "provisional": s.provisional}
            for s in npoly.slopes
        ],
    }


def run(config: JobConfig) -> tuple[dict, int]:
    """Execute one command; returns (report, exit_code)."""
    t0 = time.perf_counter()
    report: dict = {"config": config.echo()}
    code = EXIT_OK
    tower, prof = config.tower, config.profile

    if config.command == "lfun":
        res = run_trace_formula(tower, prof)
        digits = effective_digits(res.lfun.coeffs)
        report["results"] = {
            "route": "trace-formula",
            "effective_precision": digits,
            "L": serialize_lseries(res.lfun.coeffs, digits),
            "C0": serialize_lseries(res.c0.coeffs, digits),
            "C1": serialize_lseries(res.c1.coeffs, digits),
        }
    elif config.command == "oracle":
        lf, sums = oracle_lfun(tower, prof)
        digits = effective_digits(lf.coeffs)
        report["results"] = {
            "route": "oracle",
            "effective_precision": digits,
            "L": serialize_lseries(lf.coeffs, digits),
            "exp_sums": serialize_lseries(sums.sums, digits),
            "point_counts": list(sums.point_counts),
        }
    elif config.command == "compare":
        res = run_compare(tower, prof)
        digits = res.verdict.effective_precision
        report["results"] = {
            "verdict": "agree" if res.verdict.agree else "mismatch",
            "effective_precision": digits,
            "trace_formula_L": serialize_lseries(res.trace.lfun.coeffs, digits),
            "oracle_L": serialize_lseries(res.oracle.coeffs, digits),
        }
        if not res.verdict.agree:
            k, j = res.verdict.first_mismatch
            report["results"]["first_mismatch"] = {
                "s_index": k, "T_index": j,
                "trace_formula": res.verdict.mismatch_values[0],
                "oracle": res.verdict.mismatch_values[1],
                "v_p": res.verdict.mismatch_vp,
            }
            code = EXIT_MISMATCH
    elif config.command == "slopes":
        res = run_slopes(tower, prof, config.block_degree)
        digits = effective_digits(res.trace.c0.coeffs)
        report["results"] = {
            "effective_precision": digits,
            "C0": serialize_lseries(res.trace.c0.coeffs, digits),
            "polygon": polygon_payload(res.polygon),
            "hodge_bound": res.hodge,
        }
        if res.report is not None:
            rep = res.report
            report["results"]["slope_report"] = {
                "block_degree": rep.block_degree,
                "increment_r": str(rep.increment_r),
                "residues": [str(x) for x in rep.residues],
                "classifications": [
                    {"block": c.block, "position": c.position,
                     "slope": str(c.slope), "quality": c.quality}
                    for c in rep.classifications
                ],
                "normalization": rep.normalization,
            }
        else:
            report["results"]["slope_report_error"] = res.report_error
    elif config.command == "selfcheck":
        res = run_selfcheck(tower, prof)
        report["results"] = res
        if not res["ok"]:
            code = EXIT_MISMATCH
    else:
        raise UsageError(f"unknown command {config.command!r}")

    report["timing_seconds"] = round(time.perf_counter() - t0, 3)
    return report, code


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="tadic",
        description="T-adic L-functions of Z_p-towers: trace formula, "
                    "enumeration oracle, and slope analysis.")
    sub = ap.add_subparsers(dest="command", required=True)
    for name, help_ in (
        ("lfun", "L-series via the Dwork operator trace formula"),
        ("oracle", "L-series via point enumeration"),
        ("compare", "both routes plus a coefficientwise verdict"),
        ("slopes", "Fredholm series, Newton polygon, slope decomposition"),
        ("selfcheck", "doubling stability, route agreement, invariants"),
    ):
        sp = sub.add_parser(name, help=help_)
        sp.add_argument("--config", help="JSON config document")
        sp.add_argument("--p", type=int)
        sp.add_argument("--geometry", choices=sorted(_GEOMETRIES))
        sp.add_argument("--f", help="monomials of f as 'u:c,u:c,...'; write a "
                                    "negative first exponent as --f=-1:1")
        sp.add_argument("--prec-p", type=int, dest="a", help="p-adic digits a")
        sp.add_argument("--prec-T", type=int, dest="b", help="T-adic order b")
        sp.add_argument("--s-degree", type=int, dest="smax")
        sp.add_argument("--d-max", type=int, dest="dmax")
        sp.add_argument("--x-degree", type=int, dest="D")
        sp.add_argument("--block-degree", type=int, dest="block_degree")
        sp.add_argument("--out", help="write the JSON report here")
    return ap


def config_from_args(args: argparse.Namespace) -> JobConfig:
    doc: dict = {}
    if args.config:
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                doc = json.load(fh, object_pairs_hook=lambda pairs: _unique(pairs, "config key"))
        except (OSError, ValueError, RecursionError) as exc:
            raise UsageError(f"cannot read config: {exc}") from exc
        if not isinstance(doc, dict):
            raise UsageError(f"config must be a JSON object, got {type(doc).__name__}")
    unknown = sorted(set(doc) - set(JobConfig.FIELDS))
    if unknown:
        raise UsageError(f"unknown config keys {unknown}; the fields are {JobConfig.FIELDS}")
    # only the fields the document or a flag sets: the defaults live in JobConfig
    merged = {key: doc[key] for key in JobConfig.FIELDS if key in doc}
    for key in JobConfig.FIELDS:
        val = getattr(args, key, None)
        if val is not None:
            merged[key] = val
    return JobConfig(**merged)


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        config = config_from_args(args)
        report, code = run(config)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except BudgetError as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except TadicError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MISMATCH
    text = json.dumps(report, indent=2)
    if config.out:
        try:
            with open(config.out, "w", encoding="utf-8") as fh:
                fh.write(text + "\n")
        except OSError as exc:
            print(f"usage error: cannot write the report: {exc}", file=sys.stderr)
            return EXIT_USAGE
    else:
        print(text)
    if code == EXIT_MISMATCH and config.command == "compare":
        mm = report["results"].get("first_mismatch", {})
        print(f"routes disagree at s^{mm.get('s_index')} T^{mm.get('T_index')}: "
              f"{mm.get('trace_formula')} vs {mm.get('oracle')}, "
              f"v_p of the difference {mm.get('v_p')}", file=sys.stderr)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
