"""Outside-in span recorder for the traced benchmark run.

The recorder never edits the package.  It swaps the module attributes the
pipeline looks names up in (for example `tadic.pipeline.build_Ef`, or
`tadic.unramified.teichmuller_lift`, which `splitting` imports at call time)
for timing wrappers, keeps every span in memory until the run ends, and puts
every original function back on exit.  Each span records its name, start,
end and parent, so a layer's self time is its duration minus what its
children cover, and callers stay apart: oracle lifts (under `exp_sum`) are
told from fiber-identity lifts, and the 2D run inside `doubling_check` from
the base run.  The recorder can be entered once per pass, so a fresh import
of the package before each pass is wrapped again.
"""

from __future__ import annotations

import importlib
import time
from collections import defaultdict

DOUBLING = "pipeline.doubling_check"
THETA = "dwork.theta_apply"
FIBER = ("splitting.norm_of_ef_at_orbit", "splitting.fiber_character_value")
# Spans that only sequence stages.  Their self time is time spent outside
# every named stage, so `trace.coverage` leaves it out.
ORCHESTRATION = ("cli.run", "pipeline.run_compare", "pipeline.run_selfcheck",
                 "pipeline.run_trace_formula", "pipeline.run_slopes",
                 "pointcount.oracle_lfun", DOUBLING)
# Counters reported as the largest value of a pass, not its sum: N of the
# largest matrix assembled for each psi_i.
LARGEST = ("dwork.matrix_n.psi0", "dwork.matrix_n.psi1")


def _psi_of_matrix_arg(args):
    return f"psi{args[1]}"


def _psi_of_char_series(args):
    return f"psi{args[0].degree_index}"


def _degree_of_exp_sum(args):
    return f"d{args[1]}"


def _count_ef(args, ef):
    return {"splitting.ef_terms": len(ef.series.coeffs)}


def _count_matrix(args, mat):
    nonzero = sum(not e.is_zero() for row in mat.entries for e in row)
    return {f"dwork.matrix_n.psi{mat.degree_index}": mat.size,
            "dwork.nonzero": nonzero, "dwork.entries": mat.size ** 2}


def _count_points(args, acc):
    tower, d = args[0], args[1]
    torus = tower.geometry.value == "torus"
    return {"pointcount.points": tower.p ** d - (1 if torus else 0)}


def _count_exact_slopes(args, npoly):
    return {"slopes.exact_slopes": len(npoly.slope_list())}


# (owner, attribute, span name, label of the call, counter of the result).
# The owner is the module (or class) the caller looks the name up in; the
# pipeline passes the labelled arguments positionally.
TARGETS = [
    ("tadic.cli", "run", "cli.run", None, None),
    ("tadic.cli", "run_compare", "pipeline.run_compare", None, None),
    ("tadic.cli", "run_selfcheck", "pipeline.run_selfcheck", None, None),
    ("tadic.cli", "run_trace_formula", "pipeline.run_trace_formula", None, None),
    ("tadic.cli", "oracle_lfun", "pointcount.oracle_lfun", None, None),
    ("tadic.cli", "serialize_lseries", "cli.serialize_lseries", None, None),
    ("tadic.pipeline", "run_slopes", "pipeline.run_slopes", None, None),
    ("tadic.pipeline", "run_trace_formula", "pipeline.run_trace_formula", None, None),
    ("tadic.pipeline", "doubling_check", DOUBLING, None, None),
    ("tadic.pipeline", "compare_series", "pipeline.compare_series", None, None),
    ("tadic.pipeline", "oracle_lfun", "pointcount.oracle_lfun", None, None),
    ("tadic.pipeline", "build_Ef", "splitting.build_Ef", None, _count_ef),
    ("tadic.pipeline", "assemble_matrix", "dwork.assemble_matrix",
     _psi_of_matrix_arg, _count_matrix),
    ("tadic.pipeline", "char_series", "fredholm.char_series", _psi_of_char_series, None),
    ("tadic.pipeline", "l_from_char_series", "fredholm.l_from_char_series", None, None),
    ("tadic.pipeline", "power_traces", "fredholm.power_traces", None, None),
    ("tadic.pipeline", "l_from_traces", "fredholm.l_from_traces", None, None),
    ("tadic.pipeline", "newton_polygon", "slopes.newton_polygon", None, _count_exact_slopes),
    ("tadic.pipeline", "slope_decomposition", "slopes.slope_decomposition", None, None),
    ("tadic.pipeline", "hodge_bound_report", "slopes.hodge_bound_report", None, None),
    ("tadic.pipeline", "norm_of_ef_at_orbit", FIBER[0], None, None),
    ("tadic.pipeline", "fiber_character_value", FIBER[1], None, None),
    ("tadic.splitting", "pi_from_T", "series.pi_from_T", None, None),
    ("tadic.splitting", "splitting_factor", "splitting.splitting_factor", None, None),
    ("tadic.splitting", "unramified_trace", "unramified.unramified_trace", None, None),
    ("tadic.splitting", "one_plus_T_pow", "zp.one_plus_T_pow", None, None),
    ("tadic.splitting:TowerInput", "evaluate_teichmuller",
     "splitting.evaluate_teichmuller", None, None),
    ("tadic.unramified", "teichmuller_lift", "unramified.teichmuller_lift", None, None),
    ("tadic.pointcount", "exp_sum", "pointcount.exp_sum", _degree_of_exp_sum, _count_points),
    ("tadic.pointcount", "teichmuller_lift", "unramified.teichmuller_lift", None, None),
    ("tadic.pointcount", "unramified_trace", "unramified.unramified_trace", None, None),
    ("tadic.pointcount", "one_plus_T_pow", "zp.one_plus_T_pow", None, None),
    ("tadic.pointcount", "l_from_traces", "fredholm.l_from_traces", None, None),
    ("tadic.dwork", "verify_theta_formulas", "dwork.verify_theta_formulas", None, None),
    ("tadic.dwork", "theta0_apply", THETA, None, None),
    ("tadic.dwork", "theta1_apply", THETA, None, None),
]

# Trace-route layers, reported for the base run and, prefixed with
# DOUBLING, for the 2D run inside doubling_check.
TRACE_ROUTE = [
    "series.pi_from_T.self_s",
    "splitting.build_Ef.self_s",
    "splitting.splitting_factor.self_s",
    "dwork.assemble_matrix.psi0.self_s",
    "dwork.assemble_matrix.psi1.self_s",
    "fredholm.char_series.psi0.self_s",
    "fredholm.char_series.psi1.self_s",
    "fredholm.l_from_char_series.self_s",
]

# (metric name, unit), in the order BENCHMARK.json lists them.
LAYER_METRICS = [
    ("pointcount.exp_sum.self_s", "s"),
    ("pointcount.exp_sum.d1.s", "s"),
    ("pointcount.exp_sum.d2.s", "s"),
    ("pointcount.exp_sum.d3.s", "s"),
    ("pointcount.exp_sum.d4.s", "s"),
    ("unramified.teichmuller_lift.self_s", "s"),
    ("unramified.teichmuller_lift.calls", "count"),
    ("unramified.teichmuller_lift.fiber.self_s", "s"),
    ("splitting.evaluate_teichmuller.self_s", "s"),
    ("unramified.unramified_trace.self_s", "s"),
    ("zp.one_plus_T_pow.self_s", "s"),
    ("zp.one_plus_T_pow.calls", "count"),
    ("fredholm.l_from_traces.self_s", "s"),
    ("pointcount.points", "count"),
    ("pointcount.lifts_per_point", "ratio"),
    *[(name, "s") for name in TRACE_ROUTE],
    ("splitting.ef_terms", "count"),
    ("dwork.verify_theta_formulas.self_s", "s"),
    ("dwork.matrix_n.psi0", "count"),
    ("dwork.matrix_n.psi1", "count"),
    ("dwork.nonzero_ratio", "ratio"),
    ("pipeline.doubling_check.s", "s"),
    ("pipeline.doubling_check.self_s", "s"),
    *[(f"{DOUBLING}.{name}", "s") for name in TRACE_ROUTE],
    ("fredholm.power_traces.self_s", "s"),
    ("splitting.norm_of_ef_at_orbit.self_s", "s"),
    ("splitting.fiber_character_value.self_s", "s"),
    ("dwork.theta_apply.self_s", "s"),
    ("pipeline.compare_series.self_s", "s"),
    ("pipeline.run_selfcheck.self_s", "s"),
    ("slopes.analysis.self_s", "s"),
    ("slopes.exact_slopes", "count"),
    ("cli.serialize_lseries.self_s", "s"),
    ("cli.run.self_s", "s"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.coverage", "ratio"),
]


def _resolve(path: str):
    module, _, cls = path.partition(":")
    owner = importlib.import_module(module)
    return getattr(owner, cls) if cls else owner


def assert_unwrapped() -> None:
    """Raise unless every target name is the package's own function:
    defined in a `tadic` module and the same object its defining module
    holds (so `tadic.pipeline.build_Ef is tadic.splitting.build_Ef`)."""
    for owner, attr, *_ in TARGETS:
        fn = getattr(_resolve(owner), attr)
        home = None
        if getattr(fn, "__module__", "").startswith("tadic."):
            home = importlib.import_module(fn.__module__)
            for part in fn.__qualname__.split("."):
                home = getattr(home, part, None)
        if home is not fn:
            raise RuntimeError(f"{owner}.{attr} is not the package's own function")


class Recorder:
    """Context manager that wraps every target inside each `with` block;
    spans and counts accumulate over the blocks.

    Spans are `[name, start, end, parent, in_doubling]` lists; counters
    that need a result (matrix sizes, points) are evaluated by `end_pass`,
    outside the timed pass."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._pending: list = []
        self._saved: list = []

    def __enter__(self) -> "Recorder":
        try:
            for owner, attr, name, label, counter in TARGETS:
                target = _resolve(owner)
                original = getattr(target, attr)
                self._saved.append((target, attr, original))
                setattr(target, attr, self._wrap(original, name, label, counter))
        except BaseException:
            self.__exit__()
            raise
        return self

    def __exit__(self, *exc) -> None:
        while self._saved:
            target, attr, original = self._saved.pop()
            setattr(target, attr, original)

    def _wrap(self, original, name, label, counter):
        spans, stack, pending = self.spans, self._stack, self._pending
        clock = time.perf_counter

        def traced(*args, **kwargs):
            full = name if label is None else f"{name}.{label(args)}"
            parent = stack[-1] if stack else -1
            doubling = parent >= 0 and (spans[parent][4] or spans[parent][0] == DOUBLING)
            rec = [full, 0.0, 0.0, parent, doubling]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if counter is not None and not doubling:
                pending.append((counter, args, result))
            return result

        return traced

    def end_pass(self) -> None:
        this_pass: dict[str, float] = defaultdict(float)
        for counter, args, result in self._pending:
            for key, n in counter(args, result).items():
                this_pass[key] = max(this_pass[key], n) if key in LARGEST else this_pass[key] + n
        for key, n in this_pass.items():
            self.counts[key] += n
        self._pending.clear()

    def layer_metrics(self, passes: int, traced_wall: float) -> dict[str, float]:
        """Per-pass self times and counts (means over `passes` traced
        passes), plus `trace.coverage` = sum of the stages' self times
        (ORCHESTRATION left out) / traced wall.  `dwork.nonzero_ratio`
        pools every matrix of a pass: nonzero entries / sum of N^2.
        `trace.overhead_ratio` is left to the caller."""
        spans = self.spans
        covered = [0.0] * len(spans)
        for name, t0, t1, parent, _ in spans:
            if parent >= 0:
                covered[parent] += t1 - t0
        self_s: dict[str, float] = defaultdict(float)
        total_s: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        oracle_lifts, fiber_lift_s = 0, 0.0
        for i, (name, t0, t1, parent, doubling) in enumerate(spans):
            own = t1 - t0 - covered[i]
            pname = spans[parent][0] if parent >= 0 else ""
            key = name
            # theta inside matrix assembly and its build gate belongs to them
            if name == THETA and pname.startswith("dwork."):
                key = pname
            if name == "unramified.teichmuller_lift":
                if pname.startswith("pointcount.exp_sum"):
                    oracle_lifts += 1
                elif pname in FIBER:
                    fiber_lift_s += own
            if doubling:
                key = f"{DOUBLING}.{key}"
            self_s[key] += own
            total_s[key] += t1 - t0
            calls[name] += 1

        def self_of(*names):
            return sum(v for k, v in self_s.items() if k.startswith(names))

        counts = self.counts
        points = counts["pointcount.points"]
        m = {
            "pointcount.exp_sum.self_s": self_of("pointcount.exp_sum."),
            **{f"pointcount.exp_sum.d{d}.s": total_s[f"pointcount.exp_sum.d{d}"]
               for d in range(1, 5)},
            "unramified.teichmuller_lift.self_s": self_s["unramified.teichmuller_lift"],
            "unramified.teichmuller_lift.calls": calls["unramified.teichmuller_lift"],
            "unramified.teichmuller_lift.fiber.self_s": fiber_lift_s,
            "zp.one_plus_T_pow.calls": calls["zp.one_plus_T_pow"],
            "pointcount.points": points,
            "pointcount.lifts_per_point": oracle_lifts / points if points else 0.0,
            "splitting.ef_terms": counts["splitting.ef_terms"],
            "dwork.matrix_n.psi0": counts["dwork.matrix_n.psi0"],
            "dwork.matrix_n.psi1": counts["dwork.matrix_n.psi1"],
            "dwork.nonzero_ratio": (counts["dwork.nonzero"] / counts["dwork.entries"]
                                    if counts["dwork.entries"] else 0.0),
            "pipeline.doubling_check.s": total_s[DOUBLING],
            "slopes.analysis.self_s": self_of("slopes.newton_polygon",
                                              "slopes.slope_decomposition",
                                              "slopes.hodge_bound_report"),
            "slopes.exact_slopes": counts["slopes.exact_slopes"],
        }
        for name, _ in LAYER_METRICS:
            if name not in m and name.endswith(".self_s"):
                m[name] = self_s[name[:-len(".self_s")]]
        out = {}
        for name, value in m.items():
            per_pass = name.endswith(("_ratio", "lifts_per_point"))
            out[name] = value if per_pass else value / passes
        staged = [v for k, v in self_s.items()
                  if k.removeprefix(f"{DOUBLING}.") not in ORCHESTRATION]
        out["trace.coverage"] = sum(staged) / traced_wall
        return out
