"""The workload process: a fresh interpreter that loads the verifier from
``src/`` and runs scenario texts through its public API.

Reads one JSON object on stdin (from ``run.py``) and writes one JSON
object as the last line of stdout.  Modes:

* ``setup``: import, parse the first scenario, note when the first check
  is ready, time the reference kernel, exit.
* ``run``: as ``setup``, then whole passes over the scenarios (parse, run,
  render) in a closed loop with one client, at least ``MIN_PASSES`` and
  about as many as fit in ``seconds``.  Each check is timed by a hook on
  ``metallifts.report.run_check`` that runs the reference kernel and takes
  timestamps around it, so every check time has a kernel time next to it;
  the kernel's own time is in no check.
* ``trace``: one untraced pass, then the same pass with every layer
  wrapped (see ``layertrace``); reports the per-layer figures.

Every pass starts from empty caches (``clear_caches``) and a full garbage
collection and parses every scenario, so each pass does the work of a
fresh ``metallifts run`` after its import, and every pass of a run
repeats the same work, its collections included.
"""

from __future__ import annotations

import gc
import hashlib
import json
import resource
import sys
import time
from pathlib import Path

MIN_PASSES = 2
SETUP_KERNEL_RUNS = 5

# Input of the reference kernel: a dense 6x6 bivariate polynomial as a dict
# from exponent tuples to small ints.
_KERNEL_POLY = {(i, j): (7 * i + 3 * j) % 19 - 9 for i in range(6) for j in range(6)}


def reference_kernel() -> tuple[float, float]:
    """Run the reference kernel once; its start and end time.

    The kernel multiplies sparse polynomials stored as dicts, the pure-Python
    work sympy's polynomial rings do with Python ground types, and touches
    nothing of the verifier, so a change to the verifier cannot change its
    time; only the speed of the core does.  Garbage collection is paused
    around it, so the kernel neither triggers nor absorbs the verifier's
    collections."""
    gc_on = gc.isenabled()
    gc.disable()
    t0 = time.perf_counter()
    for _ in range(6):
        prod: dict[tuple[int, int], int] = {}
        for (a, b), c in _KERNEL_POLY.items():
            for (d, e), f in _KERNEL_POLY.items():
                key = (a + d, b + e)
                prod[key] = prod.get(key, 0) + c * f
    t1 = time.perf_counter()
    if gc_on:
        gc.enable()
    return t0, t1


def _total_degree(poly) -> int:
    return max(map(sum, poly)) if poly else 0


def clear_caches() -> None:
    """Empty the memo caches of the verifier's modules and sympy's cache."""
    from sympy.core.cache import clear_cache

    for name, mod in list(sys.modules.items()):
        if name == "metallifts" or name.startswith("metallifts."):
            for obj in list(vars(mod).values()):
                if callable(getattr(obj, "cache_clear", None)):
                    obj.cache_clear()
    clear_cache()


class Runner:
    def __init__(self, cfg: dict):
        self.cfg = cfg
        src = Path(cfg["src"]).resolve()
        if not (src / "metallifts" / "__init__.py").is_file():
            raise SystemExit(f"worker: no metallifts package under {src}")
        sys.path.insert(0, str(src))
        import metallifts
        from metallifts import report, scenario

        if Path(metallifts.__file__).resolve().parent != src / "metallifts":
            raise SystemExit(f"worker: imported metallifts from {metallifts.__file__}")
        self.report, self.scenario = report, scenario
        self.texts = cfg["scenarios"]
        scenario.parse_scenario(self.texts[0]["text"])
        self.ready = time.monotonic()
        runs = [reference_kernel() for _ in range(SETUP_KERNEL_RUNS)]
        self.ready_ref_s = sorted(b - a for a, b in runs)[SETUP_KERNEL_RUNS // 2]

    def one(self, i: int) -> dict:
        """Parse, run and render scenario i: its verdicts, a digest of the
        structured report and its wall time, or the exception it raised."""
        sc = self.texts[i]
        t0 = time.perf_counter()
        try:
            parsed = self.scenario.parse_scenario(sc["text"])
            rep = self.report.run_scenario(parsed, seed=sc["sampler_seed"])
            doc = self.report.render_structured(rep, parsed.params)
        except Exception as exc:  # a raising scenario fails all its checks
            return {"raised": f"{type(exc).__name__}: {exc}"}
        return {"verdicts": [c.verdict for c in rep.checks],
                "digest": hashlib.sha256(doc.encode()).hexdigest(),
                "total_s": time.perf_counter() - t0, "report": rep}

    def run_pass(self, marks: list | None = None) -> list[dict]:
        """One pass from empty caches.  With ``marks`` (filled by the check
        hook with the start and end of a reference-kernel run before every
        check and after run_scenario returns) each result gets its check
        times, the kernel time next to each check (the mean of the runs
        before and after it), and the scenario's remaining time (parse, work
        before the first check, render) with the scenario's mean kernel
        time."""
        clear_caches()
        gc.collect()
        results = []
        for i in range(len(self.texts)):
            res = self.one(i)
            if marks is not None and "raised" not in res:
                kernel = [b - a for a, b in marks]
                res["check_s"] = [b[0] - a[1] for a, b in zip(marks, marks[1:])]
                res["ref_s"] = [(a + b) / 2 for a, b in zip(kernel, kernel[1:])]
                res["rest_s"] = res["total_s"] - sum(res["check_s"]) - sum(kernel)
                res["rest_ref_s"] = sum(kernel) / len(kernel)
            results.append(res)
        return results


def _strip(results: list[dict]) -> list[dict]:
    return [{k: v for k, v in r.items() if k != "report"} for r in results]


def mode_run(rn: Runner) -> dict:
    marks: list[tuple[float, float]] = []
    orig_check, orig_run = rn.report.run_check, rn.report.run_scenario

    def hook(*args, **kwargs):
        marks.append(reference_kernel())
        return orig_check(*args, **kwargs)

    def timed_run(*args, **kwargs):
        marks.clear()
        out = orig_run(*args, **kwargs)
        marks.append(reference_kernel())
        return out

    passes, spent = [], 0.0
    rn.report.run_check, rn.report.run_scenario = hook, timed_run
    try:
        # Whole passes, at least MIN_PASSES; another one starts only while it
        # is expected to end nearer the time asked for than stopping would.
        while (len(passes) < MIN_PASSES
               or spent + spent / len(passes) / 2 < rn.cfg["seconds"]):
            passes.append(_strip(rn.run_pass(marks)))
            spent += sum(r.get("total_s", 0.0) for r in passes[-1])
    finally:
        rn.report.run_check, rn.report.run_scenario = orig_check, orig_run
    return {"passes": passes,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}


def mode_trace(rn: Runner) -> dict:
    import layertrace

    # The cli layer's cost on the API path is its import.
    t0 = time.perf_counter()
    import metallifts.cli  # noqa: F401
    cli_import_s = time.perf_counter() - t0

    clear_caches()
    t0 = time.perf_counter()
    plain = [rn.one(i) for i in range(len(rn.texts))]
    untraced_s = time.perf_counter() - t0

    clear_caches()  # before the wrappers hide the caches' cache_clear
    tracer = layertrace.Tracer()
    inst = layertrace.install(tracer)
    try:
        t0 = time.perf_counter()
        traced = [rn.one(i) for i in range(len(rn.texts))]
        traced_s = time.perf_counter() - t0
    finally:
        inst.restore()
    metrics = layer_metrics(tracer, traced, rn)
    metrics["trace.overhead_s"] = traced_s - untraced_s
    metrics["cli.import_s"] = cli_import_s
    return {"passes": [_strip(plain), _strip(traced)], "layers": metrics}


def layer_metrics(tracer, results: list[dict], rn: Runner) -> dict:
    import layertrace

    stats = layertrace.name_stats(tracer.spans)
    m: dict[str, float] = {}
    for layer in layertrace.LAYERS:
        mine = [s for n, s in stats.items() if layertrace.layer_of(n) == layer]
        m[f"{layer}.calls"] = sum(s.calls for s in mine)
        if layer != "cli":  # never entered on the API path: see cli.import_s
            m[f"{layer}.self_s"] = sum(s.self_s for s in mine)

    def calls(*names):
        return sum(stats[n].calls for n in names if n in stats)

    def incl(*names):
        return sum(stats[n].inclusive_s for n in names if n in stats)

    m["numfield.quad_new"] = calls("numfield.QuadScalar.__init__")
    m["numfield.squarefree_split"] = calls("numfield.squarefree_split")
    m["symexpr.coeff_conv"] = calls("symexpr.CoeffField.from_quad",
                                    "symexpr.CoeffField.to_quad")
    for op, names in (("mul", ("__mul__", "__rmul__")), ("add", ("__add__", "__radd__")),
                      ("div", ("__truediv__", "__rtruediv__")), ("diff", ("diff",)),
                      ("substitute", ("substitute",))):
        m[f"symexpr.{op}"] = calls(*(f"symexpr.RatFunc.{n}" for n in names))
    m["lifts.complete_lift_t11.calls"] = calls("lifts.complete_lift_t11")
    m["integrability.nijenhuis_t11.calls"] = calls("integrability.nijenhuis_t11")
    m["symexpr.peak_num_terms"] = tracer.peak_num_terms
    m["symexpr.peak_num_degree"] = tracer.peak_num_degree

    swell = 0
    for r in results:
        for c in (r["report"].checks if "report" in r else ()):
            for res, _ in c.numeric:
                swell += _total_degree(res.expr.den) - _total_degree(res.expr.reduced().den)
    m["symexpr.den_swell"] = swell

    evaluations, section_checks = layertrace.identity_calls(tracer.spans)
    m["cross_section.section_checks"] = section_checks
    m["cross_section.identity_calls_per_check"] = (
        evaluations / section_checks if section_checks else 0.0)

    m["scenario.parse_s"] = incl("scenario.parse_scenario")
    m["report.render_s"] = incl("report.render_structured")
    m["checks.exact_s"] = incl("checks.run_check")
    m["report.numeric_s"] = incl("report._sample", "report._corroborate")
    evals = calls("symexpr.RatFunc.eval_numeric")
    resamples = tracer.counters["symexpr.RatFunc.eval_numeric!ResampleNeeded"]
    m["report.samples"] = evals - resamples
    m["report.resamples"] = resamples
    base = incl("report.run_scenario")
    m["report.numeric_share_base_s"] = base
    m["report.numeric_share"] = m["report.numeric_s"] / base if base else 0.0
    for kind in sys.modules["metallifts.checks"].CHECKS:
        m[f"checks.{kind}.s"] = incl(f"checks.kind:{kind}")
    m["trace.spans"] = len(tracer.spans)
    m["trace.checks"] = sum(len(r.get("verdicts", ())) for r in results)
    return m


def main() -> int:
    cfg = json.load(sys.stdin)
    rn = Runner(cfg)
    out = {"ready": rn.ready, "ready_ref_s": rn.ready_ref_s}
    if cfg["mode"] == "run":
        out.update(mode_run(rn))
    elif cfg["mode"] == "trace":
        out.update(mode_trace(rn))
    import sympy
    from sympy.external.gmpy import GROUND_TYPES

    out["info"] = {"sympy": sympy.__version__, "ground_types": GROUND_TYPES}
    sys.stdout.write(json.dumps(out) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
