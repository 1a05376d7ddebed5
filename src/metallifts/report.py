"""Scenario execution and report rendering.

Verdicts are exact symbolic facts; each residual is additionally
corroborated numerically at seeded random points (an exact zero must
stay below ZERO_TOL everywhere, an exact nonzero must exceed NONZERO_TOL
somewhere).  Structured reports are byte-identical across runs with the
same seed.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii

from .checks import CheckOutcome, Context, Residual, run_check
from .geometry import run_memo
from .scenario import Scenario
from .symexpr import RatFunc, ResampleNeeded

DEFAULT_SEED = 20230831
NUM_POINTS = 10
ZERO_TOL = 1e-9
NONZERO_TOL = 1e-12
SCHEMA_VERSION = 1
MAX_RESAMPLES = 100


@dataclass
class NumericSummary:
    points: int
    max_abs: float
    corroborates: bool


@dataclass
class CheckReport:
    raw: str
    outcome: CheckOutcome
    numeric: list[tuple[Residual, NumericSummary]] = field(default_factory=list)

    @property
    def verdict(self) -> str:
        if self.outcome.verdict == "error":
            return "error"
        if any(not s.corroborates for _, s in self.numeric):
            return "error"
        return self.outcome.verdict


@dataclass
class Report:
    scenario: str
    seed: int
    checks: list[CheckReport]

    @property
    def ok(self) -> bool:
        return all(c.verdict == "pass" for c in self.checks)


def _sample(expr: RatFunc, rng: random.Random) -> NumericSummary:
    if expr.is_zero:
        # An exact zero is 0.0 at every point and never resamples: draw its
        # points' words (random() takes two 32-bit words, getrandbits(64k)
        # takes 2k) so that later residuals see the same points.
        rng.getrandbits(64 * NUM_POINTS * expr.chart.dimension)
        return NumericSummary(NUM_POINTS, 0.0, True)
    # Each coordinate is -2 + 4*random(), which is rng.uniform(-2.0, 2.0)
    # bit for bit, drawn in chart order.
    coords = range(expr.chart.dimension)
    draw = rng.random
    max_abs = 0.0
    done = 0
    attempts = 0
    while done < NUM_POINTS and attempts < NUM_POINTS + MAX_RESAMPLES:
        attempts += 1
        point = [-2.0 + 4.0 * draw() for _ in coords]
        try:
            val = expr.eval_numeric(point)
        except (ResampleNeeded, OverflowError):
            continue
        # A point whose float image overflows says nothing either way.
        if not math.isfinite(val):
            continue
        max_abs = max(max_abs, abs(val))
        done += 1
    return NumericSummary(done, max_abs, True)


def _corroborate(res: Residual, summary: NumericSummary) -> NumericSummary:
    if summary.points < NUM_POINTS:
        summary.corroborates = False
    elif res.expr.is_zero:
        summary.corroborates = summary.max_abs < ZERO_TOL
    else:
        summary.corroborates = summary.max_abs > NONZERO_TOL
    return summary


def run_scenario(scenario: Scenario, seed: int = DEFAULT_SEED) -> Report:
    ctx = Context(scenario)
    rng = random.Random(seed)
    reports = []
    with run_memo():
        for spec in scenario.checks:
            outcome = run_check(ctx, spec.kind, spec.args, spec.raw)
            try:
                numeric = [(res, _corroborate(res, _sample(res.expr, rng)))
                           for res in outcome.residuals]
            except Exception as exc:
                # Like a check that raises, a residual that cannot be
                # sampled ends its own check, not the run.
                outcome = CheckOutcome(outcome.claim, name=outcome.name,
                                       error=f"{type(exc).__name__}: {exc}").settle()
                numeric = []
            reports.append(CheckReport(spec.raw, outcome, numeric))
    return Report(scenario.name, seed, reports)


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------

def _residual_entry(res: Residual, summary: NumericSummary, params) -> dict:
    entry = {
        "label": res.label,
        "expect": res.expect,
        "exact_zero": res.expr.is_zero,
        "points": summary.points,
        "max_abs": format(summary.max_abs, ".6e"),
        "corroborates": summary.corroborates,
    }
    if res.expect == "zero" and not res.expr.is_zero:
        entry["residual"] = res.expr.to_text(params)
    return entry


def render_structured(report: Report, params) -> str:
    doc = {
        "schema_version": SCHEMA_VERSION,
        "scenario": report.scenario,
        "seed": report.seed,
        "overall": "pass" if report.ok else "fail",
        "checks": [
            {
                "check": c.raw,
                "claim": c.outcome.claim,
                "verdict": c.verdict,
                "error": c.outcome.error,
                "facts": [{"label": lbl, "holds": val}
                          for lbl, val in c.outcome.facts],
                "notes": list(c.outcome.notes),
                "residuals": [_residual_entry(r, s, params) for r, s in c.numeric],
            }
            for c in report.checks
        ],
    }
    out: list[str] = []
    _write_json(doc, out, "\n")
    out.append("\n")
    return "".join(out)


def _write_json(obj, out: list[str], newline: str) -> None:
    """Append the chunks of ``json.dumps(obj, indent=2, sort_keys=True)``
    to ``out``; ``newline`` is a line break followed by the indent of the
    line ``obj`` starts on.  Only dicts with str keys, lists, str, int,
    bool and None are written, anything else raises TypeError."""
    if isinstance(obj, str):
        out.append(encode_basestring_ascii(obj))
    elif obj is None:
        out.append("null")
    elif obj is True:
        out.append("true")
    elif obj is False:
        out.append("false")
    elif isinstance(obj, int):
        out.append(int.__repr__(obj))
    elif isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        inner, sep = newline + "  ", "{"
        for key in sorted(obj):
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            out.append(f"{sep}{inner}{encode_basestring_ascii(key)}: ")
            _write_json(obj[key], out, inner)
            sep = ","
        out.append(newline + "}")
    elif isinstance(obj, list):
        if not obj:
            out.append("[]")
            return
        inner, sep = newline + "  ", "["
        for item in obj:
            out.append(sep + inner)
            _write_json(item, out, inner)
            sep = ","
        out.append(newline + "]")
    else:
        raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def render_text(report: Report, params) -> str:
    lines = [f"scenario: {report.scenario}",
             f"seed: {report.seed}",
             ""]
    for c in report.checks:
        mark = {"pass": "PASS", "fail": "FAIL", "error": "ERROR"}[c.verdict]
        lines.append(f"[{mark}] {c.raw}")
        lines.append(f"       {c.outcome.claim}")
        if c.outcome.error:
            lines.append(f"       error: {c.outcome.error}")
        for lbl, val in c.outcome.facts:
            if not val:
                lines.append(f"       fact does not hold: {lbl}")
        for note in c.outcome.notes:
            lines.append(f"       note: {note}")
        zero_res = [ (r, s) for r, s in c.numeric if r.expect == "zero" ]
        if zero_res:
            worst = max(s.max_abs for _, s in zero_res)
            fewest, most = min(s.points for _, s in zero_res), max(s.points for _, s in zero_res)
            points = f"{fewest}" if fewest == most else f"{fewest} to {most}"
            lines.append(f"       {len(zero_res)} zero-residual(s), "
                         f"numeric max |value| = {worst:.3e} over "
                         f"{points} seeded points each")
        for r, s in c.numeric:
            if r.expect == "zero" and not r.expr.is_zero:
                lines.append(f"       nonzero residual {r.label} = "
                             f"{r.expr.to_text(params)}")
            if r.expect == "nonzero":
                state = "nonzero as expected" if not r.expr.is_zero else \
                    "unexpectedly zero"
                lines.append(f"       {r.label}: {state} "
                             f"(sampled max |value| = {s.max_abs:.3e})")
            if not s.corroborates:
                lines.append(f"       numeric corroboration FAILED for {r.label}")
        lines.append("")
    lines.append(f"overall: {'pass' if report.ok else 'fail'}")
    return "\n".join(lines) + "\n"
