"""Time-to-verdict benchmark for the metallifts verifier.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; the verifier is loaded from ``src/``.  The
scenarios come from ``generate.py`` and depend only on the workload and
the seed.  Each run starts fresh interpreters (``worker.py``) one at a
time: several that only set up, for ``setup_s``, and two with different
hash seeds that share the workload's time in a closed loop with one
client.  With ``--trace 1`` a single worker runs one pass untraced and the
same pass traced, and the per-layer figures are printed instead of the
end-to-end ones.

The timed figures are scaled to a reference core (``scaled``): every
time is divided by the time of a fixed reference kernel run next to it
and multiplied by ``REF_KERNEL_S``.  On a shared VM a core's speed can
change by half within seconds and stay changed for minutes (README), so
unscaled times measure the host's load as much as the program.

Every verdict is checked against the verdict the generator knows, and the
structured report of every scenario must be byte-identical across passes
(same seed), between the two workload processes, and between the
untraced and traced pass.  The last line of
stdout is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``; the lines before it print each metric with its unit and
sample count, and the environment.  The exit status is 1 when a verdict or
report is wrong, 2 when the benchmark cannot run.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from generate import WORKLOADS, GenScenario, generate  # noqa: E402
from worker import MIN_PASSES  # noqa: E402

SETUP_SAMPLES = 5
# The reference kernel's time (worker.reference_kernel) on the core that
# the timed figures are scaled to; about its time on a 2.1 GHz Xeon.
REF_KERNEL_S = 0.0015
RUN_WORKERS = 2
DEADLINE_S = 170.0


class BenchError(Exception):
    pass


def spawn(mode: str, cfg: dict, deadline: float, hash_seed: int = 0) -> dict:
    """Run one worker process to completion, with PYTHONHASHSEED set to
    ``hash_seed``; its result with ``setup_s``, the time from starting the
    interpreter until its first check was ready."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time")
    env = {**os.environ, "PYTHONHASHSEED": str(hash_seed)}
    t0 = time.monotonic()
    try:
        proc = subprocess.run([sys.executable, str(HERE / "worker.py")],
                              input=json.dumps({**cfg, "mode": mode}), env=env,
                              stdout=subprocess.PIPE, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{mode} worker did not finish in time") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{mode} worker exited with status {proc.returncode}")
    out = json.loads(lines[-1])
    out["setup_s"] = out["ready"] - t0
    out["setup_scaled_s"] = out["setup_s"] * REF_KERNEL_S / out["ready_ref_s"]
    return out


def gate(scenarios: list[GenScenario], passes: list[list[dict]], what: str):
    """(attempted, failed, problems): a check fails when its verdict is not
    the known one; a scenario that raised fails all its checks.  Reports of
    one scenario must be byte-identical in every pass."""
    attempted = failed = 0
    problems: list[str] = []
    for p, results in enumerate(passes):
        for sc, res, first in zip(scenarios, results, passes[0]):
            attempted += len(sc.expected)
            if "raised" in res:
                failed += len(sc.expected)
                problems.append(f"{sc.name}: raised {res['raised']}")
                continue
            got = res["verdicts"]
            wrong = sum(g != e for g, e in zip(got, sc.expected))
            wrong += abs(len(got) - len(sc.expected))
            if wrong:
                failed += wrong
                problems.append(f"{sc.name}: verdicts {got}, known {list(sc.expected)}")
            if p and "digest" in first and res["digest"] != first["digest"]:
                problems.append(f"{sc.name}: structured report differs {what}")
    return attempted, failed, problems


def run_hash_seed(seed: int, k: int) -> int:
    """PYTHONHASHSEED of workload process k: distinct for the two processes
    of a run and different from seed to seed, so that over a few seeds a
    report that depends on set or dict order differs between them."""
    return (2 * seed + k) % 4294967295 + 1


def tail_percentile(checks_per_pass: int) -> int:
    """The highest whole percentile with at least ten check times beyond it
    in the fewest a run collects: MIN_PASSES from each of RUN_WORKERS."""
    return math.floor(100 * (1 - 10 / (RUN_WORKERS * MIN_PASSES * checks_per_pass)))


def scaled(passes: list[list[dict]]) -> tuple[list[float], float]:
    """(check times, pass time) scaled to a core that runs the reference
    kernel in REF_KERNEL_S: every time is divided by the kernel time
    measured next to it, and each check's figure is the median of that
    ratio over the passes; the same goes for each scenario's remaining
    time (parse, work before its first check, render)."""
    checks: dict[tuple[int, int], list[float]] = {}
    rest: dict[int, list[float]] = {}
    for results in passes:
        for j, r in enumerate(results):
            if "check_s" not in r:
                continue
            for c, (t, ref) in enumerate(zip(r["check_s"], r["ref_s"])):
                checks.setdefault((j, c), []).append(t / ref)
            rest.setdefault(j, []).append(r["rest_s"] / r["rest_ref_s"])
    times = [REF_KERNEL_S * statistics.median(v) for v in checks.values()]
    return times, sum(times) + sum(REF_KERNEL_S * statistics.median(v) for v in rest.values())


def layer_unit(name: str) -> str:
    if name.endswith("_s") or name.endswith(".s"):
        return "s"
    if name == "report.numeric_share":
        return "ratio"
    if name.endswith("_per_check"):
        return "calls/check"
    if "degree" in name or "swell" in name:
        return "degree"
    return "count"


def src_lines(src: Path) -> int:
    return sum(len(p.read_text(encoding="utf-8").splitlines())
               for p in sorted(src.rglob("*.py")))


def end_to_end(cfg, deadline):
    """RUN_WORKERS interpreters with different hash seeds share the timed
    closed loop, so the reports of two fresh processes are compared; the
    set-up-only interpreters sit before, between and after them."""
    setups, passes, rss = [], [], []
    share = {**cfg, "seconds": cfg["seconds"] / RUN_WORKERS}
    for k in range(RUN_WORKERS):
        setups.append(spawn("setup", cfg, deadline))
        out = spawn("run", share, deadline, hash_seed=run_hash_seed(cfg["seed"], k))
        setups.append(out)
        passes += out["passes"]
        rss.append(out["peak_rss_mb"])
    while len(setups) < SETUP_SAMPLES:
        setups.append(spawn("setup", cfg, deadline))

    checks = [t for results in passes for r in results for t in r.get("check_s", ())]
    if len(checks) < 2:
        raise BenchError("no scenario ran to the end")
    per_pass = sum(len(r["check_s"]) for r in passes[0] if "check_s" in r)
    pct = tail_percentile(per_pass)
    times, pass_scaled = scaled(passes)
    pass_s = [sum(r.get("total_s", 0.0) for r in results) for results in passes]
    out["info"]["unscaled"] = {
        "checks_per_s": per_pass / statistics.median(pass_s),
        "setup_s": statistics.median(o["setup_s"] for o in setups)}
    note = f"{len(times)} checks, each the median of {len(passes)} passes, scaled"
    metrics = {
        "setup_s": (statistics.median(o["setup_scaled_s"] for o in setups), "s",
                    f"median of {len(setups)} set-ups, scaled"),
        "checks_per_s": (len(times) / pass_scaled, "1/s", f"{note}, plus parse and render"),
        "check_p50_ms": (1000 * statistics.median(times), "ms", note),
        "check_tail_ms": (1000 * statistics.quantiles(times, n=100, method="inclusive")[pct - 1],
                          "ms", f"p{pct}; {note}; {len(checks)} check times"),
        "peak_rss_mb": (max(rss), "MB", "ru_maxrss of the workload processes"),
    }
    out["passes"] = passes
    return out, metrics, "between passes and between two fresh processes"


def traced(cfg, deadline):
    out = spawn("trace", cfg, deadline)
    metrics = {name: (value, layer_unit(name), "one traced pass")
               for name, value in sorted(out["layers"].items())}
    return out, metrics, "between the untraced and the traced pass"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    src = Path.cwd() / "src"
    if not (src / "metallifts" / "__init__.py").is_file():
        print("error: run from the repository root; src/metallifts is missing",
              file=sys.stderr)
        return 2
    scenarios = generate(args.workload, args.seed, src)
    cfg = {"src": str(src), "seconds": args.seconds, "seed": args.seed,
           "scenarios": [{"text": s.text, "sampler_seed": s.sampler_seed}
                         for s in scenarios]}
    try:
        out, metrics, compared = (traced if args.trace else end_to_end)(cfg, deadline)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    attempted, failed, problems = gate(scenarios, out["passes"], compared)
    info = {**out["info"], "python": platform.python_version(),
            "nproc": len(os.sched_getaffinity(0)), "src_loc": src_lines(src),
            "workload": args.workload, "seed": args.seed,
            "scenarios_per_pass": len(scenarios)}
    print("info " + json.dumps(info, sort_keys=True))
    for problem in problems:
        print(f"WRONG {problem}")
    print(f"failed_frac {failed / attempted:.6f} ({failed} of {attempted} checks)")
    for name, (value, unit, note) in metrics.items():
        print(f"{name} {value:.6g} {unit} ({note})")
    correct = not problems
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {name: {"value": value, "unit": unit}
                                  for name, (value, unit, _) in metrics.items()}}))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
