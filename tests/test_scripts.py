"""The bundled scripts run end to end against the package source."""

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_script(name, *args):
    # No PYTHONPATH: each script finds the package in the src/ next to it.
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    return subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args], env=env,
                          capture_output=True, text=True, timeout=300)


def test_show_worked_example():
    proc = run_script("show_worked_example.py")
    assert proc.returncode == 0, proc.stderr
    assert "Nijenhuis tensor vanishes identically: True" in proc.stdout


def test_run_all_scenarios():
    proc = run_script("run_all_scenarios.py")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "14/14 scenarios pass" in proc.stdout


def test_run_all_scenarios_reads_the_seed_as_metallifts_run_does():
    # int() would take "1_0" as 10; the integer rule [+-]?[0-9]+ refuses it.
    proc = run_script("run_all_scenarios.py", "--seed", "1_0")
    assert proc.returncode == 2
    assert "argument --seed: '1_0' is not an integer" in proc.stderr
    assert proc.stdout == ""


def test_run_all_scenarios_quotes_a_long_seed_in_part():
    proc = run_script("run_all_scenarios.py", "--seed", "7" * 4400)
    assert proc.returncode == 2
    assert max(len(line) for line in proc.stderr.splitlines()) <= 300
    assert "argument --seed: '" + "7" * 60 + "'... (4400 characters) has more than" in proc.stderr
    assert proc.stdout == ""


def test_report_digests_for_one_seed():
    # The full run covers three workloads at 11 seeds; catalog at seed 1
    # is its 28 scenarios, each at two sampler seeds.
    code = ("import report_digests\n"
            "for line in report_digests.digest_lines('catalog', 1): print(line)")
    env = {**os.environ, "PYTHONPATH": str(ROOT / "scripts")}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert len(lines) == 56
    assert all(re.fullmatch(r"catalog/1/\w+/\d+ [0-9a-f]{64}", line) for line in lines)
    assert "catalog/1/example_4_1/7" in {line.split()[0] for line in lines}


def test_report_digests_for_the_sqrtd_variant():
    code = ("import report_digests\n"
            "for line in report_digests.sqrtd_variant_lines(): print(line)")
    env = {**os.environ, "PYTHONPATH": str(ROOT / "scripts")}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert [line.split()[0] for line in lines] == [
        "variant/example_4_1_sqrtD/20230831", "variant/example_4_1_sqrtD/7"]
    assert all(re.fullmatch(r"\S+ [0-9a-f]{64}", line) for line in lines)
    # The only reports with sqrt(D) in a denominator, which no workload reaches.
    assert lines == [
        "variant/example_4_1_sqrtD/20230831 "
        "197550a7dbd051ec072c0ee98c88990907cdf07b7002315ff848fc8c76854c77",
        "variant/example_4_1_sqrtD/7 "
        "619e2e5336f1a9a0af12f0b98f6dc2ff86c58528b58d6950a268c2666bd28d22"]


def test_report_digests_for_the_reflection():
    code = ("import report_digests\n"
            "for line in report_digests.reflection_lines(): print(line)")
    env = {**os.environ, "PYTHONPATH": str(ROOT / "scripts")}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert [line.split()[0] for line in lines] == [
        "variant/reflection_3/20230831", "variant/reflection_3/7"]
    assert all(re.fullmatch(r"\S+ [0-9a-f]{64}", line) for line in lines)
    assert lines == [
        "variant/reflection_3/20230831 "
        "3f3af10233c31cd6a8a649a1940841165a879bc4234bfb84ef4cd09bb0242a24",
        "variant/reflection_3/7 "
        "01e54231153c985de4b5770fa9190b342d2fbc9f8f0ff76764c51e6655e6289c"]
