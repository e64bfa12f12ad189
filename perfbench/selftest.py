"""Self-test of the benchmark: every workload at a tiny size, in seconds.

    python3 perfbench/selftest.py

Checks that each workload runs untraced and traced to a result line whose
failures are exactly the known faults, that a deliberately corrupted output
is counted as a failed check (and makes the run incorrect), and that the
benchmark exits non-zero without a result where the program's sources are
missing.  Exits 0 when all of that holds.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: Failed checks that the tiny workloads must show: the known faults only.
KNOWN_FAILURES = {"steady_2h": 0, "long_event": 0, "campaign_fleet": 21}


def bench(*args: str, cwd: Path = ROOT) -> tuple[int, dict | None, str]:
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--seconds", "1", "--size", "tiny",
                           *args], cwd=cwd, capture_output=True, text=True, timeout=300)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    return proc.returncode, result, proc.stdout + proc.stderr


def main() -> int:
    problems = []

    def expect(ok: bool, what: str, output: str = "") -> None:
        print(("ok    " if ok else "FAIL  ") + what)
        if not ok:
            problems.append(what)
            print(output[-2000:])

    for name, known in KNOWN_FAILURES.items():
        for trace in ("0", "1"):
            code, result, out = bench("--workload", name, "--seed", "7", "--trace", trace)
            good = (code == 0 and result is not None and result["correct"]
                    and result["failed"] == known and result["attempted"] > known)
            expect(good, f"{name} trace {trace}: runs, {known} known failures", out)

    code, clean, _ = bench("--workload", "steady_2h", "--seed", "7", "--trace", "0")
    code, bad, out = bench("--workload", "steady_2h", "--seed", "7", "--trace", "0", "--corrupt")
    expect(code == 0 and bad is not None and clean is not None
           and bad["failed"] == clean["failed"] + 1 and not bad["correct"]
           and bad["attempted"] == clean["attempted"],
           "a corrupted stored value is one more failed check and an incorrect run", out)

    bare = HERE / ".work" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns(".work", "out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    code, result, out = bench("--workload", "steady_2h", "--seed", "1", "--trace", "0", cwd=bare)
    shutil.rmtree(bare, ignore_errors=True)
    expect(code != 0 and result is None, "without the program's sources: non-zero exit, no result", out)

    print("self-test", "passed" if not problems else f"failed: {len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
