"""Self-test of the benchmark itself (about two minutes on 2 cores).

    python3 perfbench/selftest.py

For each workload, at minimal length:

* a run with ``--plant-fault`` adds a wrong B1 to its first checked
  operation; the run must report ``correct: false`` and count the
  failure, and still print every end-to-end metric with its unit;
* a traced run must be correct and print every per-layer metric with
  its unit.

Finally the benchmark must refuse to run, without printing a result,
from a directory that holds only BENCHMARK.json and perfbench/.
"""

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(args, cwd=ROOT):
    proc = subprocess.run([sys.executable, "perfbench/run.py", *args],
                          cwd=cwd, capture_output=True, text=True, timeout=300)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, lines, proc.stderr


def check_metrics(result, expected, problems, label):
    want = {m["name"]: m["unit"] for m in expected}
    got = result["metrics"]
    if set(got) != set(want):
        problems.append(f"{label}: metric names differ: missing "
                        f"{sorted(set(want) - set(got))}, extra "
                        f"{sorted(set(got) - set(want))}")
    for name, unit in want.items():
        entry = got.get(name)
        if entry is not None and entry.get("unit") != unit:
            problems.append(f"{label}: {name} unit {entry.get('unit')!r} "
                            f"!= {unit!r}")


def main() -> int:
    problems = []
    args = ["--seed", "0", "--seconds", "1"]
    for workload in (w["name"] for w in SPEC["workloads"]):
        for trace, plant in ((0, True), (1, False)):
            label = f"{workload} trace={trace} plant={plant}"
            extra = ["--plant-fault"] if plant else []
            code, lines, err = run(["--workload", workload, *args,
                                    "--trace", str(trace), *extra])
            if code != 0 or not lines:
                problems.append(f"{label}: exit {code}: {err[-500:]}")
                continue
            result = json.loads(lines[-1])
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{label}: result keys {sorted(result)}")
                continue
            expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
            check_metrics(result, expected, problems, label)
            if plant and (result["correct"] or result["failed"] < 1):
                problems.append(f"{label}: planted wrong B1 was not counted")
            if not plant and not result["correct"]:
                problems.append(f"{label}: run reported incorrect: "
                                f"{err[-500:]}")
            if trace == 0 and any(m["value"] <= 0
                                  for m in result["metrics"].values()):
                problems.append(f"{label}: an end-to-end metric is not > 0")
            print(f"{label}: attempted {result['attempted']} failed "
                  f"{result['failed']} correct {result['correct']}")

    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".perfbench-tmp-") as tmp:
        shutil.copy(ROOT / "BENCHMARK.json", tmp)
        for path in SPEC["paths"]:
            shutil.copytree(ROOT / path, Path(tmp) / path,
                            ignore=shutil.ignore_patterns("__pycache__"))
        code, lines, _ = run(["--workload", SPEC["workloads"][0]["name"],
                              *args, "--trace", "0"], cwd=tmp)
        if code == 0 or lines:
            problems.append(f"bare directory: exit {code}, output {lines[-1:]}")
        print(f"bare directory: exit {code}")

    for p in problems:
        print("FAIL", p)
    print("selftest", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
