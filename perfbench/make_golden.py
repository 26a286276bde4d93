"""Regenerate the golden outputs of the default seed.

    python3 perfbench/make_golden.py [WORKLOAD ...]

Writes `golden/<workload>.json`: for each of the first `golden_tasks` tasks,
[exit code, the first 16 hex digits of the SHA-256 of the rendered output,
its first 40 characters].  Run
it only when an output change is intended; `run.py` compares every run of
the default seed against these files.
"""

import hashlib
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402  (imports jetcalc)


def main(names):
    for name in names or sorted(workloads.WORKLOADS):
        wl = workloads.WORKLOADS[name](workloads.DEFAULT_SEED, HERE / "out" / f"{name}-golden")
        tasks = []
        for i in range(wl.golden_tasks):
            inp = wl.make_input(i)
            outcome = wl.check(inp, wl.run(inp))
            if outcome.problems:
                sys.exit(f"{name} task {i}: {'; '.join(outcome.problems)}")
            digest = hashlib.sha256(outcome.text.encode("utf-8")).hexdigest()
            tasks.append([outcome.code, digest[:16], outcome.text[:40]])
        path = HERE / "golden" / f"{name}.json"
        path.parent.mkdir(exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write('{"seed": %d, "tasks": [\n' % workloads.DEFAULT_SEED)
            handle.write(",\n".join(json.dumps(task) for task in tasks))
            handle.write("\n]}\n")
        print(f"{path}: {len(tasks)} tasks")


if __name__ == "__main__":
    main(sys.argv[1:])
