"""Self-test of the benchmark's gate and counters.

    python3 perfbench/selftest.py

1. Two seeds give byte-identical outputs, equal to expected.json.
2. With one expected digest corrupted, the gate fails requests
   (fail_ratio > 0) and the run is reported incorrect; with the stored
   digests the same run fails none.
3. On every workload, traced runs with different seeds are correct and
   their counts repeat exactly.

Prints one line per check and exits 1 when any check fails.
"""

from __future__ import annotations

import sys

import harness
import make_expected
import run

SEEDS = (101, 202)


def check(name: str, ok: bool, detail: str = "") -> bool:
    print(f"{'PASS' if ok else 'FAIL'}  {name}" + (f"  [{detail}]" if detail and not ok else ""))
    return ok


def main() -> int:
    results = []
    expected = harness.load_expected()

    a, b = (make_expected.observed_digests(s) for s in SEEDS)
    results.append(check("two seeds give identical outputs", a == b,
                         str(sorted(k for k in a if a[k] != b.get(k)))))
    results.append(check("outputs match expected.json", a == expected,
                         str(sorted(k for k in a if a[k] != expected.get(k)))))

    corrupted = dict(expected)
    label = "ss trivial:6"
    corrupted[label] = corrupted[label][::-1]
    bad, _ = run.run("torus-ss", SEEDS[0], 0.1, False, expected=corrupted)
    good, _ = run.run("torus-ss", SEEDS[0], 0.1, False)
    results.append(check("gate fires on a corrupted expected output",
                         bad["failed"] / bad["attempted"] > 0 and not bad["correct"],
                         f"failed {bad['failed']} of {bad['attempted']}"))
    results.append(check("gate passes the stored expected outputs",
                         good["failed"] == 0 and good["correct"],
                         f"failed {good['failed']} of {good['attempted']}"))

    for name in harness.WORKLOADS:
        counts = []
        for seed in SEEDS:
            res, env = run.run(name, seed, 0.1, True)
            results.append(check(f"{name}: seed {seed} correct", res["correct"],
                                 "; ".join(env["problems"])))
            counts.append({k: m["value"] for k, m in res["metrics"].items()
                           if m["unit"] == "count"})
        diff = sorted(k for k in counts[0] if counts[0][k] != counts[1][k])
        results.append(check(f"{name}: traced counts repeat across seeds",
                             not diff, ", ".join(diff)))
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
