"""Write expected.json: the digest of every request's expected output.

    python3 perfbench/make_expected.py

Each request runs on the documents of two seeds, and requests on a named
family (P:n, A:n, trivial:n, hirzebruch:a) also run with ``--standard``;
all of these must agree before anything is written.  Rerun only when an
output format changes on purpose: the digests are what the benchmark
holds every later version of the program to.
"""

from __future__ import annotations

import json
import shutil
import sys

import harness

SEEDS = (1, 2)
FAMILIES = ("P:", "A:", "trivial:", "hirzebruch:")


def observed_digests(seed: int) -> dict[str, str]:
    """label -> digest of the output, with documents made from seed.
    Raises SystemExit when a request fails."""
    cli = harness.load_program()
    workdir = harness.workdir_for()
    out = {}
    try:
        for workload in harness.WORKLOADS.values():
            docs = harness.Inputs(workload, seed, workdir).fresh()
            for o in harness.run_pass(cli, workload, docs):
                if o.code != 0:
                    sys.exit(f"{o.label} exited {o.code}: {o.error}")
                out[o.label] = harness.digest(o.label, o.stdout)
    finally:
        shutil.rmtree(workdir)
    return out


def standard_digests() -> dict[str, str]:
    cli = harness.load_program()
    out = {}
    for r in harness.all_requests():
        if r.fan and r.fan.startswith(FAMILIES):
            argv = [r.verb, "--standard", r.fan, *r.extra]
            o = harness.call(cli, argv, r.label)
            out[r.label] = harness.digest(r.label, o.stdout)
    return out


def main() -> int:
    runs = [observed_digests(s) for s in SEEDS]
    if runs[0] != runs[1]:
        bad = sorted(k for k in runs[0] if runs[0][k] != runs[1].get(k))
        sys.exit(f"outputs depend on the seed: {bad}")
    for label, d in standard_digests().items():
        if runs[0][label] != d:
            sys.exit(f"{label}: document input and --standard disagree")
    harness.EXPECTED_PATH.write_text(json.dumps({
        "about": "SHA-256 of each request's stdout; fan-info without its "
                 "'rays:' line. Written by make_expected.py.",
        "requests": dict(sorted(runs[0].items())),
    }, indent=2) + "\n")
    print(f"wrote {len(runs[0])} digests to {harness.EXPECTED_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
