"""Workloads, seeded inputs, the in-process client and the output gate.

The benchmark drives ``weightlab.cli.main(argv)`` in this process, one
request at a time (a closed loop with one client), with stdout and stderr
captured, so a request's latency covers argument handling, the whole
computation and output formatting.

Fan inputs are written as fan documents after a seeded random unimodular
(GL_n(Z)) change of ray coordinates and a shuffle of the cone list.  Page
dimensions, cell counts, face lattices and the virtual polynomial are
isomorphism invariants, so every request has one expected output whatever
the seed; ``expected.json`` stores its SHA-256 digest.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import json
import os
import random
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
CORPUS = SRC / "weightlab" / "data" / "fans"
EXPECTED_PATH = BENCH_DIR / "expected.json"


class ProgramMissing(RuntimeError):
    """The checkout holds no weightlab sources to benchmark."""


# ---------------------------------------------------------------------------
# Fan documents, written from scratch so the program only ever sees the
# generated documents.


def _projective(n: int) -> dict:
    rays = [[int(i == j) for j in range(n)] for i in range(n)] + [[-1] * n]
    cones = [{"id": f"m{i}", "rays": [j for j in range(n + 1) if j != i]}
             for i in range(n + 1)]
    return {"lattice_rank": n, "rays": rays, "simplicial": True, "cones": cones}


def _affine(n: int) -> dict:
    rays = [[int(i == j) for j in range(n)] for i in range(n)]
    return {"lattice_rank": n, "rays": rays, "simplicial": True,
            "cones": [{"id": "max", "rays": list(range(n))}]}


def _torus(n: int) -> dict:
    return {"lattice_rank": n, "rays": [], "simplicial": True, "cones": []}


def _hirzebruch(a: int) -> dict:
    return {
        "lattice_rank": 2,
        "rays": [[1, 0], [0, 1], [-1, a], [0, -1]],
        "simplicial": True,
        "cones": [{"id": f"m{i}", "rays": [i, (i + 1) % 4]} for i in range(4)],
    }


def _product(a: dict, b: dict) -> dict:
    """Product of two simplicial fans given by their maximal cones."""
    na, nb = a["lattice_rank"], b["lattice_rank"]
    rays = [list(r) + [0] * nb for r in a["rays"]]
    rays += [[0] * na + list(r) for r in b["rays"]]
    shift = len(a["rays"])
    cones = [
        {"id": f"{ca['id']}*{cb['id']}",
         "rays": list(ca["rays"]) + [i + shift for i in cb["rays"]]}
        for ca in a["cones"] for cb in b["cones"]
    ]
    return {"lattice_rank": na + nb, "rays": rays, "simplicial": True, "cones": cones}


def _corpus(name: str) -> dict:
    doc = json.loads((CORPUS / f"{name}.json").read_text())
    doc.pop("description", None)
    return doc


# The ladder: every fan input of every workload, by the name the README and
# the result lines use.  Names of the form family:param match the CLI's
# ``--standard`` families, which make_expected.py cross-checks.
LADDER = {
    "P:3": lambda: _projective(3),
    "P:4": lambda: _projective(4),
    "P:5": lambda: _projective(5),
    "P:6": lambda: _projective(6),
    "A:5": lambda: _affine(5),
    "A:6": lambda: _affine(6),
    "trivial:6": lambda: _torus(6),
    "trivial:7": lambda: _torus(7),
    "hirzebruch:0": lambda: _hirzebruch(0),
    "hirzebruch:1": lambda: _hirzebruch(1),
    "hirzebruch:2": lambda: _hirzebruch(2),
    "hirzebruch:3": lambda: _hirzebruch(3),
    "P1xP2": lambda: _product(_projective(1), _projective(2)),
    "P2xP2": lambda: _product(_projective(2), _projective(2)),
    "blowup_p2": lambda: _corpus("blowup_p2"),
    "cone_over_square": lambda: _corpus("cone_over_square"),
}


def unimodular(rng: random.Random, n: int) -> list[list[int]]:
    """A random matrix in GL_n(Z): a signed permutation times n // 2
    elementary column operations with coefficients +-1.

    Few shears keep the entries small.  The cost of the program's lattice
    work grows with them: with 2n shears the call count of fan-info P:6
    varied by 6.8% (coefficient of variation) between documents, with n // 2
    by 1.6%, and that variation would show as run-to-run spread.
    """
    perm = list(range(n))
    rng.shuffle(perm)
    m = [[rng.choice((-1, 1)) if perm[i] == j else 0 for j in range(n)]
         for i in range(n)]
    for _ in range(n // 2):
        i, j = rng.sample(range(n), 2)
        s = rng.choice((-1, 1))
        for row in m:
            row[j] += s * row[i]
    return m


def disguise(doc: dict, rng: random.Random) -> dict:
    """The same fan in new lattice coordinates and with its cones shuffled."""
    n = doc["lattice_rank"]
    m = unimodular(rng, n)
    rays = [[sum(r[k] * m[k][j] for k in range(n)) for j in range(n)]
            for r in doc["rays"]]
    cones = [dict(c) for c in doc["cones"]]
    rng.shuffle(cones)
    return {**doc, "rays": rays, "cones": cones}


# ---------------------------------------------------------------------------
# Workloads


@dataclass(frozen=True)
class Request:
    label: str          # key into expected.json, e.g. "ss P:5"
    verb: str
    fan: str | None     # ladder name, or None for requests without a fan
    extra: tuple[str, ...]

    def argv(self, fan_path: str | None) -> list[str]:
        fan_args = ["--fan", fan_path] if self.fan else []
        return [self.verb, *fan_args, *self.extra]


def _ss(fan: str) -> Request:
    return Request(f"ss {fan}", "ss", fan, ("--format", "doc"))


def _fan_info(fan: str) -> Request:
    return Request(f"fan-info {fan}", "fan-info", fan, ())


def _vpoly(fan: str) -> Request:
    return Request(f"vpoly {fan}", "vpoly", fan, ("--format", "doc"))


def _check(suite: str) -> Request:
    return Request(f"check {suite}", "check", None, ("--suite", suite))


@dataclass(frozen=True)
class Workload:
    name: str
    requests: tuple[Request, ...]
    largest: str   # label of the request reported as largest_request_s
    warmup: str    # label of the untimed warm-up request made in set-up


# Why each workload exists and which layer it isolates: see README.md.
WORKLOADS = {
    w.name: w for w in (
        Workload(
            "toric-ss",
            tuple(_ss(f) for f in (
                "P:3", "P:4", "P:5", "hirzebruch:0", "hirzebruch:1",
                "hirzebruch:2", "hirzebruch:3", "P1xP2", "P2xP2", "blowup_p2",
                "cone_over_square")),
            largest="ss P:5", warmup="ss P:3"),
        Workload(
            "torus-ss",
            (_ss("trivial:6"), _ss("trivial:7")),
            largest="ss trivial:7", warmup="ss trivial:6"),
        Workload(
            "toric-build",
            (_fan_info("P:6"), _fan_info("A:6"), _vpoly("P:5"), _vpoly("A:5"),
             _vpoly("P2xP2")),
            largest="fan-info P:6", warmup="vpoly A:5"),
        Workload(
            "check-suites",
            tuple(_check(s) for s in ("toric", "fcomplex", "cubical", "euler")),
            largest="check toric", warmup="check cubical"),
    )
}


def all_requests() -> list[Request]:
    seen: dict[str, Request] = {}
    for w in WORKLOADS.values():
        for r in w.requests:
            seen.setdefault(r.label, r)
    return list(seen.values())


# ---------------------------------------------------------------------------
# The program under test


def require_program() -> None:
    if not (SRC / "weightlab" / "cli.py").is_file():
        raise ProgramMissing(f"no weightlab sources under {SRC}")


def load_program():
    """Import weightlab afresh from the checkout's sources; returns its cli.

    Modules from an earlier import are dropped first, so each set-up pays
    the full import.
    """
    require_program()
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [m for m in sys.modules if m == "weightlab" or m.startswith("weightlab.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    return importlib.import_module("weightlab.cli")


# The reference loop: fixed pure-Python work (GF(2) elimination on
# integer bit vectors, like the program's kernel), timed around every
# request.  This machine's speed drifts by up to half between quiet and busy
# periods lasting seconds; a request's latency divided by the reference
# time around it cancels that drift.
_REF_VECTORS = [random.Random(i).getrandbits(200) for i in range(300)]


def reference_seconds() -> float:
    t0 = time.perf_counter()
    for _ in range(3):
        pivots: dict[int, int] = {}
        for v in _REF_VECTORS:
            for p, b in pivots.items():
                if (v >> p) & 1:
                    v ^= b
            if v:
                pivots[(v & -v).bit_length() - 1] = v
    return time.perf_counter() - t0


@dataclass
class Outcome:
    label: str
    seconds: float
    code: int | None    # None when the request raised
    stdout: str
    error: str
    ref: float = 0.0    # reference-loop seconds around the request

    @property
    def norm(self) -> float:
        """Latency in units of the reference loop."""
        return self.seconds / self.ref


def call(cli, argv: list[str], label: str) -> Outcome:
    """One request: cli.main(argv) with both output streams captured."""
    out, err = io.StringIO(), io.StringIO()
    code: int | None = None
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception as exc:  # a traceback is a failed request, not a crash
        err.write(f"{type(exc).__name__}: {exc}")
    seconds = time.perf_counter() - t0
    return Outcome(label, seconds, code, out.getvalue(), err.getvalue())


class Inputs:
    """Writes fresh disguised fan documents for each pass of a workload."""

    def __init__(self, workload: Workload, seed: int, workdir: Path):
        self.workload = workload
        self.rng = random.Random(seed)
        self.workdir = workdir
        self.base = {r.fan: LADDER[r.fan]() for r in workload.requests if r.fan}
        self.count = 0

    def fresh(self) -> dict[str, tuple[str | None, dict | None]]:
        """label -> (fan document path, fan document) for one pass."""
        self.count += 1
        out: dict[str, tuple[str | None, dict | None]] = {}
        for r in self.workload.requests:
            if not r.fan:
                out[r.label] = (None, None)
                continue
            doc = disguise(self.base[r.fan], self.rng)
            path = self.workdir / f"{self.count}-{r.fan.replace(':', '_')}.json"
            path.write_text(json.dumps(doc))
            out[r.label] = (str(path), doc)
        return out


def run_pass(cli, workload: Workload, inputs: dict) -> list[Outcome]:
    """Every request of the workload, each between two reference timings."""
    outcomes = []
    before = reference_seconds()
    for r in workload.requests:
        o = call(cli, r.argv(inputs[r.label][0]), r.label)
        after = reference_seconds()
        o.ref = (before + after) / 2
        outcomes.append(o)
        before = after
    return outcomes


# ---------------------------------------------------------------------------
# The output gate


def normalized(label: str, stdout: str) -> str:
    """Output with its coordinate-dependent parts removed.

    Only fan-info prints ray coordinates (its ``rays:`` line); every other
    output is compared byte for byte.
    """
    if label.startswith("fan-info "):
        return "".join(line for line in stdout.splitlines(keepends=True)
                       if not line.startswith("rays:"))
    return stdout


def digest(label: str, stdout: str) -> str:
    return hashlib.sha256(normalized(label, stdout).encode()).hexdigest()


def load_expected() -> dict[str, str]:
    return json.loads(EXPECTED_PATH.read_text())["requests"]


def gate(outcome: Outcome, expected: dict[str, str]) -> str | None:
    """Why the request failed, or None when it passed."""
    if outcome.code != 0:
        last = outcome.error.strip().splitlines()[-1:]
        return f"exit {outcome.code}: {' '.join(last)}"
    want = expected.get(outcome.label)
    if want is None:
        return "no expected output stored"
    if digest(outcome.label, outcome.stdout) != want:
        return "output differs from the expected output"
    return None


def semantic_problems(outcomes: list[Outcome], docs: dict) -> list[str]:
    """Checks made outside the timed loop, with the library, not the CLI:
    vpoly coefficients equal ``orbit_sum_poly``, and the E^inf diagonals of
    ss sum to the Betti numbers of the cell complex."""
    from weightlab.toric import orbit_sum_poly, parse_fan, toric_cell_complex

    problems = []
    for o in outcomes:
        doc = docs[o.label][1]
        if doc is None or o.code != 0 or o.label.startswith("fan-info "):
            continue
        try:
            out = json.loads(o.stdout)
        except ValueError:
            problems.append(f"{o.label}: output is not JSON")
            continue
        if o.label.startswith("vpoly "):
            got = out["coefficients"]
            want = list(orbit_sum_poly(parse_fan(doc)).coeffs)
            if got != want:
                problems.append(f"{o.label}: beta {got} != orbit sum {want}")
        elif o.label.startswith("ss "):
            sums: dict[int, int] = {}
            for e in out["infinity"]:
                sums[e["p"] + e["q"]] = sums.get(e["p"] + e["q"], 0) + e["dim"]
            betti = toric_cell_complex(parse_fan(doc)).complex.betti_numbers()
            want = {k: b for k, b in betti.items() if b}
            if {k: d for k, d in sums.items() if d} != want:
                problems.append(f"{o.label}: E^inf diagonals {sums} != Betti {want}")
    return problems


def workdir_for() -> Path:
    """A fresh scratch directory inside the checkout for input documents;
    the caller removes it."""
    return Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))


def environment_problems() -> list[str]:
    """Departures from the pinned environment: WEIGHTLAB_THREADS set, or
    more threads alive than nproc."""
    problems = []
    if "WEIGHTLAB_THREADS" in os.environ:
        problems.append("WEIGHTLAB_THREADS is set")
    if threading.active_count() > (os.cpu_count() or 1):
        problems.append(f"{threading.active_count()} threads on {os.cpu_count()} cpus")
    return problems
