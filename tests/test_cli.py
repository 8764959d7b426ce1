import argparse
import contextlib
import io
import json
import os
import random
import subprocess
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import weightlab
from weightlab.cli import main, page_doc_text
from weightlab.complexes import FilteredComplex, filtered_from_doc
from weightlab.fan import fan_to_doc, standard_fan
from weightlab.pages import PurityReport, SpectralSequence, virtual_poincare
from weightlab.toric import toric_cell_complex

from fansets import layout_fans
from oracles import oracle_page_doc


EULER = Path(__file__).parent / "data" / "euler"
EULER_DOCS = {name: str(EULER / f"{name}.json")
              for name in ("complex", "function", "chain", "map")}


def _euler_argv(op: str, last: str, *others: str) -> list[str]:
    """An euler command reading the shipped documents (the complex also
    as the target), ending with the option ``last`` for one more path."""
    argv = ["euler", "--op", op]
    for name in others:
        argv += [f"--{name}", EULER_DOCS["complex" if name == "target" else name]]
    return argv + [f"--{last}"]


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_fan_info(capsys):
    code, out, _ = run(capsys, "fan-info", "--standard", "P:1")
    assert code == 0
    assert "lattice rank: 1" in out
    assert "cell counts by degree: 0:2, 1:2" in out


def test_fan_info_builds_no_complex(capsys, monkeypatch):
    def refuse(*args):
        raise AssertionError("fan-info built part of the toric complex")

    for module, name in (("toric", "orbit_group"), ("toric", "toric_cell_complex"),
                         ("cli", "toric_cell_complex"), ("complexes", "complex_diagnostics")):
        monkeypatch.setattr(getattr(weightlab, module), name, refuse)
    code, out, err = run(capsys, "fan-info", "--standard", "P:3")
    assert code == 0, err
    assert out.endswith("cell counts by degree: 0:4, 1:12, 2:16, 3:8\n")


def test_a_simplicial_parse_tests_no_face_lattice_and_ranks_no_face(capsys, monkeypatch,
                                                                    tmp_path):
    # The subset walk makes a simplicial document's face lattice graded,
    # closed and diamond and each cone's rank its number of rays, so its
    # parse tests neither; it ranks the declared cones alone.  A face-list
    # document's lattice is tested once, its ranks set and then checked.
    p4 = standard_fan("P", 4)
    face_list, simplicial = tmp_path / "faces.json", tmp_path / "simplicial.json"
    face_list.write_text(json.dumps(fan_to_doc(p4)))
    simplicial.write_text(json.dumps({
        "lattice_rank": 4, "rays": [list(r) for r in p4.rays], "simplicial": True,
        "cones": [{"rays": [j for j in range(5) if j != i]} for i in range(5)]}))
    calls = Counter()
    holds, ranks = weightlab.fan._FaceLattice.holds, weightlab.fan._ranks
    monkeypatch.setattr(weightlab.fan._FaceLattice, "holds",
                        lambda self: calls.update(["holds"]) or holds(self))
    monkeypatch.setattr(weightlab.fan, "_ranks", lambda *args: calls.update(["_ranks"])
                        or ranks(*args))
    for argv, want in ((["--standard", "P:4"], {}), (["--fan", str(simplicial)], {}),
                       (["--fan", str(face_list)], {"holds": 1, "_ranks": 2})):
        calls.clear()
        code, out, err = run(capsys, "fan-info", *argv)
        assert code == 0, err
        assert out.endswith("cell counts by degree: 0:5, 1:20, 2:40, 3:40, 4:16\n")
        assert calls == Counter(want), argv


def test_vpoly_builds_no_complex(capsys, monkeypatch, tmp_path):
    def refuse(*args):
        raise AssertionError("vpoly built part of the toric complex or its pages")

    for module, name in (("toric", "orbit_group"), ("toric", "toric_cell_complex"),
                         ("cli", "toric_cell_complex"), ("complexes", "complex_diagnostics")):
        monkeypatch.setattr(getattr(weightlab, module), name, refuse)
    monkeypatch.setattr(SpectralSequence, "__init__", refuse)
    path = tmp_path / "p3.json"
    path.write_text(json.dumps(fan_to_doc(standard_fan("P", 3))))
    for argv in (["--standard", "P:3"], ["--fan", str(path)]):
        assert run(capsys, "vpoly", *argv) == (
            0, "beta = 1 + t + t^2 + t^3\ncoefficients: [1, 1, 1, 1]\n"
               "orbit-sum prediction: 1 + t + t^2 + t^3 (agrees)\n", ""), argv


def test_fan_info_spans_only_the_declared_cones(capsys, monkeypatch, tmp_path):
    spanned = []
    missing = weightlab.lattice.Saturations.__missing__
    monkeypatch.setattr(weightlab.lattice.Saturations, "__missing__",
                        lambda self, idx: spanned.append(idx) or missing(self, idx))
    # The parser ranks the seven maximal cones; their faces take their
    # ray counts as ranks.  The face-list document of the same fan lists
    # every cone, and spans the same seven.
    path = tmp_path / "p6.json"
    path.write_text(json.dumps(fan_to_doc(standard_fan("P", 6))))
    for argv in (["--standard", "P:6"], ["--fan", str(path)]):
        spanned.clear()
        code, _, err = run(capsys, "fan-info", *argv)
        assert code == 0, err
        assert sorted(map(sorted, spanned)) == sorted(sorted(set(range(7)) - {i})
                                                      for i in range(7)), argv
    # vpoly builds nothing: only the parser's five declared cones are spanned.
    spanned.clear()
    code, _, err = run(capsys, "vpoly", "--standard", "P:4")
    assert code == 0, err
    assert sorted(map(sorted, spanned)) == sorted(sorted(set(range(5)) - {i}) for i in range(5))


def test_ss_text(capsys):
    code, out, _ = run(capsys, "ss", "--standard", "P:2")
    assert code == 0
    assert "pure: yes" in out
    assert "collapse: r=2" in out
    assert "support triangle: ok" in out
    assert "E^1_{0,0} = 1" in out


def test_ss_doc_format(capsys):
    code, out, _ = run(capsys, "ss", "--standard", "P:1", "--format", "doc")
    assert code == 0
    doc = json.loads(out)
    assert doc["pure"] is True
    assert doc["collapse_page"] == 2
    assert {"r": 2, "p": 0, "q": 1, "dim": 1} in doc["reindexed"]


def test_ss_csv_format(capsys):
    code, out, _ = run(capsys, "ss", "--standard", "P:1", "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "table,r,p,q,dim"
    assert "page,1,0,0,1" in lines


def test_ss_emit_complex_round_trip(capsys, tmp_path):
    path = tmp_path / "p1.json"
    code, out1, _ = run(capsys, "ss", "--standard", "P:1",
                        "--emit-complex", str(path))
    assert code == 0
    # feed the emitted document back through the file pathway
    code, out2, _ = run(capsys, "ss", "--complex", str(path))
    assert code == 0
    assert out1 == out2
    fc = filtered_from_doc(json.loads(path.read_text()))
    assert SpectralSequence(fc).page(1) == {(0, 0): 1, (-1, 2): 1}


def test_vpoly(capsys):
    code, out, _ = run(capsys, "vpoly", "--standard", "P:2")
    assert code == 0
    assert "beta = 1 + t + t^2" in out
    assert "agrees" in out


def test_vpoly_doc(capsys):
    code, out, _ = run(capsys, "vpoly", "--standard", "hirzebruch:1",
                       "--format", "doc")
    assert code == 0
    doc = json.loads(out)
    assert doc["coefficients"] == [1, 2, 1]
    assert doc["agree"] is True


def test_check_none_suite(capsys):
    code, out, _ = run(capsys, "check", "--suite", "none")
    assert code == 0
    assert "0 passed, 0 failed" in out


# The whole text of ``check --suite all``, suite by suite, in order.
CHECK_LINES = {
    "toric": [
        "PASS  toric boundary squares to zero",
        "PASS  toric filtration quotients are binomial",
        "PASS  cell counts are sums of 2^codim",
        "PASS  virtual polynomial equals the orbit sum",
        "PASS  smooth complete fixtures are pure",
        "PASS  second page equals the limit in rank <= 3",
        "PASS  pages lie in the support triangle",
        "PASS  limit page sums to homology",
        "PASS  orbit maps are path independent",
        "PASS  top graded piece counts cones",
    ],
    "fcomplex": [
        "PASS  canonical filtration pages sit on q = -2p",
        "PASS  shifted filtration matches reindexed pages",
        "PASS  differentials compute the next page",
        "PASS  reindexed pages are first quadrant",
    ],
    "cubical": [
        "PASS  blowup square total complex is acyclic",
        "PASS  cone of the identity is acyclic",
        "PASS  additivity with an empty center",
        "PASS  additivity for fixed points in the line",
        "PASS  removing everything leaves an acyclic complement",
        "PASS  hyperresolution totals have the expected homology",
        "PASS  hyperresolution pages match the shifted filtration",
        "PASS  hyperresolution pages converge to homology",
    ],
    "euler": [
        "PASS  link operator satisfies L(L) = 2L",
        "PASS  parity boundary matches the incidence oracle",
        "PASS  fold pushforward matches the torus formula",
        "PASS  pushforward preserves the Euler integral",
        "PASS  pushforward is functorial",
        "PASS  boundary commutes with open restriction",
    ],
}


def test_check_euler_suite(capsys):
    code, out, _ = run(capsys, "check", "--suite", "euler")
    assert code == 0
    assert out.splitlines() == [*CHECK_LINES["euler"], "6 passed, 0 failed"]


def test_check_all_suites(capsys):
    code, out, _ = run(capsys, "check", "--suite", "all")
    assert code == 0
    lines = [line for suite in CHECK_LINES.values() for line in suite]
    assert out == "\n".join([*lines, "28 passed, 0 failed", ""])


def test_a_failing_check_exits_4(capsys, monkeypatch):
    from dataclasses import replace

    from weightlab import checks
    from weightlab.fixtures import fan_corpus

    toric = list(checks.SUITES["toric"])
    i = toric.index(checks.check_cell_counts)
    toric[i] = replace(toric[i], on_fan=lambda name, fan, tcc, ss: [f"{name} off"])
    monkeypatch.setitem(checks.SUITES, "toric", toric)
    code, out, _ = run(capsys, "check", "--suite", "toric")
    assert code == 4
    lines = out.splitlines()
    detail = "; ".join(f"{name} off" for name in fan_corpus())
    assert lines[i] == f"FAIL  cell counts are sums of 2^codim  [{detail}]"
    assert lines[:i] + lines[i + 1:-1] == CHECK_LINES["toric"][:i] + CHECK_LINES["toric"][i + 1:]
    assert lines[-1] == "9 passed, 1 failed"


@pytest.mark.parametrize("fmt, disagrees", [
    ("text", "orbit-sum prediction: 1 + t (DISAGREES)"),
    ("doc", '"agree": false'),
    ("csv", "q,beta_q\n0,1\n1,1\n2,1\n"),
])
def test_vpoly_disagreement_exits_4(capsys, monkeypatch, fmt, disagrees):
    from weightlab.poly import Poly

    monkeypatch.setattr(weightlab.cli, "orbit_sum_poly", lambda fan: Poly.make([1, 1]))
    code, out, _ = run(capsys, "vpoly", "--standard", "P:2", "--format", fmt)
    assert code == 4
    assert disagrees in out


@pytest.mark.parametrize("name", sorted(layout_fans()))
def test_vpoly_prints_what_the_page_read_prints(capsys, monkeypatch, tmp_path, name):
    # The page-read path: β from Ẽ² of the built complex's spectral sequence.
    if ":" in name:
        argv = ["--standard", name]
    else:
        path = tmp_path / "fan.json"
        path.write_text(json.dumps(fan_to_doc(layout_fans()[name])))
        argv = ["--fan", str(path)]
    def outputs():
        return [run(capsys, "vpoly", *argv, "--format", fmt) for fmt in ("text", "doc", "csv")]

    from_levels = outputs()
    assert all(code == 0 and not err for code, _, err in from_levels)
    monkeypatch.setattr(weightlab.cli, "levels", lambda fan: fan)
    monkeypatch.setattr(weightlab.cli, "euler_poincare", lambda fan: virtual_poincare(
        SpectralSequence(toric_cell_complex(fan).filtered)))
    assert outputs() == from_levels


@pytest.mark.parametrize("argv", [
    ["fan-info"],
    ["vpoly"],
    ["ss"],
    ["cubical-ss"],
    ["fan-info", "--fan", "missing.json", "--standard", "P:1"],
    ["vpoly", "--standard", "P:1", "--fan", "missing.json"],
    ["ss", "--fan", "missing.json", "--standard", "P:1"],
    ["ss", "--complex", "c.json", "--hyperres", "h.json"],
    ["ss", "--standard", "P:1", "--complex", "c.json"],
    ["cubical-ss", "--diagram", "d.json", "--hyperres", "h.json"],
])
def test_each_request_names_exactly_one_input(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "is required" in err or "not allowed with argument" in err


def test_hyperresolution_filtrations(capsys):
    path = str(DATA / "hyperres_wedge1.json")

    def pages(*argv):
        return run(capsys, "ss", "--hyperres", path, "--format", "csv", *argv)

    skeleton = pages()
    assert skeleton[0] == 0 and pages("--filtration", "skeleton") == skeleton
    code, out, _ = pages("--filtration", "canonical")
    assert code == 0 and out != skeleton[1]
    first = [row.split(",") for row in out.splitlines() if row.startswith("page,1,")]
    assert first and all(int(q) == -2 * int(p) for _, _, p, q, _ in first)
    for selector in ("toric", "file"):
        code, out, err = pages("--filtration", selector)
        assert (code, out) == (2, "")
        assert f"filtration {selector!r} does not apply to hyperresolutions" in err


@pytest.mark.parametrize("target", ["missing/x.json", ".", ""])
def test_emit_complex_to_an_unwritable_path_exits_2(capsys, tmp_path, target):
    path = str(tmp_path / target) if target else ""
    code, out, err = run(capsys, "ss", "--standard", "P:1", "--emit-complex", path)
    assert (code, out) == (2, "")
    assert err.startswith(f"error: cannot write {path}: ")
    assert "Traceback" not in err


def test_parse_error_exit_code(capsys, tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    code, _, err = run(capsys, "fan-info", "--fan", str(path))
    assert code == 2
    assert "error" in err


def test_validation_error_exit_code(capsys, tmp_path):
    # a 2-cone directly over the zero cone: the face lattice skips a rank
    path = tmp_path / "bad.fan"
    path.write_text(json.dumps({
        "lattice_rank": 2,
        "rays": [[1, 0], [0, 1]],
        "simplicial": False,
        "cones": [{"id": "sigma", "rays": [0, 1], "faces": []}],
    }))
    code, _, err = run(capsys, "fan-info", "--fan", str(path))
    assert code == 3
    assert "skips dimension" in err or "graded" in err


def test_declared_ids_that_are_generated_face_ids_are_accepted(capsys, tmp_path):
    # P^2 with its 2-cones named c0, c1, c2, the ids generated for its
    # rays: the same answers as with names that collide with nothing.
    outputs = []
    for name in "cm":
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps({
            "lattice_rank": 2, "rays": [[1, 0], [0, 1], [-1, -1]], "simplicial": True,
            "cones": [{"id": f"{name}0", "rays": [1, 2]}, {"id": f"{name}1", "rays": [0, 2]},
                      {"id": f"{name}2", "rays": [0, 1]}]}))
        answers = []
        for argv in (["vpoly"], ["ss", "--format", "doc"]):
            code, out, err = run(capsys, *argv, "--fan", str(path))
            assert code == 0, err
            answers.append(out)
        outputs.append(answers)
    assert outputs[0] == outputs[1]
    assert "beta = 1 + t + t^2" in outputs[0][0]


def _fan_info(capsys, tmp_path, doc) -> str:
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "fan-info", "--fan", str(path))
    assert code == 0, err
    return out


_P2_RAYS = [[1, 0], [0, 1], [-1, -1]]


def test_a_cone_repeated_with_its_id_and_rays_is_one_cone(capsys, tmp_path):
    # In the simplicial form, with or without an id and in any ray order.
    declared = [{"id": "m0", "rays": [1, 2]}, {"id": "m1", "rays": [0, 2]}, {"rays": [0, 1]}]
    once = {"lattice_rank": 2, "rays": _P2_RAYS, "simplicial": True, "cones": declared}
    twice = {**once, "cones": [*declared, {"id": "m0", "rays": [2, 1]}, {"rays": [1, 0]}]}
    assert _fan_info(capsys, tmp_path, twice) == _fan_info(capsys, tmp_path, once)
    # In the face-list form each copy may list some of the cone's faces:
    # they are read as one list.
    doc = fan_to_doc(standard_fan("P", 2))
    top = next(cd for cd in doc["cones"] if len(cd["rays"]) == 2)
    halves = [{**top, "faces": ["0", fid]} for fid in top["faces"] if fid != "0"]
    split = {**doc, "cones": [cd for cd in doc["cones"] if cd is not top] + halves}
    assert _fan_info(capsys, tmp_path, split) == _fan_info(capsys, tmp_path, doc)


def test_a_face_listed_twice_is_read_once(capsys, tmp_path):
    cones = [{"rays": [1, 2]}, {"rays": [0, 2]}]
    plain = {"lattice_rank": 2, "rays": _P2_RAYS, "simplicial": True,
             "cones": [*cones, {"id": "m", "rays": [0, 1]}]}
    listed = {**plain, "cones": [*cones, {"id": "m", "rays": [0, 1], "faces": ["c0", "0", "c0"]}]}
    assert _fan_info(capsys, tmp_path, listed) == _fan_info(capsys, tmp_path, plain)
    face_list = fan_to_doc(standard_fan("P", 2))
    doubled = {**face_list, "cones": [{**cd, "faces": cd["faces"] * 2}
                                      for cd in face_list["cones"]]}
    assert _fan_info(capsys, tmp_path, doubled) == _fan_info(capsys, tmp_path, face_list)


def test_missing_file_exit_code(capsys):
    code, _, err = run(capsys, "fan-info", "--fan", "/nonexistent.json")
    assert code == 2


def test_cubical_ss_hyperres(capsys, tmp_path):
    from weightlab.cubical import hyperres_to_doc
    from weightlab.fixtures import hyperres
    path = tmp_path / "h.json"
    path.write_text(json.dumps(hyperres_to_doc(hyperres("wedge1"))))
    code, out, _ = run(capsys, "cubical-ss", "--hyperres", str(path))
    assert code == 0
    assert "pages" in out


def test_euler_integral_command(capsys, tmp_path):
    cx_path = tmp_path / "cx.json"
    cx_path.write_text(json.dumps({"simplices": [[0, 1], [1, 2]]}))
    fn_path = tmp_path / "fn.json"
    fn_path.write_text(json.dumps({"weights": [
        {"simplex": [0, 1], "value": 1},
        {"simplex": [1, 2], "value": 1},
        {"simplex": [0], "value": 1},
        {"simplex": [1], "value": 1},
        {"simplex": [2], "value": 1},
    ]}))
    code, out, _ = run(capsys, "euler", "--op", "integral",
                       "--complex", str(cx_path), "--function", str(fn_path))
    assert code == 0
    assert out.strip() == "1"


def test_euler_boundary_command(capsys, tmp_path):
    cx_path = tmp_path / "cx.json"
    cx_path.write_text(json.dumps({"simplices": [[0, 1]]}))
    ch_path = tmp_path / "ch.json"
    ch_path.write_text(json.dumps({"k": 1, "members": [[0, 1]]}))
    code, out, _ = run(capsys, "euler", "--op", "boundary",
                       "--complex", str(cx_path), "--chain", str(ch_path))
    assert code == 0
    doc = json.loads(out)
    assert doc["k"] == 0
    assert sorted(m["vertices"] for m in doc["members"]) == [[0], [1]]


def test_installed_entry_point():
    # The child imports the weightlab these tests import, installed or not.
    src = str(Path(weightlab.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-m", "weightlab.cli", "vpoly", "--standard", "P:1"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == 0
    assert "beta = 1 + t" in proc.stdout


def test_standard_parameter_not_an_integer_exit_code(capsys):
    code, out, err = run(capsys, "ss", "--standard", "P:x")
    assert code == 2
    assert out == ""
    assert "not an integer" in err


@pytest.mark.parametrize("argv", [["ss", "--standard", "P:0"], ["fan-info", "--standard", "P"]])
def test_p0_is_the_point(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 0 and err == ""
    assert out == run(capsys, *argv[:-1], "A:0")[1]


@pytest.mark.parametrize("verb", ["fan-info", "ss", "vpoly"])
def test_cell_count_above_the_cap_exits_3(capsys, monkeypatch, verb):
    # P:3 has 8 + 4*4 + 6*2 + 4*1 = 40 cells.
    monkeypatch.setattr(weightlab.gf2, "MAX_CELLS", 40)
    assert run(capsys, verb, "--standard", "P:3")[0] == 0
    monkeypatch.setattr(weightlab.gf2, "MAX_CELLS", 39)

    def no_orbit_group(*args):
        raise AssertionError("an orbit group was computed above the cap")

    monkeypatch.setattr(weightlab.toric, "orbit_group", no_orbit_group)
    code, _, err = run(capsys, verb, "--standard", "P:3")
    assert code == 3
    assert "40 cells" in err and "Traceback" not in err


@pytest.mark.parametrize("verb", ["fan-info", "ss", "vpoly"])
def test_cell_cap_refuses_a_large_codimension_before_counting(capsys, monkeypatch, verb):
    code, _, err = run(capsys, verb, "--standard", "trivial:20000")
    assert code == 3 and "Traceback" not in err
    assert "a cone of codimension 20000, so more than the 1048576 cells" in err
    # P:3's zero cone has codimension 3, which alone brings 8 cells: the
    # early refusal starts at the cap's bit length, read at call time.
    monkeypatch.setattr(weightlab.gf2, "MAX_CELLS", 8)
    assert "the fan has 40 cells" in run(capsys, verb, "--standard", "P:3")[2]
    monkeypatch.setattr(weightlab.gf2, "MAX_CELLS", 7)
    code, _, err = run(capsys, verb, "--standard", "P:3")
    assert code == 3
    assert "a cone of codimension 3, so more than the 7 cells" in err


@pytest.mark.parametrize("verb", ["fan-info", "ss", "vpoly"])
def test_cell_cap_refusal_names_the_fan_document(capsys, monkeypatch, tmp_path, verb):
    path = tmp_path / "t.json"
    path.write_text(json.dumps({"lattice_rank": 40, "rays": [], "cones": []}))
    assert run(capsys, verb, "--fan", str(path)) == (
        3, "", f"error: {path}: the fan has a cone of codimension 40, so more "
               "than the 1048576 cells the build allows\n")
    path.write_text(json.dumps({
        "lattice_rank": 1, "rays": [[1], [-1]], "simplicial": True,
        "cones": [{"rays": [0]}, {"rays": [1]}]}))
    monkeypatch.setattr(weightlab.gf2, "MAX_CELLS", 3)
    assert run(capsys, verb, "--fan", str(path)) == (
        3, "", f"error: {path}: the fan has 4 cells, more than the 3 the "
               "build allows\n")


# Simplicial fans whose subsets bring more cells than the cap: A:n has
# 3^n cells, P:n (3^(n+1) - 1)/2, and one cone on 17 independent rays 3^17.
_RANK_17_CONE = {"lattice_rank": 17, "simplicial": True,
                 "rays": [[int(i == j) for j in range(17)] for i in range(17)],
                 "cones": [{"rays": list(range(17))}]}


@pytest.mark.parametrize("verb", ["fan-info", "ss", "vpoly"])
@pytest.mark.parametrize("fan, cells", [
    ("A:20", 3 ** 20), ("P:20", (3 ** 21 - 1) // 2), ("P:13", 2391484), (None, 3 ** 17),
])
def test_an_over_cap_simplicial_fan_is_refused_before_its_cones(
        capsys, monkeypatch, tmp_path, verb, fan, cells):
    def no_cones(*args):
        raise AssertionError("a cone was made for a fan above the cap")

    if fan is None:
        path = tmp_path / "cone17.json"
        path.write_text(json.dumps(_RANK_17_CONE))
        argv, source = ["--fan", str(path)], f"{path}: "
    else:
        argv, source = ["--standard", fan], ""
    monkeypatch.setattr(weightlab.fan, "Cone", no_cones)
    start = time.perf_counter()
    assert run(capsys, verb, *argv) == (
        3, "", f"error: {source}the fan has {cells} cells, more than the 1048576 the build "
               "allows\n")
    assert time.perf_counter() - start < 15


def test_a_repeated_ray_set_is_refused_before_the_cell_cap(capsys, monkeypatch, tmp_path):
    # One ray set under two ids is refused by its ids before the cells are
    # counted against the cap, so before any face of the cone is walked.
    def no_cones(*args):
        raise AssertionError("a cone was made for a refused fan")

    rays = list(range(17))
    path = tmp_path / "twice.json"
    path.write_text(json.dumps({**_RANK_17_CONE, "cones": [{"id": "a", "rays": rays},
                                                          {"id": "b", "rays": rays}]}))
    monkeypatch.setattr(weightlab.fan, "Cone", no_cones)
    assert run(capsys, "vpoly", "--fan", str(path)) == (
        3, "", f"error: {path}: cones 'a' and 'b' have the same rays {rays}\n")


def test_euler_face_cap_is_read_at_call_time(capsys, monkeypatch):
    # The shipped complex has 6 face incidences: two parallel edges and
    # one more edge, two faces each.
    argv = _euler_argv("integral", "complex", "function") + [EULER_DOCS["complex"]]
    monkeypatch.setattr(weightlab.gf2, "MAX_CELLS", 5)
    code, _, err = run(capsys, *argv)
    assert code == 3
    assert "the simplices have 6 face incidences, more than the 5 the build allows" in err
    monkeypatch.setattr(weightlab.gf2, "MAX_CELLS", 6)
    assert run(capsys, *argv)[0] == 0


def test_complex_document_cap_is_read_at_call_time(capsys, monkeypatch, tmp_path):
    # P:3 has 40 cells; its emitted document loads at a cap of 40.
    path = tmp_path / "p3.json"
    monkeypatch.setattr(weightlab.gf2, "MAX_CELLS", 40)
    code, out, _ = run(capsys, "ss", "--standard", "P:3", "--emit-complex", str(path))
    assert code == 0
    assert run(capsys, "ss", "--complex", str(path)) == (0, out, "")
    monkeypatch.setattr(weightlab.gf2, "MAX_CELLS", 39)
    code, _, err = run(capsys, "ss", "--complex", str(path))
    assert code == 3
    assert "the complex has 40 cells, more than the 39 the build allows" in err
    # Hyperresolution levels and diagram objects are complex documents too.
    monkeypatch.setattr(weightlab.gf2, "MAX_CELLS", 1)
    for verb, name in [("--hyperres", "hyperres_single.json"),
                       ("--diagram", "klein_square.json")]:
        code, _, err = run(capsys, "cubical-ss", verb, str(DATA / name))
        assert code == 3
        assert "more than the 1 the build allows" in err and "Traceback" not in err


# One cell in degree 0 and one in degree 11; one cell over levels 0 and 11.
WIDE_DEGREES = {"dims": {"0": 1, "11": 1}}
WIDE_LEVELS = {"dims": {"0": 1}, "filtration": {"0": {"0": []}, "11": {"0": ["1"]}}}


@pytest.mark.parametrize("argv, doc, message", [
    (["ss", "--complex"], WIDE_DEGREES,
     "malformed complex document: the degrees holding cells span 11"),
    (["ss", "--filtration", "canonical", "--complex"], WIDE_DEGREES,
     "malformed complex document: the degrees holding cells span 11"),
    (["ss", "--complex"], WIDE_LEVELS, "malformed filtration: the filtration levels span 11"),
    (["cubical-ss", "--hyperres"], {"levels": [WIDE_DEGREES]},
     "malformed complex document: the degrees holding cells span 11"),
    (["cubical-ss", "--diagram"], {"n": 0, "objects": {"0": WIDE_LEVELS}},
     "malformed filtration: the filtration levels span 11"),
])
def test_a_span_above_the_cell_cap_exits_3(capsys, monkeypatch, tmp_path, argv, doc, message):
    # Pages list every level between the ends of a span, so a span wider
    # than the cap is refused before any spectral sequence is made.
    def no_pages(*args):
        raise AssertionError("a spectral sequence was made for a refused document")

    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    monkeypatch.setattr(weightlab.gf2, "MAX_CELLS", 10)
    monkeypatch.setattr(SpectralSequence, "__init__", no_pages)
    code, out, err = run(capsys, *argv, str(path))
    assert (code, out) == (3, "")
    assert f"{message}, more than the 10 the build allows" in err and "Traceback" not in err


@pytest.mark.parametrize("doc", [
    {"dims": {"0": 1, "10": 1}},
    {"dims": {"0": 1, "50": 0, "-50": 0}},
    {"dims": {"0": 1}, "filtration": {"0": {"0": []}, "10": {"0": ["1"]}}},
])
def test_a_span_at_the_cell_cap_is_read(capsys, monkeypatch, tmp_path, doc):
    # Degrees without cells do not count towards the span.
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    monkeypatch.setattr(weightlab.gf2, "MAX_CELLS", 10)
    code, _, err = run(capsys, "ss", "--complex", str(path))
    assert code == 0, err


def test_euler_malformed_complex_exit_code(capsys, tmp_path):
    cx_path = tmp_path / "cx.json"
    cx_path.write_text(json.dumps({"simplices": [[]]}))
    fn_path = tmp_path / "fn.json"
    fn_path.write_text(json.dumps({"weights": []}))
    code, _, err = run(capsys, "euler", "--op", "integral",
                       "--complex", str(cx_path), "--function", str(fn_path))
    assert code == 3
    assert "empty simplex" in err


@pytest.mark.parametrize("op, option", [
    ("link", "--function"), ("boundary", "--chain"), ("integral", "--function"),
    ("pushforward", "--target"),
])
def test_euler_op_without_its_document_exits_2(capsys, op, option):
    code, out, err = run(capsys, "euler", "--op", op, "--complex", EULER_DOCS["complex"])
    assert code == 2 and out == ""
    assert f"needs {option}" in err


def test_euler_shipped_documents(capsys):
    def euler(op, *docs):
        code, out, err = run(capsys, *_euler_argv(op, "complex", *docs),
                             EULER_DOCS["complex"])
        assert code == 0, err
        return out

    assert euler("integral", "function").strip() == "-4"
    assert json.loads(euler("link", "function"))["weights"] == [
        {"simplex": [0], "value": 2}, {"simplex": [1], "value": 3},
        {"simplex": [2], "value": 1},
        {"simplex": {"copy": 1, "vertices": [0, 1]}, "value": 4},
        {"simplex": [1, 2], "value": 2}]
    assert json.loads(euler("boundary", "chain")) == {
        "k": 0, "members": [{"copy": 0, "vertices": [0]}, {"copy": 0, "vertices": [2]}]}
    assert json.loads(euler("pushforward", "function", "map", "target"))["weights"] == [
        {"simplex": [2], "value": -1}, {"simplex": [0, 1], "value": 2},
        {"simplex": [1, 2], "value": 1}]


def test_filtration_with_a_skipped_level(capsys, tmp_path):
    # Level 1 is missing: it inherits level 0, so the pages equal those of
    # the same document with level 1 written out.
    skipped = {"dims": {"0": 1}, "filtration": {"0": {"0": []}, "2": {"0": ["1"]}}}
    written = {"dims": {"0": 1},
               "filtration": {"0": {"0": []}, "1": {"0": []}, "2": {"0": ["1"]}}}
    outputs = []
    for doc in (skipped, written):
        path = tmp_path / "fc.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "ss", "--complex", str(path), "--format", "doc")
        assert code == 0, err
        outputs.append(out)
    assert outputs[0] == outputs[1]
    assert {"r": 1, "p": 2, "q": -2, "dim": 1} in json.loads(outputs[0])["pages"]


# One cell at level 5000 over an empty level 0.
WIDE_SPAN = {"dims": {"0": 1}, "filtration": {"0": {"0": []}, "5000": {"0": ["1"]}}}


def test_wide_level_span_reads_only_occupied_levels(capsys, tmp_path):
    # Every page prints the cell once, and no page walks the 5000 empty
    # levels between.
    path = tmp_path / "fc.json"
    path.write_text(json.dumps(WIDE_SPAN))
    start = time.monotonic()
    code, out, err = run(capsys, "ss", "--complex", str(path), "--format", "doc")
    elapsed = time.monotonic() - start
    assert code == 0, err
    doc = json.loads(out)
    assert doc["pages"] == [{"r": r, "p": 5000, "q": -5000, "dim": 1}
                            for r in range(1, 5002)]
    assert doc["reindexed"] == [{"r": r, "p": 5000, "q": -5000, "dim": 1}
                                for r in range(2, 5003)]
    assert (doc["collapse_page"], doc["pure"], doc["support_ok"]) == (2, False, False)
    assert elapsed < 2.0, f"ss on a 5000-level span took {elapsed:.1f}s"


@pytest.mark.parametrize("verb, doc, message", [
    ("cubical-ss --diagram", {"n": 0}, "missing key 'objects'"),
    ("cubical-ss --hyperres",
     {"levels": [{"dims": {"0": 1}}],
      "faces": [{"level": 9, "face_index": 0, "matrix": {}}]},
     "d_0 at level 9 does not exist"),
    ("fan-info --fan",
     {"lattice_rank": 1, "rays": [[1]], "simplicial": False,
      "cones": [{"rays": [0], "faces": []}]},
     "missing key 'id'"),
    ("fan-info --fan",
     {"lattice_rank": 1, "rays": [[1]], "simplicial": True,
      "cones": [{"rays": [-1]}]},
     "ray indices [-1]"),
    ("fan-info --fan",
     {"lattice_rank": 2, "rays": [[0, 0], [1, 0]], "simplicial": True,
      "cones": [{"rays": [1]}]},
     "ray 0 is zero"),
    ("ss --fan",
     {"lattice_rank": 2, "rays": [[1, 0], [0, 1]], "simplicial": True,
      "cones": [{"id": "a", "rays": [0, 1]}, {"id": "a", "rays": [1]}]},
     "cone id 'a' names two cones"),
    ("fan-info --fan",
     {"lattice_rank": 2, "rays": [[1, 0], [0, 1]], "simplicial": False,
      "cones": [{"id": "r", "rays": [0], "faces": []},
                {"id": "s", "rays": [0], "faces": []}]},
     "cones 'r' and 's' have the same rays [0]"),
    ("euler --op integral --function {function} --complex", [[0, 1]],
     "complex document must be a JSON object, not list"),
    ("euler --op integral --complex {complex} --function",
     [{"simplex": [0], "value": 1}], "function document must be a JSON object"),
    ("euler --op boundary --complex {complex} --chain", {"members": [[0, 1]]},
     "has no 'k'"),
    ("euler --op integral --complex {complex} --function", {"weights": [{"value": 1}]},
     "has no 'simplex' or 'cell'"),
    ("euler --op integral --complex {complex} --function",
     {"weights": [{"simplex": [0], "value": "x"}]}, "not 'x'"),
    ("euler --op integral --complex {complex} --function",
     {"weights": [{"simplex": [0], "value": 1.5}]}, "not 1.5"),
    ("euler --op integral --function {function} --complex",
     {"simplices": [[0], {"vertices": [1], "copy": "a"}]}, "not 'a'"),
    ("euler --op pushforward --complex {complex} --target {complex} "
     "--function {function} --map",
     {"cells": json.loads((EULER / "map.json").read_text())["cells"]
      + [{"from": [7], "to": [0]}]},
     "map assigns cell ('s', (7,), 0), which is not in the source"),
    ("euler --op pushforward --complex {complex} --target {complex} "
     "--function {function} --map",
     {"cells": [{"from": [0], "to": [0]}, {"from": [0], "to": [1]}]},
     "gives cell ('s', (0,), 0) two values"),
    # Numbers that int() would truncate are refused, not read.
    ("fan-info --fan",
     {"lattice_rank": 2, "rays": [[1.5, 0], [0, 1]], "simplicial": True,
      "cones": [{"rays": [0, 1]}]},
     "a ray coordinate must be an integer, not 1.5"),
    ("ss --fan",
     {"lattice_rank": 2, "rays": [[1, 0], [0, 1]], "simplicial": True,
      "cones": [{"rays": [0.7, 1]}]},
     "a ray index must be an integer, not 0.7"),
    ("vpoly --fan", {"lattice_rank": True, "rays": [[1]], "cones": []},
     "the lattice rank must be an integer, not True"),
    ("ss --complex", {"dims": {"0": 1.7}}, "a dimension must be an integer, not 1.7"),
    ("ss --complex", {"dims": {"0": 1, "1": 1}, "boundary": {"1": [[0, 0.0]]}},
     "a column index must be an integer, not 0.0"),
    ("cubical-ss --diagram", {"n": 1.0, "objects": {}}, "n must be an integer, not 1.0"),
    ("cubical-ss --hyperres",
     {"levels": [{"dims": {"0": 1}}, {"dims": {"0": 1}}],
      "faces": [{"level": 1, "face_index": False, "matrix": {}}]},
     "a face map's face_index must be an integer, not False"),
    # A cone of codimension past the cap's bit length: refused before the
    # count, which would have more digits than int-to-str converts.
    ("fan-info --fan", {"lattice_rank": 20000, "rays": [], "cones": []},
     "a cone of codimension 20000"),
    # A flag that is not a JSON boolean, or a face list that is not a
    # list, is refused rather than read by truth value or by character.
    ("fan-info --fan",
     {"lattice_rank": 2, "rays": [[1, 0], [0, 1]], "simplicial": "no",
      "cones": [{"rays": [0, 1]}]},
     "simplicial must be true or false, not 'no'"),
    ("fan-info --fan",
     {"lattice_rank": 2, "rays": [[1, 0], [0, 1]], "simplicial": 1,
      "cones": [{"rays": [0, 1]}]},
     "simplicial must be true or false, not 1"),
    ("fan-info --fan",
     {"lattice_rank": 2, "rays": [[1, 0], [0, 1]],
      "cones": [{"id": "m0", "rays": [0], "faces": []},
                {"id": "m1", "rays": [0, 1], "faces": "m0"}]},
     "the faces of a cone must be a list, not 'm0'"),
    # A simplex whose closure alone passes the face-incidence cap: refused
    # before any face is enumerated.
    ("euler --op integral --function {function} --complex",
     {"simplices": [list(range(40))]},
     f"simplex {tuple(range(40))} has more face incidences in its closure "
     "than the 1048576 the build allows"),
    # A level's vectors given as a string rather than a list of strings.
    ("ss --complex", {"dims": {"0": 2}, "filtration": {"-1": {"0": "11"}, "0": {}}},
     "the vectors of a filtration level must be a list, not '11'"),
    # Refused before a space of that dimension is allocated.
    ("ss --complex", {"dims": {"0": 2000000000}},
     "the complex has 2000000000 cells, more than the 1048576 the build allows"),
    # Cone ids and the faces naming them are JSON strings or integers, not
    # whatever Python prints for another value.
    *(("fan-info --fan",
       {"lattice_rank": 1, "rays": [[1]],
        "cones": [{"id": "r", "rays": [0], "faces": []}, {"id": bad, "rays": [], "faces": []}]},
       f"malformed fan document: a cone id must be a string or an integer, not {bad!r}")
      for bad in (None, True, {"a": 1}, 1.0)),
    ("fan-info --fan",
     {"lattice_rank": 1, "rays": [[1]],
      "cones": [{"id": "r", "rays": [0], "faces": [None, True]}]},
     "malformed fan document: a face must be a string or an integer, not None"),
    ("fan-info --fan",
     {"lattice_rank": 1, "rays": [[1]], "simplicial": True,
      "cones": [{"id": False, "rays": [0]}]},
     "malformed fan document: a cone id must be a string or an integer, not False"),
    # Two ray indices of one primitive vector would count the ray twice.
    ("vpoly --fan",
     {"lattice_rank": 1, "rays": [[2], [1]], "simplicial": True,
      "cones": [{"rays": [0]}, {"rays": [1]}]},
     "rays 0 and 1 are the same vector [1]"),
    # A face on a ray that its cone does not have, though the face lists
    # form a lattice.
    ("fan-info --fan",
     {"lattice_rank": 2, "rays": [[1, 0], [0, 1], [1, 1]],
      "cones": [{"id": "r0", "rays": [0], "faces": []}, {"id": "r1", "rays": [1], "faces": []},
                {"id": "r2", "rays": [2], "faces": []},
                {"id": "c", "rays": [0, 1], "faces": ["r0", "r2"]}]},
     "face 'r2' of 'c' uses rays [2], which 'c' does not"),
    # A chain of declared faces deeper than the interpreter's recursion
    # limit, and than any fan of its lattice rank, listed deepest first.
    ("fan-info --fan",
     {"lattice_rank": 1, "rays": [[1]],
      "cones": [{"id": f"c{i}", "rays": [0], "faces": [f"c{i - 1}"] if i else []}
                for i in reversed(range(1500))]},
     "the faces of cone 'c1499' chain more than 2 cones deep"),
    # A dependent face 's' on a ray its independent cone 'c' lacks keeps
    # its own rank, 1, not the two of its rays.
    ("fan-info --fan",
     {"lattice_rank": 3, "rays": [[1, 0, 0], [0, 1, 0], [0, 0, 1], [-1, 0, 0]],
      "cones": [{"id": f"r{i}", "rays": [i], "faces": []} for i in range(4)]
      + [{"id": "s", "rays": [0, 3], "faces": ["r0", "r3"]},
         {"id": "c", "rays": [0, 1, 2], "faces": ["r0", "r1", "r2", "s"]}]},
     "face 'r0' of 's' does not drop dimension; face 'r3' of 's' does not drop dimension; "
     "face 'r3' of 'c' uses rays [3], which 'c' does not"),
    # A shape whose vertex count has more digits than int-to-str converts,
    # refused without forming it.
    ("cubical-ss --diagram", {"n": 100000, "objects": {}},
     "a diagram of shape n=100000 needs 2^100001 vertices, got 0"),
    # Two keys that int() reads as one integer are refused, not the last kept.
    ("ss --complex", {"dims": {"0": 1, "00": 2}},
     "malformed complex document: dims keys '0' and '00' both name 0"),
    ("ss --complex", {"dims": {"0": 1, "1": 1}, "boundary": {"1": [[0, 0]], "01": []}},
     "malformed complex document: boundary keys '1' and '01' both name 1"),
    ("ss --complex", {"dims": {"0": 1}, "filtration": {"-0": {"0": []}, "0": {"0": ["1"]}}},
     "malformed filtration: filtration levels '-0' and '0' both name 0"),
    ("ss --complex", {"dims": {"0": 1}, "filtration": {"0": {"0": ["1"], "00": ["1"]}}},
     "malformed filtration: filtration level 0 degrees '0' and '00' both name 0"),
    ("cubical-ss --diagram",
     {"n": 0, "objects": {"0": {"dims": {"0": 1}}, "1": {"dims": {"0": 1}}},
      "maps": [{"from_mask": 1, "to_mask": 0, "matrices": {"0": [[0, 0]], "00": []}}]},
     "malformed diagram document: map degrees '0' and '00' both name 0"),
    ("cubical-ss --diagram",
     {"n": 0, "objects": {"0": {"dims": {"0": 1}}, "1": {"dims": {"0": 1}},
                          "01": {"dims": {"0": 2}}}},
     "malformed diagram document: diagram objects '1' and '01' both name 1"),
    # A map or a face given twice is refused, not replaced by the second.
    ("cubical-ss --diagram",
     {"n": 0, "objects": {"0": {"dims": {"0": 1}}, "1": {"dims": {"0": 1}}},
      "maps": [{"from_mask": 1, "to_mask": 0, "matrices": {"0": [[0, 0]]}},
               {"from_mask": 1, "to_mask": 0, "matrices": {}}]},
     "malformed diagram document: map 1->0 is given twice"),
    ("cubical-ss --hyperres",
     {"levels": [{"dims": {"0": 1}}, {"dims": {"0": 1}}],
      "faces": [{"level": 1, "face_index": 0, "matrix": {"0": [[0, 0]]}},
                {"level": 1, "face_index": 0, "matrix": {}}]},
     "malformed hyperresolution document: face map d_0 at level 1 is given twice"),
    # A key that int() reads but that is not its integer written plainly.
    *(("ss --complex", {"dims": {key: 1}},
       f"malformed complex document: dims keys {key!r} is not written as {want!r}")
      for key, want in ((" 1", "1"), ("+1", "1"), ("1_0", "10"), ("00", "0"))),
    ("ss --complex", {"dims": {"0": 1}, "filtration": {"-0": {"0": ["1"]}}},
     "malformed filtration: filtration levels '-0' is not written as '0'"),
    ("ss --complex", {"dims": {"0": 1}, "filtration": {"0": {"0 ": ["1"]}}},
     "malformed filtration: filtration level 0 degrees '0 ' is not written as '0'"),
    ("cubical-ss --diagram",
     {"n": 0, "objects": {"0": {"dims": {"0": 1}}, "1": {"dims": {"0": 1}}},
      "maps": [{"from_mask": 1, "to_mask": 0, "matrices": {"+0": [[0, 0]]}}]},
     "malformed diagram document: map degrees '+0' is not written as '0'"),
    # Mod 2 a cell listed twice is zero, so a chain may list a cell once.
    ("euler --op boundary --complex {complex} --chain",
     {"k": 1, "members": [[1, 2], [2, 1]]}, "the chain lists cell ('s', (1, 2), 0) twice"),
    ("euler --op boundary --complex {complex} --chain", {"k": -1, "members": []},
     "a chain's degree k must not be negative, not -1"),
])
def test_malformed_documents_exit_3(capsys, tmp_path, verb, doc, message):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    argv = [part.format(**EULER_DOCS) for part in verb.split()]
    # Only the duplicate ray warns: its [2] is made primitive before the compare.
    warns = (pytest.warns(UserWarning, match="not primitive") if "the same vector" in message
             else contextlib.nullcontext())
    with warns:
        code, out, err = run(capsys, *argv, str(path))
    assert code == 3
    assert message in err


# Refusals that only a document reaches, each exiting 3 through main with
# its exact message after the path of the document refused; the fan rows
# write that path out as {path}.
@pytest.mark.parametrize("verb, doc, message", [
    ("fan-info --fan", {"lattice_rank": -1, "rays": [], "cones": []},
     "{path}: lattice rank -1 is negative"),
    ("fan-info --fan",
     {"lattice_rank": 2, "rays": [[1, 0], [0, 1]],
      "cones": [{"id": "a", "rays": [0], "faces": ["b"]},
                {"id": "b", "rays": [1], "faces": ["a"]}]},
     "{path}: cyclic face declaration at cone 'a'"),
    ("ss --complex", {"dims": {"0": -1}}, "malformed complex document: negative dimension"),
    # The face map sends level 1's edge to level 0's, whose vertex is its
    # boundary, while level 1's edge has none.
    ("cubical-ss --hyperres",
     {"levels": [{"dims": {"0": 1, "1": 1}, "boundary": {"1": [[0, 0]]}},
                 {"dims": {"0": 1, "1": 1}}],
      "faces": [{"level": 1, "face_index": 0, "matrix": {"1": [[0, 0]]}}]},
     "face map d_0 at level 1 is not a chain map"),
    # Vertex 3 reaches 0 through 1 by the identity and through 2 by zero.
    ("cubical-ss --diagram",
     {"n": 1, "objects": {str(s): {"dims": {"0": 1}} for s in range(4)},
      "maps": [{"from_mask": 3, "to_mask": 1, "matrices": {"0": [[0, 0]]}},
               {"from_mask": 3, "to_mask": 2, "matrices": {"0": [[0, 0]]}},
               {"from_mask": 1, "to_mask": 0, "matrices": {"0": [[0, 0]]}}]},
     "square 3->0 does not commute in degree 0"),
    # A simplicial document's declared faces must be faces of their cone.
    ("fan-info --fan",
     {"lattice_rank": 1, "rays": [[1]], "simplicial": True,
      "cones": [{"id": "x", "rays": [0], "faces": ["nope"]}]},
     "{path}: cone 'x' lists unknown face 'nope'"),
    ("vpoly --fan",
     {"lattice_rank": 2, "rays": [[1, 0], [0, 1]], "simplicial": True,
      "cones": [{"id": "x", "rays": [0]}, {"id": "y", "rays": [1], "faces": ["0", "x"]}]},
     "{path}: cone 'y' lists 'x', which is not one of its faces"),
    # A cone without an id is named by its place in "cones".
    ("fan-info --fan",
     {"lattice_rank": 1, "rays": [[1]], "simplicial": True,
      "cones": [{"rays": [0]}, {"rays": [3]}]},
     "{path}: cones[1] uses ray indices [3], the fan has 1 rays"),
    # Malformed shapes are refused by the field's name, not by Python's
    # message for the operation they break.
    ("fan-info --fan", [{"lattice_rank": 1}],
     "{path}: malformed fan document: the document must be a JSON object, not list"),
    ("vpoly --fan", {"lattice_rank": 1, "rays": [[1]], "cones": 5},
     "{path}: malformed fan document: 'cones' must be a list, not 5"),
    ("ss --fan", {"lattice_rank": 1, "rays": [[1]], "simplicial": True, "cones": [5]},
     "{path}: malformed fan document: cones[0] must be a JSON object, not int"),
    ("fan-info --fan", {"lattice_rank": 1, "rays": 5, "cones": []},
     "{path}: malformed fan document: 'rays' must be a list, not 5"),
    ("fan-info --fan", {"lattice_rank": 1, "rays": [[1], 5], "cones": []},
     "{path}: malformed fan document: rays[1] must be a list, not 5"),
    ("fan-info --fan",
     {"lattice_rank": 1, "rays": [[1]], "simplicial": True, "cones": [{"rays": 0}]},
     "{path}: malformed fan document: the rays of cones[0] must be a list, not 0"),
    # So are complex, hyperresolution and diagram documents.
    ("ss --complex", [{"dims": {"0": 1}}],
     "malformed complex document: the document must be a JSON object, not list"),
    ("ss --complex", {"dims": []},
     "malformed complex document: 'dims' must be a JSON object, not list"),
    ("ss --complex", {"dims": {"0": 1, "1": 1}, "boundary": {"1": 5}},
     "malformed complex document: boundary['1'] must be a list, not 5"),
    ("ss --complex", {"dims": {"0": 1, "1": 1}, "boundary": {"1": [[0, 0, 0]]}},
     "malformed complex document: boundary['1'][0] must be a [row, column] pair, "
     "not [0, 0, 0]"),
    ("cubical-ss --hyperres", [{"levels": []}],
     "malformed hyperresolution document: the document must be a JSON object, not list"),
    ("cubical-ss --hyperres", {"levels": [{"dims": []}]},
     "malformed complex document: 'dims' must be a JSON object, not list"),
    ("cubical-ss --hyperres", {"levels": [5]},
     "malformed hyperresolution document: levels[0] must be a JSON object, not int"),
    ("cubical-ss --hyperres",
     {"levels": [{"dims": {"0": 1}}, {"dims": {"0": 1}}],
      "faces": [{"level": 1, "face_index": 0, "matrix": {"0": 5}}]},
     "malformed hyperresolution document: faces[0]['matrix']['0'] must be a list, not 5"),
    ("cubical-ss --diagram", [{"n": 0}],
     "malformed diagram document: the document must be a JSON object, not list"),
    ("cubical-ss --diagram", {"n": 0, "objects": []},
     "malformed diagram document: 'objects' must be a JSON object, not list"),
    ("cubical-ss --diagram", {"n": 0, "objects": {"0": {"dims": []}, "1": {"dims": {}}}},
     "malformed complex document: 'dims' must be a JSON object, not list"),
    ("cubical-ss --diagram",
     {"n": 0, "objects": {"0": {"dims": {"0": 1}}, "1": {"dims": {"0": 1}}},
      "maps": [{"from_mask": 1, "to_mask": 0, "matrices": {"0": 5}}]},
     "malformed diagram document: maps[0]['matrices']['0'] must be a list, not 5"),
    # A filtration that is not an object is refused, not read as the
    # trivial filtration.
    *(("ss --complex", {"dims": {"0": 1}, "filtration": bad},
       f"malformed filtration: 'filtration' must be a JSON object, not {kind}")
      for bad, kind in (([], "list"), ("", "str"), (0, "int"), (False, "bool"))),
    ("ss --complex", {"dims": {"0": 1}, "filtration": {"0": []}},
     "malformed filtration: filtration['0'] must be a JSON object, not list"),
    # A key that int() cannot read is named with its table.
    ("ss --complex", {"dims": {"1.5": 1}},
     "malformed complex document: dims keys '1.5' is not an integer"),
    ("cubical-ss --diagram", {"n": 0, "objects": {"x": {}}},
     "malformed diagram document: diagram objects 'x' is not an integer"),
    # A matrix entry listed twice is refused at its second place, where
    # mod 2 it would cancel.
    ("ss --complex", {"dims": {"0": 1, "1": 1}, "boundary": {"1": [[0, 0], [0, 0]]}},
     "malformed complex document: boundary['1'][1] repeats [0, 0]"),
    ("cubical-ss --hyperres",
     {"levels": [{"dims": {"0": 1}}, {"dims": {"0": 1}}],
      "faces": [{"level": 1, "face_index": 0, "matrix": {"0": [[0, 0], [0, 0]]}}]},
     "malformed hyperresolution document: faces[0]['matrix']['0'][1] repeats [0, 0]"),
    ("cubical-ss --diagram",
     {"n": 1, "objects": {"0": {"dims": {"0": 1}}, "1": {"dims": {"0": 1}}},
      "maps": [{"from_mask": 1, "to_mask": 0, "matrices": {"0": [[0, 0], [0, 0]]}}]},
     "malformed diagram document: maps[0]['matrices']['0'][1] repeats [0, 0]"),
    # A hyperresolution without levels is refused by its field.
    *((verb, {"levels": []},
       "malformed hyperresolution document: 'levels' must list at least one level")
      for verb in ("ss --hyperres", "cubical-ss --hyperres")),
    # A cone that lists one ray index twice is refused, in either form,
    # named as an index out of range is.
    *((verb, {"lattice_rank": 1, "rays": [[1], [-1]], "simplicial": True,
              "cones": [{"rays": [0, 0]}, {"rays": [1]}]},
       "{path}: cones[0] lists ray index 0 twice") for verb in ("vpoly --fan", "fan-info --fan")),
    ("vpoly --fan",
     {"lattice_rank": 2, "rays": [[1, 0], [0, 1]], "simplicial": True,
      "cones": [{"id": "m", "rays": [1, 0, 1, 0]}]},
     "{path}: cone 'm' lists ray index 1 twice"),
    ("vpoly --fan",
     {"lattice_rank": 1, "rays": [[1], [-1]],
      "cones": [{"id": "a", "rays": [0, 0]}, {"id": "b", "rays": [1]}]},
     "{path}: cone 'a' lists ray index 0 twice"),
    # Out of range is named first.
    ("fan-info --fan",
     {"lattice_rank": 1, "rays": [[1]], "cones": [{"id": "a", "rays": [0, 0, 2]}]},
     "{path}: cone 'a' uses ray indices [2], the fan has 1 rays"),
    # Each of the euler documents, by the option that names it: a list of
    # the wrong shape is named by its key, and a refusal of the object the
    # document makes names the file too.
    ("euler --op integral --function {function} --complex", {"simplices": 5},
     "'simplices' must be a list, not 5"),
    ("euler --op pushforward --complex {complex} --map {map} --function {function} --target",
     [[0]], "complex document must be a JSON object, not list"),
    ("euler --op integral --complex {complex} --function", {"weights": "x"},
     "'weights' must be a list, not 'x'"),
    ("euler --op link --complex {complex} --function", {"weights": [{"simplex": [7], "value": 1}]},
     "weight on unknown cell ('s', (7,), 0)"),
    ("euler --op boundary --complex {complex} --chain", {"k": 1, "members": 5},
     "'members' must be a list, not 5"),
    ("euler --op boundary --complex {complex} --chain", {"k": 0, "members": [[1, 2]]},
     "chain member ('s', (1, 2), 0) is not a 0-cell"),
    ("euler --op pushforward --complex {complex} --target {complex} --function {function} "
     "--map", {"cells": 5}, "'cells' must be a list, not 5"),
    ("euler --op pushforward --complex {complex} --target {complex} --function {function} "
     "--map", {"cells": []}, "map not defined on cell ('s', (0,), 0)"),
])
def test_document_refusals_exit_3_with_their_message(capsys, tmp_path, verb, doc, message):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    argv = [part.format(**EULER_DOCS) for part in verb.split()]
    message = message.format(path=path).removeprefix(f"{path}: ")
    assert run(capsys, *argv, str(path)) == (3, "", f"error: {path}: {message}\n")


# The function and map readers' repeat rule: an entry repeated with the
# same value is read once; with another value it is refused, naming the cell.
@pytest.mark.parametrize("name, key, argv, conflicting", [
    ("function", "weights", _euler_argv("pushforward", "function", "complex", "target", "map"),
     {"simplex": [2], "value": 5}),
    ("map", "cells", _euler_argv("pushforward", "map", "complex", "target", "function"),
     {"from": [2], "to": [1]}),
])
def test_a_repeated_entry_is_read_once_with_its_value_and_refused_with_another(
        capsys, tmp_path, name, key, argv, conflicting):
    path = tmp_path / "doc.json"

    def pushforward(entries):
        path.write_text(json.dumps({key: entries}))
        return run(capsys, *argv, str(path))

    entries = json.loads((EULER / f"{name}.json").read_text())[key]
    once = pushforward(entries)
    assert once[0] == 0
    assert pushforward(entries + entries) == pushforward(entries[::-1] + entries[:1]) == once
    assert pushforward(entries + [conflicting]) == (
        3, "", f"error: {path}: the {name} gives cell ('s', (2,), 0) two values\n")


@pytest.mark.parametrize("filtration", [{}, {"filtration": None}, {"filtration": {}}])
def test_a_missing_null_or_empty_filtration_is_trivial(capsys, tmp_path, filtration):
    want, path = tmp_path / "want.json", tmp_path / "doc.json"
    want.write_text(json.dumps(
        {"dims": {"0": 1, "1": 1}, "filtration": {"0": {"0": ["1"], "1": ["1"]}}}))
    path.write_text(json.dumps({"dims": {"0": 1, "1": 1}, **filtration}))
    code, out, err = run(capsys, "ss", "--complex", str(path))
    assert (code, err) == (0, "")
    assert out == run(capsys, "ss", "--complex", str(want))[1]


def _one_sign_per_coordinate(n: int, count: int) -> dict:
    """A simplicial document on the rays ±e_i of lattice rank n, declaring
    ``count`` distinct cones that each take one sign per coordinate."""
    rng, signs = random.Random(0), {}
    while len(signs) < count:
        signs[tuple(rng.randrange(2) for _ in range(n))] = None
    return {"lattice_rank": n, "simplicial": True,
            "rays": [[s * int(i == j) for j in range(n)] for s in (1, -1) for i in range(n)],
            "cones": [{"rays": [i + n * s for i, s in enumerate(pick)]} for pick in signs]}


def test_a_cap_count_too_long_to_finish_stops_once_past_the_cap(capsys, monkeypatch, tmp_path):
    # Counting the distinct faces of these cones is exponential; each cone
    # alone brings 3^20 cells, so the count stops and refuses with the
    # cells it has seen, before any cone is made.
    def no_cones(*args):
        raise AssertionError("a cone was made for a fan above the cap")

    path = tmp_path / "signs.json"
    path.write_text(json.dumps(_one_sign_per_coordinate(20, 1000)))
    monkeypatch.setattr(weightlab.fan, "Cone", no_cones)
    start = time.perf_counter()
    code, out, err = run(capsys, "vpoly", "--fan", str(path))
    assert time.perf_counter() - start < 2
    prefix = f"error: {path}: the fan has at least "
    assert (code, out) == (3, "") and err.startswith(prefix)
    assert err.endswith(" cells, more than the 1048576 the build allows\n")
    assert int(err.removeprefix(prefix).split()[0]) >= 3 ** 20


def test_unknown_face_refusal_does_not_depend_on_the_hash_seed(tmp_path):
    # A face list is a set of strings, whose order follows the process's
    # hash seed; the refusal names the first unknown face in sorted order.
    path = tmp_path / "doc.json"
    path.write_text(json.dumps({"lattice_rank": 1, "rays": [[1]], "cones": [
        {"id": "r", "rays": [0], "faces": ["z", "y", "x"]}]}))
    src = str(Path(weightlab.__file__).resolve().parents[1])
    for seed in range(4):
        proc = subprocess.run(
            [sys.executable, "-m", "weightlab.cli", "fan-info", "--fan", str(path)],
            capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": src, "PYTHONHASHSEED": str(seed)})
        assert proc.returncode == 3
        assert "cone 'r' lists unknown face 'x'" in proc.stderr, seed


def test_fan_diagnostics_do_not_depend_on_the_hash_seed(tmp_path):
    # A face list is a set of strings; a refusal with several faults names
    # each cone's faces in sorted order.
    path = tmp_path / "doc.json"
    path.write_text(json.dumps({"lattice_rank": 2, "rays": [[1, 0], [0, 1], [-1, 0]], "cones": [
        {"id": "r0", "rays": [0], "faces": []}, {"id": "r1", "rays": [1], "faces": []},
        {"id": "r2", "rays": [2], "faces": []}, {"id": "s", "rays": [0, 2], "faces": ["r0", "r2"]},
        {"id": "c", "rays": [0, 1], "faces": ["r0", "r1", "s"]}]}))
    src = str(Path(weightlab.__file__).resolve().parents[1])
    for seed in range(4):
        proc = subprocess.run(
            [sys.executable, "-m", "weightlab.cli", "fan-info", "--fan", str(path)],
            capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": src, "PYTHONHASHSEED": str(seed)})
        assert proc.returncode == 3
        assert ("face 'r0' of 's' does not drop dimension; "
                "face 'r2' of 's' does not drop dimension; "
                "face 'r2' of 'c' uses rays [2], which 'c' does not; "
                "face 's' of 'c' uses rays [2], which 'c' does not") in proc.stderr, seed


DATA = Path(weightlab.__file__).parent / "data"


# Each shipped document and the commands that read it.
SHIPPED = [
    (path, argv)
    for path in sorted(DATA.glob("*.json")) + sorted(DATA.glob("fans/*.json"))
    for argv in (
        [["fan-info", "--fan"], ["ss", "--fan"]] if path.parent.name == "fans"
        else [["cubical-ss", "--hyperres"], ["ss", "--hyperres"]]
        if path.name.startswith("hyperres")
        else [["cubical-ss", "--diagram"]])
] + [
    (EULER / f"{name}.json", argv)
    for name, commands in {
        "complex": [
            _euler_argv("integral", "complex", "function"),
            _euler_argv("boundary", "complex", "chain"),
            _euler_argv("pushforward", "complex", "target", "map", "function"),
            _euler_argv("pushforward", "target", "complex", "map", "function"),
        ],
        "function": [
            _euler_argv("link", "function", "complex"),
            _euler_argv("integral", "function", "complex"),
            _euler_argv("pushforward", "function", "complex", "target", "map"),
        ],
        "chain": [_euler_argv("boundary", "chain", "complex")],
        "map": [_euler_argv("pushforward", "map", "complex", "target", "function")],
    }.items()
    for argv in commands
]


def _paths(node, prefix=()):
    yield prefix
    children = node.items() if isinstance(node, dict) else (
        enumerate(node) if isinstance(node, list) else ())
    for key, child in children:
        yield from _paths(child, prefix + (key,))


@st.composite
def mutated_documents(draw):
    """A shipped document with one or two keys dropped, values retyped,
    out-of-range indices written in, a list zeroed, an item repeated
    with its last entry dropped or an entry duplicated, and a command
    that reads it."""
    path, argv = draw(st.sampled_from(SHIPPED))
    doc = json.loads(path.read_text())
    for _ in range(draw(st.integers(1, 2))):
        target = draw(st.sampled_from(list(_paths(doc))))
        kind = draw(st.sampled_from(["drop", "retype", "index", "zero", "repeat",
                                     "duplicate"]))
        if kind in ("zero", "repeat", "duplicate"):
            new = None
        elif kind == "retype":
            new = draw(st.sampled_from(["x", None, [], {}, 1.5, True, [[0]]]))
        else:
            new = draw(st.sampled_from([-1, 9, 99]))
        if not target:
            doc = {} if kind == "drop" else new
            continue
        parent = doc
        for key in target[:-1]:
            parent = parent[key]
        if kind == "drop":
            del parent[target[-1]]
        elif kind == "zero":
            # a zero ray, when the target is one
            if isinstance(parent[target[-1]], list):
                parent[target[-1]] = [0] * len(parent[target[-1]])
        elif kind == "repeat":
            # a second cone with the same id over fewer rays, when the
            # target is a cone
            if isinstance(parent, list):
                item = json.loads(json.dumps(parent[target[-1]]))
                if isinstance(item, dict) and isinstance(item.get("rays"), list):
                    item["rays"] = item["rays"][:-1]
                parent.append(item)
        elif kind == "duplicate":
            # the same item again right after it, when the target is in a
            # list: a matrix entry, a ray, a cone or a face map
            if isinstance(parent, list):
                parent.insert(target[-1] + 1, json.loads(json.dumps(parent[target[-1]])))
        elif kind == "index" and isinstance(parent[target[-1]], list):
            parent[target[-1]].append(new)
        else:
            parent[target[-1]] = new
    return argv, doc


@pytest.mark.filterwarnings("ignore:ray .* is not primitive")
@settings(max_examples=300, deadline=None)
@given(mutated_documents())
def test_mutated_shipped_documents_keep_the_exit_code_contract(case):
    argv, doc = case
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "doc.json"
        path.write_text(json.dumps(doc))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([*argv, str(path)])
    assert code in (0, 2, 3, 4), (code, err.getvalue())
    assert "Traceback" not in err.getvalue()


EMITTED = Path(__file__).parent / "data" / "emit"


@pytest.mark.parametrize("argv, name", [
    (["--standard", "P:2"], "P_2"),
    (["--standard", "hirzebruch:1"], "hirzebruch_1"),
    (["--standard", "trivial:3"], "trivial_3"),
    (["--standard", "A:2"], "A_2"),
    (["--standard", "P:2", "--filtration", "canonical"], "P_2_canonical"),
    (["--fan", str(Path(weightlab.__file__).parent / "data" / "fans" / "cone_over_square.json")],
     "cone_over_square"),
    (["--fan", str(Path(weightlab.__file__).parent / "data" / "fans" / "weighted_p112.json")],
     "weighted_p112"),
])
def test_emitted_complex_documents_are_unchanged(capsys, tmp_path, argv, name):
    # The stored documents are the cell-basis documents of the earlier
    # build, which wrote the filtration as coset indicators.
    path = tmp_path / "out.json"
    code, _, _ = run(capsys, "ss", *argv, "--emit-complex", str(path))
    assert code == 0
    assert path.read_bytes() == (EMITTED / f"{name}.json").read_bytes()


@pytest.mark.parametrize("argv", [
    ["ss", "--standard", "P:3"],
    ["ss", "--fan", str(Path(weightlab.__file__).parent / "data" / "fans" / "cone_over_square.json"),
     "--format", "doc"],
    ["vpoly", "--standard", "hirzebruch:2"],
    ["fan-info", "--standard", "A:3"],
])
def test_fan_requests_stay_in_the_augmentation_basis(capsys, monkeypatch, argv):
    def forbidden(*args, **kwargs):
        raise AssertionError("a fan request left the augmentation basis")

    monkeypatch.setattr(weightlab.complexes.FilteredComplex, "coordinates", forbidden)
    monkeypatch.setattr(weightlab.gf2.BitMatrix, "mul_vec", forbidden)
    monkeypatch.setattr(weightlab.toric.ToricCellComplex, "complex", property(forbidden))
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    assert out


def test_the_toric_build_is_checked_by_the_registry_not_per_request(
        capsys, monkeypatch, tmp_path):
    # The build's complex is made past the ∂∂ and level checks; the
    # complex it emits, read back from its document, takes both.
    calls = Counter()

    def counted(key, fn):
        def call(*args):
            calls[key] += 1
            return fn(*args)
        return call

    monkeypatch.setattr(weightlab.complexes, "complex_diagnostics",
                        counted("chain", weightlab.complexes.complex_diagnostics))
    monkeypatch.setattr(FilteredComplex, "diagnostics",
                        counted("filtration", FilteredComplex.diagnostics))
    code, out, err = run(capsys, "ss", "--standard", "P:4")
    assert (code, err) == (0, "") and out
    assert calls == Counter()
    path = tmp_path / "p4.json"
    assert run(capsys, "ss", "--standard", "P:4", "--emit-complex", str(path))[0] == 0
    calls.clear()
    code, out, err = run(capsys, "ss", "--complex", str(path))
    assert (code, err) == (0, "") and out
    assert calls["chain"] >= 1 and calls["filtration"] >= 1


def test_closed_output_pipe_ends_quietly():
    # `weightlab ss ... | head -1`: the reader is gone before the output.
    src = str(Path(weightlab.__file__).resolve().parents[1])
    proc = subprocess.Popen(
        [sys.executable, "-m", "weightlab.cli", "ss", "--standard", "P:4"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        env={**os.environ, "PYTHONPATH": src},
    )
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 141
    assert err == ""


def test_fan_info_on_a_cone_whose_smith_form_used_to_explode(tmp_path):
    # The Smith normal form of these six rays once grew its entries to
    # about 28,000 bits and did not finish.
    rays = [[-3, -4, 0, 4, 8, -4], [-8, -2, -1, -7, 5, 4], [8, -1, 8, 5, 8, 5],
            [-9, 3, 1, -4, -1, 6], [-9, 4, 9, -9, -8, 2], [9, -5, 9, -5, -5, -1]]
    path = tmp_path / "fan.json"
    path.write_text(json.dumps({"lattice_rank": 6, "rays": rays, "simplicial": True,
                                "cones": [{"rays": list(range(6))}]}))
    src = str(Path(weightlab.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-m", "weightlab.cli", "fan-info", "--fan", str(path)],
        capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == 0, proc.stderr
    assert "cell counts by degree: 0:1, 1:12, 2:60, 3:160, 4:240, 5:192, 6:64" in proc.stdout


def test_main_builds_the_parser_once(capsys, monkeypatch):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    weightlab.cli.build_parser.cache_clear()
    assert run(capsys, "fan-info", "--standard", "P:1")[0] == 0
    first = len(built)
    for argv in (["ss", "--standard", "P:1"], ["vpoly", "--standard", "A:1"],
                 ["check", "--suite", "none"], ["fan-info", "--standard", "P:2"]):
        assert run(capsys, *argv)[0] == 0
    assert built.count("weightlab") == 1
    assert len(built) == first


def test_a_usage_error_leaves_the_parser_as_it_was(capsys):
    argv = ["ss", "--standard", "P:2", "--format", "doc"]
    want = run(capsys, *argv)
    with pytest.raises(SystemExit) as exc:
        main(["ss", "--standard", "P:2", "--format", "yaml"])
    assert exc.value.code == 2
    capsys.readouterr()
    assert run(capsys, *argv) == want


def test_help_is_the_same_on_every_call(capsys):
    outputs = []
    for _ in range(2):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        outputs.append(capsys.readouterr())
    assert outputs[0].out.startswith("usage: weightlab")
    assert outputs[0] == outputs[1]


_spot = st.integers(-150, 150)
_rows = st.lists(st.tuples(st.integers(1, 150), _spot, _spot, st.integers(1, 10**30)),
                 max_size=8)
_profiles = st.dictionaries(
    st.integers(-25, 25),
    st.dictionaries(st.integers(-25, 25), st.integers(0, 10**30), max_size=6),
    max_size=5)


@settings(max_examples=200, deadline=None)
@given(_rows, _rows, st.lists(st.tuples(_spot, _spot, st.integers(1, 10**30)), max_size=6),
       st.builds(PurityReport, st.booleans(), st.integers(2, 10**6), st.booleans()),
       _profiles)
@example([], [], [], PurityReport(False, 2, False), {})
@example([(1, -12, 3, 10**20)], [(2, 10, -2, 1)], [(-1, 0, 5)],
         PurityReport(True, 12, True),
         {-1: {}, -2: {10: 1, 2: 0, -1: 3, -2: 4}, 10: {0: 1}, 2: {}})
def test_page_document_equals_the_json_encoder(pages, reindexed, infinity, report,
                                               profile):
    assert page_doc_text(pages, reindexed, infinity, report, profile) == \
        oracle_page_doc(pages, reindexed, infinity, report, profile)


@pytest.mark.parametrize("argv", [
    ["ss", "--standard", "P:2"],
    ["ss", "--standard", "trivial:3"],
    ["ss", "--fan", str(DATA / "fans" / "cone_over_square.json")],
    ["ss", "--complex", "{wide_span}"],
    ["cubical-ss", "--hyperres", str(DATA / "hyperres_wedge1.json")],
])
def test_doc_output_skips_the_python_json_encoder(capsys, monkeypatch, tmp_path, argv):
    wide_span = tmp_path / "fc.json"
    wide_span.write_text(json.dumps(WIDE_SPAN))
    argv = [part.format(wide_span=wide_span) for part in argv]

    def refuse(*args, **kwargs):
        raise AssertionError("the document went through the pure-Python encoder")

    monkeypatch.setattr(json.encoder, "_make_iterencode", refuse)
    code, out, err = run(capsys, *argv, "--format", "doc")
    monkeypatch.undo()
    assert code == 0, err
    if argv[0] == "cubical-ss":
        first, out = out.split("\n", 1)
        assert first.startswith("shifted-filtration comparison: ")
    assert out == json.dumps(json.loads(out), indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("fmt", ["doc", "text", "csv"])
def test_ss_computes_each_page_entry_once(capsys, monkeypatch, fmt):
    reductions, pages = Counter(), Counter()
    bars, page = SpectralSequence.bars, SpectralSequence._page

    def counted_bars(self):
        if self._bars is None:
            reductions[id(self)] += 1
        return bars(self)

    def counted_page(self, r):
        if r not in self._page_cache:
            pages[(id(self), r)] += 1
        return page(self, r)

    monkeypatch.setattr(SpectralSequence, "bars", counted_bars)
    monkeypatch.setattr(SpectralSequence, "_page", counted_page)
    code, _, err = run(capsys, "ss", "--standard", "P:3", "--format", fmt)
    assert code == 0, err
    assert list(reductions.values()) == [1], reductions
    assert pages and max(pages.values()) == 1, pages.most_common(3)
