import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import weightlab
from weightlab.cli import main
from weightlab.complexes import filtered_from_doc
from weightlab.pages import SpectralSequence


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_fan_info(capsys):
    code, out, _ = run(capsys, "fan-info", "--standard", "P:1")
    assert code == 0
    assert "lattice rank: 1" in out
    assert "cell counts by degree: 0:2, 1:2" in out


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


def test_check_euler_suite(capsys):
    code, out, _ = run(capsys, "check", "--suite", "euler")
    assert code == 0
    assert "FAIL" not in out


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


@pytest.mark.parametrize("verb", ["fan-info", "ss", "vpoly"])
def test_cell_count_above_the_cap_exits_3(capsys, monkeypatch, verb):
    # P:3 has 8 + 4*4 + 6*2 + 4*1 = 40 cells.
    monkeypatch.setattr(weightlab.toric, "MAX_CELLS", 40)
    assert run(capsys, verb, "--standard", "P:3")[0] == 0
    monkeypatch.setattr(weightlab.toric, "MAX_CELLS", 39)

    def no_orbit_group(*args):
        raise AssertionError("an orbit group was computed above the cap")

    monkeypatch.setattr(weightlab.toric, "orbit_group", no_orbit_group)
    code, _, err = run(capsys, verb, "--standard", "P:3")
    assert code == 3
    assert "40 cells" in err and "Traceback" not in err


def test_euler_malformed_complex_exit_code(capsys, tmp_path):
    cx_path = tmp_path / "cx.json"
    cx_path.write_text(json.dumps({"simplices": [[]]}))
    fn_path = tmp_path / "fn.json"
    fn_path.write_text(json.dumps({"weights": []}))
    code, _, err = run(capsys, "euler", "--op", "integral",
                       "--complex", str(cx_path), "--function", str(fn_path))
    assert code == 3
    assert "empty simplex" in err


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
])
def test_malformed_documents_exit_3(capsys, tmp_path, verb, doc, message):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, *verb.split(), str(path))
    assert code == 3
    assert message in err


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
]


def _paths(node, prefix=()):
    yield prefix
    children = node.items() if isinstance(node, dict) else (
        enumerate(node) if isinstance(node, list) else ())
    for key, child in children:
        yield from _paths(child, prefix + (key,))


@st.composite
def mutated_documents(draw):
    """A shipped document with one or two keys dropped, values retyped or
    out-of-range indices written in, and a command that reads it."""
    path, argv = draw(st.sampled_from(SHIPPED))
    doc = json.loads(path.read_text())
    for _ in range(draw(st.integers(1, 2))):
        target = draw(st.sampled_from(list(_paths(doc))))
        kind = draw(st.sampled_from(["drop", "retype", "index"]))
        if kind == "retype":
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
