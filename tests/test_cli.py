import json
import subprocess
import sys

import pytest

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
    proc = subprocess.run(
        [sys.executable, "-m", "weightlab.cli", "vpoly", "--standard", "P:1"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "beta = 1 + t" in proc.stdout


def test_standard_parameter_not_an_integer_exit_code(capsys):
    code, out, err = run(capsys, "ss", "--standard", "P:x")
    assert code == 2
    assert out == ""
    assert "not an integer" in err


def test_euler_malformed_complex_exit_code(capsys, tmp_path):
    cx_path = tmp_path / "cx.json"
    cx_path.write_text(json.dumps({"simplices": [[]]}))
    fn_path = tmp_path / "fn.json"
    fn_path.write_text(json.dumps({"weights": []}))
    code, _, err = run(capsys, "euler", "--op", "integral",
                       "--complex", str(cx_path), "--function", str(fn_path))
    assert code == 3
    assert "empty simplex" in err
