"""Every reader that has a writer reads back what the writer wrote as an
equal object, on every JSON document that the package and the tests ship."""

import json
from operator import eq
from pathlib import Path

import pytest

import weightlab
from weightlab import euler
from weightlab.complexes import complex_from_doc, complex_to_doc, filtered_from_doc, filtered_to_doc
from weightlab.cubical import diagram_from_doc, diagram_to_doc, hyperres_from_doc, hyperres_to_doc
from weightlab.fan import fan_to_doc, parse_fan

PACKAGE_DATA = Path(weightlab.__file__).parent / "data"
TEST_DATA = Path(__file__).parent / "data"


def _load(path: Path):
    return json.loads(path.read_text(encoding="utf-8"))


def _same_filtered(a, b) -> bool:
    """Equal complexes, level ranges and level subspaces.  The adapted
    bases may differ: the writer writes each level's RREF basis."""
    ks, (lo, hi) = a.complex.degrees(), a.p_range
    return (a.complex == b.complex and a.p_range == b.p_range
            and all(a.level(p, k) == b.level(p, k) for p in range(lo, hi + 1) for k in ks))


def _same_diagram(a, b) -> bool:
    return (a.n == b.n and a.maps == b.maps and a.objects.keys() == b.objects.keys()
            and all(_same_filtered(a.objects[s], b.objects[s]) for s in a.objects))


# The complex that the shipped function document lives on.
EULER_COMPLEX = euler.complex_from_doc(_load(TEST_DATA / "euler" / "complex.json"))

# (reader, writer, equality) by kind of document; None for a kind whose
# reader has no writer.
KINDS = {
    "fan": (parse_fan, fan_to_doc, eq),
    "complex": (complex_from_doc, complex_to_doc, eq),
    "filtered": (filtered_from_doc, filtered_to_doc, _same_filtered),
    "hyperres": (hyperres_from_doc, hyperres_to_doc, eq),
    "diagram": (diagram_from_doc, diagram_to_doc, _same_diagram),
    "function": (lambda doc: euler.function_from_doc(doc, EULER_COMPLEX),
                 euler.function_to_doc, eq),
    "euler complex, chain or map": None,
}


def _kinds(path: Path) -> list[str]:
    """The kinds of document that the shipped file at path is read as."""
    if path.parent == PACKAGE_DATA / "fans":
        return ["fan"]
    if path.parent == PACKAGE_DATA:
        return ["hyperres"] if path.name.startswith("hyperres_") else ["diagram"]
    if path.parent == TEST_DATA / "emit":
        return ["complex", "filtered"]
    if path.parent == TEST_DATA / "euler":
        return ["function"] if path.name == "function.json" else ["euler complex, chain or map"]
    raise AssertionError(f"{path} is a shipped document of no known kind")


SHIPPED = sorted([*PACKAGE_DATA.rglob("*.json"), *TEST_DATA.rglob("*.json")])


@pytest.mark.parametrize("path, kind", [
    pytest.param(path, kind, id=f"{path.parent.name}/{path.name}-{kind}")
    for path in SHIPPED for kind in _kinds(path) if KINDS[kind] is not None])
def test_a_written_document_reads_back_as_the_object_read(path, kind):
    read, write, same = KINDS[kind]
    obj = read(_load(path))
    assert same(read(json.loads(json.dumps(write(obj)))), obj)


def test_every_kind_of_document_is_shipped():
    assert {kind for path in SHIPPED for kind in _kinds(path)} == set(KINDS)
