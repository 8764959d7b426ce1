"""Shipped fixture library: fans, diagrams, and hyperresolutions.

The cell-level data lives in JSON files under ``weightlab/data`` (each
file carries a description of its cell structure); this module loads
them and attaches the filtrations the generic machinery expects.
"""

from __future__ import annotations

import json
from importlib import resources

from .complexes import canonical_filtration, complex_from_doc
from .cubical import CubicalDiagram, Hyperresolution, hyperres_from_doc
from .toric import Fan, parse_fan, product_fan, standard_fan


def _load(name: str) -> dict:
    path = resources.files("weightlab").joinpath("data", name)
    return json.loads(path.read_text())


def klein_square() -> CubicalDiagram:
    """Blowup square: Klein bottle over the projective plane with a
    circle over a point, all with canonical filtrations."""
    doc = _load("klein_square.json")
    objects = {
        int(mask): canonical_filtration(complex_from_doc(od))
        for mask, od in doc["objects"].items()
    }
    maps = {}
    from .cubical import _maps_from_doc
    for entry in doc["maps"]:
        s, t = int(entry["from_mask"]), int(entry["to_mask"])
        maps[(s, t)] = _maps_from_doc(
            entry["matrices"], objects[s].complex, objects[t].complex)
    return CubicalDiagram(int(doc["n"]), objects, maps)


def hyperres(name: str) -> Hyperresolution:
    """Named hyperresolution fixtures: single, wedge1, wedge2."""
    return hyperres_from_doc(_load(f"hyperres_{name}.json"))


def all_hyperres() -> dict[str, Hyperresolution]:
    return {name: hyperres(name) for name in ("single", "wedge1", "wedge2")}


def corpus_fan(name: str) -> Fan:
    return parse_fan(_load(f"fans/{name}.json"))


def fan_corpus() -> dict[str, Fan]:
    """The full fan corpus the property suites run over."""
    fans: dict[str, Fan] = {
        "trivial1": standard_fan("trivial", 1),
        "trivial2": standard_fan("trivial", 2),
        "trivial3": standard_fan("trivial", 3),
        "A1": standard_fan("A", 1),
        "A2": standard_fan("A", 2),
        "P1": standard_fan("P", 1),
        "P2": standard_fan("P", 2),
        "P3": standard_fan("P", 3),
    }
    for a in range(4):
        fans[f"hirzebruch{a}"] = standard_fan("hirzebruch", a)
    for name in ("blowup_p2", "weighted_p112", "quadric_cone", "cone_over_square"):
        fans[name] = corpus_fan(name)
    fans["P1xP1"] = product_fan(standard_fan("P", 1), standard_fan("P", 1))
    return fans


def smooth_complete_corpus() -> dict[str, Fan]:
    """Fans of smooth complete varieties, for the purity suite."""
    fans = {
        "P1": standard_fan("P", 1),
        "P2": standard_fan("P", 2),
        "P3": standard_fan("P", 3),
        "P4": standard_fan("P", 4),
        "P1xP1": product_fan(standard_fan("P", 1), standard_fan("P", 1)),
        "P1xP2": product_fan(standard_fan("P", 1), standard_fan("P", 2)),
        "blowup_p2": corpus_fan("blowup_p2"),
    }
    for a in range(4):
        fans[f"hirzebruch{a}"] = standard_fan("hirzebruch", a)
    return fans


def product_pairs() -> list[tuple[str, Fan, Fan]]:
    """Small fan pairs for the multiplicativity property."""
    p1 = standard_fan("P", 1)
    out = [
        ("P1 x P1", p1, p1),
        ("P1 x P2", p1, standard_fan("P", 2)),
        ("P1 x trivial1", p1, standard_fan("trivial", 1)),
        ("trivial1 x trivial2", standard_fan("trivial", 1), standard_fan("trivial", 2)),
        ("A1 x P1", standard_fan("A", 1), p1),
        ("hirzebruch1 x trivial1", standard_fan("hirzebruch", 1), standard_fan("trivial", 1)),
        ("quadric x P1", corpus_fan("quadric_cone"), p1),
        ("anything x point", p1, standard_fan("trivial", 0)),
    ]
    return out
