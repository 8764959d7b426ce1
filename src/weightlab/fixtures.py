"""Shipped fixture library: fans, diagrams, and hyperresolutions.

The cell-level data lives in JSON files under ``weightlab/data`` (each
file carries a description of its cell structure); this module loads
them and attaches the filtrations the generic machinery expects.
"""

from __future__ import annotations

import json
from importlib import resources
from typing import Mapping

from .complexes import canonical_filtration
from .cubical import CubicalDiagram, Hyperresolution, diagram_from_doc, hyperres_from_doc
from .toric import Fan, parse_fan, product_fan, standard_fan


def _load(name: str) -> dict:
    path = resources.files("weightlab").joinpath("data", name)
    return json.loads(path.read_text())


def klein_square() -> CubicalDiagram:
    """Blowup square: Klein bottle over the projective plane with a
    circle over a point, all with canonical filtrations."""
    d = diagram_from_doc(_load("klein_square.json"))
    objects = {s: canonical_filtration(fc.complex) for s, fc in d.objects.items()}
    return CubicalDiagram(d.n, objects, d.maps)


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
    fans["P1xP1"] = product_fan(fans["P1"], fans["P1"])
    return fans


def smooth_complete_corpus(corpus: Mapping[str, Fan] | None = None) -> dict[str, Fan]:
    """Fans of smooth complete varieties, for the purity suite.

    Those it shares with :func:`fan_corpus` are taken, by name, from
    ``corpus`` when one is given, so that they are parsed once."""
    base = fan_corpus() if corpus is None else corpus
    fans = {name: base[name] for name in ("P1", "P2", "P3")}
    fans["P4"] = standard_fan("P", 4)
    fans["P1xP1"] = base["P1xP1"]
    fans["P1xP2"] = product_fan(base["P1"], base["P2"])
    fans["blowup_p2"] = base["blowup_p2"]
    for a in range(4):
        fans[f"hirzebruch{a}"] = base[f"hirzebruch{a}"]
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
