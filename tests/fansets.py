"""Named fan sets that several test modules run over."""

from __future__ import annotations

import functools

from weightlab.fixtures import fan_corpus, product_pairs
from weightlab.toric import Fan, product_fan, standard_fan


@functools.cache
def layout_fans() -> dict[str, Fan]:
    """The corpus, the ladder P:1–P:7, A:1–A:6, hirzebruch:0–4 and
    trivial:0–5, named as ``--standard`` takes them, and the products of
    ``product_pairs``, named by their labels."""
    fans = {**fan_corpus(), **{label: product_fan(f1, f2) for label, f1, f2 in product_pairs()}}
    for family, sizes in (("P", range(1, 8)), ("A", range(1, 7)),
                          ("hirzebruch", range(5)), ("trivial", range(6))):
        fans.update({f"{family}:{k}": standard_fan(family, k) for k in sizes})
    return fans
