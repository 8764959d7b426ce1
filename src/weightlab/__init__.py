"""Weight spectral sequences of real toric varieties over GF(2).

Exact computation of spectral-sequence pages, weight filtrations, and
virtual Poincaré polynomials from fan data; a general engine for
filtered mod-2 chain complexes and cubical diagrams; and an Euler
calculus of constructible functions on cell complexes.
"""

from .complexes import (
    ChainComplex,
    ComplexError,
    FilteredComplex,
    canonical_filtration,
    deligne_shift,
    trivial_filtration,
)
from .gf2 import BitMatrix, BitSubspace
from .lattice import saturate_mod2, smith_normal_form
from .pages import (
    SpectralSequence,
    purity_collapse_report,
    reindexed_page,
    virtual_poincare,
    weight_profile,
)
from .poly import Poly
from .fan import Fan, FanError, parse_fan, product_fan, standard_fan
from .toric import orbit_group, toric_cell_complex

__version__ = "0.1.0"

__all__ = [
    "BitMatrix",
    "BitSubspace",
    "ChainComplex",
    "ComplexError",
    "Fan",
    "FanError",
    "FilteredComplex",
    "Poly",
    "SpectralSequence",
    "canonical_filtration",
    "deligne_shift",
    "orbit_group",
    "parse_fan",
    "product_fan",
    "purity_collapse_report",
    "reindexed_page",
    "saturate_mod2",
    "smith_normal_form",
    "standard_fan",
    "toric_cell_complex",
    "trivial_filtration",
    "virtual_poincare",
    "weight_profile",
]
