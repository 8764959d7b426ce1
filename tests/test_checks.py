import hashlib
import json
import weakref
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import weightlab.fan
import weightlab.fixtures
from weightlab import checks
from weightlab.euler import CellComplex, circle_complex
from weightlab.fan import fan_to_doc, product_fan, standard_fan
from weightlab.fixtures import fan_corpus, smooth_complete_corpus
from weightlab.pages import SpectralSequence
from weightlab.toric import toric_cell_complex


def _key(doc) -> str:
    return json.dumps(doc, sort_keys=True)


class Counters:
    """Counts, by document, the fans parsed and the toric complexes the
    checks build, and holds weak references to every complex and corpus."""

    def __init__(self, monkeypatch):
        self.parsed: Counter = Counter()
        self.built: Counter = Counter()
        self.refs: list[weakref.ref] = []
        parse, build = weightlab.fan.parse_fan, checks.toric_cell_complex
        init = checks.ToricCorpus.__init__

        def counting_parse(doc):
            self.parsed[_key(doc)] += 1
            return parse(doc)

        def counting_build(fan):
            self.built[_key(fan_to_doc(fan))] += 1
            tcc = build(fan)
            self.refs.append(weakref.ref(tcc))
            return tcc

        def recording_init(corpus):
            init(corpus)
            self.refs.append(weakref.ref(corpus))

        monkeypatch.setattr(weightlab.fan, "parse_fan", counting_parse)
        monkeypatch.setattr(weightlab.fixtures, "parse_fan", counting_parse)
        monkeypatch.setattr(checks, "toric_cell_complex", counting_build)
        monkeypatch.setattr(checks.ToricCorpus, "__init__", recording_init)

    def run(self, suite: str) -> tuple[Counter, Counter]:
        self.parsed.clear()
        self.built.clear()
        results = checks.run_suite(suite)
        assert results and all(r.ok for r in results), suite
        return Counter(self.parsed), Counter(self.built)


def test_run_suite_builds_each_corpus_fan_once(monkeypatch):
    counters = Counters(monkeypatch)
    corpus = smooth_complete_corpus(fan_corpus())
    corpus_docs = Counter(counters.parsed)
    assert set(corpus_docs.values()) == {1}  # the fixtures parse each document once
    fans = {**fan_corpus(), **corpus}
    # The cubical suite builds its own P:1 and trivial:1, once each and
    # without reading the fixture corpus; everything else comes from the
    # one corpus the toric and fcomplex suites share.
    parsed_all, built_all = counters.run("all")
    parsed_cubical, built_cubical = counters.run("cubical")
    line = [_key(fan_to_doc(standard_fan(name, 1))) for name in ("P", "trivial")]
    assert built_cubical == Counter(line)
    assert sorted(parsed_cubical.values()) == [1, 1]
    assert parsed_all - parsed_cubical == corpus_docs
    assert built_all - built_cubical == Counter(_key(fan_to_doc(f)) for f in fans.values())
    assert len(built_all - built_cubical) == 19
    assert counters.refs and all(ref() is None for ref in counters.refs)


def _name(check) -> str:
    return getattr(check, "on_fan", check).__name__


@pytest.mark.parametrize("check", [
    pytest.param(check, id=f"{suite}-{_name(check)}")
    for suite, suite_checks in checks.SUITES.items() for check in suite_checks])
def test_checks_run_on_their_own(check):
    result = check(checks.ToricCorpus())
    assert result.ok, result.detail


PROPERTIES = [check for suite in ("toric", "fcomplex") for check in checks.SUITES[suite]]


@pytest.fixture(scope="module")
def corpus():
    return checks.ToricCorpus()


def _property_fans():
    listing = checks.ToricCorpus()  # parses the fans and builds nothing
    return [pytest.param(prop, name, id=f"{_name(prop)}-{name}")
            for prop in PROPERTIES for name in prop.fans.names(listing)]


@pytest.mark.parametrize("prop, name", _property_fans())
def test_property_holds_on_the_corpus_fan(corpus, prop, name):
    assert prop.faults(corpus, name) == []


# Factors of the drawn products: the corpus fans of rank at most 2 and the
# smallest fans of the standard families, with those that are smooth and
# complete, whose products are smooth and complete too.
_FACTORS = {
    **{name: fan for name, fan in fan_corpus().items() if fan.n <= 2},
    **{f"{family}:{n}": standard_fan(family, n)
       for family in ("P", "A", "trivial") for n in range(3)},
}
_SMOOTH_COMPLETE = {*smooth_complete_corpus(), "P:1", "P:2",
                    *(name for name, fan in _FACTORS.items() if fan.n == 0)}

# Every property backed by a theorem.  That the second page is the limit
# in rank <= 3 is only observed on the corpus.
_THEOREMS = [prop for prop in PROPERTIES if prop is not checks.check_collapse_low_dim]


@settings(max_examples=100, deadline=None)
@given(st.lists(st.sampled_from(sorted(_FACTORS)), min_size=2, max_size=3)
       .filter(lambda names: sum(_FACTORS[f].n for f in names) <= 4))
def test_theorems_hold_on_products(names):
    fan = _FACTORS[names[0]]
    for factor in names[1:]:
        fan = product_fan(fan, _FACTORS[factor])
    smooth_complete = set(names) <= _SMOOTH_COMPLETE
    tcc = toric_cell_complex(fan)
    ss = SpectralSequence(tcc.filtered)
    name = " x ".join(names)
    for prop in _THEOREMS:
        if prop.fans.smooth_complete and not smooth_complete:
            continue
        if prop.fans.max_rank is not None and fan.n > prop.fans.max_rank:
            continue
        assert prop.on_fan(name, fan, tcc, ss) == [], prop.title


def test_corpus_names_denote_one_fan():
    fans = fan_corpus()
    for name, fan in smooth_complete_corpus().items():
        if name in fans:
            assert fan_to_doc(fan) == fan_to_doc(fans[name]), name
    shared = smooth_complete_corpus(fans)
    assert all(shared[name] is fans[name] for name in shared if name in fans)


# SHA-256 of everything the seeded euler checks draw, computed before
# complexes were numbered as they are built.
EULER_DRAWS = "1b5f2e5b505db8c8d7218232f1022871092cdb1fd8e15f0b69ee0ee32d19cd45"


def test_euler_suite_draws_the_same_data(monkeypatch):
    """The cells in order, the dims and the face sets of every random
    complex (seeds 20240817, 9 and 12) and the weights of every random
    function: a change that renumbers cells changes what the checks test."""
    digest = hashlib.sha256()
    drawn = Counter()
    make_complex, make_function = checks.random_simplicial_complex, checks.random_function

    def recording_complex(rng):
        cx = make_complex(rng)
        drawn["complexes"] += 1
        digest.update(repr([(c, cx.dims[c], sorted(map(repr, cx.faces[c])))
                            for c in cx.dims]).encode())
        return cx

    def recording_function(rng, cx):
        phi = make_function(rng, cx)
        drawn["functions"] += 1
        digest.update(repr(list(phi.weights.items())).encode())
        return phi

    monkeypatch.setattr(checks, "random_simplicial_complex", recording_complex)
    monkeypatch.setattr(checks, "random_function", recording_function)
    assert all(result.ok for result in checks.run_suite("euler"))
    assert drawn == {"complexes": 1400, "functions": 1300}
    assert digest.hexdigest() == EULER_DRAWS


def _numbered_form(cx: CellComplex) -> tuple:
    return cx._cells, cx._dims, list(cx._ids.items()), cx._face_ids


def test_euler_draws_are_numbered_as_simplicial_numbers_them(monkeypatch):
    """Every draw of seeds 20240817, 9 and 12, built from the face table,
    has the cells, dims, ids and face ids of ``CellComplex.simplicial``,
    in order."""
    build, compared = checks.table_complex, []

    def comparing(simplices):
        simplices = list(simplices)
        cx = build(simplices)
        assert _numbered_form(cx) == _numbered_form(CellComplex.simplicial(simplices))
        compared.append(len(simplices))
        return cx

    monkeypatch.setattr(checks, "table_complex", comparing)
    assert all(result.ok for result in checks.run_suite("euler"))
    assert len(compared) == 1400


@settings(max_examples=200, deadline=None)
@given(st.lists(st.lists(st.integers(0, checks.MAX_VERTICES - 1), min_size=1,
                         max_size=checks.MAX_VERTICES).map(lambda vs: tuple(sorted(set(vs)))),
                max_size=12))
def test_table_complex_is_numbered_as_simplicial_numbers_it(simplices):
    # Any order, with repeats: a repeated simplex adds nothing, as it
    # would at its first place in the list.
    want = CellComplex.simplicial(list(dict.fromkeys(simplices)))
    assert _numbered_form(checks.table_complex(simplices)) == _numbered_form(want)


def test_euler_suite_builds_only_its_circles_from_simplices(monkeypatch):
    build, given_simplices = CellComplex.from_simplices, []

    def counting(cls, simplices):
        simplices = list(simplices)
        given_simplices.append(simplices)
        return build(simplices)

    circle = [((0,), 0), ((1,), 0), ((0, 1), 0), ((0, 1), 1)]
    assert _numbered_form(build(circle)) == _numbered_form(circle_complex())
    monkeypatch.setattr(CellComplex, "from_simplices", classmethod(counting))
    assert all(result.ok for result in checks.run_suite("euler"))
    assert given_simplices and all(s == circle for s in given_simplices)
