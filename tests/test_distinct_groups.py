"""Every search runs on a grid whose cells each hold a coordinate.

``tuner._split_points`` keeps the grid points below max S whose lower cell
holds a side value, and every search's grid comes from it or from
``xi_split_candidates``. So no group a search asks ``_Cut.terms`` for is
empty, and no two hold the same coordinates (those of the sorted batch from
count[lo] to count[hi + 1] - 1): each group is scored once, and the sweep
sums one ``core._sure_rows`` row per split point. Only the screening cut
(``fit_auxscr``) adds 0 (screen nothing) and max |S| (screen everything),
so its cell 0 and its top cell may be empty. These tests check every cut
the fits build, and that every group's term is bit for bit the term of that
group scored alone.

``fit_auxscr`` itself scores only the few splits its bound cannot rule out,
so the term cases score every split of its cut: the head and tail terms of
the full screening search.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from auxshrink import (
    ScenarioSpec,
    SearchConfig,
    fit_asus,
    fit_auxscr,
    fit_oracle_loss,
    fit_oracle_side,
    generate,
    select_k,
    sweep_tau,
)
from auxshrink import tuner
from auxshrink.tuner import _screen_cut, _screen_group
from test_loss_bound import unbounded
from test_search_equivalence import make_batch

pytestmark = pytest.mark.bit_identity

SPECS = {
    "one-sample-s1": ScenarioSpec("one-sample-s1", n=1000, m=200, aux_variant=2, seed=12),
    "two-sample-s2": ScenarioSpec("two-sample-s2", n=1000, seed=12),
}


def screening_splits(batch):
    """The head and tail terms of every split of fit_auxscr's cut."""
    cut = unbounded(_screen_cut(batch))
    return cut.head, cut.tail


FITS = {"sweep_tau": sweep_tau, "fit_auxscr": screening_splits}

# every search of the package, on a batch at a grid density
SEARCHES = {
    "fit_asus_k2": lambda b, mn: fit_asus(b, SearchConfig(k=2, mn_factor=mn)),
    "fit_asus_k3": lambda b, mn: fit_asus(b, SearchConfig(k=3, mn_factor=mn)),
    "select_k3": lambda b, mn: select_k(b, 3, mn_factor=mn),
    "fit_oracle_loss": lambda b, mn: fit_oracle_loss(b, SearchConfig(mn_factor=mn)),
    "fit_oracle_side": lambda b, mn: fit_oracle_side(b),
    "sweep_tau": lambda b, mn: sweep_tau(b, SearchConfig(mn_factor=mn)),
    "fit_auxscr": lambda b, mn: fit_auxscr(b, mn),
}


def searched_batch(name: str) -> tuple:
    """(batch, mn_factor): a family of SPECS at the default density, or the
    clustered batch of the search-equivalence tests, whose side values sit
    in three tight clusters, with its latent sequence set to S."""
    if name in SPECS:
        return generate(SPECS[name]), 50.0
    batch, mn_factor = make_batch(name)
    return dataclasses.replace(batch, xi=batch.s), mn_factor


@pytest.fixture
def calls(monkeypatch):
    """Every ``_Cut.terms`` call: its cut, term, groups and result."""
    terms = tuner._Cut.terms
    record = []

    def spy(cut, term, lo, hi, within=None):
        result = terms(cut, term, lo, hi, within)
        record.append(dict(cut=cut, term=term, lo=lo, hi=hi, within=within, result=result))
        return result

    monkeypatch.setattr(tuner._Cut, "terms", spy)
    return record


@pytest.fixture
def cuts(monkeypatch):
    """Every ``_Cut`` built while the test runs."""
    init = tuner._Cut.__init__
    made = []

    def spy(cut, *args, **kwargs):
        init(cut, *args, **kwargs)
        made.append(cut)

    monkeypatch.setattr(tuner._Cut, "__init__", spy)
    return made


@pytest.mark.parametrize("fit", SEARCHES)
@pytest.mark.parametrize("family", [*SPECS, "clustered"])
def test_search_cells_hold_a_coordinate(cuts, family, fit):
    batch, mn_factor = searched_batch(family)
    SEARCHES[fit](batch, mn_factor)
    assert cuts
    for cut in cuts:
        held = np.diff(cut.count) > 0
        if cut.first is _screen_group:
            # screen nothing and screen everything stay in the grid
            assert cut.grid[0] == 0.0 and cut.grid[-1] == np.abs(batch.s).max()
            held = held[1:-1]
        assert held.all()


@pytest.mark.parametrize("fit", FITS)
@pytest.mark.parametrize("family", SPECS)
def test_shared_terms_equal_each_group_scored_alone(calls, monkeypatch, family, fit):
    FITS[fit](generate(SPECS[family]))
    monkeypatch.undo()
    for call in calls:
        cut, lo, hi = call["cut"], call["lo"], call["hi"]
        alone = [cut.terms(call["term"], lo[i:i + 1], hi[i:i + 1], call["within"])
                 for i in range(lo.size)]
        t, v = call["result"]
        assert np.array_equal(t, [a[0][0] for a in alone])
        assert np.array_equal(v, [a[1][0] for a in alone])


@pytest.mark.parametrize("family", SPECS)
def test_sweep_sums_one_row_per_distinct_first_group(monkeypatch, family):
    batch = generate(SPECS[family])
    rows = []

    def counted(b, t_rows):
        rows.append(t_rows.shape[0])
        return sure_rows(b, t_rows)

    sure_rows = tuner._sure_rows
    monkeypatch.setattr(tuner, "_sure_rows", counted)
    curve = sweep_tau(batch)
    first_groups = {int(np.count_nonzero(batch.s <= tau)) for tau in curve.tau_values}
    assert sum(rows) == len(first_groups) < curve.tau_values.size
