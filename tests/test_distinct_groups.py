"""Groups that hold the same coordinates are scored once.

A full breakpoint grid (``sweep_tau``, ``fit_auxscr``) leaves many cells
empty on skewed side sequences, so many of the groups a search asks
``_Cut.terms`` for hold the same coordinates: those of the sorted batch from
count[lo] to count[hi + 1] - 1. These tests count the group rows that reach
the term functions, and check that every group's term, shared or not, is bit
for bit the term of that group scored alone.

``fit_auxscr`` itself scores only the few splits its bound cannot rule out,
which rarely share a group, so its cases score every split of its cut: the
head and tail terms of the full screening search.
"""

from __future__ import annotations

import numpy as np
import pytest

from auxshrink import ScenarioSpec, generate, sweep_tau
from auxshrink import tuner
from auxshrink.tuner import _screen_cut
from test_loss_bound import unbounded

SPECS = {
    "one-sample-s1": ScenarioSpec("one-sample-s1", n=1000, m=200, aux_variant=2, seed=12),
    "two-sample-s2": ScenarioSpec("two-sample-s2", n=1000, seed=12),
}


def screening_splits(batch):
    """The head and tail terms of every split of fit_auxscr's cut."""
    cut = unbounded(_screen_cut(batch))
    return cut.head, cut.tail


FITS = {"sweep_tau": sweep_tau, "fit_auxscr": screening_splits}


@pytest.fixture
def calls(monkeypatch):
    """Every outer ``_Cut.terms`` call: its cut, term, groups and result, and
    the coordinates of each group row that reached the term function."""
    terms = tuner._Cut.terms
    record, active = [], []

    def spy(cut, term, lo, hi, within=None):
        if active:  # terms calling itself on the distinct groups
            return terms(cut, term, lo, hi, within)
        call = dict(cut=cut, term=term, lo=lo, hi=hi, within=within, rows=[])

        def counted(ctx, mask):
            call["rows"] += [frozenset(ctx.side[row].tolist()) for row in mask]
            return term(ctx, mask)

        active.append(call)
        try:
            call["result"] = terms(cut, counted, lo, hi, within)
        finally:
            active.pop()
        record.append(call)
        return call["result"]

    monkeypatch.setattr(tuner._Cut, "terms", spy)
    return record


@pytest.mark.parametrize("fit", FITS)
@pytest.mark.parametrize("family", SPECS)
def test_each_distinct_group_is_scored_once(calls, family, fit):
    FITS[fit](generate(SPECS[family]))
    assert calls
    asked = scored = 0
    for call in calls:
        count = call["cut"].count
        pairs = set(zip(count[call["lo"]].tolist(), count[call["hi"] + 1].tolist()))
        held = [row for row in call["rows"] if row]
        assert len(call["rows"]) == len(pairs)
        assert len(set(held)) == len(held)
        asked += call["lo"].size
        scored += len(call["rows"])
    # the grid has empty cells, so some groups share their coordinates
    assert scored < asked


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
