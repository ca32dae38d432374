import csv
import io
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from trajpriv.colocation import (CoEvent, PairEvents, _EventTable,
                                 _pair_metrics, coevent_score, pair_events)
from trajpriv.core import Cell, segment_entropy, segment_sums, weekday
from trajpriv.features import (FEATURE_NAMES, PairFeatures, Standardizer,
                               compute_features, features_to_csv, project,
                               resolve_subset)

SAT = 1569024000   # 2019-09-21 00:00 UTC, a Saturday
MON = 1568592000   # 2019-09-16 00:00 UTC, a Monday


def event(t0, overlap_h, cell):
    return CoEvent("a", "b", cell, t0, t0 + int(overlap_h * 3600), 1.0)


class TestComputeFeatures:
    def test_zero_events(self):
        f = compute_features([], {}, pair=("a", "b"))
        assert project(f, "all").tolist() == [0, 0, 0, 0, 0, 0]

    def test_single_cell_zero_diversity(self):
        evs = [event(MON + i * 7200, 0.5, Cell(1, 1)) for i in range(3)]
        f = compute_features(evs, {Cell(1, 1): 0.0})
        assert repr(f.f_div) == "0.0"       # not -0.0

    def test_hand_computed_example(self):
        # gaps 1 h and 3 h, overlaps 0.5 h, cells {2, 1}: Friday 20:00 and
        # 21:00, then Saturday 00:00, the one weekend event
        c1, c2 = Cell(0, 0), Cell(1, 0)
        evs = [event(SAT - 4 * 3600, 0.5, c1),
               event(SAT - 3 * 3600, 0.5, c1),
               event(SAT, 0.5, c2)]
        ent = {c1: 0.0, c2: 0.0}
        f = compute_features(evs, ent)
        assert f.f_fre == 3
        assert f.f_int == pytest.approx(1.0 / 3.0)
        assert f.f_stay == pytest.approx(1.5)
        assert f.f_hol == pytest.approx(1.0 / 3.0)
        expected_div = -(2 / 3 * math.log(2 / 3) + 1 / 3 * math.log(1 / 3))
        assert f.f_div == pytest.approx(expected_div)

    def test_popularity_uses_cell_entropy(self):
        c = Cell(2, 2)
        evs = [event(MON, 1.0, c)] * 2
        f = compute_features(evs, {c: math.log(4)})
        assert f.f_pop == pytest.approx(2 * math.exp(-math.log(4)))

    def test_popularity_adds_left_to_right(self):
        # terms 1.0, e^-37, e^-37: each e^-37 is below half an ulp of 1.0,
        # so a plain left-to-right sum stays 1.0, where a compensated sum
        # (Python 3.12's builtin sum, math.fsum) rounds up to 1 + 2^-52
        c1, c2 = Cell(0, 0), Cell(1, 0)
        evs = [event(MON, 0.5, c1), event(MON + 3600, 0.5, c2),
               event(MON + 7200, 0.5, c2)]
        terms = [1.0, math.exp(-37.0), math.exp(-37.0)]
        assert math.fsum(terms) == 1.0 + 2.0 ** -52
        f = compute_features(evs, {c1: 0.0, c2: 37.0})
        assert f.f_pop == (0.0 + terms[0] + terms[1]) + terms[2] == 1.0

    def test_single_event_interval_one(self):
        f = compute_features([event(MON, 1.0, Cell(0, 0))], {Cell(0, 0): 0.0})
        assert f.f_int == 1.0

    def test_doubling_events(self):
        c1, c2 = Cell(0, 0), Cell(1, 1)
        evs = [event(MON, 0.5, c1), event(MON + 7200, 1.0, c2)]
        ent = {c1: 0.3, c2: 0.8}
        f1 = compute_features(evs, ent)
        f2 = compute_features(evs + evs, ent)
        assert f2.f_fre == 2 * f1.f_fre
        assert f2.f_stay == pytest.approx(2 * f1.f_stay)
        assert f2.f_div == pytest.approx(f1.f_div)
        assert f2.f_hol == pytest.approx(f1.f_hol)

    def test_bounds(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            cells = [Cell(int(rng.integers(4)), int(rng.integers(4)))
                     for _ in range(int(rng.integers(1, 10)))]
            evs = [event(MON + int(rng.integers(0, 10**6)),
                         float(rng.uniform(0, 3)), c) for c in cells]
            ent = {c: float(rng.uniform(0, 3)) for c in cells}
            f = compute_features(evs, ent)
            assert f.f_fre >= 0 and f.f_div >= 0 and f.f_stay >= 0
            assert 0 < f.f_int <= 1
            assert 0 <= f.f_hol <= 1
            assert np.all(np.isfinite(project(f, "all")))
            n_distinct = len(set((c.x, c.y) for c in cells))
            assert f.f_div <= math.log(n_distinct) + 1e-12


class TestPairCheck:
    def test_events_of_several_pairs_are_rejected(self):
        evs = [CoEvent("a", "b", Cell(0, 0), MON, MON + 60, 1.0),
               CoEvent("c", "d", Cell(0, 0), MON, MON + 60, 1.0)]
        with pytest.raises(ValueError,
                           match=r"\('a', 'b'\) and \('c', 'd'\)"):
            compute_features(evs, {}, pair=("x", "y"))

    def test_events_of_another_pair_are_rejected(self):
        with pytest.raises(ValueError, match=r"events of pair \('a', 'b'\) "
                                             r"given for pair \('x', 'y'\)"):
            compute_features([event(MON, 1.0, Cell(0, 0))], {},
                             pair=("x", "y"))

    def test_events_of_the_named_pair_are_taken(self):
        f = compute_features([event(MON, 1.0, Cell(0, 0))], {},
                             pair=("a", "b"))
        assert (f.user_a, f.user_b, f.f_fre) == ("a", "b", 1.0)


class TestProjection:
    def setup_method(self):
        self.f = compute_features(
            [event(MON, 0.5, Cell(0, 0))], {Cell(0, 0): 0.0},
            pair=("a", "b"))

    def test_single(self):
        assert project(self.f, "f_fre").tolist() == [1.0]

    def test_spatial(self):
        v = project(self.f, "spatial")
        assert v.tolist() == [self.f.f_fre, self.f.f_pop, self.f.f_div]

    def test_all(self):
        assert project(self.f, "all").tolist() == [
            self.f.f_fre, self.f.f_pop, self.f.f_div,
            self.f.f_int, self.f.f_stay, self.f.f_hol]

    def test_canonical_order_from_set(self):
        assert resolve_subset({"f_stay", "f_fre"}) == ("f_fre", "f_stay")

    def test_empty_subset_rejected(self):
        with pytest.raises(ValueError):
            resolve_subset(set())


def test_shannon_entropy():
    # one segment each: [5], [1, 1] and an empty one
    h = segment_entropy([5, 1, 1], [0, 1, 3, 3]).tolist()
    assert h == [0.0, pytest.approx(math.log(2)), 0.0]
    assert repr(h[0]) == repr(h[2]) == "0.0"        # not -0.0


def reference_entropy(counts):
    """One segment's entropy as numpy gives it for the segment's own
    array, with 0.0 (not -0.0) for a single count."""
    p = np.divide(counts, sum(counts))
    q = np.log(p)
    q *= p
    return 0.0 - float(q.sum())


@settings(max_examples=60, deadline=None)
@given(sizes=st.lists(st.one_of(st.integers(0, 9), st.integers(120, 300)),
                      max_size=8),
       seed=st.integers(0, 2**32 - 1))
def test_segment_kernels_equal_each_segment_on_its_own(sizes, seed):
    """Both sides of numpy's pairwise branch (8 terms, 128 terms) and empty
    segments, to the last bit."""
    rng = np.random.default_rng(seed)
    bounds = np.concatenate(([0], np.cumsum(sizes, dtype=np.int64)))
    counts = rng.integers(1, 50, size=int(bounds[-1]))
    values = rng.normal(size=len(counts)) * 10.0 ** rng.integers(-3, 4)
    lo, hi = bounds[:-1], bounds[1:]
    want = [sum(values[i:j].tolist()) for i, j in zip(lo, hi)]
    assert list(map(repr, segment_sums(values, lo, hi).tolist())) == list(
        map(repr, map(float, want)))
    want = [reference_entropy(counts[i:j]) for i, j in zip(lo, hi)]
    assert list(map(repr, segment_entropy(counts, bounds).tolist())) == list(
        map(repr, want))


# --- the batched metric pass against the per-pair arithmetic ---------------

def reference_features(rows, cell_entropy, pair, label):
    """The six metrics of one pair's CoEvent rows, computed pair by pair:
    Python's `sum` (left to right on 3.11), `sorted` and a count dict, and
    numpy's log and sum for the cell diversity."""
    n = len(rows)
    if not n:
        return PairFeatures(*pair, 0, 0, 0, 0, 0, 0, label)
    starts = [e.overlap_start for e in rows]
    f_pop = sum([math.exp(-cell_entropy.get(e.cell, 0.0)) for e in rows])
    cell_counts = {}
    for e in rows:
        cell_counts[e.cell] = cell_counts.get(e.cell, 0) + 1
    f_div = reference_entropy(list(cell_counts.values()))
    if n < 2:
        f_int = 1.0
    else:
        s = sorted(starts)
        gaps_h = [(b - a) / 3600.0 for a, b in zip(s, s[1:])]
        f_int = 1.0 / (1.0 + sum(gaps_h) / len(gaps_h))
    f_stay = (sum(e.overlap_end for e in rows) - sum(starts)) / 3600.0
    f_hol = sum([weekday(t) >= 5 for t in starts]) / n
    return PairFeatures(*pair, float(n), f_pop, f_div, f_int, f_stay, f_hol,
                        label)


def as_reprs(f):
    return [f.user_a, f.user_b, f.label,
            *(repr(getattr(f, name)) for name in FEATURE_NAMES)]


# event starts at and a second around the weekend's edges, or anywhere in
# two weeks
WEEKEND_EDGES = (SAT, SAT + 2 * 86400, SAT + 7 * 86400)
starts = st.one_of(
    st.builds(int.__add__, st.sampled_from(WEEKEND_EDGES),
              st.integers(-1, 1)),
    st.integers(MON, MON + 14 * 86400))


@st.composite
def pair_rows(draw, user_a, user_b):
    """CoEvent rows of one pair, in no particular order: none, one, or up
    to 40 over a pool of up to 12 cells (one of them off the grid)."""
    n_cells = draw(st.integers(1, 12))
    n = draw(st.one_of(st.just(0), st.just(1), st.integers(2, 40)))
    rows = []
    for _ in range(n):
        c = draw(st.integers(0, n_cells - 1))
        t = draw(starts)
        rows.append(CoEvent(user_a, user_b, None if c == 11 else Cell(c, 0),
                            t, t + draw(st.integers(0, 7200)),
                            draw(st.floats(1e-6, 1.0))))
    return rows


@st.composite
def event_tables(draw):
    """Rows of several pairs, and the views of one table holding them all,
    built as extract_coevents builds its table: pair segments in order."""
    pairs = [(f"u{i}", f"v{i}") for i in range(draw(st.integers(1, 6)))]
    rows = [draw(pair_rows(*p)) for p in pairs]
    flat = [e for r in rows for e in r]
    index = {}
    cell = [index.setdefault(e.cell, len(index)) for e in flat]
    ends = np.cumsum([len(r) for r in rows]).tolist()
    lows = [0] + ends[:-1]
    bounds = [0] + [hi for lo, hi in zip(lows, ends) if hi > lo]
    table = _EventTable(index, cell, [e.overlap_start for e in flat],
                        [e.overlap_end for e in flat],
                        [e.weight for e in flat], bounds)
    views, k = [], 0
    for p, lo, hi in zip(pairs, lows, ends):
        views.append(PairEvents(*p, table, lo, hi, k if hi > lo else None))
        k += hi > lo
    return pairs, rows, views


@settings(max_examples=150, deadline=None)
@given(tables=event_tables(),
       entropy=st.lists(st.floats(0.0, 3.0), min_size=11, max_size=11))
def test_metric_pass_equals_per_pair_arithmetic(tables, entropy):
    pairs, rows, views = tables
    ent = {Cell(c, 0): h for c, h in enumerate(entropy)}
    for pair, r, view in zip(pairs, rows, views):
        assert view == r
        want = reference_features(r, ent, pair, True)
        assert as_reprs(compute_features(view, ent, pair, True)) == as_reprs(
            want)
        assert as_reprs(compute_features(r, ent, pair, True)) == as_reprs(
            want)
        score = float(sum(e.weight for e in r))
        assert repr(coevent_score(view)) == repr(score)
        assert repr(coevent_score(r)) == repr(score)


@pytest.mark.parametrize("n_cells", [7, 8, 9, 11])
def test_metric_pass_of_a_pair_over_many_cells(n_cells):
    """Unequal cell counts around numpy's 8-term pairwise branch."""
    cells = np.random.default_rng(n_cells).permutation(
        [c for c in range(n_cells) for _ in range(c + 1)]).tolist()
    rows = [CoEvent("a", "b", Cell(c, 0), MON + 600 * k, MON + 600 * k + 60,
                    0.1 * (1 + k % 3)) for k, c in enumerate(cells)]
    ent = {Cell(c, 0): 0.1 * c for c in range(n_cells)}
    want = reference_features(rows, ent, ("a", "b"), None)
    assert as_reprs(compute_features(rows, ent)) == as_reprs(want)
    assert compute_features(rows, ent).f_div < math.log(n_cells)


# --- the metric pass on starts out of time order --------------------------

def descending_rows(pair, n, cell_of=lambda k: Cell(k % 3, 0)):
    """n CoEvent rows of a pair whose starts fall, one to three hours
    apart (a pair's f_int then needs its starts sorted), in the week's
    last days so that some are on the weekend."""
    t, rows = SAT + 36 * 3600, []
    for k in range(n):
        rows.append(CoEvent(*pair, cell_of(k), t, t + 600 * (k + 1),
                            0.1 + 0.05 * k))
        t -= 3600 * (1 + k % 3)
    return rows


def unsorted_f_int(rows):
    """f_int from the gaps of the starts in row order: what a pass that
    skipped the sort would give."""
    s = [e.overlap_start for e in rows]
    gaps_h = [(b - a) / 3600.0 for a, b in zip(s, s[1:])]
    return 1.0 / (1.0 + sum(gaps_h) / len(gaps_h))


@pytest.mark.parametrize("seed", range(4))
def test_metric_pass_sorts_shuffled_rows(seed):
    rows = descending_rows(("a", "b"), 9)
    np.random.default_rng(seed).shuffle(rows)
    ent = {Cell(c, 0): 0.3 * c for c in range(3)}
    want = reference_features(rows, ent, ("a", "b"), False)
    assert want.f_int != unsorted_f_int(rows)
    view = pair_events(rows)
    assert as_reprs(compute_features(view, ent, label=False)) == as_reprs(
        want)
    assert repr(view.metrics.f_int) == repr(want.f_int)


def rows_at(pair, hours):
    """CoEvent rows of a pair starting at the given hours after a Friday
    noon, in that order."""
    t0 = SAT - 12 * 3600
    return [CoEvent(*pair, Cell(k % 3, 0), t0 + h * 3600,
                    t0 + h * 3600 + 600 * (k + 1), 0.1 + 0.05 * k)
            for k, h in enumerate(hours)]


@pytest.mark.parametrize("hours", [
    # out of time order within a pair: mostly, at its first step only, at
    # its last step only; and next to pairs in time order
    [[5, 3, 2, 0, 4], [0, 1, 4, 6], [7], [2, 1, 3], [1, 3, 2], [0, 2, 9]],
    # the starts rising but at one step of one pair: its last, its first
    [[0, 1], [2, 4, 3], [5, 6]],
    [[0, 1], [3, 2, 4], [5, 6]],
    # every pair in time order, the starts falling from one pair to the
    # next: the pass takes the starts as they are
    [[9, 10, 14], [0, 1], [5], [3, 3, 4]]])
def test_metric_pass_sorts_each_pair_of_a_table(hours):
    """Pairs in and out of time order side by side in one table, as
    extract_coevents lays them out: pair segments one after another."""
    pairs = [(f"u{k}", f"v{k}") for k in range(len(hours))]
    rows = [rows_at(p, h) for p, h in zip(pairs, hours)]
    flat = [e for r in rows for e in r]
    index = {}
    cell = [index.setdefault(e.cell, len(index)) for e in flat]
    table = _EventTable(index, cell, [e.overlap_start for e in flat],
                        [e.overlap_end for e in flat],
                        [e.weight for e in flat],
                        np.cumsum([0] + [len(r) for r in rows]))
    ent = {Cell(c, 0): 0.2 + c for c in range(3)}
    lo = 0
    for k, (pair, r) in enumerate(zip(pairs, rows)):
        want = reference_features(r, ent, pair, None)
        if sorted(hours[k]) != hours[k]:
            assert want.f_int != unsorted_f_int(r)
        view = PairEvents(*pair, table, lo, lo + len(r), k)
        assert as_reprs(compute_features(view, ent, pair)) == as_reprs(want)
        lo += len(r)
    assert [m.f_fre for m in _pair_metrics(table)] == list(
        map(float, map(len, hours)))


# --- the features CSV against a csv.writer reference ----------------------

def reference_features_csv(rows):
    """The features CSV as csv.writer writes it: each metric as a float,
    the label as an int or empty."""
    out = io.StringIO()
    w = csv.writer(out, lineterminator="\n")
    w.writerow(["user_a", "user_b", *FEATURE_NAMES, "label"])
    w.writerows([[f.user_a, f.user_b,
                  *(float(getattr(f, n)) for n in FEATURE_NAMES),
                  "" if f.label is None else int(f.label)] for f in rows])
    return out.getvalue()


user_ids = st.sampled_from(["", "u1", "a,b", 'q"x', '"', "a\rb", "c\nd",
                            "\r\n", " lead", "trail ", "é ü", "Москва",
                            "\u2028"]) | st.text(st.sampled_from(
                                list(',"\r\n x\té\x00')), max_size=6)
metric_values = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324,
                     2.2250738585072014e-308, 1.7976931348623157e308,
                     1e16, 0.1]),
    st.integers(-2**62, 2**62))


@settings(max_examples=200, deadline=None)
@given(ids=st.lists(user_ids, min_size=1, max_size=5), data=st.data())
def test_features_csv_equals_csv_writer(ids, data):
    pick = st.sampled_from(ids)
    rows = data.draw(st.lists(st.builds(
        PairFeatures, pick, pick, metric_values, metric_values,
        metric_values, metric_values, metric_values, metric_values,
        st.sampled_from([None, True, False])), max_size=8))
    assert features_to_csv(rows) == reference_features_csv(rows)


def test_standardizer_train_only():
    rng = np.random.default_rng(1)
    X = rng.normal(3, 2, (100, 4))
    std = Standardizer().fit(X)
    Z = std.transform(X)
    assert np.allclose(Z.mean(axis=0), 0, atol=1e-12)
    assert np.allclose(Z.std(axis=0), 1, atol=1e-12)
    # constant column does not divide by zero
    X[:, 0] = 7.0
    Z = Standardizer().fit(X).transform(X)
    assert np.all(np.isfinite(Z))
