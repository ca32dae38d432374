import math

import numpy as np
import pytest

from trajpriv.colocation import CoEvent
from trajpriv.core import Cell
from trajpriv.features import (FEATURE_NAMES, Standardizer, compute_features,
                               project, resolve_subset, shannon_entropy)

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
        assert f.f_div == 0.0

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
    assert shannon_entropy([5], 5) == 0.0
    assert shannon_entropy([1, 1], 2) == pytest.approx(math.log(2))
    assert shannon_entropy([], 0) == 0.0


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
