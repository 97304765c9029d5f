"""Unit tests for the fixed-bin hardware-style histogram."""

import pytest

from repro.receptors.histogram import Histogram


class TestAccumulation:
    def test_binning(self):
        h = Histogram(n_bins=4, bin_width=2, origin=0)
        for v in (0, 1, 2, 3, 7):
            h.add(v)
        assert h.counts == [2, 2, 0, 1]
        assert h.total == 5

    def test_origin_offset(self):
        h = Histogram(n_bins=2, bin_width=1, origin=10)
        h.add(10)
        h.add(11)
        assert h.counts == [1, 1]

    def test_overflow_saturates(self):
        h = Histogram(n_bins=2, bin_width=1, origin=0)
        h.add(5)
        h.add(100)
        assert h.overflow == 2
        assert h.counts == [0, 0]

    def test_underflow(self):
        h = Histogram(n_bins=2, bin_width=1, origin=5)
        h.add(3)
        assert h.underflow == 1

    def test_each_add_counts_one_sample(self):
        h = Histogram(n_bins=2, bin_width=1, origin=0)
        for _ in range(5):
            h.add(1)
        assert h.counts == [0, 5]
        assert h.total == 5

    def test_geometry_validation(self):
        with pytest.raises(ValueError):
            Histogram(0)
        with pytest.raises(ValueError):
            Histogram(2, bin_width=0)


class TestQueries:
    def test_exact_mean_min_max(self):
        h = Histogram(n_bins=4, bin_width=8)
        for v in (1, 3, 30, 90):  # 90 overflows but counts in mean
            h.add(v)
        assert h.mean == pytest.approx(31.0)
        assert h.min == 1
        assert h.max == 90

    def test_empty_stats(self):
        h = Histogram(2)
        assert h.mean == 0.0
        assert h.min is None and h.max is None

    def test_bin_range(self):
        h = Histogram(n_bins=3, bin_width=4, origin=2)
        assert h.bin_range(0) == (2, 6)
        assert h.bin_range(2) == (10, 14)
        with pytest.raises(IndexError):
            h.bin_range(3)

    def test_quantile(self):
        h = Histogram(n_bins=10, bin_width=1, origin=0)
        for v in range(10):
            h.add(v)
        assert h.quantile(0.5) == 5
        assert h.quantile(1.0) == 10
        assert h.quantile(0.0) == 0 or h.quantile(0.0) <= 1

    def test_quantile_validation(self):
        with pytest.raises(ValueError):
            Histogram(2).quantile(1.5)

    def test_quantile_on_empty(self):
        assert Histogram(2, origin=3).quantile(0.5) == 3

    def test_nonzero_bins(self):
        h = Histogram(n_bins=4, bin_width=1)
        h.add(1)
        h.add(3)
        assert h.nonzero_bins() == [((1, 2), 1), ((3, 4), 1)]


class TestMerge:
    def test_merge_accumulates(self):
        a = Histogram(4, 1)
        b = Histogram(4, 1)
        a.add(0)
        b.add(0)
        b.add(3)
        b.add(99)
        a.merge(b)
        assert a.counts == [2, 0, 0, 1]
        assert a.overflow == 1
        assert a.total == 4
        assert a.max == 99

    def test_merge_geometry_mismatch_rejected(self):
        with pytest.raises(ValueError):
            Histogram(4, 1).merge(Histogram(4, 2))

    def test_merge_empty_keeps_bounds(self):
        a = Histogram(4, 1)
        a.add(2)
        a.merge(Histogram(4, 1))
        assert a.min == 2 and a.max == 2


class TestRendering:
    def test_render_mentions_counts(self):
        h = Histogram(4, 1)
        h.add(1)
        h.add(1)
        text = h.render(title="demo")
        assert "demo" in text
        assert "2" in text
        assert "#" in text

    def test_render_empty(self):
        assert "(empty)" in Histogram(4).render()

    def test_render_overflow_row(self):
        h = Histogram(2, 1)
        h.add(50)
        assert ">=" in h.render()

    def test_reset(self):
        h = Histogram(4, 1)
        h.add(2)
        h.reset()
        assert h.total == 0
        assert h.counts == [0, 0, 0, 0]
        assert h.min is None
