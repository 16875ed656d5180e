"""Unit tests for the page table (first-touch allocation)."""

from collections import Counter

import pytest

from repro.memory import PageTable


class TestFirstTouch:
    def test_first_toucher_becomes_home(self):
        table = PageTable(page_size=4096, num_chips=4)
        assert table.home_chip(0x1000, requesting_chip=2) == 2
        # Later touches by other chips do not move the page.
        assert table.home_chip(0x1000, requesting_chip=0) == 2
        assert table.home_chip(0x1FFF, requesting_chip=3) == 2

    def test_distinct_pages_allocate_independently(self):
        table = PageTable(page_size=4096, num_chips=4)
        table.home_chip(0x0000, 0)
        table.home_chip(0x1000, 1)
        assert table.lookup(0x0000) == 0
        assert table.lookup(0x1000) == 1

    def test_lookup_without_allocation_returns_none(self):
        table = PageTable(page_size=4096, num_chips=4)
        assert table.lookup(0x5000) is None
        assert len(table) == 0

    def test_footprint_counts_allocated_pages(self):
        table = PageTable(page_size=4096, num_chips=2)
        table.home_chip(0, 0)
        table.home_chip(4096, 1)
        table.home_chip(100, 1)  # same page as 0
        assert len(table) == 2
        assert table.footprint_bytes() == 8192

    def test_stats_count_per_chip(self):
        table = PageTable(page_size=4096, num_chips=2)
        table.home_chip(0, 0)
        table.home_chip(4096, 0)
        table.home_chip(8192, 1)
        assert len(table) == 3
        assert Counter(home for _page, home in table.pages()) == \
            {0: 2, 1: 1}


class TestValidation:
    def test_rejects_bad_page_size(self):
        with pytest.raises(ValueError):
            PageTable(page_size=1000, num_chips=4)
