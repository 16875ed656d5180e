"""Page table with first-touch allocation.

Multi-chip GPUs map each memory page to the partition of the chip that
first touches it (Arunkumar et al.; paper Section 4).  The page table
records that mapping and exposes the home chip of any byte address.
"""

from __future__ import annotations

from typing import Dict, Iterator, Optional, Tuple

import numpy as np


#: The bulk view is a dense table while the allocated page span is no
#: wider than this many pages, or than ``_DENSE_PER_PAGE`` pages per
#: allocated page: at 2 bytes per page of span the table then takes no
#: more memory than a sorted index's 10 bytes per allocated page.
_DENSE_MIN_SPAN = 1 << 15
_DENSE_PER_PAGE = 5


class PageTable:
    """Maps pages to home memory partitions by first touch.

    Pages are identified by page number (``addr >> page_shift``).

    The ``(page -> home)`` dict serves per-access lookups.  Beside it the
    table keeps a bulk view for :meth:`bulk_home` and :meth:`homes_of`:
    a dense int16 home per page (-1 where unallocated) over the
    allocated page span, so a lookup is one gather.  A span too sparse
    for a table (a trace of a real address stream, say) keeps a sorted
    (page, int16 home) index instead.  Scalar allocations and
    migrations drop the view, and the next bulk call rebuilds it from
    the dict.
    """

    def __init__(self, page_size: int, num_chips: int) -> None:
        if page_size <= 0 or page_size & (page_size - 1):
            raise ValueError("page size must be a positive power of two")
        if not 1 <= num_chips <= np.iinfo(np.int16).max:
            raise ValueError("need 1..32767 chips (homes are int16)")
        self.page_size = page_size
        self.num_chips = num_chips
        self._page_shift = page_size.bit_length() - 1
        self._home: Dict[int, int] = {}
        #: The bulk view: either the dense homes of pages ``_base ..``,
        #: or the sorted pages and their homes; neither when dropped.
        self._table: Optional[np.ndarray] = None
        self._base = 0
        self._index: Optional[Tuple[np.ndarray, np.ndarray]] = None

    def page_of(self, addr: int) -> int:
        return addr >> self._page_shift

    def home_chip(self, addr: int, requesting_chip: int) -> int:
        """Home partition of ``addr``, allocating the page on first touch."""
        page = addr >> self._page_shift
        home = self._home.get(page)
        if home is None:
            home = self._allocate(page, requesting_chip)
        return home

    def lookup(self, addr: int) -> int | None:
        """Home partition of ``addr`` if allocated, else None (no side effects)."""
        return self._home.get(addr >> self._page_shift)

    def bulk_home(self, pages: np.ndarray,
                  touch_chips: np.ndarray) -> np.ndarray:
        """Resolve many pages at once, allocating unknown ones.

        ``pages`` are distinct int64 page numbers paired with the chip
        that (first) touches each (any integer width), given in
        first-touch order so that the dict keeps the order per-access
        allocation would give it.  Returns the home chip per page.
        """
        homes = self.homes_of(pages)
        new = np.flatnonzero(homes < 0)
        if not new.size:
            return homes
        new_pages = pages[new]
        new_homes = touch_chips[new].astype(np.int64)
        homes[new] = new_homes
        # The dict in first-touch order, as per-access allocation would
        # leave it.
        self._home.update(zip(new_pages.tolist(), new_homes.tolist()))
        # The dense table takes the new pages in place when it spans
        # them; otherwise the view is rebuilt (a matrix run does so a
        # few times, as its traces first reach new pages).
        table = self._table
        if table is not None:
            rel = new_pages - np.int64(self._base)
            if rel.min() >= 0 and rel.max() < table.size:
                table[rel] = new_homes
                return homes
        self._drop_view()
        return homes

    def homes_of(self, pages: np.ndarray) -> np.ndarray:
        """Home chip of each page number as int64, -1 where unallocated
        (no side effects)."""
        if not self._home:
            return np.full(pages.shape, -1, dtype=np.int64)
        if self._table is None and self._index is None:
            self._rebuild()
        table = self._table
        if table is not None:
            rel = pages - np.int64(self._base)
            homes = table.take(rel, mode="clip").astype(np.int64)
            # Pages outside the span (negative offsets wrap high).
            homes[rel.view(np.uint64) >= np.uint64(table.size)] = -1
            return homes
        assert self._index is not None
        idx_pages, idx_homes = self._index
        # Binary search runs about 5x faster over sorted needles.
        order = np.argsort(pages)
        needles = pages[order]
        pos = np.minimum(np.searchsorted(idx_pages, needles),
                         idx_pages.size - 1)
        out = np.empty(pages.shape, dtype=np.int64)
        out[order] = np.where(idx_pages[pos] == needles, idx_homes[pos],
                              np.int16(-1))
        return out

    def _rebuild(self) -> None:
        """Build the bulk view from the dict: the dense table when the
        span allows it, else the sorted index."""
        home = self._home
        pages = np.fromiter(home.keys(), dtype=np.int64, count=len(home))
        homes = np.fromiter(home.values(), dtype=np.int16, count=len(home))
        lo = int(pages.min())
        span = int(pages.max()) + 1 - lo
        if span <= max(_DENSE_MIN_SPAN, _DENSE_PER_PAGE * pages.size):
            table = np.full(span, -1, dtype=np.int16)
            table[pages - np.int64(lo)] = homes
            self._table, self._base = table, lo
        else:
            order = np.argsort(pages)
            self._index = (pages[order], homes[order])

    def _drop_view(self) -> None:
        self._table = self._index = None

    def _allocate(self, page: int, requesting_chip: int) -> int:
        self._home[page] = requesting_chip
        self._drop_view()
        return requesting_chip

    def migrate(self, page: int, new_home: int) -> int:
        """Move an allocated page to ``new_home``; returns the old home."""
        if not 0 <= new_home < self.num_chips:
            raise ValueError(f"chip {new_home} out of range")
        if page not in self._home:
            raise KeyError(f"page {page} is not allocated")
        old_home = self._home[page]
        self._home[page] = new_home
        self._drop_view()
        return old_home

    def __len__(self) -> int:
        return len(self._home)

    def pages(self) -> Iterator[Tuple[int, int]]:
        """Yield ``(page_number, home_chip)`` pairs."""
        return iter(self._home.items())

    def footprint_bytes(self) -> int:
        """Total bytes of allocated pages."""
        return len(self._home) * self.page_size
