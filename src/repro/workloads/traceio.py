"""Trace serialization and summary statistics.

Traces are deterministic, but materializing them once and re-running
many organization/configuration variants is often faster than
regenerating, and shipping a trace is the natural interchange format if
you want to feed the engine from a *real* (e.g. binary-instrumented)
access stream.  ``save_trace``/``load_trace`` round-trip a kernel-trace
sequence through a single compressed ``.npz`` file.

``trace_statistics`` summarizes an access stream: volume, read/write
mix, footprint and the Section 2.2 sharing decomposition.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Sequence

import numpy as np

from .generator import EpochTrace, KernelTrace

_FORMAT_VERSION = 1


def save_trace(path: str, kernels: Sequence[KernelTrace]) -> None:
    """Write a kernel-trace sequence to ``path`` (compressed .npz)."""
    kernels = list(kernels)
    if not kernels:
        raise ValueError("cannot save an empty trace")
    chips, addrs, writes = [], [], []
    epoch_lengths, epoch_compute = [], []
    kernel_names: List[str] = []
    kernel_epoch_counts: List[int] = []
    for kernel in kernels:
        kernel_names.append(kernel.name)
        kernel_epoch_counts.append(len(kernel.epochs))
        for epoch in kernel.epochs:
            chips.append(epoch.chips)
            addrs.append(epoch.addrs)
            writes.append(epoch.writes)
            epoch_lengths.append(len(epoch))
            epoch_compute.append(epoch.compute_cycles)
    np.savez_compressed(
        path,
        version=np.int64(_FORMAT_VERSION),
        chips=np.concatenate(chips),
        addrs=np.concatenate(addrs),
        writes=np.concatenate(writes),
        epoch_lengths=np.asarray(epoch_lengths, dtype=np.int64),
        epoch_compute=np.asarray(epoch_compute, dtype=np.float64),
        kernel_names=np.asarray(kernel_names, dtype=np.str_),
        kernel_epoch_counts=np.asarray(kernel_epoch_counts, dtype=np.int64))


def load_trace(path: str) -> List[KernelTrace]:
    """Read a kernel-trace sequence written by :func:`save_trace`.

    Files written before epochs stopped storing each access's SM
    cluster still hold a ``clusters`` column; it is not read.
    """
    with np.load(path, allow_pickle=False) as data:
        version = int(data["version"])
        if version != _FORMAT_VERSION:
            raise ValueError(f"unsupported trace format version {version}")
        chips = data["chips"]
        addrs = data["addrs"]
        writes = data["writes"]
        epoch_lengths = data["epoch_lengths"].tolist()
        epoch_compute = data["epoch_compute"].tolist()
        kernel_names = [str(n) for n in data["kernel_names"]]
        kernel_epoch_counts = data["kernel_epoch_counts"].tolist()
    boundaries = np.cumsum([0] + epoch_lengths)
    epochs: List[EpochTrace] = []
    for i, compute in enumerate(epoch_compute):
        lo, hi = boundaries[i], boundaries[i + 1]
        epochs.append(EpochTrace(
            chips=chips[lo:hi], addrs=addrs[lo:hi], writes=writes[lo:hi],
            compute_cycles=float(compute)))
    kernels: List[KernelTrace] = []
    cursor = 0
    for name, count in zip(kernel_names, kernel_epoch_counts):
        kernels.append(KernelTrace(
            name=name, epochs=tuple(epochs[cursor:cursor + count])))
        cursor += count
    return kernels


@dataclass(frozen=True)
class TraceStatistics:
    """Summary of one access stream."""

    accesses: int
    writes: int
    kernels: int
    epochs: int
    distinct_lines: int
    footprint_bytes: int
    true_shared_lines: int
    false_shared_lines: int
    non_shared_lines: int
    accesses_per_chip: Dict[int, int]

    @property
    def write_fraction(self) -> float:
        return self.writes / self.accesses if self.accesses else 0.0

    def sharing_fractions(self) -> Dict[str, float]:
        total = max(1, self.distinct_lines)
        return {
            "true": self.true_shared_lines / total,
            "false": self.false_shared_lines / total,
            "none": self.non_shared_lines / total,
        }


def trace_statistics(kernels: Iterable[KernelTrace], line_size: int = 128,
                     page_size: int = 4096) -> TraceStatistics:
    """Compute volume, mix and sharing decomposition of a trace."""
    kernels = list(kernels)
    if not kernels:
        raise ValueError("empty trace")
    chips_list, addrs_list = [], []
    accesses = 0
    writes = 0
    epochs = 0
    for kernel in kernels:
        for epoch in kernel.epochs:
            chips_list.append(epoch.chips)
            addrs_list.append(epoch.addrs)
            accesses += len(epoch)
            writes += int(epoch.writes.sum())
            epochs += 1
    # Imported lazily to avoid a package-level import cycle
    # (analysis -> sim -> workloads).
    from ..analysis.working_set import (
        SHARING_FALSE,
        SHARING_NONE,
        SHARING_TRUE,
        classify_lines,
    )
    chips = np.concatenate(chips_list)
    addrs = np.concatenate(addrs_list)
    classes = classify_lines(chips, addrs, line_size, page_size)
    counts = {SHARING_TRUE: 0, SHARING_FALSE: 0, SHARING_NONE: 0}
    for cls in classes.values():
        counts[cls] += 1
    unique_chips, chip_counts = np.unique(chips, return_counts=True)
    return TraceStatistics(
        accesses=accesses,
        writes=writes,
        kernels=len(kernels),
        epochs=epochs,
        distinct_lines=len(classes),
        footprint_bytes=len(classes) * line_size,
        true_shared_lines=counts[SHARING_TRUE],
        false_shared_lines=counts[SHARING_FALSE],
        non_shared_lines=counts[SHARING_NONE],
        accesses_per_chip={int(c): int(n) for c, n
                           in zip(unique_chips, chip_counts)})
