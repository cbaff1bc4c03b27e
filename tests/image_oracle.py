"""Copying image builders, kept as a test oracle.

``src/`` builds images with :meth:`CheckpointImage.take_pages`, which
shares the frozen page arrays it is handed.  A test that builds an
image from scratch arrays it goes on mutating freezes a copy first;
these helpers do exactly that.
"""

from __future__ import annotations

import numpy as np

from repro.core.image import CheckpointImage, Chunk


def _frozen_copy(data: np.ndarray) -> np.ndarray:
    data = np.array(data, copy=True)
    data.flags.writeable = False
    return data


def add_page(img: CheckpointImage, vma_name: str, page_index: int,
             data: np.ndarray) -> Chunk:
    """Append one whole-page chunk, copying ``data``."""
    return img.take_pages(vma_name, page_index, (_frozen_copy(data),))


def add_extent(img: CheckpointImage, vma_name: str, page_index: int,
               data: np.ndarray, npages: int) -> Chunk:
    """Append ``npages`` whole pages from the contiguous ``data``
    (copied once, frozen, one row per page)."""
    return img.take_pages(vma_name, page_index,
                          _frozen_copy(data).reshape(npages, -1))
