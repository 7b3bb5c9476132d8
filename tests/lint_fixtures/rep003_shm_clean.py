# REP003 clean: a frozen job naming its shared-memory segment by plain data.
from dataclasses import dataclass
from multiprocessing import shared_memory

import numpy as np


@dataclass(frozen=True)
class SegmentSumJob:
    segment: str  # the segment's name, shape and dtype: plain data
    shape: tuple[int, ...]
    dtype: str = "float64"
    scale: float = 1.0

    def __call__(self, _task):
        seg = shared_memory.SharedMemory(name=self.segment)  # attached per call
        try:
            view = np.ndarray(self.shape, dtype=self.dtype, buffer=seg.buf)
            return float(view.sum()) * self.scale
        finally:
            seg.close()
