# REP004 clean: every public field reaches the token (one spec
# explicitly, one through the dataclasses.fields escape hatch).
import dataclasses
from dataclasses import dataclass


@dataclass(frozen=True)
class WindowSpec:
    n_days: int
    threshold: float
    kind: str = "scan"

    def cache_keyer(self):
        return ("window", self.n_days, self.threshold, self.kind)


@dataclass(frozen=True)
class GridSpec:
    step_s: float
    origin: float

    def cache_token(self):
        return tuple(
            getattr(self, f.name) for f in dataclasses.fields(self)
        )
