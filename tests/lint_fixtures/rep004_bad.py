# REP004 violation: a spec whose cache key forgets a field, so two
# different thresholds collide on one cache entry.
from dataclasses import dataclass


@dataclass(frozen=True)
class WindowSpec:
    n_days: int
    threshold: float
    kind: str = "scan"

    def cache_keyer(self):
        return ("window", self.n_days, self.kind)  # threshold is missing
