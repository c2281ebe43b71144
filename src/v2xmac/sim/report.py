"""Replication statistics and the merged simulation report."""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List

WARMUP_S = 2.0   # simulated time cut from the start of every replication


def warmup_units(duration_units: int, unit_us: float) -> int:
    """Time units cut from the start of a run: WARMUP_S, at most a quarter of it."""
    return min(int(round(WARMUP_S * 1e6 / unit_us)), duration_units // 4)


@dataclass
class ReplicationStats:
    """Raw counters from one replication.

    generated, dropped, in_queue_end and per_vehicle cover the whole run, and
    count_vehicle is the one place that writes them. transmissions, collided,
    successful, delayed_packets, the delay sums and window_units cover only
    the window after the warm-up cut that warmup_units sets.
    """

    transmissions: int = 0
    collided: int = 0
    delay_sum_ms: float = 0.0
    delay_end_sum_ms: float = 0.0
    delayed_packets: int = 0
    successful: int = 0
    window_units: int = 0        # subframes (cv2x) or slots (dot11p) in the window
    generated: int = 0
    dropped: int = 0
    in_queue_end: int = 0
    per_vehicle: Dict[int, List[int]] = field(default_factory=dict)

    def count_vehicle(self, vid, generated, transmitted, dropped, queued):
        """Add one vehicle's whole-run counters."""
        self.generated += generated
        self.dropped += dropped
        self.in_queue_end += queued
        self.per_vehicle[vid] = [generated, transmitted, dropped, queued]

    def p_col(self) -> float:
        return self.collided / self.transmissions if self.transmissions else 0.0

    def d_avg_ms(self) -> float:
        return self.delay_sum_ms / self.delayed_packets if self.delayed_packets else 0.0

    def d_end_avg_ms(self) -> float:
        return self.delay_end_sum_ms / self.delayed_packets if self.delayed_packets else 0.0


@dataclass(frozen=True)
class SimReport:
    tech: str
    n: int
    p_col_hat: float
    d_avg_hat_ms: float
    d_end_avg_hat_ms: float      # generation to transmission end (802.11p comparator)
    cu_avg_hat: float
    ci95: Dict[str, float]
    drops: int
    generated: int
    transmissions: int
    replications: int
    seed: int
    sim_duration_s: float
    reliable: bool               # False when fewer than 100 transmissions observed


def _mean_ci(values: List[float]):
    n = len(values)
    mean = sum(values) / n
    if n < 2:
        return mean, 0.0
    var = sum((v - mean) ** 2 for v in values) / (n - 1)
    return mean, 1.96 * math.sqrt(var / n)


def merge_replications(tech: str, n: int, stats: List[ReplicationStats],
                       cu_normalizer: float, seed: int,
                       duration_s: float) -> SimReport:
    """Combine per-replication estimates; associative and order-independent."""
    p_cols = [s.p_col() for s in stats]
    d_avgs = [s.d_avg_ms() for s in stats]
    d_ends = [s.d_end_avg_ms() for s in stats]
    cus = [s.successful * cu_normalizer / s.window_units if s.window_units else 0.0
           for s in stats]
    p_col, ci_p = _mean_ci(p_cols)
    d_avg, ci_d = _mean_ci(d_avgs)
    d_end, ci_de = _mean_ci(d_ends)
    cu, ci_cu = _mean_ci(cus)
    total_tx = sum(s.transmissions for s in stats)
    return SimReport(
        tech=tech, n=n,
        p_col_hat=p_col, d_avg_hat_ms=d_avg, d_end_avg_hat_ms=d_end,
        cu_avg_hat=cu,
        ci95={"p_col": ci_p, "d_avg_ms": ci_d, "d_end_avg_ms": ci_de, "cu_avg": ci_cu},
        drops=sum(s.dropped for s in stats),
        generated=sum(s.generated for s in stats),
        transmissions=total_tx,
        replications=len(stats), seed=seed, sim_duration_s=duration_s,
        reliable=total_tx >= 100,
    )
