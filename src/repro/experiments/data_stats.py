"""Fig. 6 (dataset statistics) and Fig. 2 (motivating QoS observations).

Fig. 2(a): one user-service pair's response time over the 64 slices —
fluctuation around a stable mean motivates *online* tracking.
Fig. 2(b): sorted response times of many users invoking one service —
user-specific QoS motivates *collaborative* prediction.
Fig. 6: the dataset's summary statistics table.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.datasets.schema import TimeSlicedQoS
from repro.experiments.runner import ExperimentScale
from repro.utils.tables import render_series, render_table


@dataclass
class DataStatsResult:
    """Statistics table plus the two Fig. 2 series."""

    rt_stats: dict[str, float]
    tp_stats: dict[str, float]
    pair_series: np.ndarray        # Fig. 2(a): RT per slice for one pair
    pair_user: int
    pair_service: int
    user_series: np.ndarray        # Fig. 2(b): sorted RT across users
    user_series_service: int

    def to_text(self) -> str:
        stats_rows = [
            ["#Users", int(self.rt_stats["n_users"])],
            ["#Services", int(self.rt_stats["n_services"])],
            ["#Time slices", int(self.rt_stats["n_slices"])],
            ["#Time interval (min)", self.rt_stats["slice_minutes"]],
            ["RT range (s)", f"{self.rt_stats['min']:.2f} ~ {self.rt_stats['max']:.2f}"],
            ["RT average (s)", self.rt_stats["mean"]],
            ["TP range (kbps)", f"{self.tp_stats['min']:.2f} ~ {self.tp_stats['max']:.2f}"],
            ["TP average (kbps)", self.tp_stats["mean"]],
        ]
        parts = [
            render_table(["Statistic", "Value"], stats_rows, precision=2,
                         title="Fig. 6 — data statistics"),
            render_series(
                f"RT of (user {self.pair_user}, service {self.pair_service})",
                list(range(len(self.pair_series))),
                self.pair_series,
            ),
            render_series(
                f"sorted RT across users on service {self.user_series_service}",
                list(range(len(self.user_series))),
                self.user_series,
            ),
        ]
        return "\n\n".join(parts)


def _pick_interesting_pair(data: TimeSlicedQoS) -> tuple[int, int]:
    """A (user, service) pair observed in every slice with visible variance.

    Mirrors the paper's hand-picked example: a pair whose response time
    fluctuates around its mean rather than sitting flat.
    """
    observed_everywhere = data.mask.all(axis=0)
    users, services = np.nonzero(observed_everywhere)
    if users.size == 0:
        raise ValueError("no (user, service) pair is observed in every slice")
    series = data.tensor[:, users, services]  # (slices, pairs)
    variance = series.var(axis=0)
    mean = np.maximum(series.mean(axis=0), 1e-9)
    # Highest coefficient of variation among pairs with a moderate mean and
    # no timeout spikes — a single saturated sample would dominate the
    # variance and hide the fluctuation-around-a-mean story of Fig. 2(a).
    no_timeouts = series.max(axis=0) < data.value_max
    moderate = (mean > 0.2) & (mean < data.value_max / 2) & no_timeouts
    scores = np.where(moderate, variance / mean**2, -np.inf)
    best = int(np.argmax(scores))
    return int(users[best]), int(services[best])


def run_data_stats(
    scale: ExperimentScale | None = None,
) -> DataStatsResult:
    """Compute Fig. 6's table and Fig. 2's two series."""
    scale = scale if scale is not None else ExperimentScale.quick()
    rt = scale.dataset("response_time")
    tp = scale.dataset("throughput")

    pair_user, pair_service = _pick_interesting_pair(rt)
    pair_series = rt.tensor[:, pair_user, pair_service].copy()

    # Fig. 2(b): users' slice-0 response times on the most-observed service.
    observed_per_service = rt.mask[0].sum(axis=0)
    service = int(np.argmax(observed_per_service))
    user_mask = rt.mask[0, :, service]
    user_values = np.sort(rt.tensor[0, user_mask, service])[:100]

    return DataStatsResult(
        rt_stats=rt.statistics(),
        tp_stats=tp.statistics(),
        pair_series=pair_series,
        pair_user=pair_user,
        pair_service=pair_service,
        user_series=user_values,
        user_series_service=service,
    )


def main() -> None:
    print(run_data_stats().to_text())


if __name__ == "__main__":
    main()
