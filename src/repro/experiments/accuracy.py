"""Table I: accuracy comparison of UPCC/IPCC/UIPCC/PMF/AMF.

Reproduces the paper's protocol (Section V-C): for each matrix density in
10%..50%, randomly keep that fraction of the first slice's entries as
training data (randomized into a stream for AMF), score the removed entries
with MAE/MRE/NPRE, repeat with different seeds, and report per-approach
averages plus the "Improve." row — how much AMF beats the most competitive
other approach on each metric.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.experiments.runner import (
    ApproachResult,
    ExperimentScale,
    average_results,
    compare_on_slice,
)
from repro.metrics import improvement_percent
from repro.utils.rng import spawn_children
from repro.utils.tables import render_table

APPROACH_ORDER = ["UPCC", "IPCC", "UIPCC", "PMF", "BiasedMF", "AMF"]
METRICS = ["MAE", "MRE", "NPRE"]
DEFAULT_DENSITIES = (0.10, 0.20, 0.30, 0.40, 0.50)


@dataclass
class Table1Result:
    """Structured Table I: results[attribute][density][approach]."""

    densities: tuple[float, ...]
    attributes: tuple[str, ...]
    results: dict[str, dict[float, dict[str, ApproachResult]]] = field(default_factory=dict)

    def improvement(self, attribute: str, density: float, metric: str) -> float:
        """The paper's Improve. row: AMF vs the best other approach."""
        cell = self.results[attribute][density]
        others = [
            cell[name].metrics[metric] for name in cell if name != "AMF"
        ]
        if not others:
            raise ValueError("no baseline approaches to compare against")
        return improvement_percent(min(others), cell["AMF"].metrics[metric])

    def to_text(self) -> str:
        """Render in the paper's layout: one block per attribute, approaches
        as rows, (density x metric) columns."""
        blocks: list[str] = []
        for attribute in self.attributes:
            headers = ["Approach"] + [
                f"{metric}@{int(density * 100)}%"
                for density in self.densities
                for metric in METRICS
            ]
            rows: list[list[object]] = []
            present = [
                name
                for name in APPROACH_ORDER
                if name in self.results[attribute][self.densities[0]]
            ]
            for name in present:
                row: list[object] = [name]
                for density in self.densities:
                    cell = self.results[attribute][density][name]
                    row.extend(cell.metrics[metric] for metric in METRICS)
                rows.append(row)
            if "AMF" in present and len(present) > 1:
                improve_row: list[object] = ["Improve.(%)"]
                for density in self.densities:
                    improve_row.extend(
                        self.improvement(attribute, density, metric)
                        for metric in METRICS
                    )
                rows.append(improve_row)
            blocks.append(
                render_table(
                    headers,
                    rows,
                    precision=3,
                    title=f"Table I ({attribute}) — accuracy comparison",
                )
            )
        return "\n\n".join(blocks)


def run_table1(
    scale: ExperimentScale | None = None,
    densities: tuple[float, ...] = DEFAULT_DENSITIES,
    attributes: tuple[str, ...] = ("response_time", "throughput"),
) -> Table1Result:
    """Run the full Table I sweep at the given scale."""
    scale = scale if scale is not None else ExperimentScale.quick()
    result = Table1Result(densities=densities, attributes=attributes)
    for attribute in attributes:
        data = scale.dataset(attribute)
        matrix = data.slice(0)
        result.results[attribute] = {}
        for density in densities:
            rngs = spawn_children(scale.seed + int(density * 1000), scale.reruns)
            runs = [
                compare_on_slice(matrix, attribute, density, rng=rng)
                for rng in rngs
            ]
            result.results[attribute][density] = average_results(runs)
    return result


def main() -> None:
    print(run_table1().to_text())


if __name__ == "__main__":
    main()
