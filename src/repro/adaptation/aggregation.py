"""Workflow-level QoS aggregation (Zeng et al., the paper's reference [11]).

A service-based application's end-to-end QoS is a function of its component
services' QoS and the composition structure.  These are the classic
aggregation rules for the two attributes this package models:

==============  =======================  =========================
structure       response time            throughput
==============  =======================  =========================
sequence        sum of parts             min of parts (pipeline)
parallel split  max of parts (join)      sum of parts (fan-out)
branch          probability-weighted     probability-weighted
loop (k iter)   k times the body         body (unchanged rate)
==============  =======================  =========================

Composition nodes form a tree whose leaves are abstract task names; the
tree evaluates against any mapping ``task name -> QoS value``, so it works
with observed values, predictions, or SLA bounds alike.  The execution
engine uses sequences implicitly; this module generalizes it and lets
policies reason about *workflow-level* SLAs.
"""

from __future__ import annotations

import abc
from collections.abc import Mapping, Sequence

from repro.utils.validation import check_probability


class CompositionNode(abc.ABC):
    """A node of the workflow composition tree."""

    @abc.abstractmethod
    def response_time(self, values: Mapping[str, float]) -> float:
        """Aggregate end-to-end response time from per-task values."""

    @abc.abstractmethod
    def throughput(self, values: Mapping[str, float]) -> float:
        """Aggregate end-to-end throughput from per-task values."""

    @abc.abstractmethod
    def task_names(self) -> set[str]:
        """All leaf task names under this node."""


class Task(CompositionNode):
    """Leaf node: one abstract task, resolved from the value mapping."""

    def __init__(self, name: str) -> None:
        if not name:
            raise ValueError("task name must be non-empty")
        self.name = name

    def _lookup(self, values: Mapping[str, float]) -> float:
        if self.name not in values:
            raise KeyError(f"no QoS value provided for task {self.name!r}")
        return float(values[self.name])

    def response_time(self, values: Mapping[str, float]) -> float:
        return self._lookup(values)

    def throughput(self, values: Mapping[str, float]) -> float:
        return self._lookup(values)

    def task_names(self) -> set[str]:
        return {self.name}


class _Composite(CompositionNode):
    """Shared plumbing for multi-child nodes."""

    def __init__(self, children: Sequence[CompositionNode]) -> None:
        if not children:
            raise ValueError(f"{type(self).__name__} needs at least one child")
        self.children = list(children)

    def task_names(self) -> set[str]:
        names: set[str] = set()
        for child in self.children:
            overlap = names & child.task_names()
            if overlap:
                raise ValueError(f"duplicate task names in composition: {overlap}")
            names |= child.task_names()
        return names


class Sequence_(_Composite):
    """Sequential composition: children execute one after another."""

    def response_time(self, values: Mapping[str, float]) -> float:
        return sum(child.response_time(values) for child in self.children)

    def throughput(self, values: Mapping[str, float]) -> float:
        return min(child.throughput(values) for child in self.children)


class Parallel(_Composite):
    """Parallel split/join: children execute concurrently, all must finish."""

    def response_time(self, values: Mapping[str, float]) -> float:
        return max(child.response_time(values) for child in self.children)

    def throughput(self, values: Mapping[str, float]) -> float:
        return sum(child.throughput(values) for child in self.children)


class Branch(CompositionNode):
    """Exclusive choice: child ``k`` executes with probability ``p_k``."""

    def __init__(
        self,
        children: Sequence[CompositionNode],
        probabilities: Sequence[float],
    ) -> None:
        if not children:
            raise ValueError("Branch needs at least one child")
        if len(children) != len(probabilities):
            raise ValueError(
                f"{len(children)} children but {len(probabilities)} probabilities"
            )
        for probability in probabilities:
            check_probability("branch probability", probability)
        total = sum(probabilities)
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"branch probabilities must sum to 1, got {total}")
        self.children = list(children)
        self.probabilities = list(probabilities)

    def response_time(self, values: Mapping[str, float]) -> float:
        return sum(
            probability * child.response_time(values)
            for probability, child in zip(self.probabilities, self.children)
        )

    def throughput(self, values: Mapping[str, float]) -> float:
        return sum(
            probability * child.throughput(values)
            for probability, child in zip(self.probabilities, self.children)
        )

    def task_names(self) -> set[str]:
        names: set[str] = set()
        for child in self.children:
            overlap = names & child.task_names()
            if overlap:
                raise ValueError(f"duplicate task names in composition: {overlap}")
            names |= child.task_names()
        return names


class Loop(CompositionNode):
    """Bounded repetition: the body executes ``iterations`` times."""

    def __init__(self, body: CompositionNode, iterations: int) -> None:
        if iterations < 1:
            raise ValueError(f"iterations must be >= 1, got {iterations}")
        self.body = body
        self.iterations = iterations

    def response_time(self, values: Mapping[str, float]) -> float:
        return self.iterations * self.body.response_time(values)

    def throughput(self, values: Mapping[str, float]) -> float:
        return self.body.throughput(values)

    def task_names(self) -> set[str]:
        return self.body.task_names()


def aggregate(
    node: CompositionNode,
    values: Mapping[str, float],
    attribute: str = "response_time",
) -> float:
    """Evaluate a composition tree for one QoS attribute.

    ``values`` maps every leaf task name to that task's (observed or
    predicted) QoS value; missing tasks raise ``KeyError``.
    """
    missing = node.task_names() - set(values)
    if missing:
        raise KeyError(f"missing QoS values for tasks: {sorted(missing)}")
    if attribute in ("response_time", "rt"):
        return node.response_time(values)
    if attribute in ("throughput", "tp"):
        return node.throughput(values)
    raise ValueError(
        f"attribute must be 'response_time' or 'throughput', got {attribute!r}"
    )


def predicted_workflow_qos(
    node: CompositionNode,
    bindings: Mapping[str, int],
    predictor,
    user_id: int,
) -> float:
    """Workflow-level predicted response time under a concrete set of
    bindings.

    ``predictor`` is any object with ``predict(user_id, service_id)`` (the
    :class:`~repro.adaptation.service.QoSPredictionService` interface).
    Lets a policy ask "what end-to-end response time do I predict if I bind
    the workflow this way?" before committing an adaptation.
    """
    missing = node.task_names() - set(bindings)
    if missing:
        raise KeyError(f"missing bindings for tasks: {sorted(missing)}")
    values = {
        task: predictor.predict(user_id, service_id)
        for task, service_id in bindings.items()
        if task in node.task_names()
    }
    return aggregate(node, values, attribute="response_time")
