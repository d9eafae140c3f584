"""Random task-graph structure generation (TGFF-style).

The paper evaluates on 450 generated applications with 10..50
processes (§6) but does not publish the generator.  We provide the two
standard structures of the embedded-scheduling literature:

* **layered** DAGs — processes are arranged in layers; edges connect
  earlier layers to later ones with a given density (the shape TGFF's
  series-parallel expansion tends to produce); and
* **fan-in/fan-out** DAGs — the classic TGFF growth process: repeatedly
  attach a fan-out of new nodes to a random frontier node, or join
  several frontier nodes into a fan-in node.

Both return successor lists over anonymous node ids ``0..n-1``:
``succ[u]`` lists u's successors in the order the edges were added,
and every edge goes from a lower to a higher id.
:func:`topological_order` gives the order the deadlines are derived
in; :mod:`repro.workloads.suite` attaches processes, timing and
utility to the nodes.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro.errors import ModelError


def layered_dag(
    n_nodes: int,
    rng: np.random.Generator,
    n_layers: Optional[int] = None,
    edge_probability: float = 0.3,
) -> List[List[int]]:
    """A layered random DAG with ``n_nodes`` nodes.

    Nodes are split into layers (roughly sqrt(n) layers by default);
    each node gets at least one predecessor from the previous layer
    (so the graph is weakly connected) and extra edges from earlier
    layers with ``edge_probability``.
    """
    if n_nodes < 1:
        raise ModelError("need at least one node")
    if not 0.0 <= edge_probability <= 1.0:
        raise ModelError("edge probability must be in [0, 1]")
    if n_layers is None:
        n_layers = max(1, int(round(float(np.sqrt(n_nodes)))))
    if n_layers < 1:
        raise ModelError("need at least one layer")
    n_layers = min(n_layers, n_nodes)

    # Consecutive node ids per layer, every layer non-empty (the first
    # n_nodes % n_layers layers hold one node more).
    layers = [
        part.tolist()
        for part in np.array_split(np.arange(n_nodes), n_layers)
    ]
    succ: List[List[int]] = [[] for _ in range(n_nodes)]
    for layer in range(1, n_layers):
        for node in layers[layer]:
            parent = int(rng.choice(layers[layer - 1]))
            succ[parent].append(node)
            # The earlier layers are the ids below this layer's first.
            for candidate in range(layers[layer][0]):
                if (
                    candidate != parent
                    and rng.random() < edge_probability / layer
                ):
                    succ[candidate].append(node)
    return succ


def fanin_fanout_dag(
    n_nodes: int,
    rng: np.random.Generator,
    max_fan_out: int = 3,
    max_fan_in: int = 3,
) -> List[List[int]]:
    """TGFF-style fan-in/fan-out growth to ``n_nodes`` nodes."""
    if n_nodes < 1:
        raise ModelError("need at least one node")
    if max_fan_out < 1:
        raise ModelError("max_fan_out must be at least 1")
    if max_fan_in < 2:
        raise ModelError("max_fan_in must be at least 2")
    succ: List[List[int]] = [[]]
    frontier: List[int] = [0]
    while len(succ) < n_nodes:
        if len(frontier) >= 2 and rng.random() < 0.4:
            # Fan-in: join several frontier nodes into a new node.
            count = int(rng.integers(2, min(max_fan_in, len(frontier)) + 1))
            picks = rng.choice(len(frontier), size=count, replace=False)
            parents = [frontier[int(i)] for i in picks]
            node = len(succ)
            succ.append([])
            for parent in parents:
                succ[parent].append(node)
            frontier = [f for f in frontier if f not in parents]
            frontier.append(node)
        else:
            # Fan-out: sprout children from a random frontier node.
            parent = frontier[int(rng.integers(len(frontier)))]
            count = int(rng.integers(1, max_fan_out + 1))
            count = min(count, n_nodes - len(succ))
            children = list(range(len(succ), len(succ) + count))
            succ[parent].extend(children)
            succ.extend([] for _ in children)
            frontier.remove(parent)
            frontier.extend(children)
    return succ


def random_dag(
    n_nodes: int,
    rng: np.random.Generator,
    structure: str = "layered",
    **kwargs,
) -> List[List[int]]:
    """Dispatch on ``structure`` ('layered' or 'fanin_fanout')."""
    if structure == "layered":
        return layered_dag(n_nodes, rng, **kwargs)
    if structure == "fanin_fanout":
        return fanin_fanout_dag(n_nodes, rng, **kwargs)
    raise ModelError(f"unknown DAG structure {structure!r}")


def topological_order(succ: Sequence[Sequence[int]]) -> List[int]:
    """The nodes of the DAG ``succ`` in Kahn's order: a FIFO queue
    seeded with the sources in node order, each node's successors
    released in list order."""
    in_degree = [0] * len(succ)
    for children in succ:
        for child in children:
            in_degree[child] += 1
    order = [node for node, degree in enumerate(in_degree) if degree == 0]
    # ``order`` is the queue too: the loop reaches what it appends.
    for node in order:
        for child in succ[node]:
            in_degree[child] -= 1
            if in_degree[child] == 0:
                order.append(child)
    if len(order) != len(succ):
        raise ModelError("the graph contains a cycle")
    return order
