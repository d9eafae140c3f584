"""Schedule similarity for the FTQS expansion order (paper §5.1 line 4).

``FindMostSimilarSubschedule`` is left undefined in the paper beyond
its goal: "our strategy is to eventually generate the most different
sub-schedules" while the tree size is capped.  We quantify similarity
between two schedules as the normalized agreement of their orderings:

* positional agreement — the fraction of positions (over the shorter
  common tail of processes) executing the same process, and
* set agreement (Jaccard index) of the executed process sets (two
  schedules that drop different processes are less similar).

The expansion strategy in :mod:`repro.quasistatic.ftqs` picks, among
the not-yet-expanded nodes of the current layer, the one whose schedule
is *most similar* to the schedules already in the tree: such a node
contributes little diversity itself, so descending through it (whose
children re-plan from new completion times) is where new, genuinely
different schedules come from.  Ties break toward higher expected
utility, then lower node id (determinism).
"""

from __future__ import annotations

import operator
from typing import (
    AbstractSet,
    FrozenSet,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.quasistatic.tree import QSNode, QSTree
from repro.scheduling.fschedule import FSchedule

#: What the similarity compares of a schedule: its order and its
#: executed process set (:func:`shape`).
Shape = Tuple[List[str], FrozenSet[str]]


def order_similarity(a: Sequence[str], b: Sequence[str]) -> float:
    """Positional agreement of two process orders, in [0, 1]."""
    if not a and not b:
        return 1.0
    common = min(len(a), len(b))
    if common == 0:
        return 0.0
    matches = sum(map(operator.eq, a, b))
    return matches / max(len(a), len(b))


def set_similarity(a: Iterable[str], b: Iterable[str]) -> float:
    """Jaccard index of the executed process sets, in [0, 1]."""
    return _jaccard(set(a), set(b))


def _jaccard(set_a: AbstractSet[str], set_b: AbstractSet[str]) -> float:
    if not set_a and not set_b:
        return 1.0
    shared = len(set_a & set_b)
    return shared / (len(set_a) + len(set_b) - shared)


def shape(schedule: FSchedule) -> Shape:
    """The :data:`Shape` of ``schedule``, taken once per schedule by
    callers that compare it many times."""
    order = schedule.order
    return order, frozenset(order)


def shape_similarity(a: Shape, b: Shape) -> float:
    """:func:`schedule_similarity` of two schedules' shapes."""
    return 0.5 * (order_similarity(a[0], b[0]) + _jaccard(a[1], b[1]))


def schedule_similarity(a: FSchedule, b: FSchedule) -> float:
    """Combined similarity of two schedules, in [0, 1].

    Average of the positional and set agreements; 1.0 means identical
    order and process selection.
    """
    return shape_similarity(shape(a), shape(b))


def similarity_to_tree(tree: QSTree, node: QSNode) -> float:
    """Highest similarity of ``node``'s schedule to any *other* node."""
    best = 0.0
    for other in tree:
        if other.node_id == node.node_id:
            continue
        best = max(best, schedule_similarity(node.schedule, other.schedule))
    return best


def find_most_similar_unexpanded(
    tree: QSTree, layer: int
) -> Optional[QSNode]:
    """FTQS line 4: the node to expand next on ``layer``.

    Returns ``None`` when every node of the layer has been expanded
    (FTQS then moves to the next layer).
    """
    candidates: List[QSNode] = [
        n for n in tree if n.layer == layer and not n.expanded
    ]
    if not candidates:
        return None

    def key(node: QSNode):
        return (
            -similarity_to_tree(tree, node),
            -node.schedule.expected_utility(),
            node.node_id,
        )

    return min(candidates, key=key)
