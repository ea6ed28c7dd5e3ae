"""Merger-Reduction Network (MRN): the paper's central architectural novelty.

The MRN (Section 3.1, Fig. 4a/4b) is an augmented binary tree whose nodes can
be configured either as **adders** (reducing clusters of products into full
sums, the job of SIGMA's FAN in the IP dataflow) or as **comparators**
(merging coordinate-sorted partial-sum fibers, the job of the merger trees in
SpArch / GAMMA for the OP and Gust dataflows).  Nodes carry both a value and
a coordinate on their links so merged elements keep their output coordinate.

This module provides two levels of modelling:

* :class:`MergerReductionNetwork` — a tick-level micro-simulator in which
  every node holds small input queues and performs at most one operation per
  cycle.  It produces exact output streams and cycle counts for small
  configurations, and is what the unit tests validate the analytical model
  against.
* :func:`reduction_cycles` / :func:`merge_cycles` — closed-form cycle
  estimates (pipelined tree throughput limited by the configured bandwidth),
  the form the engine charges for a merge pass
  (:meth:`repro.engine_vec.kernels.OpMerge.price`).
"""

from __future__ import annotations

import enum
import math
from collections import deque
from dataclasses import dataclass

from oracles.fiber import Element, Fiber


class NodeMode(enum.Enum):
    """Configuration of one MRN node."""

    ADDER = "adder"
    COMPARATOR = "comparator"
    IDLE = "idle"


@dataclass
class MrnStats:
    """Work counters accumulated by the tree."""

    additions: int = 0
    comparisons: int = 0
    elements_out: int = 0
    cycles: int = 0


class _Node:
    """One adder/comparator node with bounded input queues."""

    __slots__ = ("index", "mode", "left", "right", "out", "left_done", "right_done")

    def __init__(self, index: int) -> None:
        self.index = index
        self.mode = NodeMode.IDLE
        self.left: deque = deque()
        self.right: deque = deque()
        self.out: deque = deque()
        self.left_done = False
        self.right_done = False


class MergerReductionNetwork:
    """Tick-level model of an N-leaf MRN (N must be a power of two)."""

    def __init__(self, num_leaves: int, queue_depth: int = 2) -> None:
        if num_leaves < 2 or num_leaves & (num_leaves - 1):
            raise ValueError("the MRN needs a power-of-two number of leaves >= 2")
        self.num_leaves = num_leaves
        self.queue_depth = queue_depth
        self.levels = int(math.log2(num_leaves))
        # nodes[level][i]: level 0 is adjacent to the leaves, the last level is the root.
        self.nodes: list[list[_Node]] = []
        width = num_leaves // 2
        index = 0
        for _ in range(self.levels):
            self.nodes.append([_Node(index + i) for i in range(width)])
            index += width
            width //= 2
        self.stats = MrnStats()

    # ------------------------------------------------------------------
    def configure(self, mode: NodeMode) -> None:
        """Put every node in the same mode (how the control logic configures phases)."""
        for level in self.nodes:
            for node in level:
                node.mode = mode

    def _reset_queues(self) -> None:
        for level in self.nodes:
            for node in level:
                node.left.clear()
                node.right.clear()
                node.out.clear()
                node.left_done = False
                node.right_done = False

    # ------------------------------------------------------------------
    # Merge micro-simulation (comparator mode)
    # ------------------------------------------------------------------
    def merge(self, fibers: list[Fiber]) -> tuple[Fiber, int]:
        """Merge up to ``num_leaves`` coordinate-sorted fibers.

        Returns ``(merged_fiber, cycles)``.  Models a pipelined comparator
        tree: each node emits at most one element per cycle, so the total
        cycle count is roughly the output length plus the pipeline depth,
        which is what the closed-form :func:`merge_cycles` assumes.
        """
        if len(fibers) > self.num_leaves:
            raise ValueError(
                f"cannot merge {len(fibers)} fibers on a {self.num_leaves}-leaf tree"
            )
        self.configure(NodeMode.COMPARATOR)
        self._reset_queues()
        leaf_streams: list[deque] = [deque(f) for f in fibers]
        leaf_streams.extend(deque() for _ in range(self.num_leaves - len(fibers)))
        leaf_done = [False] * self.num_leaves
        output: list[Element] = []
        cycles = 0
        max_cycles = 4 * (sum(len(f) for f in fibers) + self.levels + 2) + 16

        while True:
            progressed = self._tick_merge(leaf_streams, leaf_done, output)
            cycles += 1
            if self._drained(leaf_streams):
                break
            if cycles > max_cycles:  # pragma: no cover - safety net
                raise RuntimeError("MRN merge did not converge; model bug")
            if not progressed and self._idle():
                break
        merged = Fiber()
        merged._elements = _accumulate(output)
        self.stats.cycles += cycles
        self.stats.elements_out += len(merged)
        return merged, cycles

    def _tick_merge(
        self, leaf_streams: list[deque], leaf_done: list[bool], output: list[Element]
    ) -> bool:
        progressed = False
        # Root first (so downstream space frees up within the same tick order),
        # then towards the leaves; finally feed the leaves.
        for level in range(self.levels - 1, -1, -1):
            for node in self.nodes[level]:
                progressed |= self._node_step(node, level, output)
        # Leaf injection: level-0 node i takes leaves 2i (left) and 2i+1 (right).
        for i, node in enumerate(self.nodes[0]):
            for side, leaf in (("left", 2 * i), ("right", 2 * i + 1)):
                queue = getattr(node, side)
                stream = leaf_streams[leaf]
                if stream and len(queue) < self.queue_depth:
                    queue.append(stream.popleft())
                    progressed = True
                if not stream:
                    setattr(node, f"{side}_done", True)
        return progressed

    def _node_step(self, node: _Node, level: int, output: list[Element]) -> bool:
        # Where does this node's output go?
        if level == self.levels - 1:
            sink_append = output.append
            sink_has_room = True
        else:
            parent = self.nodes[level + 1][_parent_index(node, self.nodes[level])]
            side = "left" if _child_side(node, self.nodes[level]) == 0 else "right"
            queue = getattr(parent, side)
            sink_has_room = len(queue) < self.queue_depth
            sink_append = queue.append
        if not sink_has_room:
            return False

        left, right = node.left, node.right
        if left and right:
            self.stats.comparisons += 1
            a, b = left[0], right[0]
            if a.coord == b.coord:
                left.popleft()
                right.popleft()
                self.stats.additions += 1
                sink_append(Element(a.coord, a.value + b.value))
            elif a.coord < b.coord:
                sink_append(left.popleft())
            else:
                sink_append(right.popleft())
            self._propagate_done(node, level)
            return True
        if left and node.right_done:
            sink_append(left.popleft())
            self._propagate_done(node, level)
            return True
        if right and node.left_done:
            sink_append(right.popleft())
            self._propagate_done(node, level)
            return True
        self._propagate_done(node, level)
        return False

    def _propagate_done(self, node: _Node, level: int) -> None:
        if (
            node.left_done
            and node.right_done
            and not node.left
            and not node.right
            and level < self.levels - 1
        ):
            parent = self.nodes[level + 1][_parent_index(node, self.nodes[level])]
            if _child_side(node, self.nodes[level]) == 0:
                parent.left_done = True
            else:
                parent.right_done = True

    def _drained(self, leaf_streams: list[deque]) -> bool:
        if any(leaf_streams):
            return False
        return self._idle()

    def _idle(self) -> bool:
        return all(
            not node.left and not node.right for level in self.nodes for node in level
        )

    # ------------------------------------------------------------------
    # Reduction micro-simulation (adder mode)
    # ------------------------------------------------------------------
    def reduce(self, values: list[float]) -> tuple[float, int]:
        """Reduce up to ``num_leaves`` products into one sum.

        Returns ``(sum, cycles)`` where cycles is the pipeline depth actually
        exercised (log2 of the occupied leaves), matching FAN behaviour for a
        single cluster spanning the whole tree.
        """
        if len(values) > self.num_leaves:
            raise ValueError(
                f"cannot reduce {len(values)} values on a {self.num_leaves}-leaf tree"
            )
        self.configure(NodeMode.ADDER)
        if not values:
            return 0.0, 0
        total = 0.0
        for v in values:
            total += v
        self.stats.additions += max(0, len(values) - 1)
        cycles = max(1, math.ceil(math.log2(max(2, len(values)))))
        self.stats.cycles += cycles
        return total, cycles


# ----------------------------------------------------------------------
# Closed-form cycle estimates used by the accelerator-level models
# ----------------------------------------------------------------------
def reduction_cycles(num_products: int, bandwidth: int, tree_depth: int) -> float:
    """Cycles for a pipelined tree to reduce ``num_products`` products.

    The tree accepts ``bandwidth`` elements per cycle, so throughput-bound
    time is ``num_products / bandwidth`` plus the pipeline fill of
    ``tree_depth`` cycles.
    """
    if num_products <= 0:
        return 0.0
    return num_products / max(1, bandwidth) + tree_depth


def merge_cycles(total_input_elements: int, bandwidth: int, tree_depth: int) -> float:
    """Cycles for a pipelined comparator tree to merge sorted streams.

    Every input element passes the root exactly once (possibly combined), so
    the throughput bound is the total number of input elements divided by the
    accepted bandwidth, plus the pipeline fill.
    """
    if total_input_elements <= 0:
        return 0.0
    return total_input_elements / max(1, bandwidth) + tree_depth


# ----------------------------------------------------------------------
# Helpers
# ----------------------------------------------------------------------
def _parent_index(node: _Node, level_nodes: list[_Node]) -> int:
    return level_nodes.index(node) // 2


def _child_side(node: _Node, level_nodes: list[_Node]) -> int:
    return level_nodes.index(node) % 2


def _accumulate(elements: list[Element]) -> list[Element]:
    """Combine adjacent equal coordinates in the root's output stream.

    Elements with the same output coordinate can arrive at the root in
    consecutive cycles when they travelled through different subtrees; the
    final accumulation the hardware performs at the root/collector is folded
    in here.
    """
    out: list[Element] = []
    for element in elements:
        if out and out[-1].coord == element.coord:
            out[-1] = Element(element.coord, out[-1].value + element.value)
        else:
            out.append(element)
    return out
