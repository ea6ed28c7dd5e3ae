"""Shared merge helpers that count the work a hardware merge tree performs.

Both the Outer-Product and Gustavson dataflows end with a phase that merges
several coordinate-sorted partial-sum fibers into one output fiber.  In
hardware this is done by the MRN configured as a comparator tree: every
output element costs one comparison at each tree level it traverses, and an
addition whenever two coordinates match.  The helpers here perform the merge
in software while counting comparisons and additions the same way, so the
functional dataflow statistics line up with what the cycle model charges.
"""

from __future__ import annotations

from oracles.fiber import Element, Fiber


def merge_two_counted(a: Fiber, b: Fiber) -> tuple[Fiber, int, int]:
    """Merge two fibers, returning ``(merged, comparisons, additions)``.

    One comparison is charged for every step in which both inputs still have
    elements pending (the comparator must look at both heads); an addition is
    charged when the heads' coordinates match.
    """
    out: list[Element] = []
    comparisons = 0
    additions = 0
    i = j = 0
    ea = list(a)
    eb = list(b)
    while i < len(ea) and j < len(eb):
        comparisons += 1
        ca, cb = ea[i].coord, eb[j].coord
        if ca == cb:
            out.append(Element(ca, ea[i].value + eb[j].value))
            additions += 1
            i += 1
            j += 1
        elif ca < cb:
            out.append(ea[i])
            i += 1
        else:
            out.append(eb[j])
            j += 1
    out.extend(ea[i:])
    out.extend(eb[j:])
    merged = Fiber()
    merged._elements = out
    return merged, comparisons, additions


def merge_tree_counted(fibers: list[Fiber]) -> tuple[Fiber, int, int]:
    """Merge many fibers with a balanced binary tree, counting the work.

    The reduction shape mirrors the MRN: fibers are merged pairwise level by
    level, exactly as the comparator tree combines the streams arriving from
    its leaves.  Returns ``(merged, comparisons, additions)``.
    """
    live = [f for f in fibers if not f.is_empty()]
    if not live:
        return Fiber(), 0, 0
    comparisons = 0
    additions = 0
    while len(live) > 1:
        next_level: list[Fiber] = []
        for i in range(0, len(live) - 1, 2):
            merged, c, a = merge_two_counted(live[i], live[i + 1])
            comparisons += c
            additions += a
            next_level.append(merged)
        if len(live) % 2 == 1:
            next_level.append(live[-1])
        live = next_level
    return live[0], comparisons, additions
