"""Structural validation of an R-tree.

:func:`validate_tree` walks the whole tree and checks every invariant the
implementation promises. It is the library-level counterpart of the test
suite's checker: deployments can call it after crash recovery or bulk
imports, and it produces precise error messages instead of assertions.
"""

# lint: reference — the churn and tree tests check every R-tree with it.

from __future__ import annotations

from typing import List

from ..errors import RTreeError
from ..geometry import MBR
from .tree import RTree


class TreeInvariantError(RTreeError):
    """Raised when :func:`validate_tree` finds a structural violation."""


def validate_tree(tree: RTree) -> int:
    """Validate all structural invariants; returns the object count.

    Checks, for every node:

    * levels decrease by exactly one from parent to child (leaves at 0)
      and the root sits at ``height - 1``;
    * branch entries' MBRs equal the union of their child's entries
      (boxes are maintained tight);
    * node sizes respect capacity, and non-root nodes are non-empty;
    * leaf entries are points; object ids are globally unique;
    * the object count matches ``tree.num_objects``.
    """
    root = tree.read_root()
    if root.level != tree.height - 1:
        raise TreeInvariantError(
            f"root level {root.level} does not match height {tree.height}"
        )
    seen: List[int] = []

    def visit(node):
        if len(node.entries) > tree.capacity(node.level):
            raise TreeInvariantError(
                f"node {node.node_id} holds {len(node.entries)} entries, "
                f"capacity is {tree.capacity(node.level)}"
            )
        if node.node_id != tree.root_id and not node.entries:
            raise TreeInvariantError(f"non-root node {node.node_id} is empty")
        if node.is_leaf:
            for entry in node.entries:
                if not entry.mbr.is_point:
                    raise TreeInvariantError(
                        f"leaf {node.node_id} holds a non-point entry "
                        f"for object {entry.child}"
                    )
                seen.append(entry.child)
            return
        for entry in node.entries:
            child = tree.read_node(entry.child)
            if child.level != node.level - 1:
                raise TreeInvariantError(
                    f"child {child.node_id} at level {child.level} under "
                    f"node {node.node_id} at level {node.level}"
                )
            tight = MBR.union_all(e.mbr for e in child.entries)
            if entry.mbr != tight:
                raise TreeInvariantError(
                    f"entry for child {child.node_id} has MBR {entry.mbr}, "
                    f"tight box is {tight}"
                )
            visit(child)

    visit(root)
    if len(set(seen)) != len(seen):
        raise TreeInvariantError("duplicate object ids at the leaves")
    if len(seen) != tree.num_objects:
        raise TreeInvariantError(
            f"tree reports {tree.num_objects} objects, leaves hold {len(seen)}"
        )
    return len(seen)
