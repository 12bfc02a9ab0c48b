"""Cone refactoring (the ABC ``refactor`` command, simplified).

Refactoring targets larger cones than rewriting: for each AND node it grows a
reconvergence-bounded cut of up to ``max_leaves`` leaves, collapses the cone
into a truth table, and resynthesises it with the shared ISOP builder.  The
replacement is kept when the estimated node count does not increase (or
always, in zero-cost mode).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from repro.aig.graph import Aig, rebuild_map
from repro.aig.literals import is_complemented, literal_var, negate_if
from repro.aig.simulate import cone_truth_table
from repro.transforms.base import Transform
from repro.transforms.resynth import resynth_cost, synthesize_truth


class Refactor(Transform):
    """Collapse and resynthesise medium-size cones rooted at AND nodes."""

    name = "rf"

    def __init__(self, max_leaves: int = 10, min_cone_size: int = 6, zero_cost: bool = False) -> None:
        self.max_leaves = max_leaves
        self.min_cone_size = min_cone_size
        self.zero_cost = zero_cost

    def apply(self, aig: Aig) -> Aig:
        new = Aig(aig.name)
        mapping = rebuild_map(aig, new)
        fanout = aig.fanout_counts()
        self._levels = aig.levels()

        for var in aig.and_vars():
            f0, f1 = aig.fanins(var)
            default_lit = new.add_and(
                negate_if(mapping[literal_var(f0)], is_complemented(f0)),
                negate_if(mapping[literal_var(f1)], is_complemented(f1)),
            )
            replacement = None
            # Only refactor at "cone roots": nodes consumed by several other
            # nodes or driving a PO are natural boundaries worth the effort.
            if fanout[var] != 1 or self.zero_cost:
                replacement = self._try_refactor(aig, new, mapping, var)
            mapping[var] = replacement if replacement is not None else default_lit

        for lit, name in zip(aig.po_literals(), aig.po_names):
            new.add_po(negate_if(mapping[literal_var(lit)], is_complemented(lit)), name)
        result = new.cleanup()
        # As with rewriting, the cone-local cost estimate can misjudge shared
        # logic; strict mode never accepts a net growth in node count.
        if not self.zero_cost and result.num_ands > aig.num_ands:
            return aig.cleanup()
        return result

    # ------------------------------------------------------------------ #
    def _grow_cone(self, aig: Aig, root: int) -> Tuple[List[int], int]:
        """Grow a cut of at most ``max_leaves`` leaves below *root*.

        Expansion is breadth-first from the root, always expanding the leaf
        that is an AND node with the highest level (deepest), until expanding
        any further leaf would exceed the leaf budget.  Returns the leaf list
        and the number of AND nodes strictly inside the cone.
        """
        levels = self._levels
        is_pi = aig._is_pi
        fanin0 = aig._fanin0
        fanin1 = aig._fanin1
        max_leaves = self.max_leaves
        inside: Set[int] = {root}
        leaves: Set[int] = {fanin0[root] >> 1, fanin1[root] >> 1}
        while True:
            # Deepest AND-node leaf, first-maximum over set iteration order
            # (matching max() over the same set's comprehension).
            candidate = -1
            best_level = -1
            # repro-lint: ignore[D1] -- the first-max tie-break over set
            # iteration order is the pinned pre-refactor behaviour (PR 7):
            # the set's construction history is kept identical on purpose,
            # so iteration order is deterministic and part of the contract.
            for leaf in leaves:
                if leaf != 0 and not is_pi[leaf] and levels[leaf] > best_level:
                    best_level = levels[leaf]
                    candidate = leaf
            if candidate < 0:
                break
            c0 = fanin0[candidate] >> 1
            c1 = fanin1[candidate] >> 1
            # The new set is built with the same operation sequence as the
            # original implementation: iteration order of a set feeds the
            # first-maximum tie-break above, so the construction history must
            # stay identical for results to be reproducible bit-for-bit.
            new_leaves = (set(leaves) - {candidate}) | {c0, c1}
            if len(new_leaves) > max_leaves:
                break
            leaves = new_leaves
            inside.add(candidate)
        return sorted(leaves), len(inside)

    def _try_refactor(
        self, aig: Aig, new: Aig, mapping: Dict[int, int], var: int
    ) -> Optional[int]:
        leaves, cone_size = self._grow_cone(aig, var)
        if cone_size < self.min_cone_size or len(leaves) < 2:
            return None
        num_vars = len(leaves)
        table = cone_truth_table(aig, var * 2, leaves)
        gain = cone_size - resynth_cost(table, num_vars)
        threshold = -1 if self.zero_cost else 0
        if gain <= threshold:
            return None
        leaf_literals = [mapping[leaf] for leaf in leaves]
        return synthesize_truth(new, table, num_vars, leaf_literals)
