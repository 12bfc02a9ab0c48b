"""Cut-based rewriting (the ABC ``rewrite`` command, simplified).

For every AND node the transform looks at the node's k-feasible cuts, takes
the exact function and the cone volume of each, and resynthesises that
function from the cut leaves.  The resynthesised implementation replaces the
original cone when its estimated cost is no worse; because the new graph is
built with structural hashing, logic shared with already-rebuilt parts of the
network is reused for free, which is where most of the node savings come
from.

Cuts, truth tables and volumes come from the array core
(:func:`repro.aig.cut_arrays.build_cut_arrays`), which enumerates them in
level-wave numpy batches and memoises them on the graph, so the per-node loop
only reads CSR rows.  Graphs outside the array gate
(:func:`~repro.aig.cut_arrays.cut_arrays_supported`) take
:meth:`Rewrite.apply_scalar`, which builds the same rows from
:func:`~repro.aig.cuts.enumerate_cuts` with one cone walk per cut; both paths
produce the same graph.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from repro.aig import cut_arrays
from repro.aig.cuts import cut_volume, enumerate_cuts
from repro.aig.graph import Aig, rebuild_map
from repro.aig.simulate import cone_truth_table
from repro.transforms.base import Transform
from repro.transforms.resynth import resynth_cost, synthesize_truth

#: Per-cut rows in CSR form: ``(start, count, leaves, sizes, tables,
#: volumes)``; rows ``start[var] .. start[var] + count[var]`` are *var*'s
#: cuts, and ``leaves[row][:sizes[row]]`` are a row's leaves.
CutRows = Tuple[
    List[int], List[int], Sequence[Sequence[int]], List[int], List[int], List[int]
]


class Rewrite(Transform):
    """Resynthesise small cones from their cut functions to save nodes."""

    name = "rw"

    def __init__(
        self,
        cut_size: int = 4,
        max_cuts_per_node: int = 8,
        zero_cost: bool = False,
    ) -> None:
        self.cut_size = cut_size
        self.max_cuts_per_node = max_cuts_per_node
        #: When true, replacements with equal estimated cost are also taken,
        #: which perturbs the structure without increasing node count
        #: (useful as a diversification move inside simulated annealing).
        self.zero_cost = zero_cost

    def apply(self, aig: Aig) -> Aig:
        if not cut_arrays.cut_arrays_supported(aig, self.cut_size):
            return self.apply_scalar(aig)
        cuts = cut_arrays.build_cut_arrays(
            aig, self.cut_size, self.max_cuts_per_node
        )
        rows = (
            cuts.start.tolist(),
            cuts.count.tolist(),
            cuts.leaves.tolist(),
            cuts.sizes.tolist(),
            cuts.tables.tolist(),
            cuts.volumes.tolist(),
        )
        return self._rebuild(aig, rows)

    def apply_scalar(self, aig: Aig) -> Aig:
        """Rewrite from :func:`enumerate_cuts` with a cone walk per cut.

        The path for cut sizes or graph sizes beyond the array gate, and the
        reference the array path is tested against.
        """
        cuts = enumerate_cuts(
            aig,
            k=self.cut_size,
            max_cuts_per_node=self.max_cuts_per_node,
            include_trivial=True,
        )
        start = [0] * aig.size
        count = [0] * aig.size
        leaves: List[Tuple[int, ...]] = []
        sizes: List[int] = []
        tables: List[int] = []
        volumes: List[int] = []
        for var in aig.and_vars():
            node_cuts = cuts[var]
            start[var] = len(leaves)
            count[var] = len(node_cuts)
            for cut in node_cuts:
                leaves.append(cut.leaves)
                sizes.append(cut.size)
                if cut.size < 2:
                    tables.append(0)
                    volumes.append(0)
                else:
                    tables.append(cone_truth_table(aig, var * 2, cut.leaves))
                    volumes.append(cut_volume(aig, cut))
        return self._rebuild(aig, (start, count, leaves, sizes, tables, volumes))

    def _rebuild(self, aig: Aig, rows: CutRows) -> Aig:
        """Copy *aig*, replacing each node by its best-gain cut resynthesis."""
        start, count, leaves, sizes, tables, volumes = rows
        new = Aig(aig.name)
        mapping = rebuild_map(aig, new)
        fanin0 = aig._fanin0
        fanin1 = aig._fanin1
        add_and = new.add_and
        min_gain = -1 if self.zero_cost else 0

        for var in aig.and_vars():
            f0 = fanin0[var]
            f1 = fanin1[var]
            default_lit = add_and(
                mapping[f0 >> 1] ^ (f0 & 1), mapping[f1 >> 1] ^ (f1 & 1)
            )
            best_lit = None
            best_gain = min_gain
            begin = start[var]
            for row in range(begin, begin + count[var]):
                size = sizes[row]
                # Trivial cuts (the node itself) have one leaf.
                if size < 2:
                    continue
                table = tables[row]
                gain = volumes[row] - resynth_cost(table, size)
                if gain > best_gain:
                    leaf_literals = [mapping[leaf] for leaf in leaves[row][:size]]
                    best_lit = synthesize_truth(new, table, size, leaf_literals)
                    best_gain = gain
            mapping[var] = best_lit if best_lit is not None else default_lit

        for lit, name in zip(aig.po_literals(), aig.po_names):
            new.add_po(mapping[lit >> 1] ^ (lit & 1), name)
        result = new.cleanup()
        # The per-cone gain estimate ignores sharing outside the cut, so the
        # rebuilt graph can occasionally end up larger; in strict (non
        # zero-cost) mode fall back to the original structure in that case.
        if not self.zero_cost and result.num_ands > aig.num_ands:
            return aig.cleanup()
        return result
