"""Differential tests for the array-core transform paths.

* ``CutArrays.volumes`` against the scalar :func:`cut_volume` walk;
* :class:`Rewrite` on the array path against its scalar path
  (:meth:`Rewrite.apply_scalar`);
* the compaction-based :meth:`Aig.cleanup` against a node-by-node rebuild
  through :meth:`Aig.add_and`, kept here as the oracle.

Every comparison is exact: graphs must serialise to the same bytes.
"""

from __future__ import annotations

import random

import pytest

from repro.aig.cut_arrays import build_cut_arrays
from repro.aig.cuts import Cut, cut_volume
from repro.aig.graph import Aig
from repro.aig.literals import CONST0, CONST1, literal_var, negate_if
from repro.aig.random_graphs import random_aig
from repro.designs.registry import ALL_DESIGNS, build_design
from repro.io.aiger import dumps_aag
from repro.transforms.rewrite import Rewrite


def _tangled_aig(seed: int) -> Aig:
    """Small dense graph over 3-6 PIs; some seeds yield hazard cut rows."""
    rng = random.Random(seed)
    aig = Aig(f"tangled{seed}")
    literals = [aig.add_pi() for _ in range(rng.randint(3, 6))]
    for _ in range(rng.randint(5, 40)):
        a = rng.choice(literals[-rng.randint(2, len(literals)) :])
        b = rng.choice(literals)
        lit = aig.add_and(a ^ rng.randint(0, 1), b ^ rng.randint(0, 1))
        if lit > CONST1 and lit not in literals:
            literals.append(lit)
    aig.add_po(literals[-1])
    return aig


#: (seed, max_cuts_per_node) pairs whose 4-cut arrays take the hazard
#: fallback (a merged leaf inside a producing cone).
HAZARD_CASES = [(1675, 4), (2488, 4), (2590, 6)]


def _assert_volumes_match(aig: Aig, k: int, max_cuts: int) -> int:
    cuts = build_cut_arrays(aig, k, max_cuts)
    leaves = cuts.leaves.tolist()
    sizes = cuts.sizes.tolist()
    volumes = cuts.volumes.tolist()
    checked = 0
    for var in aig.and_vars():
        for row in cuts.node_rows(var):
            cut_leaves = tuple(leaves[row][: sizes[row]])
            if cut_leaves == (var,):
                assert volumes[row] == 0
                continue
            assert volumes[row] == cut_volume(aig, Cut(var, cut_leaves)), (var, cut_leaves)
            checked += 1
    return checked


# --------------------------------------------------------------------------- #
# CutArrays.volumes
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("k,max_cuts", [(4, 8), (3, 5), (2, 2)])
def test_volumes_match_cut_volume_random(seed, k, max_cuts):
    aig = random_aig(8, 4, 250, rng=seed, locality=6)
    assert _assert_volumes_match(aig, k, max_cuts) > 0


@pytest.mark.parametrize("name", ALL_DESIGNS)
def test_volumes_match_cut_volume_designs(name):
    assert _assert_volumes_match(build_design(name), 4, 8) > 0


@pytest.mark.parametrize("seed,max_cuts", HAZARD_CASES)
def test_volumes_match_cut_volume_on_hazard_rows(seed, max_cuts):
    aig = _tangled_aig(seed)
    assert build_cut_arrays(aig, 4, max_cuts).hazard_fallbacks > 0
    _assert_volumes_match(aig, 4, max_cuts)


def test_volumes_are_zero_on_base_rows():
    aig = random_aig(5, 2, 40, rng=3)
    cuts = build_cut_arrays(aig, 4, 8)
    for var in [0] + aig.pi_vars:
        assert cuts.volumes[cuts.start[var]] == 0


# --------------------------------------------------------------------------- #
# Rewrite: array path vs scalar path
# --------------------------------------------------------------------------- #
def _rewrite_cases():
    cases = [(f"random{seed}", 8) for seed in range(8)]
    cases += [(f"tangled{seed}", max_cuts) for seed, max_cuts in HAZARD_CASES]
    cases += [("EX00", 8), ("EX68", 8)]
    return cases


def _case_aig(label: str) -> Aig:
    if label.startswith("random"):
        seed = int(label[len("random") :])
        return random_aig(10, 6, 300, rng=100 + seed, locality=8)
    if label.startswith("tangled"):
        return _tangled_aig(int(label[len("tangled") :]))
    return build_design(label)


@pytest.mark.parametrize("zero_cost", [False, True])
@pytest.mark.parametrize("label,max_cuts", _rewrite_cases())
def test_rewrite_array_path_matches_scalar(label, max_cuts, zero_cost):
    rewrite = Rewrite(max_cuts_per_node=max_cuts, zero_cost=zero_cost)
    expected = dumps_aag(rewrite.apply_scalar(_case_aig(label)))
    assert dumps_aag(rewrite.apply(_case_aig(label))) == expected


@pytest.mark.parametrize("zero_cost", [False, True])
def test_rewrite_chain_matches_scalar(zero_cost):
    """Repeated rewriting feeds each pass the previous pass's output."""
    rewrite = Rewrite(zero_cost=zero_cost)
    array_aig = scalar_aig = random_aig(12, 6, 400, rng=77, locality=10)
    for _ in range(3):
        array_aig = rewrite.apply(array_aig)
        scalar_aig = rewrite.apply_scalar(scalar_aig)
        assert dumps_aag(array_aig) == dumps_aag(scalar_aig)


def test_rewrite_beyond_array_gate_runs_scalar_path():
    aig = random_aig(8, 4, 120, rng=5)
    rewrite = Rewrite(cut_size=5, max_cuts_per_node=6)
    assert dumps_aag(rewrite.apply(aig)) == dumps_aag(rewrite.apply_scalar(aig))


# --------------------------------------------------------------------------- #
# Aig.cleanup vs the node-by-node rebuild
# --------------------------------------------------------------------------- #
def _rebuild_cleanup(aig: Aig) -> Aig:
    """The pre-compaction cleanup: re-add every reachable node via add_and."""
    reachable = set()
    stack = [literal_var(lit) for lit in aig.po_literals()]
    while stack:
        var = stack.pop()
        if var in reachable or var == 0:
            continue
        reachable.add(var)
        if aig.is_and(var):
            f0, f1 = aig.fanins(var)
            stack.extend((literal_var(f0), literal_var(f1)))
    new = Aig(aig.name)
    old_to_new = {0: CONST0}
    for var, name in zip(aig.pi_vars, aig.pi_names):
        old_to_new[var] = new.add_pi(name)

    def mapped(lit: int) -> int:
        return negate_if(old_to_new[literal_var(lit)], lit & 1)

    for var in aig.and_vars():
        if var in reachable:
            f0, f1 = aig.fanins(var)
            old_to_new[var] = new.add_and(mapped(f0), mapped(f1))
    for lit, name in zip(aig.po_literals(), aig.po_names):
        new.add_po(mapped(lit), name)
    return new


def _state(aig: Aig):
    return (
        aig.name,
        aig._fanin0,
        aig._fanin1,
        aig._is_pi,
        aig._pis,
        aig._pi_names,
        aig._pos,
        aig._po_names,
        list(aig._strash.items()),
        aig._po_version,
    )


def _assert_cleanup_matches(aig: Aig) -> None:
    expected = _rebuild_cleanup(aig)
    got = aig.cleanup()
    assert _state(got) == _state(expected)
    assert dumps_aag(got) == dumps_aag(expected)
    # The compacted graph stays usable: strashing still finds its nodes.
    for (a, b), var in expected._strash.items():
        assert got.add_and(a, b) == 2 * var
    assert got.size == expected.size


def _interleaved_aig(seed: int) -> Aig:
    """PIs declared between AND nodes, dead logic, every kind of PO."""
    rng = random.Random(seed)
    aig = Aig(f"interleaved{seed}")
    literals = [aig.add_pi(), aig.add_pi()]
    for _ in range(rng.randint(10, 60)):
        if rng.random() < 0.2:
            literals.append(aig.add_pi())
            continue
        a, b = rng.sample(literals, 2)
        lit = aig.add_and(a ^ rng.randint(0, 1), b ^ rng.randint(0, 1))
        if lit > CONST1:
            literals.append(lit)
    for _ in range(rng.randint(0, 6)):
        choice = rng.random()
        if choice < 0.15:
            aig.add_po(rng.choice((CONST0, CONST1)))
        elif choice < 0.3:
            aig.add_po(rng.choice(aig.pi_literals()) ^ rng.randint(0, 1))
        elif choice < 0.4 and aig.num_pos:
            aig.add_po(aig.po_literals()[0])  # duplicate PO
        else:
            aig.add_po(rng.choice(literals[len(literals) // 2 :]) ^ rng.randint(0, 1))
    return aig


@pytest.mark.parametrize("seed", range(40))
def test_cleanup_matches_rebuild_interleaved(seed):
    _assert_cleanup_matches(_interleaved_aig(seed))


def test_cleanup_pi_after_and_swaps_fanin_order():
    aig = Aig("late_pi")
    a = aig.add_pi("a")
    b = aig.add_pi("b")
    ab = aig.add_and(a, b)
    late = aig.add_pi("late")
    top = aig.add_and(ab, late)
    assert aig.fanins(literal_var(top)) == (ab, late)
    aig.add_po(top ^ 1, "f")
    cleaned = aig.cleanup()
    assert cleaned.fanins(literal_var(cleaned.po_literals()[0])) == (6, 8)
    _assert_cleanup_matches(aig)


def test_cleanup_edge_cases():
    empty = Aig("empty")
    _assert_cleanup_matches(empty)
    const_only = Aig("const")
    const_only.add_po(CONST1, "one")
    const_only.add_po(CONST0, "zero")
    _assert_cleanup_matches(const_only)
    unused = Aig("unused")
    for name in "abcd":
        unused.add_pi(name)
    dead = unused.add_and(2, 4)
    unused.add_and(dead, 6)
    unused.add_po(8 ^ 1, "d_bar")
    unused.add_po(8, "d")
    unused.add_po(8, "d_again")
    _assert_cleanup_matches(unused)


@pytest.mark.parametrize("name", ["EX00", "EX08", "EX54"])
def test_cleanup_matches_rebuild_designs(name):
    aig = build_design(name).clone()
    # Dead logic on top of a real design.
    aig.add_and(aig.po_literals()[0], aig.pi_literals()[0] ^ 1)
    _assert_cleanup_matches(aig)
    rewritten = Rewrite(zero_cost=True).apply(build_design(name))
    _assert_cleanup_matches(rewritten)
