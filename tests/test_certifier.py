"""Two-hop trees, the seven rewrite detectors, and the certificate loop."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import helpers
from helpers import all_ones, all_twos
from hoptree.certifier import (
    CertificateResult,
    HopTree,
    Move,
    Roles,
    TreeError,
    _Draft,
    _first,
    apply_move_edges,
    apply_move_tree,
    certify_three_halves,
    find_op1,
    find_op2,
    find_op3,
    find_op4,
    find_op5,
    find_op6,
    find_op7,
    improve_until_certified,
    roles,
)
from hoptree.edge_repr import (
    DeficiencyClass,
    EdgeSolution,
    cost as edge_cost,
    deficiency_class,
    deficiency_set_size,
    metrics,
)
from hoptree.exact_oracle import optimum
from hoptree.graph_model import Instance
from hoptree.instance_gen import random_instance
from hoptree.vertex_repr import VertexSolution, build_tree, to_edge_solution


def make_instance(n: int, ones: list[tuple[int, int]]) -> Instance:
    """All-weight-2 instance with the listed pairs dropped to weight 1."""
    weights = [2] * (n * (n + 1) // 2)
    probe = Instance(n, weights)
    for u, v in ones:
        weights[probe.edge_index(u, v)] = 1
    return Instance(n, weights)


# --- the tree type ------------------------------------------------------------


def test_tree_validation():
    HopTree((0, 0, 1))  # vertex 2 under root child 1
    with pytest.raises(TreeError):
        HopTree((1, 0))
    with pytest.raises(TreeError):
        HopTree((0, 1))  # self-parent
    with pytest.raises(TreeError):
        HopTree((0, 0, 1, 2))  # vertex 3 would sit at depth three
    with pytest.raises(TreeError):
        HopTree((0,))


def test_tree_accessors(i3):
    t = HopTree((0, 2, 0, 2))
    assert t.n == 3
    assert helpers.children_of_root(t) == (2,)
    assert helpers.grandchildren(t) == (1, 3)
    assert (helpers.depth(t, 0), helpers.depth(t, 1), helpers.depth(t, 2)) == (0, 2, 1)
    assert helpers.children(t, 2) == (1, 3)
    assert helpers.has_child(t, 2) and not helpers.has_child(t, 1)
    assert t.cost(i3) == 4
    assert t.to_edge_solution(i3).edges(i3) == ((0, 2), (1, 2), (2, 3))


def test_tree_from_edges(i3):
    star = EdgeSolution(0b000111, i3.m)
    assert HopTree.from_edge_solution(i3, star) == HopTree((0, 0, 0, 0))
    path = EdgeSolution(0b101001, i3.m)
    with pytest.raises(TreeError):
        HopTree.from_edge_solution(i3, path)


def test_tree_edge_round_trip():
    rng = np.random.default_rng(43)
    for _ in range(50):
        n = int(rng.integers(2, 9))
        inst = Instance(n, [int(w) for w in rng.integers(1, 3, size=n * (n + 1) // 2)])
        t = helpers.random_tree(inst, rng)
        assert HopTree.from_edge_solution(inst, t.to_edge_solution(inst)) == t


# --- partition ----------------------------------------------------------------


def test_partition_reference_cases(i3):
    star = helpers.partition(i3, HopTree((0, 0, 0, 0)))
    assert star == helpers.VertexPartition(
        frozenset({1}), frozenset({2, 3}), frozenset(), frozenset()
    )
    assert star.identity_cost(3) == 5

    hung = helpers.partition(i3, HopTree((0, 2, 0, 2)))
    assert hung == helpers.VertexPartition(
        frozenset(), frozenset({2}), frozenset({1, 3}), frozenset()
    )
    assert hung.identity_cost(3) == 3 + 1 + 0 == 4


def test_partition_on_uniform_weights_has_no_weight_two_classes():
    inst = all_ones(4)
    rng = np.random.default_rng(47)
    for _ in range(10):
        part = helpers.partition(inst, helpers.random_tree(inst, rng))
        assert part.v12 == frozenset() and part.v22 == frozenset()


def test_partition_identity_matches_cost():
    rng = np.random.default_rng(53)
    for _ in range(50):
        n = int(rng.integers(2, 9))
        inst = Instance(n, [int(w) for w in rng.integers(1, 3, size=n * (n + 1) // 2)])
        t = helpers.random_tree(inst, rng)
        assert helpers.partition(inst, t).identity_cost(n) == t.cost(inst)


# --- moves --------------------------------------------------------------------


def test_apply_move_edges_validates(i3):
    star = EdgeSolution(0b000111, i3.m)
    with pytest.raises(ValueError):
        apply_move_edges(i3, star, Move(1, ((1, 2),), ((1, 3),), 0))
    with pytest.raises(ValueError):
        apply_move_edges(i3, star, Move(1, ((0, 1),), ((0, 2),), 0))


def test_move_describe():
    move = Move(3, ((0, 1),), ((1, 2),), -1)
    assert move.describe() == "op=3 remove=[(0,1)] add=[(1,2)] delta=-1"


# --- the five cost-1 rewrites on hand-built layouts ---------------------------


def test_rehang_grandchild_at_root():
    inst = make_instance(4, [(0, 2)])
    t = HopTree((0, 0, 3, 0, 0))
    assert find_op1(inst, t) == Move(1, ((2, 3),), ((0, 2),), -1)
    assert apply_move_tree(inst, t, find_op1(inst, t)).cost(inst) == t.cost(inst) - 1


def test_rehang_examples_without_match(i3):
    # both grandchildren already use weight-1 edges
    assert find_op1(i3, HopTree((0, 2, 0, 2))) is None
    # vertex 3's two options tie at weight 2
    assert find_op1(i3, HopTree((0, 0, 1, 1))) is None


def test_move_grandchild_under_other_child():
    inst = make_instance(4, [(1, 3)])
    t = HopTree((0, 0, 0, 2, 0))
    assert find_op2(inst, t) == Move(2, ((2, 3),), ((1, 3),), -1)


def test_move_childless_child_under_sibling():
    inst = make_instance(3, [(1, 2)])
    t = HopTree((0, 0, 0, 0))
    assert find_op3(inst, t) == Move(3, ((0, 1),), ((1, 2),), -1)


def test_promote_grandchild_capturing_leaf():
    # equal weights on the grandchild's two edges, in both flavours
    light = make_instance(4, [(0, 1), (1, 3), (1, 2)])
    t_light = HopTree((0, 3, 0, 0, 0))
    assert find_op4(light, t_light) == Move(
        4, ((1, 3), (0, 2)), ((0, 1), (1, 2)), -1
    )
    heavy = make_instance(4, [(1, 2)])
    t_heavy = HopTree((0, 3, 4, 0, 0))
    assert find_op4(heavy, t_heavy) == Move(
        4, ((1, 3), (2, 4)), ((0, 1), (1, 2)), -1
    )
    for inst, t in ((light, t_light), (heavy, t_heavy)):
        assert find_op1(inst, t) is None
        assert find_op2(inst, t) is None
        assert find_op3(inst, t) is None


def op5_layout() -> tuple[Instance, HopTree]:
    # grandchild 1 under 2 on a weight-1 edge, weight-2 root edge, and
    # weight-1 links to the expensive childless children 3 and 4
    inst = make_instance(5, [(1, 2), (1, 3), (1, 4)])
    return inst, HopTree((0, 2, 0, 0, 0, 0))


def test_promote_grandchild_capturing_two_leaves():
    inst, t = op5_layout()
    for earlier in (find_op1, find_op2, find_op3, find_op4):
        assert earlier(inst, t) is None
    assert find_op5(inst, t) == Move(
        5, ((1, 2), (0, 3), (0, 4)), ((0, 1), (1, 3), (1, 4)), -1
    )


def test_rewrites_apply_cleanly_when_found():
    rng = np.random.default_rng(59)
    finders = (find_op1, find_op2, find_op3, find_op4, find_op5)
    applied = 0
    for _ in range(200):
        n = int(rng.integers(2, 8))
        inst = Instance(n, [int(w) for w in rng.integers(1, 3, size=n * (n + 1) // 2)])
        t = helpers.random_tree(inst, rng)
        for op, finder in enumerate(finders, start=1):
            move = finder(inst, t)
            if move is None:
                continue
            applied += 1
            assert move.op == op and move.delta == -1
            after = apply_move_tree(inst, t, move)  # validates feasibility
            assert after.cost(inst) == t.cost(inst) - 1
    assert applied > 100


def test_rewrite_detectors_match_exhaustive_scan():
    rng = np.random.default_rng(61)
    finders = {1: find_op1, 2: find_op2, 3: find_op3, 4: find_op4, 5: find_op5}
    for _ in range(300):
        n = int(rng.integers(2, 8))
        inst = Instance(n, [int(w) for w in rng.integers(1, 3, size=n * (n + 1) // 2)])
        t = helpers.random_tree(inst, rng)
        for op, finder in finders.items():
            assert (finder(inst, t) is not None) == helpers.rewrite_exists(inst, t, op)
        assert (find_op6(inst, t) is not None) == helpers.rewrite_exists(inst, t, 6)


# --- the deficiency-driven pair -----------------------------------------------


def test_leaf_pair_capture_trades_cost_for_deficiency():
    inst, t = op5_layout()
    move = find_op6(inst, t)
    assert move == Move(6, ((0, 3), (0, 4)), ((1, 3), (1, 4)), -2)
    x2 = apply_move_edges(inst, t.to_edge_solution(inst), move)
    met = metrics(inst, x2)
    assert met.hamming == inst.n and met.n_cc == 1
    assert met.cost == t.cost(inst) - 2
    assert deficiency_class(inst, x2) is DeficiencyClass.ONE
    assert deficiency_set_size(inst, x2) == 1


def test_leaf_pair_capture_respects_partner_gate():
    inst, t = op5_layout()
    c = t.cost(inst)
    assert find_op6(inst, t, partner_f2=c - 2) is None
    assert find_op6(inst, t, partner_f2=c - 1) is not None


def test_deficiency_repair_chains_after_capture():
    inst, t = op5_layout()
    partner = t.to_edge_solution(inst)
    x3 = apply_move_edges(inst, partner, find_op6(inst, t))
    move = find_op7(inst, x3, partner)
    assert move == Move(7, ((1, 2),), ((0, 1),), 1)
    repaired = apply_move_edges(inst, x3, move)
    assert metrics(inst, repaired).feasible
    assert edge_cost(inst, repaired) == t.cost(inst) - 1


def test_deficiency_repair_gate_and_contract():
    inst, t = op5_layout()
    partner = t.to_edge_solution(inst)
    x3 = apply_move_edges(inst, partner, find_op6(inst, t))
    # a partner only one unit above x3 does not justify the repair
    repaired = apply_move_edges(inst, x3, find_op7(inst, x3, partner))
    assert find_op7(inst, x3, repaired) is None
    # shapes that are not one-deficient spanning trees are contract errors
    with pytest.raises(ValueError):
        find_op7(inst, partner, partner)  # nothing deeper than two hops
    broken = EdgeSolution(x3.bits & (x3.bits - 1), inst.m)  # drop an edge
    with pytest.raises(ValueError):
        find_op7(inst, broken, partner)


# --- certificates -------------------------------------------------------------


def test_certificate_reference_cases(i3):
    assert certify_three_halves(i3, HopTree((0, 2, 0, 2))) == CertificateResult(
        True, None
    )
    inst = make_instance(4, [(0, 2)])
    refuted = certify_three_halves(inst, HopTree((0, 0, 3, 0, 0)))
    assert not refuted.certified and refuted.move.op == 1
    assert refuted.describe().startswith("REFUTED op=1")


def test_uniform_instances_certify_any_tree():
    inst = all_ones(5)
    rng = np.random.default_rng(67)
    for _ in range(10):
        t = helpers.random_tree(inst, rng)
        assert certify_three_halves(inst, t).certified


def test_certified_optimal_tree(i3):
    _, children = optimum(i3)
    bits = 0
    for v in range(1, 4):
        bits |= 1 << (v - 1) if v in children else 0
    t = HopTree.from_edge_solution(i3, to_edge_solution(i3, VertexSolution(bits, 3)))
    assert certify_three_halves(i3, t).certified


def test_improvement_loop_reaches_certified_ratio():
    rng = np.random.default_rng(71)
    for _ in range(40):
        n = int(rng.integers(2, 11))
        inst = Instance(n, [int(w) for w in rng.integers(1, 3, size=n * (n + 1) // 2)])
        start = helpers.random_tree(inst, rng)
        final, moves = improve_until_certified(inst, start)
        assert certify_three_halves(inst, final).certified
        assert final.cost(inst) == start.cost(inst) - len(moves)
        assert 2 * final.cost(inst) <= 3 * optimum(inst)[0]


# --- the bitmask scans against the loop reference -----------------------------
#
# helpers keeps the loop scans and the edge round trip these scans replaced;
# every result below must match them exactly, down to the edge order.

_SCANS = (find_op1, find_op2, find_op3, find_op4, find_op5)
_REFERENCE_SCANS = (helpers.find_op1, helpers.find_op2, helpers.find_op3, helpers.find_op4, helpers.find_op5)


@st.composite
def instances_with_trees(draw, max_n: int = 12):
    """A random instance at any p1 and a messy two-hop tree on it."""
    n = draw(st.integers(2, max_n))
    p1 = draw(st.floats(0.0, 1.0))
    seed = draw(st.integers(0, 2**32 - 1))
    inst = random_instance(n, p1, seed)
    return inst, helpers.random_tree(inst, np.random.default_rng(seed))


def outcome(apply, inst, t, move):
    """The tree a move application returns, or the type of what it raises."""
    try:
        return apply(inst, t, move)
    except ValueError as exc:
        return type(exc)


def test_roles_match_their_definitions():
    rng = np.random.default_rng(73)
    for _ in range(100):
        n = int(rng.integers(2, 12))
        inst = random_instance(n, float(rng.random()), int(rng.integers(2**32)))
        t = helpers.random_tree(inst, rng)

        def mask(keep):
            return sum(1 << v for v in range(1, n + 1) if keep(v))

        p2 = mask(lambda v: inst.weight(t.parent[v], v) == 2)
        assert roles(inst, t) == Roles(
            mask(lambda v: t.parent[v] == 0),
            mask(lambda v: t.parent[v] != 0),
            mask(lambda v: helpers.has_child(t, v)),
            p2,
            mask(lambda v: inst.weight(0, v) == 2),
            sum(1 << v for v in helpers._leaf_roles(t)) & p2,
        )


@settings(max_examples=300, deadline=None)
@given(case=instances_with_trees(), gate=st.integers(-2, 1))
def test_scans_return_the_reference_moves(case, gate):
    inst, t = case
    r = roles(inst, t)
    for scan, reference in zip(_SCANS, _REFERENCE_SCANS):
        expected = reference(inst, t)
        assert scan(inst, t) == expected
        assert scan(inst, t, r) == expected
    for partner_f2 in (None, t.cost(inst) + gate):
        assert find_op6(inst, t, partner_f2) == helpers.find_op6(inst, t, partner_f2)
    verdict = certify_three_halves(inst, t)
    expected = helpers.certify_three_halves(inst, t)
    assert verdict == CertificateResult(expected is None, expected)


@st.composite
def instances_with_starts(draw, max_n: int = 48):
    """A random instance at any p1 and a start tree: a messy random tree, or
    the tree that a random child set decodes to."""
    inst, t = draw(instances_with_trees(max_n))
    if draw(st.booleans()):
        t = HopTree(build_tree(inst, VertexSolution(draw(st.integers(1, 2**inst.n - 1)), inst.n)))
    return inst, t


@settings(max_examples=200, deadline=None)
@given(case=instances_with_starts())
def test_improvement_loop_matches_the_reference(case):
    inst, t = case
    assert improve_until_certified(inst, t) == helpers.improve_until_certified(inst, t)


@settings(max_examples=150, deadline=None)
@given(case=instances_with_starts())
def test_draft_masks_follow_every_move(case):
    """The loop's draft, edited move by move, keeps the roles and child masks
    that a rebuild from its parent map gives."""
    inst, t = case
    draft = _Draft(inst, t)
    for move in helpers.improve_until_certified(inst, t)[1]:
        draft.apply(inst, move)
        tree = HopTree(tuple(draft.parent))
        assert draft.roles == roles(inst, tree)
        assert draft.below == [0] + [sum(1 << v for v in helpers.children(tree, h)) for h in range(1, inst.n + 1)]
    move = find_op6(inst, t)
    if move is not None:  # it puts two leaves under a grandchild
        with pytest.raises(TreeError):
            _Draft(inst, t).apply(inst, move)


@settings(max_examples=300, deadline=None)
@given(
    n=st.integers(1, 40),
    p1=st.floats(0.0, 1.0),
    seed=st.integers(0, 2**32 - 1),
    need=st.sampled_from([1, 2]),
    data=st.data(),
)
def test_first_match_takes_either_side(n, p1, seed, need, data):
    """The union over the targets (when they are fewer) and the walk over the
    candidates both give the lowest candidate with `need` weight-1 hits."""
    inst = random_instance(n, p1, seed)
    vertices = st.integers(0, 2**n - 1).map(lambda x: x << 1)  # the root is never a candidate or target
    candidates, targets = data.draw(vertices), data.draw(vertices)
    hits = {v: inst.n1_mask(v) & targets for v in range(n + 1) if candidates >> v & 1}
    matches = [v for v, h in hits.items() if h.bit_count() >= need]
    expected = (matches[0], hits[matches[0]]) if matches else (0, 0)
    assert _first(inst, candidates, targets, need) == expected


@settings(max_examples=300, deadline=None)
@given(case=instances_with_trees(), data=st.data())
def test_moves_on_the_parent_map_match_the_edge_round_trip(case, data):
    inst, t = case
    n = inst.n
    found = [scan(inst, t) for scan in _SCANS] + [find_op6(inst, t)]
    tree_edges = [(t.parent[v], v) for v in range(1, n + 1)]
    vertex = st.integers(-1, n + 1)
    edge = st.one_of(st.sampled_from(tree_edges), st.sampled_from(inst.pairs), st.tuples(vertex, vertex))
    edges = st.lists(edge.map(lambda e: e[::-1]) | edge, max_size=3).map(tuple)
    junk = [Move(0, data.draw(edges), data.draw(edges), 0) for _ in range(4)]
    for move in [m for m in found if m is not None] + junk:
        assert outcome(apply_move_tree, inst, t, move) == outcome(helpers.apply_move_tree, inst, t, move)


def test_large_improvement_matches_the_reference():
    inst = random_instance(256, 0.25, 20261)
    children = int.from_bytes(np.random.default_rng(20261).bytes(32), "little")
    start = HopTree(build_tree(inst, VertexSolution(children, 256)))
    final, moves = improve_until_certified(inst, start)
    assert (final, moves) == helpers.improve_until_certified(inst, start)
    assert len(moves) > 50
