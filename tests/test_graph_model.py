"""Instance construction, edge indexing, and the text format."""

import pytest
from hypothesis import given, strategies as st

from helpers import all_ones, all_twos
from hoptree.graph_model import (
    Instance,
    InstanceFormatError,
    load_instance,
    save_instance,
)


def test_edge_index_is_lexicographic():
    inst = all_ones(5)
    i = 0
    for u in range(6):
        for v in range(u + 1, 6):
            assert inst.edge_index(u, v) == i
            assert inst.pair(i) == (u, v)
            i += 1
    assert i == inst.m == 15
    for n in range(1, 9):
        inst = all_twos(n)
        assert len(inst.pairs) == inst.m
        for u in range(n + 1):
            for v in range(u + 1, n + 1):
                assert inst.pairs[inst.edge_index(u, v)] == (u, v)


def test_edge_index_accepts_swapped_endpoints():
    inst = all_ones(4)
    assert inst.edge_index(3, 1) == inst.edge_index(1, 3)


def test_edge_index_rejects_bad_pairs():
    inst = all_ones(3)
    with pytest.raises(ValueError):
        inst.edge_index(1, 1)
    with pytest.raises(ValueError):
        inst.edge_index(0, 4)
    with pytest.raises(ValueError):
        inst.edge_index(-1, 2)


def test_reference_weights(i3):
    assert i3.weight(0, 1) == 1
    assert i3.weight(2, 3) == 1
    assert i3.weight(0, 2) == 2
    # symmetry
    for u in range(4):
        for v in range(4):
            if u != v:
                assert i3.weight(u, v) == i3.weight(v, u)


def test_constant_instance_weights():
    inst = all_ones(4)
    assert all(inst.weight(u, v) == 1 for u in range(5) for v in range(u + 1, 5))


def test_n1_neighbors(i3):
    assert all_twos(4).n1_neighbors(1) == frozenset()
    assert all_ones(3).n1_neighbors(0) == frozenset({1, 2, 3})
    assert i3.n1_neighbors(1) == frozenset({0, 2})


def test_n1_mask_matches_neighbor_set(i3):
    for v in range(4):
        mask = i3.n1_mask(v)
        assert {b for b in range(4) if mask >> b & 1} == set(i3.n1_neighbors(v))


def test_constructor_validation():
    with pytest.raises(ValueError):
        Instance(0, [])
    with pytest.raises(ValueError):
        Instance(2, [1, 1])  # needs 3 weights
    with pytest.raises(ValueError):
        Instance(2, [1, 3, 2])


def test_smallest_instance_text():
    inst = Instance.from_text("n 1\n1\n")
    assert inst.n == 1
    assert inst.weight(0, 1) == 1


def test_serialize_reference(i3):
    assert i3.to_text() == "n 3\n1 2 2\n1 2\n1\n"


def test_comments_and_blank_lines():
    text = "# reference\n\nn 3\n1 2 2  # first row\n\n1 2\n1\n"
    assert Instance.from_text(text) == Instance(3, [1, 2, 2, 1, 2, 1])


@given(
    st.integers(min_value=1, max_value=7).flatmap(
        lambda n: st.lists(
            st.sampled_from([1, 2]),
            min_size=n * (n + 1) // 2,
            max_size=n * (n + 1) // 2,
        ).map(lambda w: Instance(n, w))
    )
)
def test_text_round_trip(inst):
    assert Instance.from_text(inst.to_text()) == inst
    for i, (u, v) in enumerate(inst.pairs):
        assert (inst.w2_mask >> i & 1) == (inst.weights[i] == 2)
        assert (inst.n1_mask(u) >> v & 1) == (inst.n1_mask(v) >> u & 1) == (inst.weights[i] == 1)
    assert inst.w2_mask >> inst.m == 0
    assert all(not inst.n1_mask(v) >> v & 1 for v in range(inst.n + 1))


@pytest.mark.parametrize(
    "text, lineno",
    [
        ("n 3\n1 2 2\n1 3\n1\n", 3),  # weight out of range
        ("n 3\n1 2 2\n1\n1\n", 3),  # short row
        ("n 3\n1 2 2 1\n1 2\n1\n", 2),  # long row
        ("m 3\n1 2 2\n1 2\n1\n", 1),  # bad header
        ("n x\n", 1),  # non-integer count
        ("n 2\n1 x\n1\n", 2),  # non-integer weight
    ],
)
def test_parse_errors_carry_line_numbers(text, lineno):
    with pytest.raises(InstanceFormatError, match=f"line {lineno}"):
        Instance.from_text(text)


def test_parse_errors_without_single_line():
    with pytest.raises(InstanceFormatError):
        Instance.from_text("")
    with pytest.raises(InstanceFormatError):
        Instance.from_text("n 3\n1 2 2\n1 2\n")  # missing last row


def test_file_round_trip(tmp_path, i3):
    path = tmp_path / "ref.inst"
    save_instance(i3, path)
    assert load_instance(path) == i3
