import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bankcascades import (
    LoanSizeDistribution,
    degrees,
    from_edges,
    generate_er,
    load_edge_list,
    save_edge_list,
)

UNIT = LoanSizeDistribution.constant(1.0)


def test_zero_mean_degree_gives_empty_network():
    net = generate_er(4, 0.0, UNIT, 123)
    assert net.n_edges == 0
    assert degrees(net, 0) == (0, 0, 0.0, 0.0)


def test_full_probability_gives_complete_digraph():
    net = generate_er(3, 2.0, UNIT, 9)
    assert net.n_edges == 6
    assert np.all(net.loan_size == 1.0)
    pairs = set(zip(net.lender.tolist(), net.borrower.tolist()))
    assert pairs == {(i, j) for i in range(3) for j in range(3) if i != j}


def test_edge_count_matches_binomial_statistics():
    # 999000 candidate pairs, each kept with p = 5/999
    n, z = 1000, 5.0
    p = z / (n - 1)
    mean = n * (n - 1) * p
    sd = math.sqrt(n * (n - 1) * p * (1 - p))
    net = generate_er(n, z, UNIT, 2024)
    assert abs(net.n_edges - mean) <= 4 * sd


@pytest.mark.parametrize("bad", [-0.5, 1000.0, 1e9, math.nan, math.inf])
def test_invalid_mean_degree_rejected(bad):
    with pytest.raises(ValueError):
        generate_er(1000, bad, UNIT, 0)


def test_degrees_single_edge():
    net = from_edges(2, [(0, 1, 1.0)])
    assert degrees(net, 0) == (1, 0, 1.0, 0.0)
    assert degrees(net, 1) == (0, 1, 0.0, 1.0)


def test_degrees_sums_unit_loans():
    # node 0: three unit loans out, two unit loans in
    net = from_edges(6, [(0, 1, 1.0), (0, 2, 1.0), (0, 3, 1.0), (4, 0, 1.0), (5, 0, 1.0)])
    assert degrees(net, 0) == (3, 2, 3.0, 2.0)


def test_degrees_sums_heterogeneous_loans():
    net = from_edges(3, [(0, 1, 0.4), (0, 2, 1.2)])
    out_deg, in_deg, lent, borrowed = degrees(net, 0)
    assert (out_deg, in_deg, borrowed) == (2, 0, 0.0)
    assert lent == pytest.approx(1.6, abs=1e-12)


def test_degrees_node_out_of_range():
    net = from_edges(2, [(0, 1, 1.0)])
    with pytest.raises(ValueError):
        degrees(net, 2)


def test_total_lent_equals_total_borrowed():
    loan = LoanSizeDistribution.uniform(0.2, 1.8)
    for seed in range(5):
        net = generate_er(80, 4.0, loan, seed)
        assert net.interbank_assets.sum() == pytest.approx(net.interbank_liabilities.sum(),
                                                           rel=1e-12)
        assert net.interbank_assets.sum() == pytest.approx(net.loan_size.sum(), rel=1e-12)


def test_same_seed_reproduces_edge_list_byte_for_byte(tmp_path):
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    save_edge_list(generate_er(200, 3.0, LoanSizeDistribution.uniform(0.2, 1.8), 77), a)
    save_edge_list(generate_er(200, 3.0, LoanSizeDistribution.uniform(0.2, 1.8), 77), b)
    assert a.read_bytes() == b.read_bytes()


def test_empirical_mean_degree_converges():
    # pooled over repetitions the edge count is binomial; use a 3-sigma band
    n, z, reps = 100, 4.0, 40
    p = z / (n - 1)
    total = sum(generate_er(n, z, UNIT, 1000 + r).n_edges for r in range(reps))
    trials = reps * n * (n - 1)
    sd = math.sqrt(trials * p * (1 - p))
    assert abs(total - trials * p) <= 3 * sd


def test_dump_load_round_trip(tmp_path):
    net = generate_er(60, 3.0, LoanSizeDistribution.uniform(0.2, 1.8), 5)
    path = tmp_path / "net.txt"
    save_edge_list(net, path)
    back = load_edge_list(path)
    assert back.n_nodes == net.n_nodes
    assert np.array_equal(back.lender, net.lender)
    assert np.array_equal(back.borrower, net.borrower)
    assert np.array_equal(back.loan_size, net.loan_size)


def test_constructor_rejects_bad_edges():
    with pytest.raises(ValueError):
        from_edges(3, [(0, 0, 1.0)])  # self-loop
    with pytest.raises(ValueError):
        from_edges(3, [(0, 1, 1.0), (0, 1, 2.0)])  # duplicate pair
    with pytest.raises(ValueError):
        from_edges(3, [(0, 1, 0.0)])  # non-positive loan
    with pytest.raises(ValueError):
        from_edges(2, [(0, 5, 1.0)])  # id out of range


def test_loan_distribution_validation():
    with pytest.raises(ValueError):
        LoanSizeDistribution.constant(0.0)
    with pytest.raises(ValueError):
        LoanSizeDistribution.uniform(0.0, 1.0)
    with pytest.raises(ValueError):
        LoanSizeDistribution.uniform(2.0, 1.0)
    for bad in (math.inf, math.nan):
        with pytest.raises(ValueError, match="finite"):
            LoanSizeDistribution.constant(bad)
        with pytest.raises(ValueError, match="finite"):
            LoanSizeDistribution.uniform(1.0, bad)


def test_network_arrays_are_frozen():
    net = generate_er(10, 2.0, UNIT, 1)
    with pytest.raises(ValueError):
        net.loan_size[0] = 5.0


@settings(max_examples=40, deadline=None)
@given(n=st.integers(2, 25), z_frac=st.floats(0.0, 1.0), seed=st.integers(0, 2**31 - 1))
def test_generated_networks_are_consistent(n, z_frac, seed):
    net = generate_er(n, z_frac * (n - 1), LoanSizeDistribution.uniform(0.5, 1.5), seed)
    assert np.all(net.lender != net.borrower)
    key = net.lender * n + net.borrower
    assert len(np.unique(key)) == net.n_edges
    # cached per-direction indexes agree with the raw edge list
    for node in range(n):
        mask_out = net.lender == node
        assert net.interbank_assets[node] == pytest.approx(net.loan_size[mask_out].sum())
        nbrs, loans = net.lenders_of(node)
        mask_in = net.borrower == node
        assert loans.sum() == pytest.approx(net.loan_size[mask_in].sum())
        assert sorted(nbrs.tolist()) == sorted(net.lender[mask_in].tolist())


@st.composite
def _edge_sets(draw):
    n = draw(st.integers(2, 60))
    flat = draw(st.sets(st.integers(0, n * (n - 1) - 1), max_size=4 * n))
    edges = []
    for f in flat:
        lender, col = divmod(f, n - 1)
        edges.append((lender, col + (col >= lender), 1.0))  # skip the diagonal
    return n, edges


@settings(max_examples=60, deadline=None)
@given(_edge_sets())
def test_in_edge_order_is_the_borrower_lender_lexsort(case):
    n, edges = case
    net = from_edges(n, edges)
    want = np.lexsort((net.lender, net.borrower))
    assert np.array_equal(net._in_order, want)
    assert np.array_equal(net.in_lender, net.lender[want])
