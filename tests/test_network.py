import hashlib
import math
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bankcascades import (
    DirectedNetwork,
    LoanSizeDistribution,
    from_edges,
    generate_er,
    load_edge_list,
    save_edge_list,
)
from bankcascades.balance_cascade import balance_rows

UNIT = LoanSizeDistribution.constant(1.0)


def _bank(net, node):
    """(out-degree, in-degree, total lent, total borrowed) of one bank."""
    return (net.out_degree[node], net.in_degree[node], net.interbank_assets[node],
            net.interbank_liabilities[node])
GOLDEN_ER_V2_SHA256 = "51bb812b59464896cec94cca3c679a91f5bf8b16d0d674f5016331dc644b89b3"


def test_zero_mean_degree_gives_empty_network():
    for n in (1, 2, 4):
        net = generate_er(n, 0.0, UNIT, 123)
        assert net.n_edges == 0
        assert _bank(net, 0) == (0, 0, 0.0, 0.0)


def test_full_probability_gives_complete_digraph():
    for n in (2, 3, 7, 50):
        net = generate_er(n, n - 1, UNIT, 9)
        assert net.n_edges == n * (n - 1)
        assert np.all(net.loan_size == 1.0)
        pairs = set(zip(net.lender.tolist(), net.borrower.tolist()))
        assert pairs == {(i, j) for i in range(n) for j in range(n) if i != j}


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
    assert _bank(net, 0) == (1, 0, 1.0, 0.0)
    assert _bank(net, 1) == (0, 1, 0.0, 1.0)


def test_degrees_sums_unit_loans():
    # node 0: three unit loans out, two unit loans in
    net = from_edges(6, [(0, 1, 1.0), (0, 2, 1.0), (0, 3, 1.0), (4, 0, 1.0), (5, 0, 1.0)])
    assert _bank(net, 0) == (3, 2, 3.0, 2.0)


def test_degrees_sums_heterogeneous_loans():
    net = from_edges(3, [(0, 1, 0.4), (0, 2, 1.2)])
    out_deg, in_deg, lent, borrowed = _bank(net, 0)
    assert (out_deg, in_deg, borrowed) == (2, 0, 0.0)
    assert lent == pytest.approx(1.6, abs=1e-12)


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
    with pytest.raises(ValueError, match="unique and sorted"):
        from_edges(3, [(0, 1, 1.0), (0, 1, 2.0)])  # duplicate pair
    with pytest.raises(ValueError, match="unique and sorted"):
        DirectedNetwork(3, np.array([0, 1, 0]), np.array([1, 2, 2]), np.ones(3))  # unsorted
    with pytest.raises(ValueError):
        from_edges(3, [(0, 1, 0.0)])  # non-positive loan
    for bad in (math.nan, math.inf, -math.inf):
        for edges in ([(0, 1, bad), (1, 2, 1.0)], [(0, 1, 1.0), (1, 2, bad), (2, 0, 1.0)]):
            with pytest.raises(ValueError, match="loan sizes must be positive and finite"):
                from_edges(3, edges)
    with pytest.raises(ValueError):
        from_edges(2, [(0, 5, 1.0)])  # id out of range


def test_node_counts_and_ids_must_be_whole_numbers():
    # a float node count once built a network of float64 ids, which failed
    # later in build_sheets; a fractional id was truncated to the id below
    with pytest.raises(ValueError, match="n must be an integer"):
        generate_er(1000.0, 3.0, UNIT, 1)
    with pytest.raises(ValueError, match="node ids must be whole numbers"):
        from_edges(3, [(0, 1.7, 1.0)])
    one_edge = (np.array([0]), np.array([1]), np.array([1.0]))
    for bad in (3.0, True, np.float64(3.0)):
        with pytest.raises(ValueError, match="n_nodes must be an integer"):
            DirectedNetwork(bad, *one_edge)
    with pytest.raises(ValueError, match="ids must be integer arrays"):
        DirectedNetwork(3, np.array([0.0]), np.array([1.0]), np.array([1.0]))
    # whole-number floats and numpy integers are ids
    net = from_edges(np.int64(3), [(0, 2.0, 1.0), (np.int32(1), 0, 1.0)])
    assert net.lender.tolist() == [1, 0] and net.borrower.tolist() == [0, 2]


def test_loan_unit_exponent_reads_every_loan_of_a_large_network():
    # the exponent reads 2**16 loans at a time: one fine loan in any piece
    # sets it, the first and the last piece's included, whether the smallest
    # loans' binade holds it (1 + 2**-52, odd bits) or not (1 + 2**-20)
    complete = generate_er(300, 299.0, UNIT, 0)  # 89,700 unit loans
    assert complete.loan_unit_exponent == 0
    for at in (0, 2**16 - 1, 2**16, complete.n_edges - 1):
        for fine, s in ((1 + 2.0**-20, 20), (1 + 2.0**-52, 52)):
            loans = np.ones(complete.n_edges)
            loans[at] = fine
            net = DirectedNetwork(300, complete.lender, complete.borrower, loans)
            assert net.loan_unit_exponent == s, (at, s)


def test_loan_unit_exponent_is_the_least_making_every_loan_whole():
    # against exact fractions: a loan p / 2**k in lowest terms needs s >= k
    def least(loans):
        return max([0] + [Fraction(x).denominator.bit_length() - 1 for x in loans.tolist()])

    nets = [generate_er(1000, 3.0, UNIT, 1),  # cases A and B: unit loans
            generate_er(1000, 3.0, LoanSizeDistribution.uniform(0.2, 1.8), 2)]  # case C
    rng = np.random.default_rng(3)
    for loans in (2.0 ** rng.integers(-60, 60, 500),  # all powers of two
                  np.r_[1.0, 5e-324, 0.75],  # a subnormal: bit 0 set, yet 2**-1074
                  np.r_[3 * 5e-324, 2.0**-1022 + 2.0**-1070],  # subnormal and normal
                  np.r_[0.25 + 2.0**-51, 0.5 - 2.0**-52, 1 + 2.0**-52],  # even bits in the smallest binade
                  np.r_[2.0**53, 2.0**60 + 2**8],  # whole loans past 2**53
                  np.exp(rng.uniform(-30, 30, 500))):  # mixed binades
        n = len(loans) + 1
        nets.append(DirectedNetwork(n, np.zeros(n - 1, np.int64), np.arange(1, n), loans))
    for net in nets:
        assert net.loan_unit_exponent == least(net.loan_size), net.loan_size[:3]


def test_edge_list_files_with_non_finite_loans_are_rejected(tmp_path):
    # a NaN loan once built a network in which its lender was no lender, and
    # an infinite one failed only deep in the kernel's loan units
    for bad in ("nan", "inf"):
        path = tmp_path / f"{bad}.txt"
        path.write_text(f"3\n0 1 {bad}\n1 2 1.0\n")
        with pytest.raises(ValueError, match="loan sizes must be positive and finite"):
            load_edge_list(path)


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
    # cached per-bank indexes agree with the raw edge list
    for node in range(n):
        mask_out = net.lender == node
        assert net.interbank_assets[node] == pytest.approx(net.loan_size[mask_out].sum())
        in_edges = slice(net.in_indptr[node], net.in_indptr[node + 1])
        nbrs, loans = net.lender[in_edges], net.loan_size[in_edges]
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


def _crowded_edges(n, n_edges, seed):
    """(n, edges): random edges, half of whose borrowers crowd into the top
    40 ids, so that those borrowers take loans from many lenders."""
    rng = np.random.default_rng(seed)
    borrowers = rng.integers(0, n, n_edges)
    borrowers[::2] = rng.integers(n - 40, n, borrowers[::2].size)
    pairs = zip(rng.integers(0, n, n_edges).tolist(), borrowers.tolist())
    return n, [(lender, borrower, 1.0) for lender, borrower in set(pairs) if lender != borrower]


# the stable sort by borrower takes uint8 borrowers in the hypothesis cases,
# uint16 ones at 300 nodes and uint32 ones (numpy's non-radix sort) at 70,000
@settings(max_examples=60, deadline=None)
@given(_edge_sets())
@example(_crowded_edges(300, 3000, seed=1))
@example(_crowded_edges(70_000, 20_000, seed=2))
def test_edges_are_stored_in_borrower_lender_lexsort_order(case):
    n, edges = case
    net = from_edges(n, edges)
    got = list(zip(net.borrower.tolist(), net.lender.tolist(), net.loan_size.tolist()))
    assert got == sorted((borrower, lender, loan) for lender, borrower, loan in edges)
    loans = LoanSizeDistribution.uniform(0.2, 1.8)
    for z in (len(edges) / n, min(n - 1, 3.0)):
        net = generate_er(n, z, loans, len(edges))
        assert np.array_equal(np.lexsort((net.lender, net.borrower)), np.arange(net.n_edges))


@settings(max_examples=60, deadline=None)
@given(_edge_sets())
def test_lender_and_borrower_are_frozen_intp_arrays(case):
    n, edges = case
    net = from_edges(n, edges)
    for ids in (net.lender, net.borrower):
        assert ids.dtype == np.intp
        with pytest.raises(ValueError):
            ids[...] = 0


def test_ids_of_any_integer_dtype_give_the_same_network():
    # uint64 ids once passed the dtype check and then failed to form the
    # order key; the kernel reads the ids as they are stored, as intp
    net = generate_er(300, 4.0, UNIT, 3)
    margin = np.random.default_rng(3).uniform(-0.5, 2.0, (20, 300))
    want = balance_rows(net, margin)
    assert (want.max(axis=1) > 0).sum() > 5  # cascades: the comparison is not vacuous
    for dtype in (np.int32, np.uint16, np.uint64):
        ids = net.lender.astype(dtype), net.borrower.astype(dtype)
        other = DirectedNetwork(300, *ids, net.loan_size)
        assert other.lender.dtype == other.borrower.dtype == np.intp
        assert np.array_equal(other.lender, net.lender)
        assert np.array_equal(other.borrower, net.borrower)
        assert np.array_equal(balance_rows(other, margin), want)
    with pytest.raises(ValueError, match="lender id out of range"):  # wraps to -2**63
        DirectedNetwork(3, np.array([2**63], np.uint64), np.array([1], np.uint64), np.ones(1))


# -- network stream er-v2: geometric skips between successive edges -----------

def _reference_er_v2(n, z, seed, loan_lo, loan_hi):
    """Plain-numpy er-v2: geometric gaps in row-major pair order, chunks of
    int(E + 4 sqrt(E)) + 16 draws until a position passes the last pair, then
    one uniform loan per kept pair."""
    rng = np.random.default_rng(seed)
    pairs = n * (n - 1)
    p = z / (n - 1)
    expected = pairs * p
    chunk = int(expected + 4 * math.sqrt(expected)) + 16
    positions = []
    last = -1
    while last < pairs:
        for gap in rng.geometric(p, chunk).tolist():
            last += gap
            if last < pairs:
                positions.append(last)
    lender = [f // (n - 1) for f in positions]
    col = [f % (n - 1) for f in positions]
    borrower = [c + 1 if c >= i else c for i, c in zip(lender, col)]
    return lender, borrower, rng.uniform(loan_lo, loan_hi, size=len(positions))


@pytest.mark.parametrize("n,z,seed", [(2, 1.0, 3), (7, 2.5, 0), (40, 3.0, 11),
                                      (300, 1.0, 5), (300, 8.0, 2**40 + 1), (25, 24.0, 9)])
def test_er_v2_equals_a_plain_numpy_reference(n, z, seed):
    net = generate_er(n, z, LoanSizeDistribution.uniform(0.2, 1.8), seed)
    lender, borrower, loan = _reference_er_v2(n, z, seed, 0.2, 1.8)
    drawn = np.lexsort((net.borrower, net.lender))  # the reference's (lender, borrower) order
    assert net.lender[drawn].tolist() == lender
    assert net.borrower[drawn].tolist() == borrower
    assert np.array_equal(net.loan_size[drawn], loan)


@pytest.mark.parametrize("z", [0.2, 2.0])  # p = 0.05 and 0.5 take numpy's two geometric laws
def test_er_v2_keeps_every_ordered_pair_with_probability_p(z):
    n, reps = 5, 2000
    p = z / (n - 1)
    counts = np.zeros((n, n), dtype=np.int64)
    for seed in range(reps):
        net = generate_er(n, z, UNIT, seed)
        assert np.all(net.lender != net.borrower)
        np.add.at(counts, (net.lender, net.borrower), 1)
    sd = math.sqrt(reps * p * (1 - p))
    off_diagonal = ~np.eye(n, dtype=bool)
    assert np.all(np.abs(counts[off_diagonal] - reps * p) <= 5 * sd), counts
    assert np.all(counts[~off_diagonal] == 0)


def test_er_v2_builds_a_sparse_network_of_a_hundred_thousand_banks_quickly():
    # the dense pair scan would need 10**10 uniforms (80 GB) here
    n, z = 10**5, 3.0
    start = time.perf_counter()
    net = generate_er(n, z, LoanSizeDistribution.uniform(0.2, 1.8), 17)
    elapsed = time.perf_counter() - start
    assert abs(net.n_edges - n * z) <= 6 * math.sqrt(n * z)
    assert elapsed < 1.0, elapsed


@pytest.mark.parametrize("n", [2, 3, 1000])
@pytest.mark.parametrize("z_frac", [1e-300, 1e-18])
def test_er_v2_tiny_degrees_finish_without_edges(n, z_frac):
    # numpy's geometric returns INT64_MAX at such p; the gaps must not wrap.
    # At most 1e-12 edges are expected, so a clipped gap must not land an edge.
    start = time.perf_counter()
    net = generate_er(n, z_frac * (n - 1), UNIT, 1)
    assert net.n_edges == 0
    assert time.perf_counter() - start < 1.0


def test_er_v2_golden_edge_list(tmp_path):
    # pins numpy's geometric and uniform streams; a numpy whose geometric law
    # draws differently changes this digest and every er-v2 network
    path = tmp_path / "net.txt"
    save_edge_list(generate_er(50, 3.0, LoanSizeDistribution.uniform(0.2, 1.8), 2024), path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == GOLDEN_ER_V2_SHA256
