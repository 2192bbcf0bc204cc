"""Graph generation, exact oracles, agents, and the benchmark campaign."""

import math
import pickle
import re
import signal
import tracemalloc
from contextlib import contextmanager
from itertools import combinations
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import acp.coloring
from acp import (
    AGENT_KINDS,
    ColoringInstance,
    Graph,
    SearchStats,
    count_proper_colorings,
    gen_erdos_renyi,
    is_k_colorable,
    predict_cost,
    run_campaign,
    search_information,
    solve,
)
from acp.seeding import rng_for

K4 = Graph(4, ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)))
C5 = Graph(5, ((0, 1), (1, 2), (2, 3), (3, 4), (0, 4)))
TRIANGLE = Graph(3, ((0, 1), (0, 2), (1, 2)))
PATH3 = Graph(3, ((0, 1), (1, 2)))
# draw 22 of rng_for(0, 0) at n = 60, p = 0.05: one 57-vertex, 3-colorable component, which
# branching on the lowest uncolored vertex did not decide in 60 s
DRAW_22 = gen_erdos_renyi(60, 0.05, 4379886395524563040)
# seeds at the edges of SeedSequence's 32-bit entropy words
EDGE_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**63 - 1, 2**64 - 1]
# the first feasible G(40, 0.1) of master seed 0: the random agent needs
# 447 271 expansions uncapped, the acp agent 40
CAPPED_40 = gen_erdos_renyi(40, 0.1, 8697063857760222071)
# the first and fourth feasible G(70, 0.04) of master seed 3: the random agent runs to
# the cap on both, and at seed 0 and cap 1000 colors the second in 665 expansions
DRAW_70 = gen_erdos_renyi(70, 0.04, 4993253684617869379)
DEEP_70 = gen_erdos_renyi(70, 0.04, 5692466995588688965)


@contextmanager
def _deadline(seconds):
    """Fail the block with TimeoutError, rather than hang, once it has run ``seconds``."""
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def _instance(graph, k=3, p=0.5, seed=0):
    return ColoringInstance(graph=graph, k=k, seed=seed, p=p)


def _reference_is_k_colorable(graph, k):
    """Plain backtracking in vertex-index order with forward checking."""
    n = graph.n
    neighbors = graph.neighbors()
    domains = [(1 << k) - 1] * n

    def assign(v):
        if v == n:
            return True
        live = domains[v]
        while live:
            bit = live & -live
            live ^= bit
            pruned = []
            dead = False
            for u in neighbors[v]:
                if u > v and domains[u] & bit:
                    domains[u] ^= bit
                    pruned.append(u)
                    if domains[u] == 0:
                        dead = True
                        break
            if not dead and assign(v + 1):
                return True
            for u in pruned:
                domains[u] |= bit
        return False

    return assign(0)


def _reference_edges(n, p, seed):
    """G(n, p) edges drawn pair by pair in row-major order."""
    rng = np.random.default_rng(seed)
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    mask = rng.random(len(pairs)) < p
    return tuple(pair for pair, keep in zip(pairs, mask) if keep)


def _reference_feasible_instances(n, p, k, count, config_index, master_seed):
    """The campaign filter spelled out: public generator, reference oracle."""
    seed_rng = rng_for(master_seed, config_index)
    feasible, discarded = [], 0
    while len(feasible) < count:
        gen_seed = int(seed_rng.integers(2**63))
        graph = gen_erdos_renyi(n, p, gen_seed)
        if _reference_is_k_colorable(graph, k):
            feasible.append(ColoringInstance(graph=graph, k=k, seed=gen_seed, p=p))
        else:
            discarded += 1
    return feasible, discarded


def _reference_solve(instance, agent, seed):
    """The agents with their per-node work spelled out: each node rebuilds
    the uncolored list, greedy and acp take its max and min under per-vertex
    keys, and each color's constraint count walks the neighbors again. The
    oracle ``solve`` must equal, random draws included. Only the cap is read
    from ``acp.coloring``, so that patching it there moves both."""
    if agent not in AGENT_KINDS:
        raise ValueError(f"unknown agent {agent!r}; expected one of {AGENT_KINDS}")
    g, k = instance.graph, instance.k
    n = g.n
    neighbors = g.neighbors()
    rng = np.random.default_rng(seed) if agent == "random" else None
    full = (1 << k) - 1
    domains = [full] * n
    assignment = [-1] * n
    expansions = 0

    def live_colors(v: int) -> list[int]:
        return [c for c in range(k) if domains[v] >> c & 1]

    def constraint_count(v: int, c: int) -> int:
        return sum(1 for u in neighbors[v] if assignment[u] == -1 and domains[u] >> c & 1)

    def pick_vertex() -> int:
        uncolored = [v for v in range(n) if assignment[v] == -1]
        if agent == "random":
            return uncolored[int(rng.integers(len(uncolored)))]
        if agent == "greedy":
            return max(uncolored, key=lambda v: (len(neighbors[v]), -v))
        return min(uncolored, key=lambda v: (bin(domains[v]).count("1"), -len(neighbors[v]), v))

    def order_colors(v: int) -> list[int]:
        colors = live_colors(v)
        if agent == "random":
            return [colors[i] for i in rng.permutation(len(colors))]
        return sorted(colors, key=lambda c: (constraint_count(v, c), c))

    def search(depth: int) -> bool:
        nonlocal expansions
        if depth == n:
            return True
        v = pick_vertex()
        for c in order_colors(v):
            if expansions == acp.coloring.SOLVE_CAP:
                return False
            assignment[v] = c
            expansions += 1
            bit = 1 << c
            pruned = []
            dead = False
            for u in neighbors[v]:
                if assignment[u] == -1 and domains[u] & bit:
                    domains[u] ^= bit
                    pruned.append(u)
                    if domains[u] == 0:
                        dead = True
                        break
            if not dead and search(depth + 1):
                return True
            for u in pruned:
                domains[u] |= bit
            assignment[v] = -1
        return False

    if not search(0):
        return SearchStats(expansions=expansions, found=False, assignment=None)
    result = tuple(assignment)
    for u, v in g.edges:
        if result[u] == result[v]:
            raise RuntimeError("internal error: returned assignment is not a proper coloring")
    return SearchStats(expansions=expansions, found=True, assignment=result)


def _neighbor_masks(graph):
    nbr = [0] * graph.n
    for u, v in graph.edges:
        nbr[u] |= 1 << v
        nbr[v] |= 1 << u
    return nbr


@st.composite
def _graphs(draw, max_n=8):
    """Any simple graph on at most max_n vertices."""
    n = draw(st.integers(1, max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return Graph(n, tuple(pair for pair, kept in zip(pairs, keep) if kept))


class TestGraph:
    def test_rejects_self_loop(self):
        with pytest.raises(ValueError):
            Graph(3, ((1, 1),))

    def test_rejects_unsorted_edge(self):
        with pytest.raises(ValueError):
            Graph(3, ((2, 1),))

    def test_rejects_duplicate_edge(self):
        with pytest.raises(ValueError):
            Graph(3, ((0, 1), (0, 1)))

    def test_neighbors_symmetry(self):
        adj = C5.neighbors()
        for u, nbrs in enumerate(adj):
            for v in nbrs:
                assert u in adj[v]

    def test_search_tables_leave_the_value_unchanged(self):
        # solve builds a graph's neighbor lists and degree order once and keeps them on the
        # graph; pool workers receive pickled instances, and equal graphs must stay equal
        used, fresh = (gen_erdos_renyi(70, 0.04, 4993253684617869379) for _ in range(2))
        for a, agent in enumerate(AGENT_KINDS):
            solve(_instance(used), agent, seed=a)
        assert vars(used).keys() > vars(fresh).keys()
        assert (used == fresh, hash(used), repr(used)) == (True, hash(fresh), repr(fresh))
        assert pickle.dumps(used) == pickle.dumps(fresh)
        assert pickle.dumps(_instance(used)) == pickle.dumps(_instance(fresh))
        copy = pickle.loads(pickle.dumps(used))
        assert vars(copy) == vars(fresh)
        assert copy == used and copy.neighbors() == used.neighbors() == fresh.neighbors()


class TestGenerator:
    def test_p_zero_no_edges(self):
        assert gen_erdos_renyi(4, 0.0, seed=3).edges == ()

    def test_p_one_complete(self):
        assert len(gen_erdos_renyi(4, 1.0, seed=3).edges) == 6

    def test_deterministic_given_seed(self):
        assert gen_erdos_renyi(12, 0.3, seed=9) == gen_erdos_renyi(12, 0.3, seed=9)

    @pytest.mark.parametrize("n", [1, 2, 8, 15])
    @pytest.mark.parametrize("p", [0.0, 0.41, 1.0])
    @pytest.mark.parametrize("seed", [0, 7, 2**62 + 3])
    def test_edges_match_row_major_draw(self, n, p, seed):
        assert gen_erdos_renyi(n, p, seed).edges == _reference_edges(n, p, seed)

    @pytest.mark.parametrize(
        "n, p", [(1, 0.5), (2, 0.5), (12, 1.0), (63, 0.1), (64, 0.1), (65, 0.1), (128, 0.05), (130, 0.05)]
    )
    def test_block_masks_match_public_generator(self, n, p):
        seeds = rng_for(0, 9).integers(2**63, size=7)
        draws = list(acp.coloring._gnp_draws(n, p, acp.coloring._seed_words(seeds)))
        assert len(draws) == len(seeds)
        for seed, (mask, nbr) in zip(seeds.tolist(), draws):
            graph = gen_erdos_renyi(n, p, seed)
            assert acp.coloring._mask_edges(n, mask) == graph.edges
            assert nbr == _neighbor_masks(graph)

    def test_binomial_edge_count(self):
        # 105 candidate pairs at p = 0.35: mean edges 36.75
        counts = [len(gen_erdos_renyi(15, 0.35, seed=s).edges) for s in range(10_000)]
        se = np.std(counts, ddof=1) / math.sqrt(len(counts))
        assert np.mean(counts) == pytest.approx(36.75, abs=3 * se)


class TestSeedWords:
    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.integers(0, 2**64 - 1), max_size=50), st.integers(0, 40))
    @example(seeds=[], m=5)
    @example(seeds=[0], m=5)
    @example(seeds=[1], m=5)
    @example(seeds=[2**32 - 1], m=5)
    @example(seeds=[2**32], m=5)
    @example(seeds=[2**63 - 1], m=5)
    @example(seeds=[2**64 - 1], m=5)
    @example(seeds=(EDGE_SEEDS * 9)[:50], m=20)
    def test_block_generators_match_default_rng(self, seeds, m):
        words = acp.coloring._seed_words(np.array(seeds, dtype=np.uint64))
        assert words.shape == (len(seeds), 4)
        pcg64 = acp.coloring._pcg64_from_words()
        for seed, row in zip(seeds, words):
            assert row.tolist() == np.random.SeedSequence(seed).generate_state(4, np.uint64).tolist()
            assert np.random.Generator(pcg64(row)).random(m).tolist() == np.random.default_rng(seed).random(m).tolist()

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.integers(0, 2**64 - 1), max_size=20), st.integers(0, 2))
    @example(seeds=[0, 1, 2**32 - 1, 2**32, 2**63 - 1], agent=0)
    @example(seeds=[0, 1, 2**32 - 1, 2**32, 2**63 - 1], agent=1)
    @example(seeds=[0, 1, 2**32 - 1, 2**32, 2**63 - 1], agent=2)
    def test_agent_word_matches_seed_tuple(self, seeds, agent):
        # where the agent's word lands depends on whether the seed takes one 32-bit word or two
        words = acp.coloring._seed_words(seeds, agent)
        assert words.shape == (len(seeds), 4)
        pcg64 = acp.coloring._pcg64_from_words()
        for seed, row in zip(seeds, words):
            assert pcg64(row).state == np.random.PCG64((seed, agent)).state


_CALLS = st.one_of(
    st.tuples(st.just("integers"), st.integers(1, acp.coloring.MAX_VERTICES)),
    st.tuples(st.just("shuffle"), st.integers(1, 5)),
)


class TestDraws:
    @settings(max_examples=100, deadline=None)
    @given(
        st.one_of(st.integers(0, 2**64 - 1), st.tuples(st.integers(0, 2**63 - 1), st.integers(0, 2))),
        st.lists(_CALLS, max_size=600),
        st.sampled_from([(1, 1), (1, 4), (3, 16), acp.coloring._RAW_BLOCKS]),
    )
    @example(126406, [("integers", 412)], acp.coloring._RAW_BLOCKS).via("Lemire rejects the first word")
    @example(8710, [("integers", 239)], acp.coloring._RAW_BLOCKS).via("low 32 bits in [2**32 % m, m): kept")
    @example(0, [("integers", 1), ("shuffle", 1), ("integers", 1), ("integers", 3)], (1, 1)).via("no draw")
    @example((7, 0), [("integers", 70), ("shuffle", 3), ("shuffle", 2)] * 200, acp.coloring._RAW_BLOCKS).via(
        "several refills of the default blocks"
    )
    def test_matches_default_rng(self, seed, calls, blocks):
        # the same value from every call, and the stream left where the Generator leaves it
        rng = np.random.default_rng(seed)
        with patch.object(acp.coloring, "_RAW_BLOCKS", blocks), _deadline(10):
            draws = acp.coloring._Draws(np.random.PCG64(seed))
            for name, size in calls:
                if name == "integers":
                    assert draws.integers(size) == rng.integers(size)
                else:
                    ours, theirs = list(range(size)), list(range(size))
                    draws.shuffle(ours)
                    rng.shuffle(theirs)
                    assert ours == theirs
            # integers(2**32) is one whole 32-bit word, held-over high halves included
            assert [draws.integers(2**32) for _ in range(50)] == [int(rng.integers(2**32)) for _ in range(50)]


class TestFeasibilityOracle:
    def test_k4_not_three_colorable(self):
        assert is_k_colorable(K4, 3) is False

    def test_odd_cycle_not_two_colorable(self):
        assert is_k_colorable(C5, 2) is False

    def test_odd_cycle_three_colorable(self):
        assert is_k_colorable(C5, 3) is True

    @pytest.mark.parametrize(
        "graph,k,expected",
        [
            (Graph(1, ()), 1, True),
            (Graph(6, ()), 1, True),
            (PATH3, 1, False),
            (K4, 3, False),
            (K4, 4, True),
            (TRIANGLE, 5, True),
            (C5, 7, True),
        ],
    )
    def test_small_cases(self, graph, k, expected):
        assert is_k_colorable(graph, k) is expected
        assert _reference_is_k_colorable(graph, k) is expected

    def test_rejects_nonpositive_k(self):
        with pytest.raises(ValueError):
            is_k_colorable(TRIANGLE, 0)

    def test_agrees_with_counting(self):
        rng = np.random.default_rng(42)
        for _ in range(60):
            n = int(rng.integers(2, 11))
            g = gen_erdos_renyi(n, float(rng.uniform(0.1, 0.7)), seed=int(rng.integers(1 << 30)))
            for k in (2, 3):
                assert is_k_colorable(g, k) == (count_proper_colorings(g, k) > 0)

    @settings(max_examples=300, deadline=None)
    @given(_graphs(max_n=9), st.integers(1, 5))
    def test_clique_check_matches_brute_force(self, g, r):
        nbr = _neighbor_masks(g)
        expected = any(
            all(nbr[u] >> v & 1 for u, v in combinations(vertices, 2))
            for vertices in combinations(range(g.n), r)
        )
        assert acp.coloring._has_clique(nbr, (1 << g.n) - 1, r) is expected

    @pytest.mark.parametrize(
        "config",
        [
            (10, 0.3, 3, 30),
            (15, 0.41, 3, 20),
            (9, 0.2, 2, 20),
            (1, 0.5, 2, 5),  # no vertex pairs
            (2, 0.5, 2, 5),
            # the widest one-word neighbor masks, the narrowest two-word ones and three words,
            # where index-order backtracking stays fast
            (64, 0.05, 4, 5),
            (65, 0.05, 4, 5),
            (130, 0.01, 3, 3),
            (10, 0.0, 2, 5),
            (4, 1.0, 4, 5),
        ],
    )
    @pytest.mark.parametrize("master_seed", [0, 5])
    def test_campaign_filter_matches_public_loop(self, config, master_seed):
        # the filter draws blocks of seeds and masks; the reference builds every Graph
        # from its own generator and refutes without cliques
        assert acp.coloring._feasible_instances(*config, 1, master_seed) == _reference_feasible_instances(
            *config, 1, master_seed
        )

    @pytest.mark.parametrize("cells", [1, 1000])
    def test_filter_blocks_do_not_move_draws(self, monkeypatch, cells):
        # one draw a block, and 4 draws of 105 pairs and 120 adjacency cells
        monkeypatch.setattr(acp.coloring, "FILTER_CELLS", cells)
        config = (15, 0.41, 3, 20)
        assert acp.coloring._feasible_instances(*config, 1, 0) == _reference_feasible_instances(*config, 1, 0)

    def test_decides_long_sparse_component(self):
        # branching first on a vertex with two colors left colors the component along its paths
        with _deadline(5):
            assert is_k_colorable(DRAW_22, 3) is True

    def test_filters_sparse_graphs_at_the_vertex_cap(self):
        # this filter ran for over 5 minutes when the search branched in index order
        with _deadline(20):
            feasible, _ = acp.coloring._feasible_instances(512, 0.004, 3, 50, 0, 0)
        assert len(feasible) == 50

    def test_filter_memory_at_the_vertex_cap_is_bounded(self):
        # the filter peaked at about 14 MiB drawing one graph at a time; a block of all 50
        # draws' uniforms and adjacency holds about 65 MB
        acp.coloring._pair_index.cache_clear()
        tracemalloc.start()
        try:
            acp.coloring._feasible_instances(512, 0.004, 3, 50, 0, 0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 24 * 2**20


class TestCounting:
    def test_triangle(self):
        assert count_proper_colorings(TRIANGLE, 3) == 6

    def test_empty_graph(self):
        assert count_proper_colorings(Graph(5, ()), 3) == 3**5

    def test_path_chromatic_polynomial(self):
        # k (k-1)^2 proper colorings of a 2-edge path
        assert count_proper_colorings(PATH3, 3) == 12

    def test_guard_on_large_graphs(self):
        with pytest.raises(ValueError):
            count_proper_colorings(Graph(21, ()), 3)

    @settings(max_examples=300, deadline=None)
    @given(_graphs(max_n=12), st.sampled_from([1, 2, 3, 4]))
    @example(K4, 3).via("k + 1 = n, refuted by the clique of every vertex")
    @example(Graph(2, ((0, 1),)), 1).via("k + 1 = n, one edge")
    @example(C5, 4).via("k + 1 = n, no clique: the search decides")
    @example(K4, 4).via("k = n")
    @example(PATH3, 4).via("k > n")
    def test_feasibility_oracle_agrees_with_count(self, g, k):
        expected = count_proper_colorings(g, k) > 0
        assert is_k_colorable(g, k) == expected
        assert _reference_is_k_colorable(g, k) == expected

    def test_search_information_cross_check(self):
        # bits-to-find from the counted solution mass of a 6-vertex instance
        g = gen_erdos_renyi(6, 0.4, seed=17)
        count = count_proper_colorings(g, 3)
        assert count > 0
        p = count / 3**6
        assert search_information(p) == pytest.approx(6 * math.log2(3) - math.log2(count))


class TestPrediction:
    @pytest.mark.parametrize("n,expected", [(8, 8.0), (10, 10.0), (12, 12.0), (15, 15.0)])
    def test_prediction_equals_vertex_count(self, n, expected):
        inst = _instance(Graph(n, ()), k=3)
        assert predict_cost(inst) == pytest.approx(expected, abs=1e-9)


class TestSolve:
    def test_empty_graph_costs_n_for_every_agent(self):
        g = Graph(6, ())
        for agent in AGENT_KINDS:
            stats = solve(_instance(g), agent, seed=5)
            assert stats.found
            assert stats.expansions == 6

    def test_triangle_greedy_never_backtracks(self):
        stats = solve(_instance(TRIANGLE), "greedy", seed=0)
        assert stats.expansions == 3

    def test_assignment_is_proper(self):
        rng = np.random.default_rng(0)
        for _ in range(30):
            g = gen_erdos_renyi(int(rng.integers(4, 12)), 0.3, seed=int(rng.integers(1 << 30)))
            if not is_k_colorable(g, 3):
                continue
            for agent in AGENT_KINDS:
                stats = solve(_instance(g), agent, seed=int(rng.integers(1 << 30)))
                assert stats.found
                colors = stats.assignment
                assert all(colors[u] != colors[v] for u, v in g.edges)
                assert stats.expansions >= g.n

    @settings(max_examples=50, deadline=None)
    @given(_graphs(), st.sampled_from([2, 3]), st.sampled_from(AGENT_KINDS), st.integers(0, 2**31))
    @example(DRAW_22, 3, "acp", 0).via("a 57-vertex component the acp agent colors in 65 expansions")
    def test_found_coloring_is_proper(self, g, k, agent, seed):
        stats = solve(_instance(g, k=k), agent, seed=seed)
        with _deadline(5):
            assert stats.found == is_k_colorable(g, k)
        if stats.found:
            assert all(stats.assignment[u] != stats.assignment[v] for u, v in g.edges)
            assert stats.expansions >= g.n

    @settings(max_examples=300, deadline=None)
    @given(
        _graphs(max_n=12),
        st.sampled_from([2, 3, 4]),
        st.sampled_from(AGENT_KINDS),
        st.integers(0, 2**63 - 1),
        st.sampled_from([1, 5, 40, acp.coloring.SOLVE_CAP]),
    )
    @example(DRAW_22, 3, "greedy", 0, acp.coloring.SOLVE_CAP).via("57 vertices, ties in degree")
    @example(DRAW_22, 3, "acp", 0, acp.coloring.SOLVE_CAP).via("57 vertices, ties in live colors")
    @example(CAPPED_40, 3, "random", 2, 1000).via("backtracks until the cap")
    @example(DRAW_70, 3, "random", 0, 1000).via("70 vertices, backtracks until the cap")
    @example(DRAW_70, 3, "random", 2, 1000).via("70 vertices, backtracks, then colors")
    @example(DEEP_70, 3, "random", 0, 1000).via("70 vertices, colors after 665 expansions")
    @example(DRAW_70, 3, "acp", 0, 1000).via("70 vertices, ties in live colors")
    def test_matches_reference_agents(self, g, k, agent, seed, cap):
        # same vertex, same color order and same random draws at every node, so the
        # same expansions, outcome and coloring, also where the cap stops the search
        instance = _instance(g, k=k)
        with patch.object(acp.coloring, "SOLVE_CAP", cap):
            assert solve(instance, agent, seed) == _reference_solve(instance, agent, seed)

    def test_infeasible_instance_reports_not_found(self):
        stats = solve(_instance(K4, k=3), "greedy", seed=0)
        assert stats.found is False
        assert stats.assignment is None

    def test_capped_solve_reports_not_found_at_the_cap(self, monkeypatch):
        seed = 8697063857760222071
        instance = ColoringInstance(graph=CAPPED_40, k=3, seed=seed, p=0.1)
        monkeypatch.setattr(acp.coloring, "SOLVE_CAP", 1000)
        stats = solve(instance, "random", seed=(seed, AGENT_KINDS.index("random")))
        assert (stats.expansions, stats.found, stats.assignment) == (1000, False, None)
        assert solve(instance, "acp", seed=(seed, AGENT_KINDS.index("acp"))).found

    def test_cap_allows_exactly_cap_expansions(self, monkeypatch):
        graph = gen_erdos_renyi(12, 0.35, 3)
        needed = solve(_instance(graph), "random", seed=0).expansions
        assert needed > graph.n  # the search backtracks at least once
        monkeypatch.setattr(acp.coloring, "SOLVE_CAP", needed)
        assert solve(_instance(graph), "random", seed=0).found
        monkeypatch.setattr(acp.coloring, "SOLVE_CAP", needed - 1)
        stats = solve(_instance(graph), "random", seed=0)
        assert (stats.expansions, stats.found) == (needed - 1, False)

    def test_deterministic_given_seed(self):
        g = gen_erdos_renyi(10, 0.3, seed=21)
        for agent in AGENT_KINDS:
            assert solve(_instance(g), agent, seed=13) == solve(_instance(g), agent, seed=13)

    def test_unknown_agent_rejected(self):
        with pytest.raises(ValueError):
            solve(_instance(TRIANGLE), "oracle", seed=0)


@pytest.fixture(scope="module")
def single_config():
    return run_campaign(configs=((8, 0.25, 3, 50),), master_seed=1)


class TestCampaign:
    def test_prediction_column(self, single_config):
        assert single_config.summaries[0].acp_prediction == pytest.approx(8.0)

    def test_no_bound_violations(self, single_config):
        summary = single_config.summaries[0]
        assert summary.bound_violations == 0
        acp_rows = [r for r in single_config.records if r.agent == "acp"]
        assert all(r.expansions >= r.c_eff - 1e-9 for r in acp_rows)

    def test_agent_ordering(self, single_config):
        s = single_config.summaries[0]
        assert s.acp_mean <= s.greedy_mean + 2 * (s.acp_se + s.greedy_se)
        assert s.greedy_mean <= s.random_mean + 2 * (s.greedy_se + s.random_se)

    def test_every_instance_solved_by_all_agents(self, single_config):
        assert len(single_config.records) == 50 * 3
        assert all(r.found for r in single_config.records)

    def test_default_campaign_discards(self):
        # infeasible graphs drawn per default config before 50 were kept
        report = run_campaign(master_seed=0)
        assert [s.discarded for s in report.summaries] == [0, 9, 55, 446, 3055]

    def test_requires_fifty_instances(self):
        with pytest.raises(ValueError):
            run_campaign(configs=((8, 0.25, 3, 10),), master_seed=0)

    @pytest.mark.parametrize("k", [1, 0])
    def test_rejects_fewer_than_two_colors_before_generating(self, monkeypatch, k):
        # one color fits only edgeless graphs, which G(10, 0.3) almost never draws
        def no_graphs(*args):
            raise AssertionError("a graph was generated")

        monkeypatch.setattr(acp.coloring, "_gnp_draws", no_graphs)
        with pytest.raises(ValueError, match="k must be at least 2"):
            run_campaign(configs=((8, 0.25, 3, 50), (10, 0.3, k, 50)), master_seed=0)

    @pytest.mark.parametrize(
        "n, p, message",
        [
            (0, 0.3, "n must be at least 1"),
            (10, math.nan, "p must lie in [0, 1]"),
            (10, 1.5, "p must lie in [0, 1]"),
            (10, -0.1, "p must lie in [0, 1]"),
            (513, 0.0005, "n must be at most 512, got 513"),
        ],
    )
    def test_rejects_bad_graph_row_before_generating(self, monkeypatch, n, p, message):
        def no_graphs(*args):
            raise AssertionError("a graph was generated")

        monkeypatch.setattr(acp.coloring, "_gnp_draws", no_graphs)
        with pytest.raises(ValueError, match=re.escape(message)):
            run_campaign(configs=((8, 0.25, 3, 50), (10, 0.3, 3, 50), (n, p, 3, 50)), master_seed=0)

    def test_parallel_matches_serial(self):
        serial = run_campaign(configs=((8, 0.25, 3, 50),), master_seed=2, workers=1)
        parallel = run_campaign(configs=((8, 0.25, 3, 50),), master_seed=2, workers=2)
        assert serial.summaries == parallel.summaries
        assert np.array_equal(serial.records, parallel.records)

    def test_solve_at_vertex_cap(self):
        # the deepest search a campaign allows; a path never empties a domain
        # of three colors, so no agent backtracks
        n = acp.coloring.MAX_VERTICES
        graph = Graph(n, tuple((v, v + 1) for v in range(n - 1)))
        assert is_k_colorable(graph, 3)
        for a, agent in enumerate(AGENT_KINDS):
            stats = solve(_instance(graph), agent, seed=(0, a))
            assert (stats.found, stats.expansions) == (True, n)

    def test_records_equal_one_solve_per_instance_and_agent(self):
        # two configs of different sizes, so a wrong per-config offset shows
        configs = ((8, 0.25, 3, 60), (10, 0.3, 3, 50))
        report = run_campaign(configs=configs, master_seed=3)
        rows = []
        for ci, (n, p, k, count) in enumerate(configs):
            kept, _ = acp.coloring._feasible_instances(n, p, k, count, ci, 3)
            by_agent = {agent: [] for agent in AGENT_KINDS}
            for inst in kept:
                for a, agent in enumerate(AGENT_KINDS):
                    stats = solve(inst, agent, seed=(inst.seed, a))
                    rows.append((len(rows) // 3, n, p, inst.seed, agent, stats.expansions,
                                 predict_cost(inst), stats.found))
                    by_agent[agent].append(stats.expansions)
            summary = report.summaries[ci]
            assert (summary.random_mean, summary.greedy_mean, summary.acp_mean) == tuple(
                float(np.mean(by_agent[agent])) for agent in AGENT_KINDS
            )
        assert report.records.dtype.names == (
            "instance_id", "n", "p", "seed", "agent", "expansions", "c_eff", "found"
        )
        assert report.records.tolist() == rows

    def test_configs_campaign_joins_per_config_campaigns(self):
        # instance seeds are keyed by the config's position, so the second
        # config is compared with a campaign where it is also second
        first, second, other = (8, 0.25, 3, 50), (10, 0.3, 3, 50), (8, 0.3, 3, 60)
        joined = run_campaign(configs=(first, second), master_seed=6)
        alone = run_campaign(configs=(first,), master_seed=6)
        after_other = run_campaign(configs=(other, second), master_seed=6)
        assert joined.summaries == (alone.summaries[0], after_other.summaries[1])
        head, tail = joined.records[:150], joined.records[150:]
        assert np.array_equal(head, alone.records)
        shifted = after_other.records[180:].copy()
        shifted.instance_id -= 10
        assert np.array_equal(tail, shifted)

    def test_one_job_map_per_campaign(self, monkeypatch):
        calls = []

        def counting_map(fn, n_items, workers=1):
            calls.append(n_items)
            return [fn(i) for i in range(n_items)]

        monkeypatch.setattr(acp.coloring, "map_indexed", counting_map)
        run_campaign(configs=((8, 0.25, 3, 50), (10, 0.3, 3, 50)), master_seed=0)
        assert calls == [2 * 50 * 3]
