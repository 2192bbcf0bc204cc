"""Random-graph k-coloring benchmark with expansion accounting.

Instances are Erdos-Renyi graphs; infeasible ones are filtered out by an
exact oracle on neighbor bitmasks. It first refutes any graph that holds a
(k+1)-clique, which no k-coloring survives, and then runs a complete
backtracking search over vertex bitmasks. The search refutes a node as soon
as some vertex has no color left, colors forced vertices before it branches,
and tries only one unused color per vertex, since unused colors are
interchangeable. None of these loses a coloring, so the oracle answers
exactly. The filter decides its draws a block at a time: one vectorised
SeedSequence hash gives every draw's PCG64 state, so each graph's stream is
still `np.random.default_rng(seed)`, and one `np.packbits` over the block's
adjacency gives every draw's neighbor masks. It builds an edge tuple and a
validated `Graph` only for the instances it keeps.

Three agents solve each feasible instance with backtracking search plus
forward checking, differing only in how they order vertices and colors:

  random  uniformly random uncolored vertex, random order over live colors
  greedy  vertices in one order fixed by degree for the whole search
          (highest first, lowest index on ties), colors that constrain the
          fewest neighbor domains first
  acp     uncolored vertex with the smallest live domain (the most
          information per committed assignment when every assignment costs
          one expansion), same least-constraining color order

The cost unit is the node expansion: every committed vertex-color
assignment counts, including assignments that are later undone and redone.
A found coloring therefore costs at least n expansions, which is exactly
the predicted cost n * log2(k) / log2(k) of a backtrack-free run, making
the prediction a per-instance lower bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache, partial

import numpy as np

from .info import effective_cost
from .seeding import _mean_se, map_indexed, rng_for

AGENT_KINDS = ("random", "greedy", "acp")

#: (n, p, k, instances) rows of the default benchmark campaign.
DEFAULT_CONFIGS = (
    (8, 0.25, 3, 50),
    (10, 0.30, 3, 50),
    (12, 0.35, 3, 50),
    (15, 0.35, 3, 50),
    (15, 0.41, 3, 50),
)

_COUNT_GUARD = 20

#: Most vertices a campaign graph may have. ``solve``'s search recurses once
#: per vertex, so this keeps its depth well under Python's recursion limit.
MAX_VERTICES = 512

#: Most expansions one solve may make, about 1 s of search; a solve that
#: would need more stops at the cap and reports no coloring found.
SOLVE_CAP = 10**5


@dataclass(frozen=True)
class Graph:
    """Undirected simple graph on vertices 0..n-1."""

    n: int
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("graph needs at least one vertex")
        seen = set()
        for u, v in self.edges:
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if not (0 <= u < v < self.n):
                raise ValueError(f"edge ({u}, {v}) must satisfy 0 <= u < v < n")
            if (u, v) in seen:
                raise ValueError(f"duplicate edge ({u}, {v})")
            seen.add((u, v))

    def neighbors(self) -> tuple[tuple[int, ...], ...]:
        adj: list[list[int]] = [[] for _ in range(self.n)]
        for u, v in self.edges:
            adj[u].append(v)
            adj[v].append(u)
        return tuple(tuple(sorted(a)) for a in adj)


@dataclass(frozen=True)
class ColoringInstance:
    """A graph plus the color budget it should be solved with."""

    graph: Graph
    k: int
    seed: int
    p: float

    def __post_init__(self) -> None:
        if self.k < 2:
            raise ValueError("k must be at least 2")


@dataclass(frozen=True)
class SearchStats:
    """Result of one solve: expansion count, outcome, and the coloring found."""

    expansions: int
    found: bool
    assignment: tuple[int, ...] | None

    def __post_init__(self) -> None:
        if self.expansions < 0:
            raise ValueError("expansions cannot be negative")
        if self.found and self.assignment is None:
            raise ValueError("found solutions must carry an assignment")


#: Most 8-byte cells the feasibility filter holds at once. A draw takes one
#: per vertex pair for its uniforms and one per 8 bytes of its adjacency,
#: whose rows are padded to 64-bit words; 4 MiB at this cap.
FILTER_CELLS = 2**19

# numpy's SeedSequence, O'Neill's seed_seq hash over a pool of four 32-bit
# words; numpy's stream-compatibility policy fixes these constants.
_MASK32 = 0xFFFFFFFF
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715


def _hash_consts(init: int, mult: int, size: int) -> np.ndarray:
    """init * mult**i mod 2**32 for i < size: the hash constant of each round, as a column."""
    consts = [init]
    for _ in range(size - 1):
        consts.append(consts[-1] * mult & _MASK32)
    return np.array(consts, dtype=np.uint32)[:, None]


# 4 rounds fill the pool and 12 mix it; 8 give the state's 32-bit halves
_MIX_CONSTS = _hash_consts(0x43B0D7E5, 0x931E8875, 17)
_STATE_CONSTS = _hash_consts(0x8B51F9DD, 0x58F38DED, 9)


def _hashmix(values: np.ndarray, round_: int) -> np.ndarray:
    """SeedSequence's hashmix of each row of uint32 values, row i in round round_ + i."""
    end = round_ + len(values)
    values = values ^ _MIX_CONSTS[round_:end]
    values *= _MIX_CONSTS[round_ + 1:end + 1]
    return values ^ values >> 16


def _seed_words(seeds) -> np.ndarray:
    """`np.random.SeedSequence(s).generate_state(4, np.uint64)` for every s in seeds.

    One vectorised uint32 pass over the block: row i of the (len(seeds), 4)
    result is the PCG64 state `np.random.default_rng(seeds[i])` starts from.
    A seed below 2**64 fills at most two of the pool's four words, and the
    hash reads an absent entropy word as 0, so the pool starts from both
    32-bit halves and two zeros.
    """
    seeds = np.asarray(seeds, dtype=np.uint64)
    pool = np.zeros((4, len(seeds)), np.uint32)
    pool[0] = seeds & _MASK32
    pool[1] = seeds >> 32
    pool = _hashmix(pool, 0)
    for src in range(4):
        # each other word takes in a hashmix of pool[src], one round each, in word order
        dst = [d for d in range(4) if d != src]
        mixed = pool[dst] * _MIX_L - _hashmix(pool[[src] * 3], 4 + 3 * src) * _MIX_R
        pool[dst] = mixed ^ mixed >> 16
    halves = pool[[0, 1, 2, 3, 0, 1, 2, 3]] ^ _STATE_CONSTS[:8]
    halves *= _STATE_CONSTS[1:]
    halves = (halves ^ halves >> 16).astype(np.uint64)
    return np.ascontiguousarray((halves[0::2] | halves[1::2] << 32).T)


@lru_cache(maxsize=1)
def _generator_from_words():
    """A function from a row of `_seed_words` to the `Generator` that
    `np.random.default_rng` builds for that row's seed: PCG64 seeded with
    the row's words.

    Built on first use, so that importing the package leaves numpy.random
    unloaded.
    """
    from numpy.random import PCG64, Generator
    from numpy.random.bit_generator import ISeedSequence

    class SeedWords(ISeedSequence):
        """One row of `_seed_words`, handed to PCG64 as its seed state."""

        def __init__(self, words: np.ndarray) -> None:
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32):
            # PCG64 asks for its state as generate_state(4, np.uint64)
            return self.words

    return lambda words: Generator(PCG64(SeedWords(words)))


@lru_cache(maxsize=8)
def _pair_index(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Rows and columns of the n(n-1)/2 pairs u < v in row-major order, built once per n."""
    rows, cols = np.triu_indices(n, 1)
    rows.flags.writeable = cols.flags.writeable = False  # shared by every caller
    return rows, cols


def _mask_edges(n: int, mask: np.ndarray) -> tuple[tuple[int, int], ...]:
    """The row-major pairs a pair mask selects, as an edge tuple."""
    rows, cols = _pair_index(n)
    return tuple(zip(rows[mask].tolist(), cols[mask].tolist()))


def _check_gnp(n: int, p: float) -> None:
    if n < 1:
        raise ValueError("n must be at least 1")
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must lie in [0, 1]")


def _gnp_edges(n: int, p: float, seed) -> tuple[tuple[int, int], ...]:
    """The edges of G(n, p) in row-major order, for an n and p already checked."""
    return _mask_edges(n, np.random.default_rng(seed).random(n * (n - 1) // 2) < p)


def _gnp_draws(n: int, p: float, words: np.ndarray):
    """Pair mask and neighbor masks of each G(n, p) draw seeded by a row of words, in order.

    Draw i's pair mask is the one `gen_erdos_renyi` draws for the seed whose
    `_seed_words` row is words[i]. Draws are made a block of at most
    FILTER_CELLS cells at a time, and only when asked for. Each block's
    neighbor masks come from one `np.packbits` over its adjacency, as
    little-endian 64-bit words: a word's `tolist` where one suffices, else
    each vertex's words joined into one int.
    """
    rows, cols = _pair_index(n)
    width = -(-n // 64)
    step = max(1, FILTER_CELLS // (len(rows) + 8 * n * width))
    generator = _generator_from_words()
    for start in range(0, len(words), step):
        block = words[start:start + step]
        uniforms = np.empty((len(block), len(rows)))
        for row, seed_words in zip(uniforms, block):
            generator(seed_words).random(out=row)
        masks = uniforms < p
        adjacency = np.zeros((len(block), n, 64 * width), dtype=bool)
        adjacency[:, rows, cols] = masks
        adjacency[:, cols, rows] = masks
        packed = np.packbits(adjacency, axis=2, bitorder="little")
        if width == 1:
            yield from zip(masks, packed.view("<u8").reshape(len(block), n).tolist())
            continue
        for mask, draw in zip(masks, packed):
            flat = draw.tobytes()
            yield mask, [int.from_bytes(flat[i:i + 8 * width], "little") for i in range(0, len(flat), 8 * width)]


def gen_erdos_renyi(n: int, p: float, seed) -> Graph:
    """G(n, p): each of the n(n-1)/2 edges appears independently with prob p."""
    _check_gnp(n, p)
    return Graph(n, _gnp_edges(n, p, seed))


def _has_clique(nbr: list[int], cand: int, r: int) -> bool:
    """True if the vertex mask cand holds r pairwise adjacent vertices.

    Each pass takes the lowest candidate v and looks for an (r-1)-clique
    among its higher neighbors, so every clique is found from its lowest
    vertex; a mask with fewer than r vertices left cannot hold one.
    """
    if r <= 1:
        return cand.bit_count() >= r
    while cand.bit_count() >= r:
        bit = cand & -cand
        cand ^= bit
        if _has_clique(nbr, cand & nbr[bit.bit_length() - 1], r - 1):
            return True
    return False


def is_k_colorable(graph: Graph, k: int) -> bool:
    """Exact feasibility: refute a (k+1)-clique, then backtrack over vertex bitmasks.

    No k-coloring survives k + 1 pairwise adjacent vertices, so a graph that
    holds such a clique is refuted before any search. In the search, each
    color keeps the mask of uncolored vertices that may still take it,
    so one pass over the k masks finds every vertex with no color left
    (the node is refuted), exactly one (it is colored next, before any
    branching) or exactly two. Otherwise the search branches on the lowest
    uncolored vertex with two colors left, or on the lowest uncolored vertex
    if none has two, so a sparse graph's long paths are colored along the
    path rather than in index order. Forward checking only prunes colors a
    neighbor already holds, and a forced vertex has no other choice, so
    neither loses a coloring. Colors not yet used by any vertex keep equal
    masks whichever vertex is colored, so they are interchangeable: the
    branching vertex tries the used colors plus only the next unused one;
    any coloring maps to one of these by renaming colors in order of first
    use. The search is therefore complete, and False means no proper
    k-coloring exists.
    """
    if k < 1:
        raise ValueError("k must be positive")
    nbr = [0] * graph.n
    for u, v in graph.edges:
        nbr[u] |= 1 << v
        nbr[v] |= 1 << u
    return _colorable(nbr, k)


def _colorable(nbr: list[int], k: int) -> bool:
    """`is_k_colorable` on each vertex's neighbor mask, for k >= 1."""
    n = len(nbr)
    if k >= n:  # one color per vertex
        return True
    everyone = (1 << n) - 1
    if _has_clique(nbr, everyone, k + 1):
        return False

    def search(avail: list[int], uncolored: int, used: int) -> bool:
        while uncolored:
            once = twice = thrice = 0
            for mask in avail:
                thrice |= twice & mask
                twice |= once & mask
                once |= mask
            if uncolored & ~once:
                return False
            forced = once & ~twice
            if not forced:
                break
            # no vertex is forced while two colors are unused, so a forced color
            # is a used one or the last one, which branching tries at used = k - 1
            bit = forced & -forced
            keep = ~bit
            c = next(c for c, mask in enumerate(avail) if mask & bit)
            avail = [mask & keep for mask in avail]
            avail[c] &= ~nbr[bit.bit_length() - 1]
            uncolored ^= bit
        else:
            return True
        pick = uncolored & twice & ~thrice or uncolored
        bit = pick & -pick
        keep, drop = ~bit, ~nbr[bit.bit_length() - 1]
        for c in range(min(used + 1, k)):
            if avail[c] & bit:
                child = [mask & keep for mask in avail]
                child[c] &= drop
                if search(child, uncolored ^ bit, max(used, c + 1)):
                    return True
        return False

    return search([everyone] * k, everyone, 0)


def count_proper_colorings(graph: Graph, k: int) -> int:
    """Exact number of proper k-colorings, by exhaustive backtracking.

    Guards against graphs with more than 20 vertices. Connected components
    are counted independently and the counts multiplied, so sparse graphs
    with many components stay cheap.
    """
    if k < 1:
        raise ValueError("k must be positive")
    if graph.n > _COUNT_GUARD:
        raise ValueError(f"counting is limited to {_COUNT_GUARD} vertices, got {graph.n}")
    neighbors = graph.neighbors()

    def component_of(start: int, unseen: set[int]) -> list[int]:
        stack, comp = [start], []
        unseen.discard(start)
        while stack:
            v = stack.pop()
            comp.append(v)
            for u in neighbors[v]:
                if u in unseen:
                    unseen.discard(u)
                    stack.append(u)
        return comp

    def count_component(order: list[int]) -> int:
        pos = {v: i for i, v in enumerate(order)}
        colors = [-1] * len(order)

        def rec(i: int) -> int:
            if i == len(order):
                return 1
            v = order[i]
            total = 0
            for c in range(k):
                if all(colors[pos[u]] != c for u in neighbors[v] if u in pos and pos[u] < i):
                    colors[i] = c
                    total += rec(i + 1)
            colors[i] = -1
            return total

        return rec(0)

    unseen = set(range(graph.n))
    total = 1
    while unseen:
        comp = component_of(min(unseen), unseen)
        total *= count_component(comp)
    return total


def predict_cost(instance: ColoringInstance) -> float:
    """Predicted expansions: n * log2(k) bits at log2(k) bits per assignment.

    Each committed assignment pins one vertex's color, worth log2(k) bits
    of the n * log2(k) needed to pin them all, at unit cost. The ratio is
    the vertex count, a per-instance lower bound on any found coloring.
    """
    k_bits = math.log2(instance.k)
    return effective_cost(instance.graph.n * k_bits, k_bits, 1.0)


def solve(instance: ColoringInstance, agent: str, seed) -> SearchStats:
    """Backtracking search with forward checking under one agent's ordering.

    Every committed assignment increments the expansion counter, including
    assignments that immediately wipe out a neighbor's domain and ones that
    recommit a vertex after backtracking. A search that would need more
    than SOLVE_CAP expansions stops there and returns found=False with
    expansions == SOLVE_CAP. Deterministic given (instance, agent, seed);
    only the random agent consumes randomness.
    """
    if agent not in AGENT_KINDS:
        raise ValueError(f"unknown agent {agent!r}; expected one of {AGENT_KINDS}")
    g, k = instance.graph, instance.k
    n = g.n
    neighbors = g.neighbors()
    rng = np.random.default_rng(seed) if agent == "random" else None
    domains = [(1 << k) - 1] * n
    assignment = [-1] * n
    expansions = 0
    # highest degree first, lowest index on ties: greedy's order for the whole
    # search, and acp's tie-break among vertices with equally many live colors
    order = sorted(range(n), key=lambda v: (-len(neighbors[v]), v))

    def pick_vertex(depth: int) -> int:
        if agent == "greedy":
            # the search colors one vertex per depth and undoes it on backtrack
            return order[depth]
        if agent == "random":
            uncolored = [v for v in range(n) if assignment[v] == -1]
            return uncolored[int(rng.integers(len(uncolored)))]
        best, fewest = -1, k + 1
        for v in order:
            if assignment[v] == -1 and domains[v].bit_count() < fewest:
                best, fewest = v, domains[v].bit_count()
                if fewest == 1:  # no uncolored vertex has fewer
                    break
        return best

    def order_colors(v: int) -> list[int]:
        live = domains[v]
        colors = [c for c in range(k) if live >> c & 1]
        if len(colors) == 1:
            return colors
        if agent == "random":
            rng.shuffle(colors)
            return colors
        # least constraining first: fewest uncolored neighbors that could take the
        # color; the sort is stable, so ties keep ascending color order
        near = [domains[u] for u in neighbors[v] if assignment[u] == -1]
        return sorted(colors, key=lambda c: sum(d >> c & 1 for d in near))

    def search(depth: int) -> bool:
        nonlocal expansions
        if depth == n:
            return True
        v = pick_vertex(depth)
        for c in order_colors(v):
            if expansions == SOLVE_CAP:
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


@dataclass(frozen=True)
class ConfigSummary:
    """Aggregate over one (n, p, k) configuration."""

    n: int
    p: float
    k: int
    instance_count: int
    discarded: int
    random_mean: float
    greedy_mean: float
    acp_mean: float
    random_se: float
    greedy_se: float
    acp_se: float
    acp_prediction: float
    bound_violations: int
    acp_overshoot_mean: float


@dataclass(frozen=True)
class CampaignReport:
    """Per-config summaries, and the runs as one record array of ``run_campaign``'s fields."""

    summaries: tuple[ConfigSummary, ...]
    records: np.recarray


def _feasible_instances(n: int, p: float, k: int, count: int, config_index: int, master_seed: int):
    """Draw G(n, p) edge sets, discarding infeasible ones, until count are kept.

    n and p are checked by the caller. Seeds are drawn count at a time, the
    same sequence as one at a time, and hashed into PCG64 states at once;
    `_gnp_draws` then draws their masks a block at a time, and the oracle
    decides each draw from its neighbor masks. Each draw is the edge set
    `gen_erdos_renyi` gives for its seed; only a kept one is built into an
    edge tuple and a `Graph`.
    """
    seed_rng = rng_for(master_seed, config_index)
    feasible: list[ColoringInstance] = []
    discarded = 0
    while len(feasible) < count:
        seeds = seed_rng.integers(2**63, size=count)
        for gen_seed, (mask, nbr) in zip(seeds.tolist(), _gnp_draws(n, p, _seed_words(seeds))):
            if _colorable(nbr, k):
                graph = Graph(n, _mask_edges(n, mask))
                feasible.append(ColoringInstance(graph=graph, k=k, seed=gen_seed, p=p))
                if len(feasible) == count:
                    break
            else:
                discarded += 1
    return feasible, discarded


def _solve_job(flat_index: int, instances: tuple[ColoringInstance, ...]) -> tuple[int, bool]:
    """(expansions, found) of run ``flat_index``: instance i under agent a for
    (i, a) = divmod(flat_index, len(AGENT_KINDS)), seeded by (its seed, a)."""
    i, a = divmod(flat_index, len(AGENT_KINDS))
    instance = instances[i]
    stats = solve(instance, AGENT_KINDS[a], seed=(instance.seed, a))
    return stats.expansions, stats.found


def run_campaign(
    configs=DEFAULT_CONFIGS,
    master_seed: int = 0,
    workers: int = 1,
) -> CampaignReport:
    """Full benchmark: generate, filter, solve with all agents, aggregate.

    Each config row is (n, p, k, instance_count) with 1 <= n <= MAX_VERTICES,
    p in [0, 1], k >= 2 and instance_count >= 50; every row is checked
    before any graph is drawn. Every config's instances are filtered first
    and numbered in order; then all (instance, agent) runs go through one
    ``map_indexed`` call, which ``workers`` may spread over processes, into
    one record array with the fields instance_id, n, p, seed, agent,
    expansions, c_eff (the instance's ``predict_cost``) and found.
    Bound violations count feasible runs of the acp agent whose expansions
    fell below the predicted cost. The count is 0 by construction: the
    prediction is n, a found coloring commits all n vertices, and a capped
    solve stops at SOLVE_CAP = 10**5 expansions, above MAX_VERTICES = 512.
    """
    configs = tuple(configs)
    for n, p, k, count in configs:
        if count < 50:
            raise ValueError("instance_count must be at least 50 per config")
        if k < 2:
            raise ValueError("k must be at least 2")
        _check_gnp(n, p)
        if n > MAX_VERTICES:
            raise ValueError(f"n must be at most {MAX_VERTICES}, got {n}")

    drawn = [_feasible_instances(*config, ci, master_seed) for ci, config in enumerate(configs)]
    instances = tuple(inst for kept, _ in drawn for inst in kept)
    predictions = [predict_cost(kept[0]) for kept, _ in drawn]
    agents = len(AGENT_KINDS)
    runs = map_indexed(partial(_solve_job, instances=instances), len(instances) * agents, workers=workers)
    expansions, found = np.array(runs, dtype=np.int64).reshape(-1, 2).T
    records = np.rec.fromarrays(
        (
            np.arange(len(instances)).repeat(agents),
            np.repeat([inst.graph.n for inst in instances], agents),
            np.repeat([inst.p for inst in instances], agents),
            np.repeat([inst.seed for inst in instances], agents),
            np.tile(AGENT_KINDS, len(instances)),
            expansions,
            np.repeat(predictions, [count * agents for *_, count in configs]),
            found.astype(bool),
        ),
        names="instance_id,n,p,seed,agent,expansions,c_eff,found",
    )

    summaries: list[ConfigSummary] = []
    by_instance = expansions.reshape(-1, agents).astype(float)
    start = 0
    for (n, p, k, count), (_, discarded), prediction in zip(configs, drawn, predictions):
        random_exp, greedy_exp, acp_exp = by_instance[start:start + count].T
        start += count
        random_mean, random_se = _mean_se(random_exp)
        greedy_mean, greedy_se = _mean_se(greedy_exp)
        acp_mean, acp_se = _mean_se(acp_exp)
        summaries.append(
            ConfigSummary(
                n=n,
                p=p,
                k=k,
                instance_count=count,
                discarded=discarded,
                random_mean=random_mean,
                greedy_mean=greedy_mean,
                acp_mean=acp_mean,
                random_se=random_se,
                greedy_se=greedy_se,
                acp_se=acp_se,
                acp_prediction=prediction,
                bound_violations=int((acp_exp < prediction - 1e-9).sum()),
                acp_overshoot_mean=float((acp_exp - prediction).mean()),
            )
        )
    return CampaignReport(summaries=tuple(summaries), records=records)
