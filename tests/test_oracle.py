"""Exact brute-force embedding oracle."""

import itertools
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blockembed import oracle
from blockembed.embed import EmbeddingMap, verify_embedding
from blockembed.errors import ConfigError, SearchBudgetExceeded
from blockembed.fields import BitField, sample_field
from blockembed.oracle import (
    Instance,
    _Search,
    _variable_order,
    count_embeddings,
    enumerate_embeddings,
    find_embedding,
)


def _bf(family, bits):
    arr = np.array(bits, dtype=np.uint8)
    return BitField(family, (0, 0), arr.shape[1], arr.shape[0], 0, arr)


def brute_force_count(x: BitField, y: BitField, m) -> int:
    """Independent exhaustive filter over all value-matched injections."""
    m2 = Fraction(m) ** 2
    xsites = [(sx, sy) for sy in range(x.height) for sx in range(x.width)]
    cands = []
    for s in xsites:
        bit = x.get(*s)
        cands.append([
            (tx, ty)
            for ty in range(y.height)
            for tx in range(y.width)
            if y.get(tx, ty) == bit
        ])
    n = 0
    for choice in itertools.product(*cands):
        if len(set(choice)) != len(choice):
            continue
        ok = True
        for i in range(len(xsites)):
            for k in range(i + 1, len(xsites)):
                d_src = (xsites[i][0] - xsites[k][0]) ** 2 + (xsites[i][1] - xsites[k][1]) ** 2
                d_dst = (choice[i][0] - choice[k][0]) ** 2 + (choice[i][1] - choice[k][1]) ** 2
                if d_dst > m2 * d_src:
                    ok = False
                    break
            if not ok:
                break
        n += ok
    return n


def _d2(a, b) -> int:
    return (a[0] - b[0]) ** 2 + (a[1] - b[1]) ** 2


class ReferenceSearch:
    """The set-and-tuple search the bitset ``_Search`` replaced: the same
    tree, candidate order and node count, re-sorting and rescanning the
    target pool at every node."""

    def __init__(self, inst: Instance, node_cap: int):
        self.inst = inst
        self.node_cap = node_cap
        self.nodes = 0
        y = inst.target
        self.order = _variable_order(inst.source_sites)
        self.by_value = {0: [], 1: []}
        for iy in range(y.height):
            for ix in range(y.width):
                t = (y.origin[0] + ix, y.origin[1] + iy)
                self.by_value[int(y.bits[iy, ix])].append(t)

    def _fits(self, t, site, assignment) -> bool:
        m2 = self.inst.m_squared
        return all(_d2(t, u) * m2.denominator <= m2.numerator * _d2(site, s)
                   for s, u in assignment.items())

    def candidates(self, site, assignment):
        pool = self.by_value[self.inst.source_values[site]]
        if assignment:
            s0, t0 = next(iter(assignment.items()))
            ref = (t0[0] + site[0] - s0[0], t0[1] + site[1] - s0[1])
            pool = sorted(pool, key=lambda t: (_d2(t, ref), t))
        used = set(assignment.values())
        for t in pool:
            if t not in used and self._fits(t, site, assignment):
                yield t

    def _forward_ok(self, i, assignment) -> bool:
        used = set(assignment.values())
        return all(
            any(t not in used and self._fits(t, site, assignment)
                for t in self.by_value[self.inst.source_values[site]])
            for site in self.order[i:]
        )

    def run(self, limit):
        assignment: dict = {}

        def extend(i):
            self.nodes += 1
            if self.nodes > self.node_cap:
                raise SearchBudgetExceeded(f"oracle exceeded {self.node_cap} search nodes")
            if i == len(self.order):
                yield dict(assignment)
                return
            site = self.order[i]
            for t in self.candidates(site, assignment):
                assignment[site] = t
                if self._forward_ok(i + 1, assignment):
                    yield from extend(i + 1)
                del assignment[site]

        count = 0
        for emb in extend(0):
            yield emb
            count += 1
            if limit is not None and count >= limit:
                return


def _outcome(search, mode):
    """What one search gives: count or witnesses (with key order), how it
    ended, and its node count."""
    got = []
    try:
        if mode == "count":
            got = search.count() if isinstance(search, _Search) else sum(1 for _ in search.run(None))
        else:
            for emb in search.run(1 if mode == "find" else None):
                got.append(list(emb.items()))
        end = "done"
    except SearchBudgetExceeded as exc:
        end = str(exc)
    return got, end, search.nodes


@st.composite
def oracle_instances(draw):
    """Small instances: any source shape and origin, target windows away from
    the origin, constant or random bits, M in {0, 1, 3/2, 2, 5}."""
    box = draw(st.sampled_from([(1, 1), (2, 1), (2, 2), (3, 2), (3, 3)]))
    ox, oy = draw(st.integers(-4, 4)), draw(st.integers(-4, 4))
    box_sites = [(ox + i, oy + j) for j in range(box[1]) for i in range(box[0])]
    sites = draw(st.lists(st.sampled_from(box_sites), min_size=1, max_size=4, unique=True))
    const = draw(st.sampled_from([None, 0, 1]))
    values = {s: const if const is not None else draw(st.integers(0, 1)) for s in sites}
    w, h = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    tconst = draw(st.sampled_from([None, 0, 1]))
    if tconst is None:
        bits = np.array(draw(st.lists(st.integers(0, 1), min_size=w * h, max_size=w * h)),
                        dtype=np.uint8).reshape(h, w)
    else:
        bits = np.full((h, w), tconst, dtype=np.uint8)
    origin = (draw(st.integers(-6, 6)), draw(st.integers(-6, 6)))
    y = BitField("Y", origin, w, h, 0, bits)
    m = draw(st.sampled_from([Fraction(0), Fraction(1), Fraction(3, 2), Fraction(2), Fraction(5)]))
    return Instance(tuple(sites), values, y, m * m)


class TestBitsetSearch:
    """The bitset search against the reference: counts, the enumerate
    sequence with each dict's key order, the first witness, node counts and
    the point where the node cap trips."""

    @given(oracle_instances(), st.sampled_from(["count", "find", "enumerate"]))
    @settings(max_examples=300, deadline=None)
    def test_agrees_with_reference(self, inst, mode):
        cap = 3000
        assert _outcome(_Search(inst, cap), mode) == _outcome(ReferenceSearch(inst, cap), mode)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_sampled_3x2_instances_agree(self, seed):
        x = sample_field(seed, "X", (0, 0), 3, 2)
        y = sample_field(seed + 1000, "Y", (0, 0), 5, 5)
        inst = Instance.from_fields(x, y, 2)
        for mode in ("count", "find"):
            assert _outcome(_Search(inst, 10**6), mode) == _outcome(ReferenceSearch(inst, 10**6), mode)

    @pytest.mark.parametrize("mode", ["count", "find"])
    @pytest.mark.parametrize("seed", [1, 5])
    def test_cap_trips_where_reference_does(self, seed, mode):
        x = sample_field(seed, "X", (0, 0), 3, 2)
        y = sample_field(seed + 1000, "Y", (0, 0), 5, 5)
        inst = Instance.from_fields(x, y, 2)
        ref = ReferenceSearch(inst, 10**6)
        _outcome(ref, mode)
        n = ref.nodes
        got, end, nodes = _outcome(_Search(inst, n - 1), mode)
        assert end == f"oracle exceeded {n - 1} search nodes" and nodes == n
        got, end, nodes = _outcome(_Search(inst, n), mode)
        assert end == "done" and nodes == n
        for cap in (0, 1, n // 3, n // 2):
            assert _outcome(_Search(inst, cap), mode) == _outcome(ReferenceSearch(inst, cap), mode)


def _fresh(inst: Instance) -> Instance:
    """An equal instance with no tables built yet: the shared frames are
    dropped too."""
    oracle._shared_frame.cache_clear()
    return Instance(inst.source_sites, dict(inst.source_values), inst.target, inst.m_squared)


def _sampled_3x2(seed):
    x = sample_field(seed, "X", (0, 0), 3, 2)
    y = sample_field(seed + 1000, "Y", (0, 0), 5, 5)
    return Instance.from_fields(x, y, 2)


class TestSharedTables:
    """Searches on one instance share its tables, and give what they give
    on a fresh one."""

    # Caps a count is tried at: every cap_step-th up to the total, and the
    # three around it.
    cap_step = 1

    @given(oracle_instances(),
           st.permutations(["count", "find", "enumerate", "tripped count"]))
    @settings(max_examples=200, deadline=None)
    def test_any_order_on_one_instance_matches_fresh(self, inst, modes):
        full = _Search(_fresh(inst), 3000)
        _outcome(full, "count")

        def outcome(instance, mode):
            if mode == "tripped count":
                return _outcome(_Search(instance, full.nodes - 1), "count")
            return _outcome(_Search(instance, 3000), mode)

        for mode in modes:
            assert outcome(inst, mode) == outcome(_fresh(inst), mode)

    def test_one_table_per_instance(self):
        inst = _sampled_3x2(1)
        assert _Search(inst, 10).tables is _Search(inst, 10).tables
        assert _Search(_fresh(inst), 10).tables is not _Search(inst, 10).tables

    @pytest.mark.parametrize("case", ["3x2 seed 1", "3x2 seed 5", "1 site", "2 sites"])
    def test_every_cap_trips_where_reference_does(self, case):
        if case.startswith("3x2"):
            inst = _sampled_3x2(int(case.split()[-1]))
        else:
            y = sample_field(1001, "Y", (0, 0), 5, 5)
            sites = ((0, 0),) if case == "1 site" else ((0, 0), (1, 1))
            inst = Instance(sites, {s: 0 for s in sites}, y, Fraction(4))
        done = _outcome(ReferenceSearch(inst, 10**6), "count")
        total = done[2]
        assert done[1] == "done"

        def reference(cap):
            # The reference counts one node at a time and raises on the first
            # node past the cap.
            if cap >= total:
                return done
            return [], f"oracle exceeded {cap} search nodes", cap + 1

        for cap in sorted({0, 1, total // 3, total - 1, total, *range(0, total, 97)}):
            assert _outcome(ReferenceSearch(inst, cap), "count") == reference(cap)
        for cap in sorted({*range(0, total + 2, self.cap_step), total - 1, total, total + 1}):
            assert _outcome(_Search(inst, cap), "count") == reference(cap)


@pytest.fixture(scope="class", params=[1, 12], ids=["words1", "words12"])
def split_chunks(request):
    """Counts that narrow 1 or 12 words of later domains a pass.  At 3x2
    into 5x5 the default chunk holds every frontier whole; these expand one
    (node, target) pair a pass, or 2 to 12."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(oracle, "_CHUNK_WORDS", request.param)
        yield


@pytest.mark.usefixtures("split_chunks")
class TestBitsetSearchSplitChunks(TestBitsetSearch):
    """TestBitsetSearch with every frontier split into chunks."""


@pytest.mark.usefixtures("split_chunks")
class TestSharedTablesSplitChunks(TestSharedTables):
    """TestSharedTables with every frontier split into chunks.  A count
    pays a numpy pass a chunk, and a count at each of the ~1 400 caps of a
    3x2 instance would take ~20 s at one pair a pass, so every 11th cap is
    tried."""

    cap_step = 11


@st.composite
def frame_siblings(draw):
    """Two to four instances of one source, target window and bound, each
    with its own source values and target bits."""
    first = draw(oracle_instances())
    y, siblings = first.target, [first]
    for _ in range(draw(st.integers(1, 3))):
        values = {s: draw(st.integers(0, 1)) for s in first.source_sites}
        n = y.width * y.height
        bits = np.array(draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)),
                        dtype=np.uint8).reshape(y.height, y.width)
        target = BitField("Y", y.origin, y.width, y.height, 0, bits)
        siblings.append(Instance(first.source_sites, values, target, first.m_squared))
    return siblings


class TestSharedFrames:
    """Instances of one source, target window and bound share a frame, and
    give what each gives with no frame built."""

    modes = ["count", "find", "enumerate", "tripped count", "tripped find"]

    def _outcomes(self, inst) -> dict:
        """Every mode's outcome, each on a fresh instance and frame."""
        got = {mode: _outcome(_Search(_fresh(inst), 3000), mode)
               for mode in ("count", "find", "enumerate")}
        for mode in ("count", "find"):
            cap = got[mode][2] - 1
            got[f"tripped {mode}"] = _outcome(_Search(_fresh(inst), cap), mode)
        return got

    @given(frame_siblings(),
           st.lists(st.tuples(st.integers(0, 3), st.sampled_from(modes)), min_size=1, max_size=12))
    @settings(max_examples=100, deadline=None)
    def test_interleaved_siblings_match_a_cleared_cache(self, siblings, steps):
        expected = [self._outcomes(inst) for inst in siblings]
        oracle._shared_frame.cache_clear()
        for n, mode in steps:
            n, plain = n % len(siblings), mode.split()[-1]
            cap = expected[n][plain][2] - 1 if mode != plain else 3000
            assert _outcome(_Search(siblings[n], cap), plain) == expected[n][mode]
        assert all(inst._tables.frame is siblings[0]._tables.frame for inst in siblings)
        assert oracle._shared_frame.cache_info().currsize == 1

    @pytest.mark.parametrize("change", ["M", "target origin", "target shape", "source sites"])
    def test_other_geometry_has_its_own_frame(self, change):
        base = _sampled_3x2(1)
        sites, values, y, m2 = base.source_sites, base.source_values, base.target, base.m_squared
        if change == "M":
            m2 = Fraction(9, 4)
        elif change == "target origin":
            y = BitField("Y", (1, 0), 5, 5, 0, y.bits)
        elif change == "target shape":
            y = BitField("Y", (0, 0), 25, 1, 0, y.bits.reshape(1, 25))
        else:
            sites = tuple((sx + 1, sy) for sx, sy in sites)
            values = {(sx + 1, sy): v for (sx, sy), v in values.items()}
        other = Instance(sites, values, y, m2)
        oracle._shared_frame.cache_clear()
        assert base._tables.frame is _sampled_3x2(2)._tables.frame
        assert other._tables.frame is not base._tables.frame
        assert oracle._shared_frame.cache_info().currsize == 2
        for mode in ("count", "find"):
            assert _outcome(_Search(other, 10**6), mode) == _outcome(ReferenceSearch(other, 10**6), mode)

    def test_targets_past_one_block_are_not_kept(self):
        """Finds from 2x2 into 120x120, past one block of the ball table,
        keep no frame once their instances are gone."""
        oracle._shared_frame.cache_clear()
        x = sample_field(5, "X", (0, 0), 2, 2)
        tracemalloc.start()
        try:
            for seed in (6, 7, 8):
                y = sample_field(seed, "Y", (0, 0), 120, 120)
                assert find_embedding(Instance.from_fields(x, y, 2)) is not None
            del y
            kept = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert oracle._shared_frame.cache_info().currsize == 0
        assert kept < 2**20


class TestNodeCap:
    @pytest.mark.parametrize("cap", [-5, 2.5, True])
    @pytest.mark.parametrize("call", [count_embeddings, find_embedding, enumerate_embeddings],
                             ids=["count", "find", "enumerate"])
    def test_bad_node_cap_rejected_at_the_call(self, call, cap):
        with pytest.raises(ConfigError, match="node cap must be an integer of at least 0"):
            call(_sampled_3x2(1), node_cap=cap)

    def test_zero_node_cap_trips(self):
        with pytest.raises(SearchBudgetExceeded, match="exceeded 0 search nodes"):
            count_embeddings(_sampled_3x2(1), node_cap=0)


class TestMultiword:
    """Targets of more than 64 sites, whose sets of targets span W > 1
    uint64 words (8x8 fills exactly one), with both windows away from
    (0, 0): counts, first witnesses, enumerate sequences, node counts and
    trip points against the reference."""

    @pytest.mark.parametrize("target, source, m", [
        ((8, 8), (2, 2), Fraction(3, 2)),
        ((8, 8), (3, 2), Fraction(3, 2)),
        ((13, 5), (2, 2), Fraction(3, 2)),
        ((13, 5), (3, 2), 1),
        ((9, 8), (2, 2), Fraction(3, 2)),
        ((9, 8), (3, 2), 1),
        ((1, 70), (1, 3), 1),
        ((1, 70), (1, 3), 2),
        ((12, 12), (2, 2), Fraction(3, 2)),
        ((12, 12), (3, 2), 1),
    ], ids=lambda v: "x".join(map(str, v)) if isinstance(v, tuple) else f"M{v}")
    def test_agrees_with_reference(self, target, source, m):
        w, h = target
        x = sample_field(100 * w + h, "X", (-3, 5), *source)
        y = sample_field(100 * w + h + 7, "Y", (-40, 17), w, h)
        inst = Instance.from_fields(x, y, m)
        for mode in ("count", "find", "enumerate"):
            ref = _outcome(ReferenceSearch(inst, 10**6), mode)
            assert ref[1] == "done"
            assert _outcome(_Search(inst, 10**6), mode) == ref
            n = ref[2]
            for cap in (0, 1, n // 3, n // 2, n - 1, n):
                assert _outcome(_Search(inst, cap), mode) == _outcome(ReferenceSearch(inst, cap), mode)
            if mode == "count":
                assert ref[0] > 0

    def test_ball_table_built_in_blocks(self, monkeypatch):
        """Blocks of one and of five targets give the balls one block gives,
        and a count over them the reference's count, nodes and trip point,
        whether a find built some blocks first or none was built."""
        x = sample_field(3, "X", (-3, 5), 3, 2)
        y = sample_field(4, "Y", (-40, 17), 13, 5)
        inst = Instance.from_fields(x, y, 2)
        rows = [inst._tables.frame.fill(k) for k in range(65)]
        ref = _outcome(ReferenceSearch(inst, 10**6), "count")
        tripped = _outcome(ReferenceSearch(inst, ref[2] // 2), "count")
        for pairs in (1, 5 * 65):
            monkeypatch.setattr(oracle, "_TABLE_PAIRS", pairs)
            found = _fresh(inst)
            _outcome(_Search(found, 10**6), "find")
            for instance in (found, _fresh(inst)):
                assert _outcome(_Search(instance, 10**6), "count") == ref
            assert _outcome(_Search(_fresh(inst), ref[2] // 2), "count") == tripped
            assert [found._tables.frame.fill(k) for k in range(65)] == rows
            assert found._tables.frame.step == max(1, pairs // 65)


def _peak_bytes(call) -> int:
    """The tracemalloc peak of call()."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestSearchMemory:
    @pytest.mark.parametrize("source, side, cap", [
        (3, 12, 2_000_000), (8, 30, 300_000), (8, 120, 100_000)])
    def test_tripped_count_holds_a_chunk_per_depth(self, source, side, cap):
        """Counts that trip deep in wide trees, all-zero fields at M = 5.
        3x3 into 12x12 has ~3e6 nodes three sites down, whose domains alone
        take ~400 MiB: a count must not hold a level whole.  8x8 into 30x30
        is 63 sites deep over 15 words: a chunk of every depth is alive at
        once, so a chunk must be bounded in words, not pairs.  8x8 into
        120x120 would need ~850 MiB for the balls of every target, so a
        count must build only the blocks of the targets it visits."""
        x = _bf("X", [[0] * source] * source)
        y = BitField("Y", (7, -2), side, side, 0, np.zeros((side, side), dtype=np.uint8))
        search = _Search(Instance.from_fields(x, y, 5), cap)

        def count():
            with pytest.raises(SearchBudgetExceeded, match=f"exceeded {cap} search nodes"):
                search.count()

        assert _peak_bytes(count) < 64 * 2**20
        assert search.nodes == cap + 1

    def test_find_builds_only_the_balls_it_reads(self):
        """A 2x2 source into a 120x120 target at M = 2: the whole ball table
        would take ~90 MiB, and the search that filled a row per visited
        target peaked at ~3.6 MiB."""
        x = sample_field(5, "X", (0, 0), 2, 2)
        y = sample_field(6, "Y", (0, 0), 120, 120)
        inst = Instance.from_fields(x, y, 2)
        found = []
        assert _peak_bytes(lambda: found.append(find_embedding(inst))) < 8 * 2**20
        assert verify_embedding(EmbeddingMap(found[0], 2.0), x, y)


class TestMalformedInstance:
    def _y(self):
        return _bf("Y", [[0, 1], [1, 0]])

    def test_duplicate_site(self):
        with pytest.raises(ConfigError, match="distinct"):
            Instance(((0, 0), (0, 0)), {(0, 0): 0}, self._y(), Fraction(4))

    def test_site_without_value(self):
        with pytest.raises(ConfigError, match=r"\(1, 0\) has no value"):
            Instance(((0, 0), (1, 0)), {(0, 0): 0}, self._y(), Fraction(4))

    @pytest.mark.parametrize("value", [2, -1, None])
    def test_value_outside_bits(self, value):
        with pytest.raises(ConfigError, match="not 0 or 1"):
            Instance(((0, 0),), {(0, 0): value}, self._y(), Fraction(4))

    def test_target_bit_outside_bits(self):
        with pytest.raises(ConfigError, match="target bits"):
            Instance(((0, 0),), {(0, 0): 0}, _bf("Y", [[0, 2]]), Fraction(4))

    def test_negative_squared_bound(self):
        with pytest.raises(ConfigError, match="nonnegative"):
            Instance(((0, 0),), {(0, 0): 0}, self._y(), Fraction(-1))

    def test_nonfinite_squared_bound(self):
        with pytest.raises(ConfigError, match="finite"):
            Instance(((0, 0),), {(0, 0): 0}, self._y(), float("inf"))


class TestFindEmbedding:
    def test_all_zeros_embeds(self):
        x = _bf("X", [[0, 0], [0, 0]])
        y = _bf("Y", [[0] * 6] * 6)
        assert find_embedding(Instance.from_fields(x, y, 2)) is not None

    def test_value_preservation_impossible(self):
        x = _bf("X", [[0, 1]])
        y = _bf("Y", [[0] * 4] * 4)
        assert find_embedding(Instance.from_fields(x, y, 2)) is None

    def test_witnesses_verify(self):
        for seed in range(50):
            x = sample_field(seed, "X", (0, 0), 2, 2)
            y = sample_field(seed + 1000, "Y", (0, 0), 5, 5)
            emb = find_embedding(Instance.from_fields(x, y, 2))
            if emb is not None:
                assert verify_embedding(EmbeddingMap(emb, 2.0), x, y)

    def test_budget_exhaustion_distinct(self):
        x = sample_field(1, "X", (0, 0), 2, 2)
        y = sample_field(2, "Y", (0, 0), 5, 5)
        with pytest.raises(SearchBudgetExceeded):
            find_embedding(Instance.from_fields(x, y, 2), node_cap=1)

    def test_empty_source_rejected(self):
        y = sample_field(2, "Y", (0, 0), 3, 3)
        with pytest.raises(ConfigError):
            Instance((), {}, y, Fraction(4))


class TestCountEmbeddings:
    def test_single_site_count_is_matching_sites(self):
        y = _bf("Y", [[0, 1, 0], [1, 1, 0], [0, 0, 1]])
        x0 = _bf("X", [[0]])
        x1 = _bf("X", [[1]])
        assert count_embeddings(Instance.from_fields(x0, y, 1)) == 5
        assert count_embeddings(Instance.from_fields(x1, y, 1)) == 4

    def test_count_consistent_with_decision(self):
        for seed in range(20):
            x = sample_field(seed, "X", (0, 0), 2, 2)
            y = sample_field(seed + 500, "Y", (0, 0), 4, 4)
            inst = Instance.from_fields(x, y, 2)
            assert (count_embeddings(inst) > 0) == (find_embedding(inst) is not None)

    def test_matches_exhaustive_filter(self):
        for seed in range(10):
            x = sample_field(seed, "X", (0, 0), 2, 2)
            y = sample_field(seed + 300, "Y", (0, 0), 4, 4)
            inst = Instance.from_fields(x, y, Fraction(3, 2))
            assert count_embeddings(inst) == brute_force_count(x, y, Fraction(3, 2))

    def test_rotation_symmetric_instance(self):
        # Y: zeros exactly at the four corners of a 4x4 window (invariant
        # under quarter turns, which act freely on the even-sided grid).
        bits = np.ones((4, 4), dtype=np.uint8)
        for c in ((0, 0), (3, 0), (0, 3), (3, 3)):
            bits[c[1], c[0]] = 0
        y = BitField("Y", (0, 0), 4, 4, 0, bits)
        x = _bf("X", [[0]])
        n = count_embeddings(Instance.from_fields(x, y, 1))
        assert n == 4 and n % 4 == 0

    def test_enumerate_matches_count(self):
        x = sample_field(3, "X", (0, 0), 2, 1)
        y = sample_field(4, "Y", (0, 0), 4, 4)
        inst = Instance.from_fields(x, y, 2)
        assert len(list(enumerate_embeddings(inst))) == count_embeddings(inst)

    def test_enumerate_limit(self):
        x = _bf("X", [[0]])
        y = _bf("Y", [[0] * 5] * 5)
        inst = Instance.from_fields(x, y, 1)
        assert len(list(enumerate_embeddings(inst, limit=7))) == 7

    @pytest.mark.parametrize("limit", [0, -3])
    def test_limit_below_one_rejected(self, limit):
        inst = Instance.from_fields(_bf("X", [[0]]), _bf("Y", [[0] * 5] * 5), 1)
        with pytest.raises(ConfigError, match="at least 1"):
            list(enumerate_embeddings(inst, limit=limit))

    def test_limit_is_checked_at_the_call(self):
        # A bool or a non-integer is no limit: 2.5 used to yield 3 witnesses
        # and True 1.
        inst = Instance.from_fields(_bf("X", [[0]]), _bf("Y", [[0] * 5] * 5), 1)
        for limit in (0, 2.5, True, 1.0):
            with pytest.raises(ConfigError, match="an integer of at least 1"):
                enumerate_embeddings(inst, limit=limit)
        assert len(list(enumerate_embeddings(inst, limit=np.int64(2)))) == 2

    @pytest.mark.parametrize("width, height", [(8, 8), (13, 5), (500, 500)])
    def test_source_site_cap(self, width, height):
        # 64 source sites are accepted and 65 or more refused, named by
        # their count, whether the instance comes from fields or is built
        # directly.  From fields the refusal lists no site: a 500x500
        # source is refused within 1 MiB.
        x = sample_field(1, "X", (0, 0), width, height)
        y = _bf("Y", [[0] * 5] * 5)
        sites = tuple((sx, sy) for sy in range(height) for sx in range(width))
        values = {s: x.get(*s) for s in sites}
        if width * height <= oracle.SOURCE_SITE_CAP:
            assert len(Instance.from_fields(x, y, 2).source_sites) == 64
            assert len(Instance(sites, values, y, 4).source_sites) == 64
            return
        message = f"source of {width * height} sites exceeds cap 64"
        tracemalloc.start()
        try:
            with pytest.raises(ConfigError, match=message):
                Instance.from_fields(x, y, 2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20
        with pytest.raises(ConfigError, match=message):
            Instance(sites, values, y, 4)

    @pytest.mark.parametrize("m, reason", [(-2, "nonnegative"), (Fraction(-1, 3), "nonnegative"),
                                           (float("nan"), "finite"), (float("inf"), "finite")])
    def test_bad_bound_rejected(self, m, reason):
        with pytest.raises(ConfigError, match=reason):
            Instance.from_fields(_bf("X", [[0]]), _bf("Y", [[0] * 5] * 5), m)


class TestMonotonicity:
    @given(st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_anti_monotone_in_m(self, seed):
        x = sample_field(seed, "X", (0, 0), 2, 2)
        y = sample_field(seed + 77, "Y", (0, 0), 5, 5)
        low = find_embedding(Instance.from_fields(x, y, 1)) is not None
        high = find_embedding(Instance.from_fields(x, y, 2)) is not None
        assert high or not low  # YES at smaller M implies YES at larger M

    @given(st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_monotone_in_window(self, seed):
        x = sample_field(seed, "X", (0, 0), 2, 2)
        y5 = sample_field(seed + 77, "Y", (0, 0), 5, 5)
        y6 = sample_field(seed + 77, "Y", (0, 0), 6, 6)
        small = find_embedding(Instance.from_fields(x, y5, 2)) is not None
        big = find_embedding(Instance.from_fields(x, y6, 2)) is not None
        assert big or not small  # growing the window never kills a YES
