"""The rigid map, embedding search, and verification."""

import itertools
import tracemalloc
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blockembed import embed, hierarchy as hier
from blockembed.embed import (
    EmbeddingMap,
    InvalidOffset,
    embeds_level,
    translation_family,
    verify_embedding,
)
from blockembed.errors import ConfigError, PreconditionError
from blockembed.fields import (
    ACCEPTS,
    GRID_GOOD,
    GRID_ONE,
    BitField,
    WindowHash,
    block_codes,
    block_ones,
    classify_y0_block,
    derive_seed,
    level0_embeds,
    sample_field,
)
from blockembed.lattice import LatticeAnimal, Rect, cell_array, cell_geometry, chebyshev
from blockembed.hierarchy import build_level0, level0_window_for
from blockembed.params import named_profile


def _square(n, off=(0, 0)):
    return frozenset((x + off[0], y + off[1]) for x in range(n) for y in range(n))


def _good_cell(cell):
    """A level-0 good-singleton component: one cell's box, no bad cell."""
    x, y = cell
    return hier.Component(0, Rect(x, y, x + 1, y + 1), (), hier.GOOD_SINGLETON, (0, 0))


def _box_cells(box):
    """A box's cells as the designated set of a translation."""
    return LatticeAnimal(frozenset(box.cells()))


def _same_shape(a, b):
    """The unique translation taking animal a onto animal b, or None if
    their shapes differ."""
    if len(a) != len(b):
        return None
    (ax, ay), (bx, by) = min(a.sites), min(b.sites)
    t = (bx - ax, by - ay)
    if all((x + t[0], y + t[1]) in b.sites for x, y in a.sites):
        return t
    return None


def _offset_family_ref(source, target, T_prime, params):
    """Reference: the offset family of maps at the one member a depth-1
    search asks for, no designated source set (T = ()) and h = (1, 1), as
    (mapping, displacement budget).  A mismatched target is checked as a
    lattice animal to choose the error."""
    sites = source.sites
    t = None
    if target is sites:
        t = (0, 0)
    elif target:
        (ax, ay), (bx, by) = min(sites), min(target)
        t = (bx - ax, by - ay)
        if {(x + t[0], y + t[1]) for x, y in sites} != target:
            t = None
    if t is None:
        LatticeAnimal(target)
        raise PreconditionError("source and target domains have different shapes")
    if sum(len(a) for a in T_prime) > params.v0 * params.k0:
        raise PreconditionError("designated sets exceed the size budget")
    zones = [a.sites for a in T_prime]
    for i, a in enumerate(zones):
        for b in zones[i + 1:]:
            if min(chebyshev(p, q) for p in a for q in b) <= 1:
                raise InvalidOffset("designated images neighbour each other")
    return {c: (c[0] + t[0], c[1] + t[1]) for c in sites}, 0


def _outcome(f, *args):
    try:
        return f(*args)
    except (ConfigError, PreconditionError) as exc:
        return type(exc)


def _record(outcome):
    """A (mapping, budget) pair, or a bare mapping, which displaces no cell,
    as the mapping in iteration order and the budget; an exception class as
    itself."""
    if isinstance(outcome, dict):
        outcome = outcome, 0
    if isinstance(outcome, tuple):
        mapping, budget = outcome
        return list(mapping.items()), budget
    return outcome


@st.composite
def _polyominoes(draw):
    """Cells grown by lattice steps: always a lattice animal."""
    cells = {draw(st.tuples(st.integers(-3, 3), st.integers(-3, 3)))}
    for _ in range(draw(st.integers(0, 10))):
        x, y = draw(st.sampled_from(sorted(cells)))
        dx, dy = draw(st.sampled_from([(1, 0), (-1, 0), (0, 1), (0, -1)]))
        cells.add((x + dx, y + dy))
    return LatticeAnimal(frozenset(cells))


@st.composite
def _level0_components(draw):
    """The cells of bad components as level 0 makes them: the closed boxes
    of a few random bad cells."""
    bad = np.zeros((9, 9), dtype=bool)
    for x, y in draw(st.sets(st.tuples(st.integers(0, 8), st.integers(0, 8)), max_size=8)):
        bad[y, x] = True
    return [_box_cells(Rect(sx.start, sy.start, sx.stop, sy.stop))
            for sy, sx in hier._close_boxes(bad)]


class TestTranslationFamily:
    def test_base_offset_is_rigid(self, toy1):
        src = LatticeAnimal(_square(16))
        assert translation_family(src, src.sites, (), toy1) == {c: c for c in src.sites}
        moved = translation_family(src, _square(16, off=(3, -2)), (), toy1)
        assert moved == {c: (c[0] + 3, c[1] - 2) for c in src.sites}

    def test_bijection_onto_every_translate(self, toy1):
        src = LatticeAnimal(frozenset([(0, 0), (1, 0), (1, 1), (1, 2)]))
        for t in [(0, 0), (2, 2), (-4, 7), (9, -3)]:
            target = frozenset((x + t[0], y + t[1]) for x, y in src.sites)
            mapping = translation_family(src, target, (), toy1)
            assert mapping.keys() == src.sites and set(mapping.values()) == target

    def test_same_shape_translation(self, toy1):
        a = LatticeAnimal(frozenset([(0, 0), (1, 0), (1, 1)]))
        mapping = translation_family(a, frozenset([(-5, 2), (-4, 2), (-4, 3)]), (), toy1)
        assert mapping == {(0, 0): (-5, 2), (1, 0): (-4, 2), (1, 1): (-4, 3)}

    def test_different_shapes(self, toy1):
        # Another shape of the same size, a disconnected set, and sets of
        # other sizes (the empty set too) are no translates.
        a = LatticeAnimal(frozenset([(0, 0), (1, 0), (2, 0)]))
        for target in [frozenset([(0, 0), (1, 0), (1, 1)]), frozenset([(0, 0), (1, 0), (3, 0)]),
                       frozenset([(0, 0), (1, 0)]), frozenset()]:
            with pytest.raises(PreconditionError, match="different shapes"):
                translation_family(a, target, (), toy1)

    def test_size_budget(self, toy1):
        src = LatticeAnimal(_square(16))
        big = [LatticeAnimal(frozenset((x, y) for x in range(4, 12) for y in range(4, 5)))]
        # 8 cells > v0*k0 = 6 for toy1.
        with pytest.raises(PreconditionError, match="size budget"):
            translation_family(src, src.sites, big, toy1)
        six = [_box_cells(Rect(4, 4, 7, 5)), _box_cells(Rect(9, 9, 12, 10))]
        assert translation_family(src, src.sites, six, toy1) == {c: c for c in src.sites}

    @pytest.mark.parametrize("h", [(1, 1), (3, 4), (9, 2)])
    def test_budget_is_largest_displacement(self, toy1, h):
        # Between domains translated by h, with a designated target set,
        # against the per-cell maximum: the rigid map moves no cell off its
        # translate.
        src = LatticeAnimal(_square(16))
        T_prime = [LatticeAnimal(frozenset([(5 + h[0], 5 + h[1]), (5 + h[0], 6 + h[1])]))]
        mapping = translation_family(src, _square(16, off=h), T_prime, toy1)
        assert max(chebyshev((c[0] + h[0], c[1] + h[1]), v) for c, v in mapping.items()) == 0

    @given(_polyominoes(),
           st.one_of(st.sampled_from(["same", "copy"]),
                     st.tuples(st.integers(-5, 5), st.integers(-5, 5)),
                     st.frozensets(st.tuples(st.integers(-4, 4), st.integers(-4, 4)),
                                   max_size=12)),
           st.one_of(st.just(frozenset()),
                     st.frozensets(st.tuples(st.integers(-6, 6), st.integers(-6, 6)),
                                   max_size=2)),
           _level0_components(),
           st.sampled_from([(1, 2), (2, 2), (3, 1), (3, 2), (5, 2)]))
    @settings(max_examples=400, deadline=None)
    def test_matches_the_offset_family(self, source, other, toggled, T_prime, v0_k0):
        # The target is the source's own set (which the animal keeps), a
        # copy of it, a translate with a few cells toggled (connected or
        # not, matching or not), or another random set; the designated
        # target sets are level-0 components, their total on either side
        # of v0 * k0 (2 to 10 here).
        v0, k0 = v0_k0
        params = named_profile("toy1", v0=v0, k0=k0)
        if other == "same":
            target = source.sites
        elif other == "copy":
            target = frozenset(list(source.sites))
        elif isinstance(other, frozenset):
            target = other
        else:
            target = frozenset((x + other[0], y + other[1]) for x, y in source.sites) ^ toggled
        got = _record(_outcome(translation_family, source, target, T_prime, params))
        want = _record(_outcome(_offset_family_ref, source, target, T_prime, params))
        if want is ConfigError:
            # The reference's error for a mismatched target that is no
            # lattice animal; the search treated both errors as no map.
            want = PreconditionError
        assert got == want

    def test_disconnected_source_rejected(self, toy1, monkeypatch):
        # A source domain that is not a lattice animal has no rigid map: the
        # level-1 search never builds one for it, and its witness covers
        # the whole cut domain.
        hx = hier.build_hierarchy(toy1, "X", 42, Rect(0, 0, 1, 1))
        xb = hx.levels[1].blocks[0]
        cut = min(x for x, _ in xb.domain) + 4
        split = hier.Block(1, xb.lattice_block,
                           frozenset(c for c in xb.domain if c[0] != cut))
        with pytest.raises(ConfigError):
            LatticeAnimal(split.domain)
        sources = []
        family = embed.translation_family
        monkeypatch.setattr(embed, "translation_family",
                            lambda source, *rest: sources.append(source) or family(source, *rest))
        m0, w0 = toy1.M0, level0_window_for(Rect(0, 0, 1, 1), toy1)
        repaired = 0
        for seed in range(8):
            yf = sample_field(seed, "Y", (w0.x0 * m0, w0.y0 * m0),
                              (w0.x1 - w0.x0) * m0, (w0.y1 - w0.y0) * m0)
            wit = embeds_level(split, yf, 1, toy1, x_structure=hx.level0)
            assert not sources
            if wit is not None:
                assert wit.source_cells == split.domain
                repaired += 1
        assert repaired


_cell_sets = st.frozensets(st.tuples(st.integers(-3, 3), st.integers(-3, 3)), max_size=12)


@st.composite
def _king_walks(draw):
    """Cells grown by king moves: often connected only through corners."""
    cells = {(0, 0)}
    for _ in range(draw(st.integers(0, 8))):
        x, y = draw(st.sampled_from(sorted(cells)))
        dx, dy = draw(st.sampled_from([(i, j) for i in (-1, 0, 1) for j in (-1, 0, 1)]))
        cells.add((x + dx, y + dy))
    return frozenset(cells)


def _rigid_map_ref(source, target):
    """Reference: both sets wrapped as lattice animals, then _same_shape; a
    target that is no lattice animal is no translate of the source."""
    a = LatticeAnimal(source)
    try:
        t = _same_shape(a, LatticeAnimal(target))
    except ConfigError:
        t = None
    if t is None:
        raise PreconditionError("source and target domains have different shapes")
    return {c: (c[0] + t[0], c[1] + t[1]) for c in a.sites}


class TestBaseTranslation:
    @given(st.one_of(_cell_sets, _king_walks()),
           st.one_of(_cell_sets, st.tuples(st.integers(-5, 5), st.integers(-5, 5)),
                     st.sampled_from(["same", "copy"])),
           st.frozensets(st.tuples(st.integers(-8, 8), st.integers(-8, 8)), max_size=2))
    @settings(max_examples=300, deadline=None)
    def test_matches_lattice_animal_reference(self, source, other, toggled):
        # The target is another random set, a translate of the source with
        # a few cells toggled (connected or not, matching or not), the
        # source's own set object (which the animal keeps), or a copy of it.
        # A source that is no lattice animal raises ConfigError on both sides.
        if other == "same":
            target = source
        elif other == "copy":
            target = frozenset(list(source))
        elif isinstance(other, frozenset):
            target = other
        else:
            target = frozenset((x + other[0], y + other[1]) for x, y in source) ^ toggled
        toy1 = named_profile("toy1")
        got = _outcome(lambda s, t: translation_family(LatticeAnimal(s), t, (), toy1),
                       source, target)
        assert got == _outcome(_rigid_map_ref, source, target)


class TestVerifyEmbedding:
    def _fields(self):
        x = BitField("X", (0, 0), 2, 1, 0, np.array([[0, 1]], dtype=np.uint8))
        y = BitField("Y", (0, 0), 4, 4, 0,
                     np.array([[0, 1, 0, 1]] * 4, dtype=np.uint8))
        return x, y

    def test_valid_map(self):
        x, y = self._fields()
        emb = EmbeddingMap({(0, 0): (0, 0), (1, 0): (1, 0)}, 2.0)
        assert verify_embedding(emb, x, y)

    def test_value_mismatch(self):
        x, y = self._fields()
        emb = EmbeddingMap({(0, 0): (1, 0), (1, 0): (0, 0)}, 2.0)
        assert not verify_embedding(emb, x, y)

    def test_injectivity(self):
        x, y = self._fields()
        emb = EmbeddingMap({(0, 0): (0, 0), (1, 0): (0, 0)}, 2.0)
        assert not verify_embedding(emb, x, y)

    def test_lipschitz_bound(self):
        x, y = self._fields()
        emb = EmbeddingMap({(0, 0): (0, 0), (1, 0): (3, 0)}, 2.0)
        assert not verify_embedding(emb, x, y)  # distance 3 > 2*1

    def test_image_outside_window(self):
        x, y = self._fields()
        emb = EmbeddingMap({(0, 0): (0, 0), (1, 0): (9, 0)}, 20.0)
        with pytest.raises(PreconditionError):
            verify_embedding(emb, x, y)

    def test_empty_map_is_an_embedding(self):
        x, y = self._fields()
        assert verify_embedding(EmbeddingMap({}, 2.0), x, y)

    def test_single_site_with_fine_bound(self):
        # M**2 with a huge denominator; no pair of sites to compare.
        x = BitField("X", (0, 0), 1, 1, 0, np.array([[1]], dtype=np.uint8))
        assert verify_embedding(EmbeddingMap({(0, 0): (0, 0)}, 0.1), x, x)

    @given(st.data())
    @settings(max_examples=100, deadline=None)
    def test_chunks_match_full_matrices(self, data):
        # Random maps on a 4x3 source into a 6x6 target, compared a few
        # distance-matrix entries at a time, against one full comparison.
        x = BitField("X", (0, 0), 4, 3, 0, np.zeros((3, 4), dtype=np.uint8))
        y = BitField("Y", (0, 0), 6, 6, 0, np.zeros((6, 6), dtype=np.uint8))
        source = [(i, j) for i in range(4) for j in range(3)]
        sites = data.draw(st.lists(st.sampled_from(source), min_size=1,
                                   max_size=12, unique=True))
        images = data.draw(st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5)),
                                    min_size=len(sites), max_size=len(sites), unique=True))
        m = data.draw(st.sampled_from([1.0, 1.5, 2.0, 3.0]))
        m2 = Fraction(m) ** 2
        expected = all(
            ((a[0] - b[0]) ** 2 + (a[1] - b[1]) ** 2) * m2.denominator
            <= ((s[0] - t[0]) ** 2 + (s[1] - t[1]) ** 2) * m2.numerator
            for s, a in zip(sites, images) for t, b in zip(sites, images))
        emb = EmbeddingMap(dict(zip(sites, images)), m)
        chunk = embed.VERIFY_CHUNK
        embed.VERIFY_CHUNK = data.draw(st.integers(1, 20))
        try:
            assert verify_embedding(emb, x, y) == expected
        finally:
            embed.VERIFY_CHUNK = chunk

    def test_large_map_without_square_matrix(self):
        # 2400 sites: one n x n int64 matrix would take 46 MB.
        w, h = 60, 40
        bits = (np.arange(w * h).reshape(h, w) % 3 == 0).astype(np.uint8)
        x = BitField("X", (0, 0), w, h, 0, bits)
        y = BitField("Y", (5, 7), w, h, 0, bits)
        shift = {(i, j): (i + 5, j + 7) for i in range(w) for j in range(h)}
        tracemalloc.start()
        try:
            ok = verify_embedding(EmbeddingMap(shift, 1.0), x, y)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert ok
        assert peak < len(shift) ** 2 * 8 // 4
        squeezed = dict(shift)
        squeezed[(w - 1, h - 1)], squeezed[(0, 0)] = (5, 7), (w + 4, h + 6)
        y2 = BitField("Y", (5, 7), w, h, 0, bits.copy())
        y2.bits[0, 0], y2.bits[h - 1, w - 1] = bits[h - 1, w - 1], bits[0, 0]
        assert not verify_embedding(EmbeddingMap(squeezed, 1.0), x, y2)


def _accepts_ref(mapping, x_field, y_field, params):
    """Per cell: the source bit against the class of its image's sites."""
    m0 = params.M0
    for (sx, sy), (tx, ty) in mapping.items():
        block = y_field.bits[ty * m0:(ty + 1) * m0, tx * m0:(tx + 1) * m0]
        if not level0_embeds(x_field.get(sx, sy), classify_y0_block(block, params)):
            return False
    return True


def _pairs_ref(mapping):
    """A cell map as an (n, 2, 2) array: [i, 0] a source cell, [i, 1] its image."""
    return cell_array(itertools.chain.from_iterable(mapping.items())).reshape(-1, 2, 2)


def _accepts_cells_ref(mapping, x_level0, y_level0):
    """Reference (the search's former gather): whether every source cell's
    bit embeds into its image's target block."""
    pairs = _pairs_ref(mapping)
    return bool(ACCEPTS[x_level0.bits_at(pairs[:, 0]), y_level0.codes_at(pairs[:, 1])].all())


def _good_or_in_ref(level0, rect, domain):
    """Reference (the repair's former pool): cells of ``rect`` that are good
    or in ``domain``, row-major; ``rect`` lies inside the level-0 window."""
    w = level0.window
    mask = level0.class_grid[rect.y0 - w.y0:rect.y1 - w.y0,
                             rect.x0 - w.x0:rect.x1 - w.x0] == GRID_GOOD
    xy = cell_array(domain) - (rect.x0, rect.y0)
    xy = xy[((xy >= 0) & (xy < (rect.x1 - rect.x0, rect.y1 - rect.y0))).all(axis=1)]
    mask[xy[:, 1], xy[:, 0]] = True
    ys, xs = np.nonzero(mask)
    return list(zip((xs + rect.x0).tolist(), (ys + rect.y0).tolist()))


def _repair_correspondence_ref(src_cells, free_pool, cap):
    """Reference (the former repair): identity on the pool, then each other
    source cell, in sorted order, to the nearest unused pool cell
    (Chebyshev, lexicographic tie-break) within the cap, as (mapping,
    displacement budget), or None."""
    pool = set(free_pool)
    mapping = {}
    cells = sorted(src_cells)
    for c in cells:
        if c in pool:
            mapping[c] = c
            pool.discard(c)
    budget = 0
    for c in cells:
        if c in mapping:
            continue
        near = [q for q in pool if chebyshev(c, q) <= cap]
        if not near:
            return None
        best = min(near, key=lambda q: (chebyshev(c, q), q))
        mapping[c] = best
        pool.discard(best)
        budget = max(budget, chebyshev(c, best))
    return mapping, budget


def _repair_ref(block, y_domain, y_level0, x_structure, params):
    """Reference: the former boundary repair, on sets and dicts, as
    (mapping, displacement budget) or None."""
    cell, = block.animal.sites
    geometry = cell_geometry(1, cell, params)
    pool = _good_or_in_ref(y_level0, geometry.region.outset(geometry.margin), y_domain)
    corr = _repair_correspondence_ref(block.domain, pool, cap=3 * geometry.margin)
    if corr is not None and _accepts_cells_ref(corr[0], x_structure, y_level0):
        return corr
    return None


def _rigid_or_repair_ref(block, y_domain, y_level0, x_structure, params):
    """Reference: the former level-1 decision, the rigid map of a domain
    that is a lattice animal, within the v0 * k0 budget of the target's bad
    subcomponents, then the repair."""
    try:
        source = LatticeAnimal(block.domain)
    except ConfigError:
        source = None
    if source is not None:
        y_bad = [_box_cells(c.box) for c in y_level0.bad_components
                 if not y_domain.isdisjoint(c.box.cells())]
        try:
            mapping = translation_family(source, y_domain, y_bad, params)
        except PreconditionError:
            mapping = None
        if mapping is not None and _accepts_cells_ref(mapping, x_structure, y_level0):
            return mapping, 0
    return _repair_ref(block, y_domain, y_level0, x_structure, params)


def _sorted_record(corr):
    """A (mapping, budget) pair as the mapping sorted and the budget."""
    if corr is None:
        return None
    mapping, budget = corr
    return sorted(mapping.items()), budget


class TestGatheredContent:
    """The array reads of level-0 content against per-cell references."""

    WINDOW = Rect(0, 0, 6, 6)

    @given(st.integers(0, 2**32), st.integers(0, 2**32),
           st.permutations(list(Rect(0, 0, 6, 6).cells())))
    @settings(max_examples=60, deadline=None)
    def test_accepts_matches_per_cell_reference(self, xseed, yseed, order):
        # A 3x3 source square onto nine random target cells; toy-m0-3
        # accepts a bit in about nine target blocks of ten.  The level-1
        # search reads acceptance as ACCEPTS over the two cell arrays.
        p = named_profile("toy-m0-3")
        m0 = p.M0
        x_field = sample_field(xseed, "X", (0, 0), 6, 6)
        y_field = sample_field(yseed, "Y", (0, 0), 6 * m0, 6 * m0)
        xs = build_level0(p, "X", xseed, self.WINDOW, site_field=x_field)
        ys = build_level0(p, "Y", yseed, self.WINDOW, site_field=y_field)
        src = sorted(_square(3, off=(2, 1)))
        mapping = dict(zip(src, order[:9]))
        expect = _accepts_ref(mapping, x_field, y_field, p)
        got = ACCEPTS[xs.bits_at(cell_array(src)), ys.codes_at(cell_array(order[:9]))].all()
        assert got == expect == _accepts_cells_ref(mapping, xs, ys)

    def test_accepts_reads_bits_from_the_source(self, toy1):
        ys = build_level0(toy1, "Y", 1, level0_window_for(Rect(0, 0, 1, 1), toy1))
        lb = hier.LatticeBlock(1, LatticeAnimal(frozenset([(0, 0)])))
        block = hier.Block(1, lb, _square(16))
        yf = sample_field(1, "Y", (0, 0), 16 * toy1.M0, 16 * toy1.M0)
        with pytest.raises(ConfigError, match="not single bits"):
            embed._embeds_level1(block, yf, toy1, ys)

    @given(st.integers(0, 2**32),
           st.frozensets(st.tuples(st.integers(-3, 9), st.integers(-3, 9)), min_size=1))
    @settings(max_examples=60, deadline=None)
    def test_pool_matches_per_cell_reference(self, seed, domain):
        # The former repair pool, kept as the decision's reference.
        p = named_profile("toy-m0-3")
        ys = build_level0(p, "Y", seed, Rect(-2, -2, 8, 8))
        rect = Rect(-1, 0, 7, 6)
        expect = [c for c in rect.cells()
                  if c in domain or ys.class_grid[c[1] + 2, c[0] + 2] == GRID_GOOD]
        assert _good_or_in_ref(ys, rect, domain) == expect


class TestLevel1Rule:
    """A rule decides a target block by its count of ones through one
    table, built once per rule."""

    @staticmethod
    def _rule(params):
        xs = build_level0(params, "X", 42, level0_window_for(Rect(0, 0, 1, 1), params))
        lb = hier.LatticeBlock(1, LatticeAnimal(frozenset([(0, 0)])))
        return embed.level1_rule(hier.Block(1, lb, _square(16)), params, xs)

    @pytest.mark.parametrize("m0", range(1, 17))
    def test_count_table_is_the_level0_rule(self, toy1, m0):
        # Every count of ones in an m0 x m0 block, both source bits.
        p = replace(toy1, M0=m0)
        table = self._rule(p).table
        assert table.shape == (2, m0 * m0 + 1)
        for ones in range(m0 * m0 + 1):
            code = block_codes(np.array([ones]), m0)[0]
            block = np.arange(m0 * m0) < ones
            for bit in (0, 1):
                assert table[bit, ones] == ACCEPTS[bit, code]
                assert table[bit, ones] == level0_embeds(bit, classify_y0_block(block, p))

    @pytest.mark.parametrize("m0", [1, 2, 9, 15, 16])
    def test_accepts_matches_the_class_gather(self, toy1, m0):
        # The count-table verdict against ACCEPTS over the block classes,
        # on stacks whose blocks count in uint8 (m0 <= 15) and int16.
        rule = self._rule(replace(toy1, M0=m0))
        stack = WindowHash("Y", *rule.window, 3).bits([derive_seed(m0, t) for t in range(3)])
        ones = block_ones(stack, m0)[:, rule.rel[:, 1], rule.rel[:, 0]]
        expect = ACCEPTS[rule.bits, block_codes(ones, m0)].all(axis=1)
        assert np.array_equal(rule.accepts(stack), expect)


class TestRigidOrRepair:
    """The level-1 decision against the former rigid map and boundary
    repair, and the lemma that leaves the repair nothing to move."""

    @staticmethod
    def _target_block(params, grid, seed):
        """The censored target block over level-1 cell (0, 0), cut from a
        class grid over the cell's level-0 window, and the region's cells
        that are not good."""
        w0 = level0_window_for(Rect(0, 0, 1, 1), params)
        ys = hier.Level0Structure("Y", w0, seed, params, grid, None,
                                  hier._level0_bad_components(grid, w0))
        lb = hier.LatticeBlock(1, LatticeAnimal(frozenset([(0, 0)])))
        curve, _ = hier.block_curve(lb, ys, seed, censored=True)
        region = grid[-w0.y0:16 - w0.y0, -w0.x0:16 - w0.x0]
        bad_y, bad_x = np.nonzero(region != GRID_GOOD)
        return curve, set(zip(bad_x.tolist(), bad_y.tolist()))

    @given(st.sampled_from([2, 1]), st.integers(0, 2**32),
           st.sampled_from([0.005, 0.01, 0.02, 0.05, 0.2]))
    @settings(max_examples=800, deadline=None)
    def test_target_block_holds_every_bad_cell_of_the_cell(self, k0, seed, bad_frac):
        # The lemma the level-1 search rests on: with k0 <= clearance the
        # target block over a cell, perturbed, straight or the placeholder,
        # holds every bad cell of the cell's region, so no source cell over
        # a bad cell is left for a repair.  Sparse grids often give a
        # perturbed curve (about half of them at k0 = 2); dense ones give
        # the straight placeholder.
        p = named_profile("toy1", k0=k0)
        assert k0 <= p.margins(1).clearance
        rng = np.random.default_rng(seed)
        grid = np.where(rng.random((28, 28)) < bad_frac, rng.integers(1, 3, (28, 28)),
                        GRID_GOOD).astype(np.int8)
        curve, bad = self._target_block(p, grid, seed)
        assert bad <= curve.domain

    def test_a_curve_past_the_clearance_leaves_a_bad_cell_out(self):
        # Why k0 > clearance is refused: at k0 = 3 a curve may run two
        # cells inside the cell, past a bad cell on its outline.  With one
        # bad cell at (0, 8), the curve of seed 3 does; at k0 = 2 none of
        # 40 seeds does.
        w0 = level0_window_for(Rect(0, 0, 1, 1), named_profile("toy1"))
        grid = np.full((28, 28), GRID_GOOD, dtype=np.int8)
        grid[8 - w0.y0, 0 - w0.x0] = GRID_ONE
        p3 = named_profile("toy1", k0=3)
        assert p3.k0 > p3.margins(1).clearance
        curve, bad = self._target_block(p3, grid, 3)
        assert bad == {(0, 8)} and not bad <= curve.domain
        assert not curve.is_straight
        for seed in range(40):
            curve, bad = self._target_block(named_profile("toy1"), grid, seed)
            assert bad <= curve.domain

    @pytest.mark.parametrize("profile", ["toy1", "toy-m0-3", "toy-m0-6"])
    def test_program_traffic_matches_the_rigid_decision(self, profile):
        # Each uncensored source block of the X 3x3 window against 25
        # target fields, seeded as estimate-s seeds them: the search finds a
        # witness exactly when the former rigid-then-repair decision found
        # a map, and that map is the identity on the witness's cells, with
        # displacement budget 0.  toy-m0-3
        # leaves about one target block in ten bad, so no 256-cell block
        # embeds there and both decisions must say None.
        p = named_profile(profile)
        m0 = p.M0
        witnesses = 0
        for seed in range(3 if profile == "toy-m0-3" else 6):
            hx = hier.build_hierarchy(p, "X", seed, Rect(0, 0, 3, 3))
            for i, block in enumerate(hx.levels[1].blocks):
                if block.censored:
                    continue
                (x, y), = block.animal.sites
                w0 = level0_window_for(Rect(x, y, x + 1, y + 1), p)
                for t in range(25):
                    yseed = derive_seed(derive_seed(seed, i), 0x51, t)
                    yf = sample_field(yseed, "Y", (w0.x0 * m0, w0.y0 * m0),
                                      (w0.x1 - w0.x0) * m0, (w0.y1 - w0.y0) * m0)
                    wit = embeds_level(block, yf, 1, p, x_structure=hx.level0)
                    ys = build_level0(p, "Y", yseed, w0, site_field=yf)
                    curve, _ = hier.block_curve(block.lattice_block, ys, yseed, censored=True)
                    want = _rigid_or_repair_ref(block, curve.domain, ys, hx.level0, p)
                    if wit is None:
                        assert want is None
                        continue
                    identity = [(c, c) for c in sorted(wit.source_cells)]
                    assert _sorted_record(want) == (identity, 0)
                    witnesses += 1
        assert witnesses or profile == "toy-m0-3"


class TestEmbedsLevel:
    def test_level0_source_component(self, toy1):
        # A source level 0 has no bad cell, so no source component exists.
        xs = build_level0(toy1, "X", 3, Rect(0, 0, 4, 4))
        yf = sample_field(0, "Y", (0, 0), 4 * toy1.M0, 4 * toy1.M0)
        with pytest.raises(ConfigError, match="target-family component"):
            embeds_level(_good_cell((1, 1)), yf, 0, toy1, x_structure=xs)

    def test_level0_witness_flattens_and_verifies(self):
        # Each bad component of a target window against source partners:
        # a witness maps every partner site into its cell's block.
        p = named_profile("toy-m0-3")
        m0, window = p.M0, Rect(0, 0, 8, 8)
        found = 0
        for yseed in range(3):
            y_field = sample_field(yseed, "Y", (0, 0), 8 * m0, 8 * m0)
            ys = build_level0(p, "Y", yseed, window, site_field=y_field)
            for comp in ys.bad_components:
                for xseed in range(20):
                    x_field = sample_field(xseed, "X", (0, 0), 8, 8)
                    wit = embeds_level(comp, x_field, 0, p, x_structure=ys)
                    expected = all(
                        level0_embeds(x_field.get(x, y), classify_y0_block(
                            y_field.bits[y * m0:(y + 1) * m0, x * m0:(x + 1) * m0], p))
                        for x, y in comp.box.cells())
                    assert (wit is not None) == expected
                    if wit is not None:
                        assert verify_embedding(wit.flatten(x_field, y_field, p),
                                                x_field, y_field)
                        found += 1
        assert found

    def test_level0_partner_must_cover_the_component(self):
        # Components {(0, 0)} and {(6, 2)} against partners that miss them,
        # before or past the cell on either axis: an error, never bits read
        # from elsewhere in the window.
        p = named_profile("toy-m0-3")
        ys = build_level0(p, "Y", 1, Rect(0, 0, 8, 8))
        corner, = [c for c in ys.bad_components if c.box == Rect(0, 0, 1, 1)]
        inner, = [c for c in ys.bad_components if c.box == Rect(6, 2, 7, 3)]
        misses = [(corner, (3, 3), 8, 8), (corner, (0, 3), 8, 8), (corner, (3, 0), 8, 8),
                  (inner, (0, 0), 4, 4), (inner, (0, 0), 6, 8), (inner, (0, 0), 8, 2)]
        for seed in range(12):
            for comp, origin, width, height in misses:
                with pytest.raises(PreconditionError, match="outside the partner window"):
                    embeds_level(comp, sample_field(seed, "X", origin, width, height), 0, p,
                                 x_structure=ys)
            tight = sample_field(seed, "X", (0, 0), 1, 1)
            assert (embeds_level(corner, tight, 0, p, x_structure=ys)
                    == embeds_level(corner, sample_field(seed, "X", (0, 0), 8, 8), 0, p,
                                    x_structure=ys))

    def test_level0_component_outside_the_structure_window(self):
        # Component {(0, 0)} of one target window searched against the
        # structure of another that starts at (3, 3): its class is never
        # read from the wrapped cell (8, 8).
        p = named_profile("toy-m0-3")
        corner, = [c for c in build_level0(p, "Y", 1, Rect(0, 0, 8, 8)).bad_components
                   if c.box == Rect(0, 0, 1, 1)]
        shifted = build_level0(p, "Y", 1, Rect(3, 3, 11, 11))
        for seed in range(8):
            with pytest.raises(PreconditionError, match="outside the level-0 window"):
                embeds_level(corner, sample_field(seed, "X", (0, 0), 8, 8), 0, p,
                             x_structure=shifted)

    def test_level1_good_pair_has_witness(self, toy1):
        hx = hier.build_hierarchy(toy1, "X", 42, Rect(0, 0, 1, 1))
        xb = hx.levels[1].blocks[0]
        assert xb.good
        m0 = toy1.M0
        w0 = level0_window_for(Rect(0, 0, 1, 1), toy1)
        found = False
        for seed in range(20):
            hy = hier.build_hierarchy(toy1, "Y", seed, Rect(0, 0, 1, 1))
            if not hy.levels[1].blocks[0].good:
                continue
            yf = sample_field(seed, "Y", (w0.x0 * m0, w0.y0 * m0),
                              (w0.x1 - w0.x0) * m0, (w0.y1 - w0.y0) * m0)
            wit = embeds_level(xb, yf, 1, toy1, x_structure=hx.level0)
            assert wit is not None
            found = True
        assert found

    def test_level1_witness_verifies(self, toy1):
        hx = hier.build_hierarchy(toy1, "X", 42, Rect(0, 0, 1, 1))
        xb = hx.levels[1].blocks[0]
        m0 = toy1.M0
        w0 = level0_window_for(Rect(0, 0, 1, 1), toy1)
        x_field = sample_field(42, "X", (0, 0), 16, 16)
        verified = 0
        for seed in range(20):
            yf = sample_field(seed, "Y", (w0.x0 * m0, w0.y0 * m0),
                              (w0.x1 - w0.x0) * m0, (w0.y1 - w0.y0) * m0)
            wit = embeds_level(xb, yf, 1, toy1, x_structure=hx.level0)
            if wit is not None:
                assert verify_embedding(wit.flatten(x_field, yf, toy1), x_field, yf)
                verified += 1
        assert verified

    @given(st.integers(0, 2**32), st.integers(0, 2), st.integers(0, 2),
           st.integers(0, 3), st.integers(0, 3))
    @settings(max_examples=15, deadline=None)
    def test_cropped_field_builds_the_same_hierarchy(self, seed, ux, uy, grow_lo, grow_hi):
        # A target window sampled wider than the level-0 window, cropped,
        # gives the level-0 structure a fresh sample of that window gives.
        toy1 = named_profile("toy1")
        w0, m0 = level0_window_for(Rect(ux, uy, ux + 1, uy + 1), toy1), toy1.M0
        wide = sample_field(seed, "Y", ((w0.x0 - grow_lo) * m0, (w0.y0 - grow_hi) * m0),
                            (w0.x1 - w0.x0 + grow_lo + grow_hi) * m0,
                            (w0.y1 - w0.y0 + grow_hi + grow_lo) * m0)
        cropped = embed._crop(wide, w0, m0)
        assert cropped == sample_field(seed, "Y", (w0.x0 * m0, w0.y0 * m0),
                                       (w0.x1 - w0.x0) * m0, (w0.y1 - w0.y0) * m0)
        built = build_level0(toy1, "Y", seed, w0, site_field=cropped)
        fresh = build_level0(toy1, "Y", seed, w0)
        assert np.array_equal(built.class_grid, fresh.class_grid)
        assert built.bad_components == fresh.bad_components

    def test_crop_needs_a_covering_target_window(self, toy1):
        w0, m0 = level0_window_for(Rect(0, 0, 1, 1), toy1), toy1.M0
        short = sample_field(3, "Y", (w0.x0 * m0, w0.y0 * m0), (w0.x1 - w0.x0) * m0 - 1,
                             (w0.y1 - w0.y0) * m0)
        assert embed._crop(short, w0, m0) is None

    def test_level1_search_with_wider_and_narrower_target_windows(self, toy1):
        # Windows wider or narrower than the level-0 window are cropped while
        # they cover the cell's region: the witness is the one the exact
        # level-0 window gives.  The level-0 window pads the region by 6
        # cells, so one narrower by 7 misses it and is refused.
        hx = hier.build_hierarchy(toy1, "X", 42, Rect(0, 0, 1, 1))
        xb = hx.levels[1].blocks[0]
        m0 = toy1.M0
        w0 = level0_window_for(Rect(0, 0, 1, 1), toy1)
        found = 0
        for seed in range(8):
            windows = [sample_field(seed, "Y", ((w0.x0 - a) * m0, (w0.y0 - a) * m0),
                                    (w0.x1 - w0.x0 + 2 * a) * m0,
                                    (w0.y1 - w0.y0 + 2 * a) * m0) for a in (0, 2, -1, -7)]
            witnesses = [embeds_level(xb, yf, 1, toy1, x_structure=hx.level0)
                         for yf in windows[:3]]
            assert witnesses[1] == witnesses[0] == witnesses[2]
            with pytest.raises(PreconditionError, match="does not cover the cell's region"):
                embeds_level(xb, windows[3], 1, toy1, x_structure=hx.level0)
            found += witnesses[0] is not None
        assert found

    def test_level1_target_must_cover_the_cell(self, toy1):
        # The cell (0, 0), whose region is the 144 x 144 target sites from
        # the origin, against target windows that miss part of it, before
        # or past the region on either axis: an error, never bits read
        # from elsewhere.  A window of exactly the region decides as a
        # wider one does.
        hx = hier.build_hierarchy(toy1, "X", 42, Rect(0, 0, 1, 1))
        xb, side = hx.levels[1].blocks[0], 16 * toy1.M0
        misses = [((1, 0), side, side), ((0, 1), side, side), ((0, 0), side - 1, side),
                  ((0, 0), side, side - 1), ((-1, 0), side, side), ((0, -1), side, side)]
        for seed in range(4):
            for origin, width, height in misses:
                with pytest.raises(PreconditionError, match="does not cover the cell's region"):
                    embeds_level(xb, sample_field(seed, "Y", origin, width, height), 1, toy1,
                                 x_structure=hx.level0)
            tight = sample_field(seed, "Y", (0, 0), side, side)
            wide = sample_field(seed, "Y", (-side, -side), 3 * side, 3 * side)
            assert (embeds_level(xb, tight, 1, toy1, x_structure=hx.level0)
                    == embeds_level(xb, wide, 1, toy1, x_structure=hx.level0))

    def test_level1_reads_the_window_it_is_given(self, toy1):
        # A target window far from the cell is refused, whatever its bits,
        # rather than stood in for by a fresh sample of its seed.  Over the
        # cell, the caller's bits decide: the seed's own sample finds a
        # witness, and the same window emptied of ones finds none.
        hx = hier.build_hierarchy(toy1, "X", 42, Rect(0, 0, 1, 1))
        xb, m0 = hx.levels[1].blocks[0], toy1.M0
        found = 0
        for seed in range(4):
            for fill in (0, 1):
                far = BitField("Y", (40 * m0, -3 * m0), m0, m0, seed,
                               np.full((m0, m0), fill, dtype=np.uint8))
                with pytest.raises(PreconditionError, match="does not cover the cell's region"):
                    embeds_level(xb, far, 1, toy1, x_structure=hx.level0)
            cell = sample_field(seed, "Y", (0, 0), 16 * m0, 16 * m0)
            zeros = BitField("Y", cell.origin, cell.width, cell.height, seed,
                             np.zeros_like(cell.bits))
            assert embeds_level(xb, zeros, 1, toy1, x_structure=hx.level0) is None
            found += embeds_level(xb, cell, 1, toy1, x_structure=hx.level0) is not None
        assert found

    def test_level1_refuses_k0_above_the_clearance(self, toy1):
        # k0 = 3 = mb passes the curve frame, but its curves may leave a bad
        # cell outside the target block, which the search does not repair.
        p = replace(toy1, k0=3)
        hx = hier.build_hierarchy(p, "X", 42, Rect(0, 0, 1, 1))
        yf = sample_field(0, "Y", (0, 0), 16 * p.M0, 16 * p.M0)
        with pytest.raises(ConfigError, match="k0 <= the level-1 clearance"):
            embeds_level(hx.levels[1].blocks[0], yf, 1, p, x_structure=hx.level0)

    @pytest.mark.parametrize("stray", [(16, 3), (-1, 0), (5, -2)])
    def test_level1_source_domain_must_stay_in_its_cell(self, toy1, stray):
        # A one-cell block whose domain reaches past its region, as a
        # perturbed source curve could: refused, never read off other cells.
        xs = build_level0(toy1, "X", 42, level0_window_for(Rect(0, 0, 1, 1), toy1))
        lb = hier.LatticeBlock(1, LatticeAnimal(frozenset([(0, 0)])))
        block = hier.Block(1, lb, _square(16) | {stray})
        yf = sample_field(0, "Y", (-3 * toy1.M0, -3 * toy1.M0), 22 * toy1.M0, 22 * toy1.M0)
        with pytest.raises(PreconditionError, match="leaves its cell's region"):
            embeds_level(block, yf, 1, toy1, x_structure=xs)

    def test_unsupported_level(self, toy1):
        with pytest.raises(ConfigError):
            embeds_level(None, None, 2, toy1)

    def test_level1_source_is_one_source_cell(self, toy1):
        # A level-1 source is a single cell of the source family: a wider
        # block or a target-family structure is rejected before any work.
        hx = hier.build_hierarchy(toy1, "X", 42, Rect(0, 0, 1, 1))
        cell = hx.levels[1].blocks[0]
        pair = LatticeAnimal(frozenset([(0, 0), (1, 0)]))
        wide = hier.Block(1, hier.LatticeBlock(1, pair), frozenset(), good=False)
        yf = sample_field(0, "Y", (0, 0), 4 * toy1.M0, 4 * toy1.M0)
        with pytest.raises(ConfigError, match="one source-family cell"):
            embeds_level(wide, yf, 1, toy1, x_structure=hx.level0)
        hy = hier.build_hierarchy(toy1, "Y", 42, Rect(0, 0, 1, 1))
        with pytest.raises(ConfigError, match="one source-family cell"):
            embeds_level(hy.levels[1].blocks[0], yf, 1, toy1, x_structure=hy.level0)
        with pytest.raises(ConfigError, match="one source-family cell"):
            embeds_level(cell, yf, 1, toy1, x_structure=hy.level0)

    def test_partner_window_family_is_checked(self, toy1):
        # A level-1 target window must be target-family and a level-0
        # partner source-family: the other family's bits are never read.
        hx = hier.build_hierarchy(toy1, "X", 42, Rect(0, 0, 1, 1))
        w0, m0 = level0_window_for(Rect(0, 0, 1, 1), toy1), toy1.M0
        size = ((w0.x0 * m0, w0.y0 * m0), (w0.x1 - w0.x0) * m0, (w0.y1 - w0.y0) * m0)
        with pytest.raises(ConfigError, match="partner window must be of family Y"):
            embeds_level(hx.levels[1].blocks[0], sample_field(0, "X", *size), 1, toy1,
                         x_structure=hx.level0)
        p = named_profile("toy-m0-3")
        ys = build_level0(p, "Y", 1, Rect(0, 0, 8, 8))
        with pytest.raises(ConfigError, match="partner window must be of family X"):
            embeds_level(ys.bad_components[0], sample_field(0, "Y", (0, 0), 8, 8), 0, p,
                         x_structure=ys)

    @pytest.mark.parametrize("level", [0, 1])
    def test_missing_source_structure(self, toy1, level):
        hx = hier.build_hierarchy(toy1, "X", 42, Rect(0, 0, 1, 1))
        x = _good_cell((1, 1)) if level == 0 else hx.levels[1].blocks[0]
        yf = sample_field(0, "Y", (0, 0), 4 * toy1.M0, 4 * toy1.M0)
        with pytest.raises(PreconditionError, match="source structure required"):
            embeds_level(x, yf, level, toy1)
