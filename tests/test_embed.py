"""Cell correspondences, map families, embedding search, and verification."""

import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blockembed import embed, hierarchy as hier
from blockembed.embed import (
    CellCorrespondence,
    EmbeddingMap,
    InvalidOffset,
    embeds_level,
    translation_family,
    translation_subfamily,
    verify_embedding,
)
from blockembed.errors import ConfigError, PreconditionError
from blockembed.fields import (
    GRID_GOOD,
    BitField,
    classify_y0_block,
    level0_embeds,
    sample_field,
)
from blockembed.lattice import LatticeAnimal, Rect, chebyshev, same_shape
from blockembed.hierarchy import build_level0, level0_window_for
from blockembed.params import named_profile


def _square(n, off=(0, 0)):
    return frozenset((x + off[0], y + off[1]) for x in range(n) for y in range(n))


def _good_cell(cell):
    """A level-0 good-singleton component: one cell, no bad cell."""
    return hier.Component(0, LatticeAnimal(frozenset([cell])), (), hier.GOOD_SINGLETON,
                          (0, 0))


def _correspondence_check_ref(mapping, source_cells, target_cells):
    """Reference: the correspondence's cover and bijection checks on sets."""
    if set(mapping) != set(source_cells):
        raise ConfigError("mapping must cover exactly the source cells")
    images = set(mapping.values())
    if images != set(target_cells) or len(images) != len(mapping):
        raise ConfigError("mapping must be a bijection onto the target cells")


_small_cells = st.tuples(st.integers(0, 3), st.integers(0, 2))


@st.composite
def _cell_collections(draw, base):
    """``base`` or a near miss of it, as a frozenset, a set or a list,
    the list possibly with repeats."""
    cells = set(base) ^ draw(st.sets(_small_cells, max_size=1))
    kind = draw(st.sampled_from(["frozenset", "set", "list"]))
    if kind == "list":
        cells = list(cells) + draw(st.lists(st.sampled_from(sorted(cells)), max_size=2)
                                   if cells else st.just([]))
        return draw(st.permutations(cells))
    return frozenset(cells) if kind == "frozenset" else cells


class TestCellCorrespondence:
    @given(st.dictionaries(_small_cells, _small_cells, max_size=6), st.data())
    @settings(max_examples=300, deadline=None)
    def test_checks_match_set_reference(self, mapping, data):
        source = data.draw(_cell_collections(mapping.keys()))
        target = data.draw(_cell_collections(mapping.values()))

        def outcome(f):
            try:
                f()
            except ConfigError as exc:
                return str(exc)
            return None

        assert (outcome(lambda: CellCorrespondence(1, source, target, mapping, (), 0))
                == outcome(lambda: _correspondence_check_ref(mapping, source, target)))

    def test_list_of_source_cells_accepted(self):
        cells = sorted(_square(2))
        corr = CellCorrespondence(1, cells, list(reversed(cells)), {c: c for c in cells}, (), 0)
        assert corr.apply((1, 1)) == (1, 1)

    def test_bijection_enforced(self):
        cells = _square(2)
        with pytest.raises(ConfigError):
            CellCorrespondence(1, cells, cells, {c: (0, 0) for c in cells}, (), 0)

    def test_coverage_enforced(self):
        cells = _square(2)
        with pytest.raises(ConfigError):
            CellCorrespondence(1, cells, cells, {(0, 0): (0, 0)}, (), 0)


class TestTranslationFamily:
    def test_base_offset_is_rigid(self, toy1):
        src = _square(16)
        T = [LatticeAnimal(frozenset([(5, 5)]))]
        corr = translation_family(src, src, T, (), (1, 1), toy1)
        assert all(corr.apply(c) == c for c in src)
        assert corr.displacement_budget == 0

    def test_translation_law(self, toy1):
        # The image of each designated set translates with h.
        src = _square(16)
        T = [LatticeAnimal(frozenset([(5, 5), (5, 6)]))]
        base = translation_family(src, src, T, (), (1, 1), toy1)
        moved = translation_family(src, src, T, (), (3, 4), toy1)
        base_img = base.matched_pairs[0][1]
        moved_img = moved.matched_pairs[0][1]
        assert moved_img.sites == base_img.translate((2, 3)).sites

    def test_bijection_for_every_offset(self, toy1):
        src = _square(16)
        T = [LatticeAnimal(frozenset([(5, 5)]))]
        for h in [(1, 1), (2, 2), (4, 7), (9, 3)]:
            corr = translation_family(src, src, T, (), h, toy1)
            assert {corr.apply(c) for c in src} == src

    def test_image_leaving_domain_rejected(self, toy1):
        src = _square(16)
        T = [LatticeAnimal(frozenset([(14, 14)]))]
        with pytest.raises(InvalidOffset):
            translation_family(src, src, T, (), (5, 5), toy1)

    def test_neighbouring_images_rejected(self, toy1):
        src = _square(16)
        T = [LatticeAnimal(frozenset([(5, 5)]))]
        T_prime = [LatticeAnimal(frozenset([(6, 6)]))]
        with pytest.raises(InvalidOffset):
            translation_family(src, src, T, T_prime, (1, 1), toy1)

    def test_size_budget(self, toy1):
        src = _square(16)
        big = [LatticeAnimal(frozenset((x, y) for x in range(4, 12) for y in range(4, 5)))]
        # 8 cells > v0*k0 = 6 for toy1.
        with pytest.raises(PreconditionError):
            translation_family(src, src, big, (), (1, 1), toy1)

    def test_offset_window(self, toy1):
        src = _square(16)
        with pytest.raises(ConfigError):
            translation_family(src, src, [], (), (0, 0), toy1)

    @pytest.mark.parametrize("h", [(1, 1), (3, 4), (9, 2)])
    def test_budget_is_largest_displacement(self, toy1, h):
        # Between translated domains, against the per-cell maximum.
        self._check_budget(toy1, [[(5, 5), (5, 6)]], h)

    @pytest.mark.parametrize("h", [(1, 1), (3, 3), (3, 4)])
    def test_budget_after_overlapping_swaps(self, toy1, h):
        # At h = (3, 3) the second set's rigid image is where the first
        # set's image lands, so the second swap moves cells the first moved.
        self._check_budget(toy1, [[(5, 5)], [(7, 7)]], h)

    @staticmethod
    def _check_budget(params, cells, h):
        src, t = _square(16), (3, -2)
        target = _square(16, off=t)
        T = [LatticeAnimal(frozenset(c)) for c in cells]
        corr = translation_family(src, target, T, (), h, params)
        expect = max(chebyshev((c[0] + t[0], c[1] + t[1]), v) for c, v in corr.mapping.items())
        assert corr.displacement_budget == expect
        assert (expect > 0) == (h != (1, 1))

    @pytest.mark.parametrize("h", [(1, 1), (3, 4), (9, 2)])
    def test_checked_source_gives_the_same_member(self, toy1, h):
        src, target = _square(16), _square(16, off=(3, -2))
        T = [LatticeAnimal(frozenset([(5, 5), (5, 6)]))]
        a = translation_family(src, target, T, (), h, toy1)
        b = translation_family(LatticeAnimal(src), target, T, (), h, toy1)
        assert a == b and list(a.mapping) == list(b.mapping)
        assert (translation_subfamily(LatticeAnimal(src), T, toy1, 1)
                == translation_subfamily(src, T, toy1, 1))

    def test_disconnected_source_rejected(self, toy1):
        src = frozenset([(0, 0), (2, 0)])
        with pytest.raises(ConfigError, match="connected"):
            translation_family(src, src, [], (), (1, 1), toy1)
        assert translation_subfamily(src, [], toy1, 1) == []

    def test_block_checks_its_domain_once(self):
        lb = hier.LatticeBlock(0, LatticeAnimal(frozenset([(0, 0)])))
        connected = hier.Block(1, lb, _square(4))
        assert connected.domain_animal is connected.domain_animal
        assert connected.domain_animal.sites == _square(4)
        assert hier.Block(1, lb, frozenset([(0, 0), (2, 0)])).domain_animal is None

    def test_subfamily_size_and_disjointness(self, toy1):
        src = _square(16)
        T = [LatticeAnimal(frozenset([(5, 5)]))]
        offsets = translation_subfamily(src, T, toy1, 1)
        assert len(offsets) == toy1.scale(0) == 16
        images = []
        for h in offsets:
            corr = translation_family(src, src, T, (), h, toy1)
            images.append(corr.matched_pairs[0][1].sites)
        for i, a in enumerate(images):
            for b in images[i + 1:]:
                assert min(
                    max(abs(p[0] - q[0]), abs(p[1] - q[1])) for p in a for q in b
                ) > 1


def _base_translation_ref(source, target):
    """Reference: both sets wrapped as lattice animals, then same_shape."""
    t = same_shape(LatticeAnimal(source), LatticeAnimal(target))
    if t is None:
        raise PreconditionError("source and target domains have different shapes")
    return t


def _outcome(f, *args):
    try:
        return f(*args)
    except (ConfigError, PreconditionError) as exc:
        return type(exc)


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


class TestSetDistance:
    @given(st.frozensets(st.tuples(st.integers(-20, 20), st.integers(-20, 20)),
                         min_size=1, max_size=40),
           st.frozensets(st.tuples(st.integers(-20, 20), st.integers(-20, 20)),
                         min_size=1, max_size=40))
    @settings(max_examples=300, deadline=None)
    def test_matches_pairwise_reference(self, a, b):
        d = embed._set_distance(a, b)
        assert type(d) is int
        assert d == min(chebyshev(p, q) for p in a for q in b)


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
        if other == "same":
            target = source
        elif other == "copy":
            target = frozenset(list(source))
        elif isinstance(other, frozenset):
            target = other
        else:
            target = frozenset((x + other[0], y + other[1]) for x, y in source) ^ toggled
        assert (_outcome(lambda s, t: embed._base_translation(LatticeAnimal(s), t), source, target)
                == _outcome(_base_translation_ref, source, target))


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


def _accepts_ref(corr, x_field, y_field, params):
    """Per cell: the source bit against the class of its image's sites."""
    m0 = params.M0
    for (sx, sy), (tx, ty) in corr.mapping.items():
        block = y_field.bits[ty * m0:(ty + 1) * m0, tx * m0:(tx + 1) * m0]
        if not level0_embeds(x_field.get(sx, sy), classify_y0_block(block, params)):
            return False
    return True


class TestGatheredContent:
    """The array reads of level-0 content against per-cell references."""

    WINDOW = Rect(0, 0, 6, 6)

    @given(st.integers(0, 2**32), st.integers(0, 2**32),
           st.permutations(list(Rect(0, 0, 6, 6).cells())))
    @settings(max_examples=60, deadline=None)
    def test_accepts_matches_per_cell_reference(self, xseed, yseed, order):
        # A 3x3 source square onto nine random target cells; toy-m0-3
        # accepts a bit in about nine target blocks of ten.
        p = named_profile("toy-m0-3")
        m0 = p.M0
        x_field = sample_field(xseed, "X", (0, 0), 6, 6)
        y_field = sample_field(yseed, "Y", (0, 0), 6 * m0, 6 * m0)
        xs = build_level0(p, "X", xseed, self.WINDOW, site_field=x_field)
        ys = build_level0(p, "Y", yseed, self.WINDOW, site_field=y_field)
        src = sorted(_square(3, off=(2, 1)))
        corr = CellCorrespondence(1, frozenset(src), frozenset(order[:9]),
                                  dict(zip(src, order[:9])), (), 0)
        assert embed._accepts(corr, xs, ys) == _accepts_ref(corr, x_field, y_field, p)

    def test_accepts_reads_bits_from_the_source(self, toy1):
        ys = build_level0(toy1, "Y", 1, self.WINDOW)
        corr = CellCorrespondence(1, frozenset([(1, 1)]), frozenset([(1, 1)]),
                                  {(1, 1): (1, 1)}, (), 0)
        with pytest.raises(ConfigError, match="not single bits"):
            embed._accepts(corr, ys, ys)

    @given(st.integers(0, 2**32),
           st.frozensets(st.tuples(st.integers(-3, 9), st.integers(-3, 9)), min_size=1))
    @settings(max_examples=60, deadline=None)
    def test_pool_matches_per_cell_reference(self, seed, domain):
        p = named_profile("toy-m0-3")
        ys = build_level0(p, "Y", seed, Rect(-2, -2, 8, 8))
        rect = Rect(-1, 0, 7, 6)
        expect = [c for c in rect.cells()
                  if c in domain or ys.class_grid[c[1] + 2, c[0] + 2] == GRID_GOOD]
        assert embed._good_or_in(ys, rect, domain) == expect


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
                        for x, y in comp.animal.sites)
                    assert (wit is not None) == expected
                    if wit is not None:
                        assert verify_embedding(wit.flatten(x_field, y_field, p),
                                                x_field, y_field)
                        found += 1
        assert found

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
        yf = sample_field(0, "Y", (w0.x0 * m0, w0.y0 * m0),
                          (w0.x1 - w0.x0) * m0, (w0.y1 - w0.y0) * m0)
        wit = embeds_level(xb, yf, 1, toy1, x_structure=hx.level0)
        if wit is None:
            pytest.skip("seed 0 target not embeddable")
        x_field = sample_field(42, "X", (0, 0), 16, 16)
        emb = wit.flatten(x_field, yf, toy1)
        assert verify_embedding(emb, x_field, yf)

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
        # Wider windows are cropped, narrower ones resampled: the witness is
        # the one the exact level-0 window gives.
        hx = hier.build_hierarchy(toy1, "X", 42, Rect(0, 0, 1, 1))
        xb = hx.levels[1].blocks[0]
        m0 = toy1.M0
        w0 = level0_window_for(Rect(0, 0, 1, 1), toy1)
        found = 0
        for seed in range(8):
            windows = [sample_field(seed, "Y", ((w0.x0 - a) * m0, (w0.y0 - a) * m0),
                                    (w0.x1 - w0.x0 + 2 * a) * m0,
                                    (w0.y1 - w0.y0 + 2 * a) * m0) for a in (0, 2, -1)]
            witnesses = [embeds_level(xb, yf, 1, toy1, x_structure=hx.level0)
                         for yf in windows]
            assert witnesses[1] == witnesses[0] == witnesses[2]
            found += witnesses[0] is not None
        assert found

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
