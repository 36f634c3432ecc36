"""Golden digests: hierarchy dumps, chosen curves and CLI outputs for a fixed
seed grid.

Each digest is a sha256 over the outputs of one group of cases.  The grid
covers every curve-selection path: straight and sampled curves (toy1), a
curve found by the deterministic scan, a scan that runs out of candidates,
and windows whose one merged block scans to the cap and falls back to the
censored straight placeholder (toy1 seed 41, toy-m0-2, toy-m0-3).  The
CLI digests cover `estimate-s` at level 1 (seed 100008 meets a target
block with no valid curve, seed 100098 one whose 1 536 valid curves the
sampler and the scan both miss) and at level 0 (toy1 single-cell
components, and toy-m0-6 components of 2 and 4 cells, one holding a good
cell), `reports` tables and one `render` SVG.
The witness digests pin what the embedding search returns, not just
whether it returns: the level-1 witnesses behind those estimate lines and
level-0 witnesses of target-family components, the only level-0
components there are.  A change to the construction that moves any of
these digests changes program output and must say so.
"""

import hashlib
import io
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import pytest

from blockembed.cli import EXIT_OK, main
from blockembed.embed import embeds_level
from blockembed.errors import CurveSelectionError
from blockembed.fields import derive_seed, sample_field
from blockembed.hierarchy import (
    REALLY_BAD,
    Component,
    LatticeBlock,
    build_hierarchy,
    build_level0,
    dump_hierarchy,
    level0_window_for,
    select_boundary_curve,
)
from blockembed.lattice import LatticeAnimal, Rect
from blockembed.params import named_profile

HIERARCHY_GRID = {
    # Seed 41 scans to the cap, seed 143 exhausts a small scan space; both
    # end in the censored fallback.  Seed 47 samples 104 realizations.
    "toy1": [("toy1", f, s, (0, 0, 3, 3)) for f in "XY" for s in range(6)]
    + [("toy1", "Y", s, (0, 0, 3, 3)) for s in (41, 47, 143)],
    "toy-m0-2": [("toy-m0-2", "Y", 0, (0, 0, 2, 2)), ("toy-m0-2", "Y", 1, (0, 0, 2, 2)),
                 ("toy-m0-2", "X", 0, (0, 0, 2, 2))],
    "toy-m0-3": [("toy-m0-3", "Y", s, (0, 0, 3, 3)) for s in (1, 2)],
}

HIERARCHY_DIGESTS = {
    "toy1": "3c74f70bf7a9419efb48d769c7fe0b32b819d58918186910b796e58b500f91ce",
    "toy-m0-2": "70eda467d916c3379f14ff9f3b7b75d8726c1907e0a7b7a6b1e30dcda9d07614",
    "toy-m0-3": "960ed5c8fd9248ddd307ed51eb44a1b0428d66c692b3bbddd872c41a395547f5",
}

# Bad cells planted around the single-cell block (0, 0) of toy1, with the
# curve RNG seeds.  "scan" needs R straight, T at offset 2 and the corner
# (16, 16) at offset 2 with its square filled: sampling misses it 200 times
# for seed 5, and the scan finds it.  "exhausted" leaves no valid track for
# R, so its 256-candidate scan runs out.
CURVE_CASES = {
    "sampled": ([(0, 7)], range(4)),
    "scan": ([(13, 8), (17, 8), (8, 15), (15, 15)], (0, 5)),
    "exhausted": ([(15, 8), (17, 8)], (0,)),
}

CURVE_DIGEST = "42554a889a8e7a263d97e82cd40c310f4f86f2449800f9c5172fef3aca722a8a"

ESTIMATE_SEEDS = (100001, 100002, 100003, 100008, 100098)
ESTIMATE_DIGEST = "d3f19eb514abfd39ad10ebfb3e2d0547452d868f858f8cc19d2887497de46469"

# (profile, window, seed) of the level-0 estimate cases, 200 trials each.
ESTIMATE0_CASES = [("toy1", (0, 0, 3, 3), s) for s in (0, 1, 3)] + [
    ("toy-m0-6", (0, 0, 1, 1), 3)]
ESTIMATE0_DIGEST = "2429a5996444ae5ec0ecc20766607d7dda14374fc5dbd8d8e4ce96edd88eae1d"

REPORTS_SEEDS = (1, 2)
REPORTS_DIGEST = "974d0afe8506850d3bbed6d96b8249e5932bdfe24e19c690b263fb046b4812fa"

RENDER_DIGEST = "88cb9bae498abdc385482d0992e02208b90545aa472c22a4af83635e45c29d86"

LEVEL1_WITNESS_DIGEST = "ab4880b3e0b17a0f671cca5c5db9e9adbfc18e2659d21ed5ee66144809a4c4de"
LEVEL0_WITNESS_DIGEST = "17064f4eadfdf5f2dd2b96b94386fcb4ec8ce693e8fb827634b7d0d7d865bf1d"


def _bad_cell(c):
    x, y = c
    return Component(0, Rect(x, y, x + 1, y + 1), (), REALLY_BAD, (1, 1))


def _cli(*args) -> str:
    """Stdout of one in-process CLI run that must succeed."""
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        assert main(list(args)) == EXIT_OK
    return out.getvalue()


def _curve_record(cells, seed) -> str:
    lb = LatticeBlock(1, LatticeAnimal(frozenset([(0, 0)])))
    bad = [_bad_cell(c) for c in cells]
    try:
        curve = select_boundary_curve(lb, bad, named_profile("toy1"),
                                      np.random.default_rng(seed), 1)
    except CurveSelectionError as exc:
        return f"error {exc}"
    return repr((curve.corner_indices, curve.edge_indices,
                 sorted(curve.domain), curve.polyline))


@pytest.mark.parametrize("group", sorted(HIERARCHY_GRID))
def test_hierarchy_dumps_reproduce(group):
    h = hashlib.sha256()
    for profile, family, seed, window in HIERARCHY_GRID[group]:
        hier = build_hierarchy(named_profile(profile), family, seed, Rect(*window))
        h.update(dump_hierarchy(hier).encode())
    assert h.hexdigest() == HIERARCHY_DIGESTS[group]


def test_selected_curves_reproduce():
    h = hashlib.sha256()
    for name in sorted(CURVE_CASES):
        cells, seeds = CURVE_CASES[name]
        for seed in seeds:
            h.update(f"{name} {seed} {_curve_record(cells, seed)}\n".encode())
    assert h.hexdigest() == CURVE_DIGEST


def test_estimate_lines_reproduce():
    h = hashlib.sha256()
    for seed in ESTIMATE_SEEDS:
        h.update(_cli("estimate-s", "--profile", "toy1", "--family", "X", "--level", "1",
                      "--window", "0", "0", "3", "3", "--trials", "20",
                      "--seed", str(seed)).encode())
    assert h.hexdigest() == ESTIMATE_DIGEST


def test_level0_estimate_lines_reproduce():
    h = hashlib.sha256()
    for profile, window, seed in ESTIMATE0_CASES:
        h.update(_cli("estimate-s", "--profile", profile, "--family", "Y", "--level", "0",
                      "--window", *map(str, window), "--trials", "200",
                      "--seed", str(seed)).encode())
    assert h.hexdigest() == ESTIMATE0_DIGEST


def test_reports_tables_reproduce(tmp_path):
    h = hashlib.sha256()
    for seed in REPORTS_SEEDS:
        out = tmp_path / str(seed)
        _cli("reports", "--profile", "toy-m0-3", "--windows", "2", "--window", "0", "0", "3", "3",
             "--seed", str(seed), "--out-dir", str(out))
        for name in sorted(f"{t}.{ext}" for t in ("tail", "size", "good")
                           for ext in ("csv", "records")):
            h.update(name.encode() + b"\n" + (out / name).read_bytes())
    assert h.hexdigest() == REPORTS_DIGEST


def test_render_svg_reproduces(tmp_path):
    _cli("render", "--profile", "toy1", "--seed", "2", "--window", "0", "0", "3", "3",
         "--out-dir", str(tmp_path))
    svg = (tmp_path / "level1-Y-2.svg").read_bytes()
    assert hashlib.sha256(svg).hexdigest() == RENDER_DIGEST


def _witness_record(witness) -> str:
    if witness is None:
        return "none"
    # The record keeps the fields witnesses carried when the digests were
    # taken: a family offset, None at level 0 and (1, 1) at level 1; the
    # cell map, the identity on the source cells; its displacement budget,
    # 0; and the matched bad sets, the component onto itself at level 0 and
    # none at level 1.
    cells = sorted(witness.source_cells)
    offset, matched = (None, [(cells, cells)]) if witness.level == 0 else ((1, 1), [])
    return repr((offset, [(c, c) for c in cells], 0, matched))


def test_level1_witnesses_reproduce():
    # The trials behind the estimate lines above: each uncensored source
    # block of the window against the same 20 target fields estimate-s draws.
    p = named_profile("toy1")
    m0 = p.M0
    h = hashlib.sha256()
    for seed in ESTIMATE_SEEDS:
        hx = build_hierarchy(p, "X", seed, Rect(0, 0, 3, 3))
        for i, block in enumerate(hx.levels[1].blocks):
            if block.censored:
                continue
            x0, y0, x1, y1 = block.animal.bounding_box()
            w0 = level0_window_for(Rect(x0, y0, x1 + 1, y1 + 1), p)
            for t in range(20):
                y_field = sample_field(derive_seed(derive_seed(seed, i), 0x51, t), "Y",
                                       (w0.x0 * m0, w0.y0 * m0),
                                       (w0.x1 - w0.x0) * m0, (w0.y1 - w0.y0) * m0)
                try:
                    record = _witness_record(embeds_level(block, y_field, 1, p, hx.level0))
                except CurveSelectionError as exc:
                    record = f"error {exc}"
                h.update(f"{seed} {i} {t} {record}\n".encode())
    assert h.hexdigest() == LEVEL1_WITNESS_DIGEST


def test_level0_witnesses_reproduce():
    # toy-m0-3 makes about one target block in ten accept only one bit.
    p = named_profile("toy-m0-3")
    window = Rect(0, 0, 8, 8)
    h = hashlib.sha256()
    # Every bad component of a target window, one of them holding good
    # cells, against 40 source partners.
    ys = build_level0(p, "Y", 1, window)
    for k, comp in enumerate(ys.bad_components):
        for seed in range(40):
            partner = sample_field(seed, "X", (0, 0), 8, 8)
            record = _witness_record(embeds_level(comp, partner, 0, p, x_structure=ys))
            h.update(f"Y {k} {seed} {record}\n".encode())
    assert h.hexdigest() == LEVEL0_WITNESS_DIGEST
