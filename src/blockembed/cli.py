"""Command-line front end: sampling, construction, estimation, reports, SVG.

Every option can also come from a key=value config file (--config); explicit
flags win.  Runs that write artifacts also write a manifest.json recording
every resolved option of the subcommand except --out-dir, sufficient to
reproduce the outputs exactly.
Exit codes: 0 ok, 1 config error, 2 precondition violation, 3 cap breach.
"""

from __future__ import annotations

import hashlib
import json
import os
from decimal import Decimal, localcontext
from fractions import Fraction
from pathlib import Path

import click
import numpy as np

from . import __version__
from . import hierarchy as hier
from . import oracle as oracle_mod
from . import stats
from .errors import BlockEmbedError, CapExceeded, ConfigError, PreconditionError
from .embed import check_search
from .fields import FAMILY_TAGS, GRID_GOOD, dump_field, load_field, sample_field
from .lattice import Rect, outer_buffers
from .params import PROFILES, check_constraints, named_profile

EXIT_OK, EXIT_CONFIG, EXIT_PRECONDITION, EXIT_CAP = 0, 1, 2, 3


def _read_config(path: str) -> dict:
    values: dict = {}
    for raw in Path(path).read_text().splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"malformed config line: {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        values[key.replace("-", "_")] = value
    return values


class _Group(click.Group):
    def invoke(self, ctx):
        cfg_path = ctx.params.get("config")
        if cfg_path:
            values = _read_config(cfg_path)
            # One file serves every subcommand: a key is known when some
            # subcommand takes it.
            known = {p.name for cmd in self.commands.values() for p in cmd.params}
            unknown = sorted(values.keys() - known)
            if unknown:
                raise ConfigError(f"config key {unknown[0]!r} names no option")
            ctx.default_map = {name: values for name in self.commands}
        return super().invoke(ctx)


@click.group(cls=_Group)
@click.option("--config", type=click.Path(exists=True, dir_okay=False),
              help="key=value config file; flags override it")
@click.pass_context
def cli(ctx, config):
    """Desk-scale laboratory for multi-scale Lipschitz embeddings on Z^2."""
    ctx.ensure_object(dict)
    ctx.obj["config"] = config


def _publish(artifacts: dict) -> Path:
    """Write the named artifacts (text or bytes) and a manifest.json into
    the current subcommand's ``--out-dir``, and return it.

    The directory is made with one ``os.mkdir``, and its missing parents
    with it.  A directory just made holds nothing to refuse; in one that
    exists already, the manifest and every artifact are looked up first,
    and when one of them exists nothing is written.  Each file is created
    exclusively (``O_CREAT | O_EXCL``), so a file that appears while the
    others are written is refused too, not overwritten; the files written
    before it stay.  The manifest records every option of the subcommand
    but the output directory.
    """
    ctx = click.get_current_context()
    out = Path(ctx.params["out_dir"])
    try:
        os.mkdir(out)
    except FileNotFoundError:
        os.makedirs(out)
    except FileExistsError:
        for name in ("manifest.json", *artifacts):
            path = os.path.join(out, name)
            if os.path.lexists(path):
                raise PreconditionError(f"refusing to overwrite existing {path}") from None
    payload = {
        "subcommand": ctx.info_name,
        "config": {k: str(v) for k, v in sorted(ctx.params.items()) if k != "out_dir"},
        "artifacts": sorted(artifacts),
        "version": __version__,
        "schema_version": stats.SCHEMA_VERSION,
    }
    payload["config_hash"] = hashlib.sha256(
        json.dumps(payload, sort_keys=True).encode()).hexdigest()
    manifest = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    for name, data in (*artifacts.items(), ("manifest.json", manifest)):
        path = os.path.join(out, name)
        try:
            fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
        except FileExistsError:
            raise PreconditionError(f"refusing to overwrite existing {path}") from None
        try:
            view = memoryview(data if isinstance(data, bytes) else data.encode())
            while view:
                view = view[os.write(fd, view):]
        finally:
            os.close(fd)
    return out


profile_option = click.option("--profile", default="toy1", show_default=True,
                              type=click.Choice(sorted(PROFILES)))
seed_option = click.option("--seed", default=0, show_default=True,
                           type=click.IntRange(0, 2**64 - 1))
family_option = click.option("--family", default="Y", show_default=True,
                             type=click.Choice(sorted(FAMILY_TAGS)))
window_option = click.option("--window", nargs=4, default=(0, 0, 2, 2), show_default=True,
                             type=int, help="level-1 cell window x0 y0 x1 y1")


@cli.command()
@profile_option
@seed_option
@family_option
@click.option("--origin", nargs=2, default=(0, 0), show_default=True, type=int)
@click.option("--width", default=64, show_default=True, type=int)
@click.option("--height", default=64, show_default=True, type=int)
@click.option("--out-dir", required=True, type=click.Path(file_okay=False))
def sample(profile, seed, family, origin, width, height, out_dir):
    """Sample a field window and write it to disk."""
    name = f"field-{family}-{seed}.bin"
    out = _publish({name: dump_field(sample_field(seed, family, tuple(origin), width, height))})
    click.echo(str(out / name))


@cli.command()
@profile_option
@seed_option
@family_option
@window_option
@click.option("--out-dir", required=True, type=click.Path(file_okay=False))
def build(profile, seed, family, window, out_dir):
    """Build the block hierarchy over a window and dump it."""
    h = hier.build_hierarchy(named_profile(profile), family, seed, Rect(*window))
    name = f"hierarchy-{family}-{seed}.txt"
    click.echo(str(_publish({name: hier.dump_hierarchy(h)}) / name))


@cli.command()
@profile_option
@seed_option
@family_option
@window_option
def components(profile, seed, family, window):
    """List component statistics of a built hierarchy."""
    h = hier.build_hierarchy(named_profile(profile), family, seed, Rect(*window))
    click.echo("level,status,size,bad_blocks,bad_cells,censored")
    for level, comps in ((0, h.level0.bad_components), (1, h.levels[1].components)):
        for comp in comps:
            click.echo(f"{level},{comp.status},{comp.size},{comp.bad_summary[0]},"
                       f"{comp.bad_summary[1]},{comp.censored}")


@cli.command("estimate-s")
@profile_option
@seed_option
@family_option
@click.option("--level", default=0, show_default=True, type=int)
@window_option
@click.option("--trials", default=2000, show_default=True, type=int)
@click.option("--workers", default=1, show_default=True, type=int)
def estimate_s(profile, seed, family, level, window, trials, workers):
    """Estimate embedding probabilities of the components of a built window."""
    if trials < 1:
        raise ConfigError(f"--trials must be at least 1, got {trials}")
    if workers < 1:
        raise ConfigError(f"--workers must be at least 1, got {workers}")
    check_search(level, family)
    p = named_profile(profile)
    h = hier.build_hierarchy(p, family, seed, Rect(*window))
    click.echo("level,size,point,ci_low,ci_high,trials")
    if level == 0:
        targets = list(enumerate(c for c in h.level0.bad_components if not c.censored))
    else:
        targets = [(i, b) for i, b in enumerate(h.levels[1].blocks) if not b.censored]
    if not targets:
        click.echo(f"note: no rows: no uncensored level-{level} target in this window; "
                   "try a wider --window", err=True)
    for i, target in targets:
        est = stats.estimate_S(target, level, trials, stats.derive_seed(seed, i),
                               p, family=family, structure=h.level0, workers=workers)
        click.echo(f"{level},{target.size},{est.point:.6f},{est.ci_low:.6f},"
                   f"{est.ci_high:.6f},{est.trials}")


@cli.command()
@profile_option
@seed_option
@click.option("--windows", default=20, show_default=True, type=int,
              help="number of independent seeded windows to sample")
@window_option
@click.option("--out-dir", required=True, type=click.Path(file_okay=False))
def reports(profile, seed, windows, window, out_dir):
    """Emit tail/size/good-probability report tables from seeded windows."""
    p = named_profile(profile)
    if windows < 1:
        raise ConfigError("at least one window required")
    tail_samples = []
    sizes = []
    good0 = []
    good1 = []
    for w in range(windows):
        h = hier.build_hierarchy(p, "Y", stats.derive_seed(seed, 0xA0, w), Rect(*window))
        for comp in h.level0.bad_components:
            if comp.censored:
                continue
            s = stats.exact_S0(comp, "Y", p)
            tail_samples.append((float(s), comp.size))
            sizes.append(comp.size)
        # Row-major, the order of window.cells().
        good0.append((h.level0.class_grid == GRID_GOOD).ravel())
        for block in h.levels[1].blocks:
            if not block.censored:
                good1.append(block.good)
    if not tail_samples:
        click.echo("note: every level-0 bad component is censored; the tail and size "
                   "tables hold one stand-in sample (S=1, V=1)", err=True)
        tail_samples.append((1.0, 1))
        sizes.append(1)
    # Fully censored levels contribute no samples and are omitted.
    good_by_level = {j: flags for j, flags in ((0, np.concatenate(good0)), (1, good1))
                     if len(flags)}
    texts = {}
    for name, report in (
        ("tail", stats.tail_report(tail_samples, p, 0)),
        ("size", stats.size_report(sizes, p, 0)),
        ("good", stats.good_prob_report(good_by_level, p)),
    ):
        texts[f"{name}.csv"] = report.to_csv()
        texts[f"{name}.records"] = report.to_records()
    click.echo(str(_publish(texts)))


@cli.command()
@click.option("--x-file", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--y-file", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--bound", "-m", "bound", required=True,
              help="Lipschitz bound M, read exactly: 2.3 is 23/10, and 3/2 is allowed")
@click.option("--mode", default="decide", show_default=True,
              type=click.Choice(["decide", "count", "enumerate"]))
@click.option("--limit", default=None, type=int, help="max witnesses of --mode enumerate")
@click.option("--node-cap", default=oracle_mod.DEFAULT_NODE_CAP, show_default=True,
              type=int)
def oracle(x_file, y_file, bound, mode, limit, node_cap):
    """Run the exact embedding oracle on two serialized field windows."""
    if limit is not None and mode != "enumerate":
        raise ConfigError(f"--limit applies to --mode enumerate only, not --mode {mode}")
    if limit is not None and limit < 1:
        raise ConfigError(f"--limit must be at least 1, got {limit}")
    if node_cap < 1:
        raise ConfigError(f"--node-cap must be at least 1, got {node_cap}")
    x = load_field(Path(x_file).read_bytes())
    y = load_field(Path(y_file).read_bytes())
    inst = oracle_mod.Instance.from_fields(x, y, bound)
    if mode == "decide":
        emb = oracle_mod.find_embedding(inst, node_cap)
        rec = {"mode": mode, "decision": emb is not None}
        if emb is not None:
            rec["witness"] = {f"{k[0]},{k[1]}": f"{v[0]},{v[1]}" for k, v in emb.items()}
        click.echo(json.dumps(rec, sort_keys=True))
    elif mode == "count":
        n = oracle_mod.count_embeddings(inst, node_cap)
        click.echo(json.dumps({"mode": mode, "count": n}, sort_keys=True))
    else:
        for emb in oracle_mod.enumerate_embeddings(inst, limit, node_cap):
            click.echo(json.dumps(
                {f"{k[0]},{k[1]}": f"{v[0]},{v[1]}" for k, v in emb.items()},
                sort_keys=True,
            ))


def _exact_number(ctx, param, text):
    """An option's text read exactly, as a Fraction: 6.0000000000000001 is
    not 6.  NaN, infinities and non-numbers are refused."""
    if text is None:
        return None
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise ConfigError(f"--{param.name} must be a finite number, got {text!r}") from None


def _g6(value) -> str:
    """An audit value to 6 significant digits, as its float prints; one
    beyond the float range is rounded to them exactly in decimal instead."""
    try:
        return format(float(value), ".6g")
    except OverflowError:
        value = Fraction(value)
        with localcontext() as ctx:
            ctx.prec = 6
            return format((Decimal(value.numerator) / Decimal(value.denominator)).normalize(),
                          "g")


@cli.command("audit-params")
@profile_option
@click.option("--alpha", callback=_exact_number, help="read exactly")
@click.option("--beta", callback=_exact_number, help="read exactly")
@click.option("--gamma", callback=_exact_number, help="read exactly")
@click.option("--m", callback=_exact_number, help="read exactly")
@click.option("--k0", type=int)
@click.option("--v0", type=int)
def audit_params(profile, alpha, beta, gamma, m, k0, v0):
    """Audit a parameter set against the required inequalities."""
    overrides = dict(alpha=alpha, beta=beta, gamma=gamma, m=m, k0=k0, v0=v0)
    p = named_profile(profile, **{k: v for k, v in overrides.items() if v is not None})
    report = check_constraints(p)
    click.echo("constraint,lhs,rhs,satisfied,slack")
    for row in report:
        verdict = "inconclusive" if row.satisfied is None else str(row.satisfied)
        click.echo(f"{row.name},{_g6(row.lhs)},{_g6(row.rhs)},{verdict},{_g6(row.slack)}")
    click.echo(f"overall,{report.overall}")
    if not report.overall:
        click.echo("note: violations are reported, not repaired", err=True)


def _svg_rect(r, scale, fill, opacity, klass):
    w, h = (r.x1 - r.x0) * scale, (r.y1 - r.y0) * scale
    return (f'<rect class="{klass}" x="{r.x0 * scale}" y="{r.y0 * scale}" '
            f'width="{w}" height="{h}" fill="{fill}" fill-opacity="{opacity}" '
            f'stroke="none"/>')


@cli.command()
@profile_option
@seed_option
@family_option
@window_option
@click.option("--level", default=1, show_default=True, type=int)
@click.option("--out-dir", required=True, type=click.Path(file_okay=False))
def render(profile, seed, family, window, level, out_dir):
    """Render a built hierarchy level as SVG (cells, buffers, curves, bad sets)."""
    p = named_profile(profile)
    if level != 1:
        raise ConfigError("rendering supports level 1")
    h = hier.build_hierarchy(p, family, seed, Rect(*window))
    lv1 = h.levels[1]
    r = p.cells_per_side(1)
    scale = 8
    view = Rect(*window).scaled(r).outset(p.margins(1).buffer + 2)
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" '
        f'viewBox="{view.x0 * scale} {view.y0 * scale} '
        f'{(view.x1 - view.x0) * scale} {(view.y1 - view.y0) * scale}">'
    ]
    # Level-1 cell grid.
    for x, y in Rect(*window).cells():
        cell = Rect(x, y, x + 1, y + 1).scaled(r)
        parts.append(_svg_rect(cell, scale, "#f5f5f5", "1", "cell"))
        parts.append(
            f'<rect class="cell-outline" x="{cell.x0 * scale}" y="{cell.y0 * scale}" '
            f'width="{(cell.x1 - cell.x0) * scale}" height="{(cell.y1 - cell.y0) * scale}" '
            f'fill="none" stroke="#999" stroke-width="1"/>'
        )
    # Buffers of every lattice block.
    for block in lv1.blocks:
        for zone in outer_buffers(block.animal, 1, p):
            parts.append(_svg_rect(zone.rect, scale, "#88aaff", "0.25", "buffer"))
    # Bad components of the level below.
    for comp in h.level0.bad_components:
        for x, y in sorted(comp.box.cells()):
            parts.append(_svg_rect(Rect(x, y, x + 1, y + 1), scale,
                                   "#cc2222", "0.8", "bad"))
    # Boundary polylines.
    for block in lv1.blocks:
        parts.append(f'<g class="block">')
        for loop in block.curve.polyline:
            pts = " ".join(f"{x * scale},{y * scale}" for x, y in loop)
            parts.append(f'<polygon class="curve" points="{pts}" fill="none" '
                         f'stroke="#222" stroke-width="2"/>')
        parts.append("</g>")
    parts.append("</svg>")
    name = f"level{level}-{family}-{seed}.svg"
    click.echo(str(_publish({name: "\n".join(parts) + "\n"}) / name))


def main(argv=None) -> int:
    try:
        cli.main(args=argv, standalone_mode=False, obj={})
        return EXIT_OK
    except click.exceptions.Abort:
        return EXIT_CONFIG
    except click.ClickException as exc:
        exc.show()
        return EXIT_CONFIG
    except ConfigError as exc:
        click.echo(f"config error: {exc}", err=True)
        return EXIT_CONFIG
    except CapExceeded as exc:
        click.echo(f"cap exceeded: {exc}", err=True)
        return EXIT_CAP
    except PreconditionError as exc:
        click.echo(f"precondition violated: {exc}", err=True)
        return EXIT_PRECONDITION
    except BlockEmbedError as exc:  # pragma: no cover - safety net
        click.echo(f"error: {exc}", err=True)
        return EXIT_CONFIG
