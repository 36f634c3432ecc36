"""Command-line front end: sampling, construction, estimation, reports, SVG.

Every option can also come from a key=value config file (--config); explicit
flags win.  Runs that write artifacts also write a manifest.json capturing
the resolved configuration, sufficient to reproduce the outputs exactly.
Exit codes: 0 ok, 1 config error, 2 precondition violation, 3 cap breach.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import click

from . import __version__
from . import hierarchy as hier
from . import oracle as oracle_mod
from . import stats
from .errors import BlockEmbedError, CapExceeded, ConfigError, PreconditionError
from .fields import GRID_GOOD, dump_field, load_field, sample_field
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


def _params(profile: str, **overrides):
    clean = {k: v for k, v in overrides.items() if v is not None}
    return named_profile(profile, **clean)


def _claim(out_dir: str, *names: str) -> list:
    """Paths of the named artifacts in ``out_dir``, which is created.

    Refuses before anything is written when the manifest or any of the
    artifacts already exists there.
    """
    out = Path(out_dir)
    for path in (out / "manifest.json", *(out / n for n in names)):
        if path.exists():
            raise PreconditionError(f"refusing to overwrite existing {path}")
    out.mkdir(parents=True, exist_ok=True)
    return [out / n for n in names]


def _write_manifest(out_dir: str, subcommand: str, config: dict, artifacts: list):
    payload = {
        "subcommand": subcommand,
        "config": {k: str(v) for k, v in sorted(config.items())},
        "artifacts": sorted(artifacts),
        "version": __version__,
        "schema_version": stats.SCHEMA_VERSION,
    }
    digest = hashlib.sha256(
        json.dumps(payload, sort_keys=True).encode()
    ).hexdigest()
    payload["config_hash"] = digest
    path = Path(out_dir) / "manifest.json"
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


profile_option = click.option("--profile", default="toy1", show_default=True,
                              type=click.Choice(sorted(PROFILES)))
seed_option = click.option("--seed", default=0, show_default=True, type=int)


@cli.command()
@profile_option
@seed_option
@click.option("--family", default="Y", type=click.Choice(["X", "Y"]), show_default=True)
@click.option("--origin", nargs=2, default=(0, 0), show_default=True, type=int)
@click.option("--width", default=64, show_default=True, type=int)
@click.option("--height", default=64, show_default=True, type=int)
@click.option("--out-dir", required=True, type=click.Path(file_okay=False))
def sample(profile, seed, family, origin, width, height, out_dir):
    """Sample a field window and write it to disk."""
    _params(profile)  # validates the profile
    field = sample_field(seed, family, tuple(origin), width, height)
    [path] = _claim(out_dir, f"field-{family}-{seed}.bin")
    path.write_bytes(dump_field(field))
    _write_manifest(out_dir, "sample", dict(profile=profile, seed=seed, family=family,
                                            origin=origin, width=width, height=height),
                    [path.name])
    click.echo(str(path))


def _window_option(f):
    return click.option(
        "--window", nargs=4, default=(0, 0, 2, 2), show_default=True, type=int,
        help="level-1 cell window x0 y0 x1 y1",
    )(f)


@cli.command()
@profile_option
@seed_option
@click.option("--family", default="Y", type=click.Choice(["X", "Y"]), show_default=True)
@_window_option
@click.option("--out-dir", required=True, type=click.Path(file_okay=False))
def build(profile, seed, family, window, out_dir):
    """Build the block hierarchy over a window and dump it."""
    p = _params(profile)
    h = hier.build_hierarchy(p, family, seed, Rect(*window))
    [path] = _claim(out_dir, f"hierarchy-{family}-{seed}.txt")
    path.write_text(hier.dump_hierarchy(h))
    _write_manifest(out_dir, "build", dict(profile=profile, seed=seed, family=family,
                                           window=window), [path.name])
    click.echo(str(path))


@cli.command()
@profile_option
@seed_option
@click.option("--family", default="Y", type=click.Choice(["X", "Y"]), show_default=True)
@_window_option
def components(profile, seed, family, window):
    """List component statistics of a built hierarchy."""
    p = _params(profile)
    h = hier.build_hierarchy(p, family, seed, Rect(*window))
    click.echo("level,status,size,bad_blocks,bad_cells,censored")
    for comp in h.level0.bad_components:
        click.echo(f"0,{comp.status},{comp.size},{comp.bad_summary[0]},"
                   f"{comp.bad_summary[1]},{comp.censored}")
    for comp in h.levels[1].components:
        click.echo(f"1,{comp.status},{comp.size},{comp.bad_summary[0]},"
                   f"{comp.bad_summary[1]},{comp.censored}")


@cli.command("estimate-s")
@profile_option
@seed_option
@click.option("--family", default="Y", type=click.Choice(["X", "Y"]), show_default=True)
@click.option("--level", default=0, show_default=True, type=int)
@_window_option
@click.option("--trials", default=2000, show_default=True, type=int)
@click.option("--workers", default=1, show_default=True, type=int)
def estimate_s(profile, seed, family, level, window, trials, workers):
    """Estimate embedding probabilities of the components of a built window."""
    if trials < 1:
        raise ConfigError(f"--trials must be at least 1, got {trials}")
    if workers < 1:
        raise ConfigError(f"--workers must be at least 1, got {workers}")
    if level not in (0, 1):
        raise ConfigError("estimation supports levels 0 and 1")
    if level == 0 and family != "Y":
        raise ConfigError("level-0 estimation drives target-family components")
    if level == 1 and family != "X":
        raise ConfigError("level-1 estimation drives source-family blocks")
    p = _params(profile)
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
@_window_option
@click.option("--out-dir", required=True, type=click.Path(file_okay=False))
def reports(profile, seed, windows, window, out_dir):
    """Emit tail/size/good-probability report tables from seeded windows."""
    p = _params(profile)
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
        good0 += (h.level0.class_grid == GRID_GOOD).ravel().tolist()
        for block in h.levels[1].blocks:
            if not block.censored:
                good1.append(block.good)
    if not tail_samples:
        click.echo("note: every level-0 bad component is censored; the tail and size "
                   "tables hold one stand-in sample (S=1, V=1)", err=True)
        tail_samples.append((1.0, 1))
        sizes.append(1)
    # Fully censored levels contribute no samples and are omitted.
    good_by_level = {j: flags for j, flags in ((0, good0), (1, good1)) if flags}
    texts = {}
    for name, report in (
        ("tail", stats.tail_report(tail_samples, p, 0)),
        ("size", stats.size_report(sizes, p, 0)),
        ("good", stats.good_prob_report(good_by_level, p)),
    ):
        texts[f"{name}.csv"] = report.to_csv()
        texts[f"{name}.records"] = report.to_records()
    for path, text in zip(_claim(out_dir, *texts), texts.values()):
        path.write_text(text)
    _write_manifest(out_dir, "reports", dict(profile=profile, seed=seed,
                                             windows=windows, window=window), list(texts))
    click.echo(str(Path(out_dir)))


@cli.command()
@click.option("--x-file", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--y-file", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--bound", "-m", "bound", required=True, type=float,
              help="Lipschitz bound M")
@click.option("--mode", default="decide", show_default=True,
              type=click.Choice(["decide", "count", "enumerate"]))
@click.option("--limit", default=None, type=int, help="max enumerated witnesses")
@click.option("--node-cap", default=oracle_mod.DEFAULT_NODE_CAP, show_default=True,
              type=int)
def oracle(x_file, y_file, bound, mode, limit, node_cap):
    """Run the exact embedding oracle on two serialized field windows."""
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


@cli.command("audit-params")
@profile_option
@click.option("--alpha", type=float)
@click.option("--beta", type=float)
@click.option("--gamma", type=float)
@click.option("--m", type=float)
@click.option("--k0", type=int)
@click.option("--v0", type=int)
def audit_params(profile, alpha, beta, gamma, m, k0, v0):
    """Audit a parameter set against the required inequalities."""
    p = _params(profile, alpha=alpha, beta=beta, gamma=gamma, m=m, k0=k0, v0=v0)
    report = check_constraints(p)
    click.echo("constraint,lhs,rhs,satisfied,slack")
    for row in report:
        verdict = "inconclusive" if row.satisfied is None else str(row.satisfied)
        click.echo(f"{row.name},{float(row.lhs):.6g},{float(row.rhs):.6g},"
                   f"{verdict},{float(row.slack):.6g}")
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
@click.option("--family", default="Y", type=click.Choice(["X", "Y"]), show_default=True)
@_window_option
@click.option("--level", default=1, show_default=True, type=int)
@click.option("--out-dir", required=True, type=click.Path(file_okay=False))
def render(profile, seed, family, window, level, out_dir):
    """Render a built hierarchy level as SVG (cells, buffers, curves, bad sets)."""
    p = _params(profile)
    if level != 1:
        raise ConfigError("rendering supports level 1")
    h = hier.build_hierarchy(p, family, seed, Rect(*window))
    lv1 = h.levels[1]
    r = p.cells_per_side(1)
    scale = 8
    win = Rect(window[0] * r, window[1] * r, window[2] * r, window[3] * r)
    pad = p.margins(1).buffer + 2
    view = win.outset(pad)
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" '
        f'viewBox="{view.x0 * scale} {view.y0 * scale} '
        f'{(view.x1 - view.x0) * scale} {(view.y1 - view.y0) * scale}">'
    ]
    # Level-1 cell grid.
    for u in Rect(*window).cells():
        cell = Rect(u[0] * r, u[1] * r, (u[0] + 1) * r, (u[1] + 1) * r)
        parts.append(_svg_rect(cell, scale, "#f5f5f5", "1", "cell"))
        parts.append(
            f'<rect class="cell-outline" x="{cell.x0 * scale}" y="{cell.y0 * scale}" '
            f'width="{(cell.x1 - cell.x0) * scale}" height="{(cell.y1 - cell.y0) * scale}" '
            f'fill="none" stroke="#999" stroke-width="1"/>'
        )
    # Buffers of every lattice block.
    for lb in lv1.lattice_blocks:
        for zone in outer_buffers(lb.animal, 1, p):
            parts.append(_svg_rect(zone.rect, scale, "#88aaff", "0.25", "buffer"))
    # Bad components of the level below.
    for comp in h.level0.bad_components:
        for x, y in sorted(comp.animal.sites):
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
    [path] = _claim(out_dir, f"level{level}-{family}-{seed}.svg")
    path.write_text("\n".join(parts) + "\n")
    _write_manifest(out_dir, "render", dict(profile=profile, seed=seed, family=family,
                                            window=window, level=level), [path.name])
    click.echo(str(path))


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


if __name__ == "__main__":
    sys.exit(main())
