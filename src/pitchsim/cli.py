"""Command-line interface: rasterize activity CSVs, compare pairs, cluster rosters."""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys
import tempfile
from functools import partial
from pathlib import Path

import numpy as np

from .errors import (PitchsimError, UnknownPlayer, check_bandwidth, check_cut, check_n_perm,
                     check_seed, check_workers)
from .grid import DEFAULT_EXTENT, SCHEMES, adjacency, build_grid
from .heatmap import (
    heatmap_from_json,
    heatmap_to_json,
    normalize,
    parse_activity_groups,
    rasterize,
)
# permutation_test is unused here; perfbench/tracer.py wraps cli.permutation_test by name
from .stats import permutation_test
from .svg import bar_chart_svg, heatmap_svg, matrix_svg

HISTOGRAM_BINS = 20


# key: (default, help, rule); the default's type converts the flag and the config-file
# value alike, then the rule refuses a bad value; a command checks its grid as it builds it
_SETTINGS = {
    "rows": (14, "grid rows across the field width", None),
    "cols": (20, "grid columns along the field length", None),
    "scheme": ("queen", f"contiguity scheme: {' or '.join(SCHEMES)}", None),
    "bandwidth": (5.0, "kernel bandwidth in field units", check_bandwidth),
    "n_perm": (999, "permutations per test", check_n_perm),
    "seed": (0, "master seed", partial(check_seed, name="master seed")),
    "cut": (0.001, "dendrogram cut height", check_cut),
    "workers": (1, "parallel workers for pairwise tests", check_workers),
    "out": (Path("out"), "output directory", None),
}


def _raw_settings(args: argparse.Namespace):
    """(key, value, where it was set) of each config-file line, then of each flag
    given; ``--config`` names a file of key=value lines, where '#' starts a comment."""
    # the command's parser defines (as None) exactly the settings it takes
    path, keys = args.config, [key for key in _SETTINGS if key in vars(args)]
    try:
        lines = Path(path).read_text(encoding="utf-8-sig").splitlines() if path else []
    except ValueError as exc:  # not UTF-8
        raise ValueError(f"{path}: {exc}") from exc
    for lineno, raw in enumerate(lines, 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip().replace("-", "_")
        if key not in keys:
            raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
        yield key, value.strip(), f"{path}:{lineno}"
    for key in keys:
        if getattr(args, key) is not None:
            yield key, getattr(args, key), f"--{key.replace('_', '-')}"


def build_config(args: argparse.Namespace) -> argparse.Namespace:
    """Merge defaults, config file values, and explicit flags (flags win); apply each rule."""
    cfg = argparse.Namespace(**{key: default for key, (default, *_) in _SETTINGS.items()})
    for key, value, where in _raw_settings(args):
        try:
            setattr(cfg, key, type(_SETTINGS[key][0])(value))
        except ValueError:
            raise ValueError(f"{where}: invalid value for {key!r}: {value!r}") from None
    for key, (*_, rule) in _SETTINGS.items():
        if rule is not None:
            rule(getattr(cfg, key))
    return cfg


def _add_settings(parser: argparse.ArgumentParser, *keys: str) -> None:
    parser.add_argument("--config", help="key=value config file (flags take precedence)")
    for key in keys:
        parser.add_argument(f"--{key.replace('_', '-')}", help=_SETTINGS[key][1])


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        # one error: line and exit 1, as every other refusal, not usage and exit 2
        raise PitchsimError(message)


def make_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="pitchsim",
        description="Spatial similarity of player heatmaps on a shared pitch lattice.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_rast = sub.add_parser("rasterize", help="turn activity CSVs into heatmap JSON + SVG")
    p_rast.set_defaults(run=cmd_rasterize)
    _add_settings(p_rast, "rows", "cols", "bandwidth", "out")
    p_rast.add_argument("csv_paths", nargs="+", metavar="CSV")

    p_cmp = sub.add_parser("compare", help="test one pair of players")
    p_cmp.set_defaults(run=cmd_compare)
    _add_settings(p_cmp, "rows", "cols", "scheme", "n_perm", "seed")
    p_cmp.add_argument("player_a")
    p_cmp.add_argument("player_b")
    p_cmp.add_argument("heatmap_paths", nargs="+", metavar="HEATMAP_JSON")
    p_cmp.add_argument("--json", action="store_true", help="machine-readable output")

    p_clu = sub.add_parser("cluster", help="pairwise matrix, dendrogram, and clusters")
    p_clu.set_defaults(run=cmd_cluster)
    _add_settings(p_clu, "rows", "cols", "scheme", "n_perm", "seed", "cut", "workers",
                  "out")
    p_clu.add_argument("heatmap_paths", nargs="+", metavar="HEATMAP_JSON")
    return parser


def _slug(player_id: str) -> str:
    s = re.sub(r"[^A-Za-z0-9._-]+", "_", player_id).strip("_")
    return s or "player"


def _collision(slug: str, first_id: str, first_path, second_id: str, second_path) -> str:
    """Message for two players whose outputs would share one file name."""
    if first_id == second_id:
        return f"player id {first_id!r} appears in both {first_path} and {second_path}"
    where = first_path if first_path == second_path else f"{first_path} and {second_path}"
    return (f"{where}: player ids {first_id!r} and {second_id!r} both map to "
            f"heatmap_{slug}.json")


def _write_outputs(out_dir: Path, files: dict[str, str]) -> None:
    """Stage all files in a temp dir, then move each into place atomically."""
    out_dir.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=out_dir, prefix=".staging-") as tmp:
        for name, content in files.items():
            (Path(tmp) / name).write_text(content, encoding="utf-8")
        for name in files:
            os.replace(Path(tmp) / name, out_dir / name)


def _dump_json(doc) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


def _load_heatmaps(paths, cfg: argparse.Namespace):
    heatmaps = []
    seen = set()
    for path in paths:
        try:
            doc = json.loads(Path(path).read_text(encoding="utf-8-sig"))
            h = heatmap_from_json(doc, extent=DEFAULT_EXTENT)
            if (h.grid.rows, h.grid.cols) != (cfg.rows, cfg.cols):
                raise PitchsimError(f"heatmap grid {h.grid.rows}x{h.grid.cols} does not "
                                    f"match configured {cfg.rows}x{cfg.cols}")
            if h.player_id in seen:
                raise PitchsimError(f"duplicate player id {h.player_id!r}")
            heatmaps.append(normalize(h))
        except (ValueError, RecursionError) as exc:
            # json.loads recurses once per nesting level
            raise PitchsimError(f"{path}: {exc}") from exc
        seen.add(h.player_id)
    return heatmaps


def cmd_rasterize(cfg: argparse.Namespace, args: argparse.Namespace) -> int:
    grid = build_grid(cfg.rows, cfg.cols)
    files: dict[str, str] = {}
    owners: dict[str, tuple[str, str]] = {}  # slug -> (player id, csv path)
    total_drops = 0
    for path in args.csv_paths:
        try:
            groups, drops = parse_activity_groups(path, extent=grid.extent)
        except ValueError as exc:  # a refused row, or not UTF-8
            raise PitchsimError(f"{path}: {exc}") from exc
        total_drops += drops.total
        for player_id, points in groups.items():
            slug = _slug(player_id)
            if slug in owners:
                raise PitchsimError(_collision(slug, *owners[slug], player_id, path))
            owners[slug] = (player_id, path)
            h = normalize(rasterize(points, grid, cfg.bandwidth, player_id=player_id))
            files[f"heatmap_{slug}.json"] = _dump_json(heatmap_to_json(h))
            files[f"heatmap_{slug}.svg"] = heatmap_svg(h)
    _write_outputs(cfg.out, files)
    print(
        f"rasterized {len(owners)} player(s) from {len(args.csv_paths)} file(s); "
        f"dropped {total_drops} row(s); wrote {len(files)} file(s) to {cfg.out}"
    )
    return 0


def cmd_compare(cfg: argparse.Namespace, args: argparse.Namespace) -> int:
    from . import roster as rm

    player_a, player_b = args.player_a, args.player_b
    w = adjacency(build_grid(cfg.rows, cfg.cols), cfg.scheme)
    heatmaps = {h.player_id: h for h in _load_heatmaps(args.heatmap_paths, cfg)}
    for pid in (player_a, player_b):
        if pid not in heatmaps:
            raise UnknownPlayer(f"player {pid!r} not found; have {sorted(heatmaps)}")
    res = rm.pair_test(heatmaps[player_a], heatmaps[player_b], w,
                       n_perm=cfg.n_perm, master_seed=cfg.seed)
    if args.json:
        print(_dump_json({
            "player_a": player_a,
            "player_b": player_b,
            "lee_l": res.statistic,
            "p_value": res.p_value,
            # NaN is not JSON: with a constant double lag L has no spread, so no z
            "z_score": res.z_score if math.isfinite(res.z_score) else None,
            "n_perm": res.n_perm,
            "n_ge": res.n_ge,
            "seed": res.seed,
        }), end="")
    else:
        print(f"pair: {player_a} vs {player_b}")
        print(f"lee_l:   {res.statistic:.6f}")
        print(f"p_value: {res.p_value:.6f}")
        print(f"z_score: {res.z_score:.6f}")
        print(f"n_perm:  {res.n_perm}  seed: {res.seed}")
    return 0


def cmd_cluster(cfg: argparse.Namespace, args: argparse.Namespace) -> int:
    from . import cluster as hc
    from . import roster as rm

    w = adjacency(build_grid(cfg.rows, cfg.cols), cfg.scheme)
    players = rm.check_roster(_load_heatmaps(args.heatmap_paths, cfg), w)

    floor = 1.0 / (cfg.n_perm + 1)
    if math.isclose(cfg.cut, floor):
        print(f"warning: cut height {cfg.cut} equals the p-value resolution floor "
              f"1/(n_perm+1); consider raising --n-perm", file=sys.stderr)
    elif cfg.cut < floor:
        # every p-value is at least the floor, and a pair merges at or below the cut
        print(f"warning: cut height {cfg.cut} is below the p-value resolution floor "
              f"1/(n_perm+1), so no pair can merge; consider raising --n-perm",
              file=sys.stderr)
    matrix = rm.compute_matrix(players, w, n_perm=cfg.n_perm, master_seed=cfg.seed,
                               workers=cfg.workers)
    del players  # the writers need only the matrix: freed, the players add nothing to their peak
    ids = list(matrix.player_ids)
    dend = hc.complete_linkage(matrix.pseudo_distance, ids)
    labels = hc.cut(dend, cfg.cut)

    # cluster-ordered view: sort players by label, then original position
    order = sorted(range(len(ids)), key=lambda i: (labels[i], i))
    ordered_ids = [ids[i] for i in order]
    ordered_p = matrix.pseudo_distance[np.ix_(order, order)]

    counts, edges = np.histogram(matrix.pseudo_distance[np.triu_indices(len(ids), 1)],
                                 bins=HISTOGRAM_BINS, range=(0.0, 1.0))
    bounds = edges.tolist()

    files = {
        "matrix.json": _dump_json(rm.matrix_to_json(matrix)),
        "pairs.csv": rm.pairs_to_csv(matrix),
        "dendrogram.nwk": hc.export_newick(dend) + "\n",
        "dendrogram.json": _dump_json(hc.merges_to_json(dend)),
        "clusters.csv": hc.clusters_to_csv(ids, labels),
        "matrix_original.svg": matrix_svg(
            matrix.pseudo_distance, ids, title="pseudo-distance (input order)"
        ),
        "matrix_clustered.svg": matrix_svg(
            ordered_p, ordered_ids, title=f"pseudo-distance (clusters at cut={cfg.cut:g})"
        ),
        "pvalue_histogram.csv": "bin_start,bin_end,count\n" + "".join(
            f"{a!r},{b!r},{n}\n" for a, b, n in zip(bounds, bounds[1:], counts.tolist())),
        "pvalue_histogram.svg": bar_chart_svg(
            edges, counts, title="pseudo-distance distribution"
        ),
    }
    _write_outputs(cfg.out, files)
    print(
        f"compared {len(ids)} players ({len(ids) * (len(ids) + 1) // 2} pairs, "
        f"n_perm={cfg.n_perm}); {max(labels)} cluster(s) at cut={cfg.cut:g}; "
        f"wrote {len(files)} file(s) to {cfg.out}"
    )
    return 0


def main(argv=None) -> int:
    try:
        args = make_parser().parse_args(argv)
        return args.run(build_config(args), args)
    except (ValueError, OSError, MemoryError) as exc:
        # numpy's MemoryError names the allocation it could not make; a bare one is empty
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
