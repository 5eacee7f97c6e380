"""Command-line interface: rasterize activity CSVs, compare pairs, cluster rosters."""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys
import tempfile
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from . import cluster as hc
from . import roster as rm
from .errors import PitchsimError, UnknownPlayer
from .grid import DEFAULT_EXTENT, SCHEMES, PitchGrid, adjacency, build_grid
from .heatmap import (
    heatmap_from_json,
    heatmap_to_json,
    normalize,
    parse_activity_groups,
    rasterize,
)
# unused here; perfbench/tracer.py wraps cli.permutation_test by name
from .stats import permutation_test
from .svg import bar_chart_svg, heatmap_svg, matrix_svg

HISTOGRAM_BINS = 20


@dataclass
class RunConfig:
    rows: int = 14
    cols: int = 20
    scheme: str = "queen"
    bandwidth: float = 5.0
    n_perm: int = 999
    seed: int = 0
    cut: float = 0.001
    workers: int = 1
    out: Path = Path("out")

    def validate(self) -> None:
        PitchGrid(self.rows, self.cols)  # the grid-size rule
        if self.scheme not in SCHEMES:
            raise ValueError(f"scheme must be {' or '.join(SCHEMES)}, got {self.scheme!r}")
        if not (math.isfinite(self.bandwidth) and self.bandwidth > 0):
            raise ValueError(f"bandwidth must be finite and > 0, got {self.bandwidth}")
        if self.n_perm < 1:
            raise ValueError(f"n-perm must be >= 1, got {self.n_perm}")
        if not (math.isfinite(self.cut) and self.cut >= 0):
            raise ValueError(f"cut must be finite and >= 0, got {self.cut}")
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")


def read_config_file(path) -> dict:
    """Parse a key=value config file; '#' starts a comment."""
    values = {}
    types = {f.name: type(f.default) for f in fields(RunConfig)}
    for lineno, raw in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        key, _, value = line.partition("=")
        key, value = key.strip().replace("-", "_"), value.strip()
        if key not in types:
            raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
        try:
            values[key] = types[key](value)
        except ValueError:
            raise ValueError(f"{path}:{lineno}: invalid value for {key!r}: {value!r}") from None
    return values


def build_config(args: argparse.Namespace) -> RunConfig:
    """Merge defaults, config file values, and explicit flags (flags win)."""
    cfg = RunConfig()
    if getattr(args, "config", None):
        for key, value in read_config_file(args.config).items():
            setattr(cfg, key, value)
    for f in fields(RunConfig):
        flag_value = getattr(args, f.name, None)
        if flag_value is not None:
            setattr(cfg, f.name, flag_value)
    cfg.out = Path(cfg.out)
    cfg.validate()
    return cfg


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="key=value config file (flags take precedence)")
    parser.add_argument("--rows", type=int, help="grid rows across the field width")
    parser.add_argument("--cols", type=int, help="grid columns along the field length")
    parser.add_argument("--scheme", choices=SCHEMES, help="contiguity scheme")
    parser.add_argument("--bandwidth", type=float, help="kernel bandwidth in field units")
    parser.add_argument("--n-perm", type=int, dest="n_perm", help="permutations per test")
    parser.add_argument("--seed", type=int, help="master seed")
    parser.add_argument("--cut", type=float, help="dendrogram cut height")
    parser.add_argument("--workers", type=int, help="parallel workers for pairwise tests")
    parser.add_argument("--out", type=Path, help="output directory")


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pitchsim",
        description="Spatial similarity of player heatmaps on a shared pitch lattice.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_rast = sub.add_parser("rasterize", help="turn activity CSVs into heatmap JSON + SVG")
    _add_common(p_rast)
    p_rast.add_argument("csv_paths", nargs="+", metavar="CSV")

    p_cmp = sub.add_parser("compare", help="test one pair of players")
    _add_common(p_cmp)
    p_cmp.add_argument("player_a")
    p_cmp.add_argument("player_b")
    p_cmp.add_argument("heatmap_paths", nargs="+", metavar="HEATMAP_JSON")
    p_cmp.add_argument("--json", action="store_true", help="machine-readable output")

    p_clu = sub.add_parser("cluster", help="pairwise matrix, dendrogram, and clusters")
    _add_common(p_clu)
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
        staged = []
        for name, content in files.items():
            path = Path(tmp) / name
            path.write_text(content, encoding="utf-8")
            staged.append(name)
        for name in staged:
            os.replace(Path(tmp) / name, out_dir / name)


def _dump_json(doc) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


def _load_heatmaps(paths, cfg: RunConfig):
    heatmaps = []
    seen = set()
    for path in paths:
        try:
            doc = json.loads(Path(path).read_text(encoding="utf-8"))
            h = heatmap_from_json(doc, extent=DEFAULT_EXTENT)
        except (PitchsimError, ValueError) as exc:
            raise PitchsimError(f"{path}: {exc}") from exc
        if (h.grid.rows, h.grid.cols) != (cfg.rows, cfg.cols):
            raise PitchsimError(
                f"{path}: heatmap grid {h.grid.rows}x{h.grid.cols} does not match "
                f"configured {cfg.rows}x{cfg.cols}"
            )
        if h.player_id in seen:
            raise PitchsimError(f"{path}: duplicate player id {h.player_id!r}")
        seen.add(h.player_id)
        heatmaps.append(normalize(h))
    return heatmaps


def cmd_rasterize(cfg: RunConfig, csv_paths: list[str]) -> int:
    grid = build_grid(cfg.rows, cfg.cols)
    files: dict[str, str] = {}
    owners: dict[str, tuple[str, str]] = {}  # slug -> (player id, csv path)
    total_drops = 0
    n_players = 0
    for path in csv_paths:
        try:
            groups, drops = parse_activity_groups(path, extent=grid.extent)
        except PitchsimError as exc:
            raise PitchsimError(f"{path}: {exc}") from exc
        total_drops += drops.total
        for player_id, points in groups.items():
            slug = _slug(player_id)
            if slug in owners:
                raise PitchsimError(_collision(slug, *owners[slug], player_id, path))
            owners[slug] = (player_id, path)
            h = normalize(rasterize(points, grid, cfg.bandwidth, player_id=player_id))
            files[f"heatmap_{slug}.json"] = _dump_json(heatmap_to_json(h))
            files[f"heatmap_{slug}.svg"] = heatmap_svg(grid, h.cells, title=player_id)
            n_players += 1
    _write_outputs(cfg.out, files)
    print(
        f"rasterized {n_players} player(s) from {len(csv_paths)} file(s); "
        f"dropped {total_drops} row(s); wrote {len(files)} file(s) to {cfg.out}"
    )
    return 0


def cmd_compare(cfg: RunConfig, heatmap_paths, player_a: str, player_b: str,
                as_json: bool = False) -> int:
    heatmaps = {h.player_id: h for h in _load_heatmaps(heatmap_paths, cfg)}
    for pid in (player_a, player_b):
        if pid not in heatmaps:
            raise UnknownPlayer(f"player {pid!r} not found; have {sorted(heatmaps)}")
    w = adjacency(build_grid(cfg.rows, cfg.cols), cfg.scheme)
    res = rm.pair_test(heatmaps[player_a], heatmaps[player_b], w,
                       n_perm=cfg.n_perm, master_seed=cfg.seed)
    if as_json:
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


def cmd_cluster(cfg: RunConfig, heatmap_paths) -> int:
    heatmaps = _load_heatmaps(heatmap_paths, cfg)
    if len(heatmaps) < 2:
        raise PitchsimError("cluster needs at least 2 players")
    w = adjacency(build_grid(cfg.rows, cfg.cols), cfg.scheme)

    floor = 1.0 / (cfg.n_perm + 1)
    if math.isclose(cfg.cut, floor):
        print(
            f"warning: cut height {cfg.cut} equals the p-value resolution floor "
            f"1/(n_perm+1); consider raising --n-perm",
            file=sys.stderr,
        )

    matrix = rm.compute_matrix(
        heatmaps, w, n_perm=cfg.n_perm, master_seed=cfg.seed, workers=cfg.workers
    )
    ids = list(matrix.player_ids)
    dend = hc.complete_linkage(matrix.pseudo_distance, ids)
    labels = hc.cut(dend, cfg.cut)

    # cluster-ordered view: sort players by label, then original position
    order = sorted(range(len(ids)), key=lambda i: (labels[i], i))
    ordered_ids = [ids[i] for i in order]
    ordered_p = matrix.pseudo_distance[np.ix_(order, order)]

    counts, edges = np.histogram(matrix.pseudo_distance[np.triu_indices(len(ids), 1)],
                                 bins=HISTOGRAM_BINS, range=(0.0, 1.0))
    hist_lines = ["bin_start,bin_end,count"]
    for b in range(HISTOGRAM_BINS):
        hist_lines.append(f"{edges[b]!r},{edges[b + 1]!r},{int(counts[b])}")

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
        "pvalue_histogram.csv": "\n".join(hist_lines) + "\n",
        "pvalue_histogram.svg": bar_chart_svg(
            edges, counts, title="pseudo-distance distribution"
        ),
    }
    _write_outputs(cfg.out, files)
    n_clusters = max(labels) if labels else 0
    print(
        f"compared {len(ids)} players ({len(ids) * (len(ids) + 1) // 2} pairs, "
        f"n_perm={cfg.n_perm}); {n_clusters} cluster(s) at cut={cfg.cut:g}; "
        f"wrote {len(files)} file(s) to {cfg.out}"
    )
    return 0


def main(argv=None) -> int:
    args = make_parser().parse_args(argv)
    try:
        cfg = build_config(args)
        if args.command == "rasterize":
            return cmd_rasterize(cfg, args.csv_paths)
        if args.command == "compare":
            return cmd_compare(
                cfg, args.heatmap_paths, args.player_a, args.player_b, as_json=args.json
            )
        if args.command == "cluster":
            return cmd_cluster(cfg, args.heatmap_paths)
        raise AssertionError(f"unhandled command {args.command!r}")
    except (PitchsimError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
