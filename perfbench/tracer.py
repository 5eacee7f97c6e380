"""Traced in-process run of the pitchsim CLI, timed from outside the program.

Run as a child process with ``src`` on the path::

    python3 perfbench/tracer.py REQUEST.json RESULT.json

The request names the CLI argument lists to run, in untraced and traced
pairs. Each untraced run calls ``pitchsim.cli.main`` bare; a traced run
first replaces each layer's public functions, where their caller looks them
up, with wrappers that record a span (name, start, end, parent). The spans
stay in memory and are written to the result file at the end. The
program's source is not edited. Pool workers' spans cannot be collected
this way, so traced runs use one worker.
"""

from __future__ import annotations

import contextlib
import functools
import json
import sys
import time
import tracemalloc
from pathlib import Path


class Recorder:
    """Spans and counters of one traced run, kept in memory."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or None]
        self.counts: dict[str, int] = {}
        self._stack: list[int] = []

    def count(self, name: str, amount: int) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def wrap(self, name: str, fn, on_result=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            self.spans.append([name, 0.0, 0.0, self._stack[-1] if self._stack else None])
            self._stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[index][1:3] = [start, end]
            if on_result is not None:
                on_result(self, args, result)
            return result

        return traced


class _ModuleProxy:
    """Stands in for a module, overriding some of its attributes."""

    def __init__(self, module, **overrides):
        self._module = module
        self.__dict__.update(overrides)

    def __getattr__(self, name):
        return getattr(self._module, name)


def _count_points(rec, args, result):
    rec.count("heatmap.points", len(args[0]))


def _count_nnz(rec, args, result):
    rec.count("grid.nnz", result.nnz)


def _count_svg(rec, args, result):
    rec.count("svg.bytes", len(result.encode("utf-8")))


def _targets(cli, roster, cluster):
    """(module, attribute, span name, counter) for every wrapped call site.

    The span name's prefix is the layer. ``cli`` imports most functions by
    name, so they are wrapped in ``pitchsim.cli``; it reaches ``roster`` and
    ``cluster`` through the module, and ``roster`` calls its own
    ``permutation_test``, so those are wrapped in their home modules.
    """
    return [
        (cli, "parse_activity_groups", "heatmap.parse", None),
        (cli, "rasterize", "heatmap.rasterize", _count_points),
        (cli, "heatmap_from_json", "heatmap.load", None),
        (cli, "normalize", "heatmap.load", None),
        (cli, "build_grid", "grid.adjacency", None),
        (cli, "adjacency", "grid.adjacency", _count_nnz),
        (cli, "permutation_test", "stats.test", None),
        (roster, "permutation_test", "stats.test", None),
        (roster, "compute_matrix", "roster.compute_matrix", None),
        (roster, "matrix_to_json", "roster.serialize", None),
        (roster, "pairs_to_csv", "roster.serialize", None),
        (cluster, "complete_linkage", "cluster.linkage", None),
        (cluster, "cut", "cluster.export", None),
        (cluster, "export_newick", "cluster.export", None),
        (cluster, "merges_to_json", "cluster.export", None),
        (cluster, "clusters_to_csv", "cluster.export", None),
        (cli, "heatmap_svg", "svg.render", _count_svg),
        (cli, "matrix_svg", "svg.render", _count_svg),
        (cli, "bar_chart_svg", "svg.render", _count_svg),
    ]


@contextlib.contextmanager
def patched(rec: Recorder):
    """Install the span wrappers for the duration of the block."""
    import pitchsim.cli as cli
    import pitchsim.cluster as cluster
    import pitchsim.roster as roster

    saved = []
    try:
        for module, attr, name, on_result in _targets(cli, roster, cluster):
            saved.append((module, attr, getattr(module, attr)))
            setattr(module, attr, rec.wrap(name, getattr(module, attr), on_result))
        # cli parses heatmap files with json.loads, a stdlib call
        saved.append((cli, "json", cli.json))
        cli.json = _ModuleProxy(cli.json, loads=rec.wrap("heatmap.load", cli.json.loads))
        yield rec
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


def _run_main(argv) -> float:
    import pitchsim.cli as cli

    start = time.perf_counter()
    code = cli.main(argv)
    elapsed = time.perf_counter() - start
    if code != 0:
        raise RuntimeError(f"pitchsim {' '.join(argv[:1])} exited {code}")
    return elapsed


def _load_roster(paths):
    from pitchsim.grid import DEFAULT_EXTENT
    from pitchsim.heatmap import heatmap_from_json, normalize

    return [
        normalize(heatmap_from_json(json.loads(Path(p).read_text(encoding="utf-8")),
                                    extent=DEFAULT_EXTENT))
        for p in paths
    ]


def run(request: dict) -> dict:
    """Pairs of untraced and traced runs of ``main`` until the time is up, then
    the extra passes: peak allocation of one test and ``compute_matrix`` per
    worker count."""
    argvs = request["argvs"]
    deadline = time.perf_counter() + request["seconds"]
    runs = []
    for i in range(0, len(argvs) - 1, 2):
        start = time.perf_counter()
        untraced_s = _run_main(argvs[i])
        rec = Recorder()
        with patched(rec):
            rec.wrap("cli.main", _run_main)(argvs[i + 1])
        runs.append({"untraced_s": untraced_s, "spans": rec.spans, "counts": rec.counts})
        now = time.perf_counter()
        if now + (now - start) > deadline:
            break
    out = {"runs": runs}

    if request.get("heatmaps"):
        from pitchsim.grid import adjacency, build_grid
        from pitchsim.roster import compute_matrix, pair_seed
        from pitchsim.stats import permutation_test

        maps = _load_roster(request["heatmaps"])
        w = adjacency(build_grid(request["rows"], request["cols"]), request["scheme"])
        n_perm = request["n_perm"]
        tracemalloc.start()
        permutation_test(maps[0].cells, maps[1].cells, w, n_perm=n_perm,
                         seed=pair_seed(0, 0, 1))
        out["peak_alloc_bytes"] = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        out["compute_matrix_s"] = {}
        for workers in request.get("scaling_workers", []):
            start = time.perf_counter()
            compute_matrix(maps, w, n_perm=n_perm, master_seed=0, workers=workers)
            out["compute_matrix_s"][str(workers)] = time.perf_counter() - start
    return out


def main(argv) -> int:
    request_path, result_path = argv
    request = json.loads(Path(request_path).read_text(encoding="utf-8"))
    result = run(request)
    Path(result_path).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
