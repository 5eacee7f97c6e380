"""Benchmark of the pitchsim CLI on seeded, generated inputs.

Usage, from the root of a checkout (``src`` need not be installed)::

    python3 perfbench/run.py --workload tracking --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py                  # every workload, one after another

Each command runs as ``python -m pitchsim.cli`` in a fresh process, one
after another (a closed loop with one client). ``--trace 0`` times whole
commands and reports the end-to-end metrics; ``--trace 1`` runs the command
in process with spans around each layer (see tracer.py) and reports the
per-layer metrics. Every command's outputs are checked after it exits,
outside the timed span, and compared byte for byte with the first run.
The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``; the line before it holds
the run's metadata.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import asdict, dataclass
from importlib import metadata
from pathlib import Path

import numpy as np

import checks
import inputs

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".bench_build" / "perfbench"
SETUP_REPEATS = 7
MIN_RUNS = 3
# a healthy command takes a few seconds; these keep a whole run under 180 s
COMMAND_TIMEOUT_S = 45
TRACER_TIMEOUT_S = 150
SAMPLED_PLAYERS = 3
MAX_TRACE_PAIRS = 12


@dataclass(frozen=True)
class Workload:
    """One input set. Why each exists is stated once, in BENCHMARK.json."""

    name: str
    command: str  # "rasterize" or "cluster"
    players: int
    rows_per_player: int = 0
    n_perm: int = 999
    cut: float = 0.001
    workers: int = 1

    @property
    def items(self) -> int:
        """Work units: activity rows for rasterize, unordered pair tests for cluster."""
        if self.command == "rasterize":
            return self.players * self.rows_per_player
        return self.players * (self.players + 1) // 2


WORKLOADS = {
    w.name: w
    for w in (
        Workload("tracking", "rasterize", players=22, rows_per_player=5_000),
        Workload("squad", "cluster", players=8, n_perm=9999, cut=0.001, workers=1),
        Workload("league", "cluster", players=80, n_perm=99, cut=0.05, workers=2),
    )
}


def _child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _kill_group(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:  # exited just as the timeout fired
        pass


def spawn(argv: list[str], log: Path, env: dict,
          timeout: float = COMMAND_TIMEOUT_S) -> tuple[float, int, int]:
    """Run ``argv`` to completion: (wall seconds, peak RSS in KiB, exit code).

    The peak RSS comes from wait4, which covers the process and every
    descendant it waited for, so pool workers are included. A command that
    outlives the timeout is killed with its process group.
    """
    with open(log, "wb") as fh:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=fh, stderr=subprocess.STDOUT, env=env,
                                cwd=ROOT, start_new_session=True)
        killer = threading.Timer(timeout, _kill_group, (proc.pid,))
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_maxrss, proc.returncode


class Inputs:
    """Generated inputs of one workload and how to check its outputs."""

    def __init__(self, spec: Workload, seed: int, work: Path):
        self.spec = spec
        self.sha256: dict[str, str] = {}
        rng = np.random.default_rng([seed, 3])
        if spec.command == "rasterize":
            self.points = inputs.tracking_points(seed, spec.players, spec.rows_per_player)
            path = work / "activity.csv"
            self.sha256[path.name] = inputs.write_text(path, inputs.tracking_csv(self.points))
            self.paths = [str(path)]
            self.sampled = sorted(str(p) for p in rng.choice(list(self.points), SAMPLED_PLAYERS,
                                                             replace=False))
        else:
            self.paths = []
            for doc in inputs.heatmap_docs(seed, spec.players):
                path = work / f"{doc['player_id']}.json"
                self.sha256[path.name] = inputs.write_text(path, inputs.dump_json(doc))
                self.paths.append(str(path))

    def argv(self, out: Path, workers: int | None = None) -> list[str]:
        s = self.spec
        grid = ["--rows", str(inputs.ROWS), "--cols", str(inputs.COLS), "--out", str(out)]
        if s.command == "rasterize":
            return ["rasterize", *self.paths, *grid, "--bandwidth", repr(inputs.BANDWIDTH)]
        return ["cluster", *self.paths, *grid, "--scheme", "queen", "--seed", "0",
                "--n-perm", str(s.n_perm), "--cut", repr(s.cut),
                "--workers", str(workers or s.workers)]

    def check(self, out: Path) -> list[str]:
        try:
            if self.spec.command == "rasterize":
                return checks.check_tracking(out, self.points, self.sampled)
            return checks.check_cluster(out, self.spec.players, self.spec.n_perm,
                                        inputs.roles(self.spec.players))
        except (OSError, ValueError, KeyError, TypeError) as exc:
            return [f"unreadable outputs: {exc!r}"]


class Tally:
    """Attempted and failed command runs, with byte-identity against the first."""

    def __init__(self, inp: Inputs):
        self.inp = inp
        self.attempted = 0
        self.failed = 0
        self.first: dict[str, str] | None = None

    def record(self, out: Path, ok: bool, error: str = "") -> None:
        self.attempted += 1
        problems = self.inp.check(out) if ok else [error]
        if not problems:
            now = checks.digests(out)
            if self.first is None:
                self.first = now
            problems = checks.same_bytes(self.first, now)
        if problems:
            self.failed += 1
            print(f"run {self.attempted} failed: {'; '.join(problems)}", file=sys.stderr)


def _median(values) -> float:
    return float(statistics.median(values))


def _metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def measure_end_to_end(spec: Workload, inp: Inputs, work: Path, seconds: float,
                       tally: Tally) -> tuple[dict, dict]:
    """Time fresh-process commands, and a fresh import before each, for ``seconds``.

    Every figure is the median over the run; each sample goes to the metadata.
    """
    env = _child_env()
    python = sys.executable
    importer = [python, "-c", "import pitchsim.cli"]

    def time_import() -> float:
        wall, _, code = spawn(importer, work / "import.log", env)
        if code != 0:
            raise SystemExit(f"error: `import pitchsim.cli` failed; see {work / 'import.log'}")
        return wall

    time_import()  # compiles bytecode once, untimed
    out = work / "out"
    setup, walls, rss = [], [], []
    start = time.perf_counter()
    while len(walls) < MIN_RUNS or time.perf_counter() - start + _median(walls) <= seconds:
        setup.append(time_import())
        shutil.rmtree(out, ignore_errors=True)
        wall, rss_kib, code = spawn([python, "-m", "pitchsim.cli", *inp.argv(out)],
                                    work / "command.log", env)
        tally.record(out, code == 0, f"exit code {code}; see {work / 'command.log'}")
        walls.append(wall)
        rss.append(rss_kib / 1024.0)
    while len(setup) < SETUP_REPEATS:
        setup.append(time_import())
    wall_s = _median(walls)
    return {
        "wall_s": _metric(wall_s, "s"),
        "setup_s": _metric(_median(setup), "s"),
        "peak_rss_mb": _metric(_median(rss), "MB"),
        "items_per_s": _metric(spec.items / wall_s, "1/s"),
    }, {"wall_s_each": walls, "setup_s_each": setup, "peak_rss_mb_each": rss}


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the part of it its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for name, start, end, parent in spans:
        if parent is not None:
            children.setdefault(parent, []).append((start, end))
    out = []
    for i, (name, start, end, parent) in enumerate(spans):
        covered, reach = 0.0, start
        for c_start, c_end in sorted(children.get(i, [])):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out.append((end - start) - covered)
    return out


def tail(values: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with at least 10 samples beyond it."""
    n = len(values)
    if n <= 10:
        return 0.0, 0.0
    ordered = sorted(values)
    return ordered[n - 11], 100.0 * (n - 10) / n


def layer_metrics(spec: Workload, run: dict, passes: dict, out: Path) -> dict:
    """(value, unit) of every per-layer metric, from one traced run written to
    ``out`` and from the extra passes made once per benchmark run."""
    spans = run["spans"]
    selfs = self_times(spans)
    total: dict[str, float] = {}
    self_of: dict[str, float] = {}
    layer_self: dict[str, float] = {}
    for (name, start, end, _), own in zip(spans, selfs):
        total[name] = total.get(name, 0.0) + (end - start)
        self_of[name] = self_of.get(name, 0.0) + own
        layer = name.split(".")[0]
        layer_self[layer] = layer_self.get(layer, 0.0) + own
    wall = total["cli.main"]
    tests_ms = [1e3 * (end - start) for name, start, end, _ in spans if name == "stats.test"]
    test_s = sum(tests_ms) / 1e3
    counts = run["counts"]
    points = counts.get("heatmap.points", 0)
    tail_ms, tail_pct = tail(tests_ms)
    cm = passes.get("compute_matrix_s", {})
    files = [p for p in out.iterdir() if p.is_file()]
    return {
        "heatmap.parse_s": (total.get("heatmap.parse", 0.0), "s"),
        "heatmap.rasterize_s": (total.get("heatmap.rasterize", 0.0), "s"),
        "heatmap.points": (points, "count"),
        "heatmap.rasterize_us_per_point": (
            1e6 * total.get("heatmap.rasterize", 0.0) / points if points else 0.0, "us"),
        "heatmap.load_s": (total.get("heatmap.load", 0.0), "s"),
        "grid.adjacency_s": (total.get("grid.adjacency", 0.0), "s"),
        "grid.nnz": (counts.get("grid.nnz", 0), "count"),
        "stats.tests": (len(tests_ms), "count"),
        "stats.test_ms_p50": (_median(tests_ms) if tests_ms else 0.0, "ms"),
        "stats.test_ms_tail": (tail_ms, "ms"),
        "stats.test_tail_pct": (tail_pct, "%"),
        "stats.perms_per_s": (len(tests_ms) * spec.n_perm / test_s if test_s else 0.0, "1/s"),
        "stats.share": (test_s / wall, "ratio"),
        "stats.peak_alloc_mb": (passes.get("peak_alloc_bytes", 0) / 2**20, "MB"),
        "roster.compute_matrix_s": (total.get("roster.compute_matrix", 0.0), "s"),
        "roster.self_s": (self_of.get("roster.compute_matrix", 0.0), "s"),
        "roster.scaling_eff": (
            cm["1"] / (2.0 * cm["2"]) if {"1", "2"} <= cm.keys() else 0.0, "ratio"),
        "roster.serialize_s": (total.get("roster.serialize", 0.0), "s"),
        "cluster.linkage_s": (total.get("cluster.linkage", 0.0), "s"),
        "cluster.export_s": (total.get("cluster.export", 0.0), "s"),
        "svg.render_s": (total.get("svg.render", 0.0), "s"),
        "svg.bytes": (counts.get("svg.bytes", 0), "bytes"),
        "cli.self_s": (self_of["cli.main"], "s"),
        "cli.files_written": (len(files), "count"),
        "cli.bytes_written": (sum(p.stat().st_size for p in files), "bytes"),
        "trace.wall_s": (wall, "s"),
        "trace.overhead_s": (wall - run["untraced_s"], "s"),
        "trace.accounted_frac": (sum(layer_self.values()) / wall, "ratio"),
    }


def measure_layers(spec: Workload, inp: Inputs, work: Path, seconds: float,
                   tally: Tally) -> tuple[dict, dict]:
    """Pairs of untraced and traced in-process runs on one worker for ``seconds``,
    then the extra passes. Each metric is the median over the traced runs.

    Metrics of a layer the workload never reaches read 0 and are listed in
    the metadata.
    """
    outs = [work / f"out{i}" for i in range(2 * MAX_TRACE_PAIRS)]
    request = {"argvs": [inp.argv(o, workers=1) for o in outs], "seconds": seconds}
    if spec.command == "cluster":
        request.update(heatmaps=inp.paths, rows=inputs.ROWS, cols=inputs.COLS,
                       scheme="queen", n_perm=spec.n_perm,
                       scaling_workers=[1, 2] if spec.workers > 1 else [])
    req_path, res_path = work / "trace_request.json", work / "trace_result.json"
    req_path.write_text(json.dumps(request), encoding="utf-8")
    tracer = str(Path(__file__).resolve().parent / "tracer.py")
    _, _, code = spawn([sys.executable, tracer, str(req_path), str(res_path)],
                       work / "trace.log", _child_env(), TRACER_TIMEOUT_S)
    for out in [o for o in outs if o.exists()] or outs[:1]:
        tally.record(out, code == 0, f"traced run exited {code}; see {work / 'trace.log'}")
    if code != 0:
        return {}, {}
    result = json.loads(res_path.read_text(encoding="utf-8"))
    per_run = [layer_metrics(spec, run, result, outs[2 * i + 1])
               for i, run in enumerate(result["runs"])]
    metrics = {name: _metric(_median([m[name][0] for m in per_run]), unit)
               for name, (_, unit) in per_run[0].items()}
    detail = {"traced_runs": len(per_run),
              "compute_matrix_s_by_workers": result.get("compute_matrix_s", {}),
              "zero_as_layer_not_run": sorted(k for k, v in metrics.items() if v["value"] == 0)}
    return metrics, detail


def host_metadata() -> dict:
    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=10, check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    threads = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")
    return {
        "commit": commit,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": metadata.version("scipy"),
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "env": {k: os.environ.get(k) for k in threads}},
    }


def run_workload(spec: Workload, seed: int, seconds: float, trace: bool) -> dict:
    work = WORK / f"{spec.name}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        inp = Inputs(spec, seed, work)
        tally = Tally(inp)
        if trace:
            metrics, detail = measure_layers(spec, inp, work, seconds, tally)
        else:
            metrics, detail = measure_end_to_end(spec, inp, work, seconds, tally)
        whys = {w["name"]: w["why"] for w in
                json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["workloads"]}
        meta = {**host_metadata(), "workload": asdict(spec), "why": whys.get(spec.name),
                "seed": seed, "trace": trace, "inputs_sha256": inp.sha256, **detail}
        print(json.dumps({"meta": meta}, sort_keys=True))
        return {"correct": tally.failed == 0 and bool(metrics), "attempted": tally.attempted,
                "failed": tally.failed, "metrics": metrics}
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main(argv=None, workloads=WORKLOADS) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[*workloads, "all"], default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "pitchsim" / "cli.py").is_file():
        print(f"error: no pitchsim sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.workload != "all":
        result = run_workload(workloads[args.workload], args.seed, args.seconds, bool(args.trace))
        print(json.dumps(result, sort_keys=True))
        return 0
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name, spec in workloads.items():
        result = run_workload(spec, args.seed, args.seconds, bool(args.trace))
        for metric, value in result["metrics"].items():
            print(f"{name:9s} {metric:32s} {value['value']:.6g} {value['unit']}")
            combined["metrics"][f"{name}/{metric}"] = value
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
    print(json.dumps(combined, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
