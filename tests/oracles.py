"""Independent reference implementations used to check the package.

Everything here is written the dumb way on purpose: explicit loops, dense
matrices, brute-force enumeration. None of it imports from pitchsim.
"""

from __future__ import annotations

import csv
import itertools
import math
from array import array

import numpy as np


def moran_formula(x, w_dense) -> float:
    """Moran's I, term by term: (n/S0) * sum_ij w_ij (xi-m)(xj-m) / sum_i (xi-m)^2."""
    x = [float(v) for v in x]
    n = len(x)
    m = math.fsum(x) / n
    s0 = math.fsum(float(w_dense[i][j]) for i in range(n) for j in range(n))
    num = math.fsum(
        float(w_dense[i][j]) * (x[i] - m) * (x[j] - m)
        for i in range(n)
        for j in range(n)
    )
    den = math.fsum((v - m) ** 2 for v in x)
    return (n / s0) * num / den


def lee_formula(x, y, w_dense) -> float:
    """Lee's L, term by term from the displayed definition.

    L = [n / sum_i (sum_j w_ij)^2]
        * sum_i [ (sum_j w_ij (x_j - xbar)) * (sum_j w_ij (y_j - ybar)) ]
        / [ sqrt(sum_i (x_i - xbar)^2) * sqrt(sum_i (y_i - ybar)^2) ]
    """
    x = [float(v) for v in x]
    y = [float(v) for v in y]
    n = len(x)
    xbar = math.fsum(x) / n
    ybar = math.fsum(y) / n
    denom_scale = math.fsum(
        math.fsum(float(w_dense[i][j]) for j in range(n)) ** 2 for i in range(n)
    )
    num = math.fsum(
        math.fsum(float(w_dense[i][j]) * (x[j] - xbar) for j in range(n))
        * math.fsum(float(w_dense[i][j]) * (y[j] - ybar) for j in range(n))
        for i in range(n)
    )
    sx = math.sqrt(math.fsum((v - xbar) ** 2 for v in x))
    sy = math.sqrt(math.fsum((v - ybar) ** 2 for v in y))
    return (n / denom_scale) * num / (sx * sy)


def lee_batch_dense(x, y_rows, w_dense) -> np.ndarray:
    """Vectorized dense-matrix Lee's L of x against many y rows.

    Used where pure-Python loops would be too slow (exhaustive enumeration).
    Still an independent evaluation path: dense matmul, no pitchsim code.
    """
    w = np.asarray(w_dense, dtype=float)
    x = np.asarray(x, dtype=float)
    ys = np.atleast_2d(np.asarray(y_rows, dtype=float))
    n = x.size
    xc = x - x.mean()
    yc = ys - ys.mean(axis=1, keepdims=True)
    scale = n / float((w.sum(axis=1) ** 2).sum())
    lag_x = w @ xc
    lag_y = yc @ w.T
    num = lag_y @ lag_x
    den = math.sqrt(float(xc @ xc)) * np.sqrt((yc * yc).sum(axis=1))
    return scale * num / den


def exhaustive_p(x, y, w_dense) -> tuple[float, float]:
    """One-sided exact permutation p-value by full n! enumeration.

    Returns (p, l_obs) with p = #{L(perm) >= L(identity)} / n!. Counting is
    tie-tolerant: lattice symmetries can make permutations mathematically
    equal to the observed arrangement, and this dense path may round them one
    ulp below its own observed value.
    """
    n = len(x)
    perms = np.array(list(itertools.permutations(range(n))), dtype=np.intp)
    y = np.asarray(y, dtype=float)
    sims = lee_batch_dense(x, y[perms], w_dense)
    l_obs = lee_batch_dense(x, y, w_dense)[0]
    tol = 1e-9 * (1.0 + abs(l_obs))
    count = int(np.count_nonzero(sims >= l_obs - tol))
    return count / math.factorial(n), float(l_obs)


def indexed_stream_scores(x, y, n_perm: int, seed: int, chunk: int) -> np.ndarray:
    """Every permuted score ``y[pi] @ x`` of a Philox-keyed stream, in draw order.

    The index path: each chunk of at most ``chunk`` rows permutes a row of
    cell indices per relabeling, gathers ``y`` by it, and takes the chunk's
    matrix-vector product with ``x``. ``y`` is the relabeled side's centred
    cells and ``x`` the fixed side's scaled double lag, so the scores are
    L(pi).
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    n = y.size
    gen = np.random.Generator(np.random.Philox(key=seed))
    scores = []
    for start in range(0, n_perm, chunk):
        m = min(chunk, n_perm - start)
        perms = gen.permuted(np.tile(np.arange(n), (m, 1)), axis=1)
        scores.append(y[perms] @ x)
    return np.concatenate(scores)


def grid_dense_rook(rows: int, cols: int) -> np.ndarray:
    """Binary rook adjacency on a row-major rows x cols lattice, dense."""
    n = rows * cols
    w = np.zeros((n, n))
    for r in range(rows):
        for c in range(cols):
            i = r * cols + c
            for dr, dc in ((0, 1), (1, 0), (0, -1), (-1, 0)):
                rr, cc = r + dr, c + dc
                if 0 <= rr < rows and 0 <= cc < cols:
                    w[i, rr * cols + cc] = 1.0
    return w


def grid_dense_queen(rows: int, cols: int) -> np.ndarray:
    """Binary queen adjacency on a row-major rows x cols lattice, dense."""
    n = rows * cols
    w = np.zeros((n, n))
    for r in range(rows):
        for c in range(cols):
            i = r * cols + c
            for dr in (-1, 0, 1):
                for dc in (-1, 0, 1):
                    if dr == 0 and dc == 0:
                        continue
                    rr, cc = r + dr, c + dc
                    if 0 <= rr < rows and 0 <= cc < cols:
                        w[i, rr * cols + cc] = 1.0
    return w


def sequential_lag(dense, v) -> np.ndarray:
    """W @ v one cell at a time: start at 0.0, add neighbours in ascending index order."""
    n = len(v)
    out = np.empty(n)
    for i in range(n):
        acc = 0.0
        for j in range(n):
            if dense[i][j]:
                acc += float(v[j])
        out[i] = acc
    return out


def kernel_sum_direct(points, centers, bandwidth: float) -> np.ndarray:
    """Direct Gaussian kernel sum at given centers; plain accumulation."""
    h = float(bandwidth)
    norm = 1.0 / (2.0 * math.pi * h * h)
    out = np.zeros(len(centers))
    for k, (cx, cy) in enumerate(centers):
        total = 0.0
        for px, py, val in points:
            d2 = (cx - px) ** 2 + (cy - py) ** 2
            total += val * norm * math.exp(-d2 / (2.0 * h * h))
        out[k] = total
    return out


def naive_complete_linkage(d, ids) -> list[tuple[int, int, float]]:
    """Agglomerative complete linkage, recomputing every cluster pair from
    scratch each step. Same tie rule as the package: smallest
    (least id of one side, least id of other) pair wins; the child with
    the lesser least id is recorded on the left.

    Returns [(left, right, height), ...] with scipy-style node ids.
    """
    d = np.asarray(d, dtype=float)
    k = d.shape[0]
    clusters = {i: (frozenset([i]), ids[i]) for i in range(k)}  # node -> (leaves, least player id)
    merges = []
    next_id = k
    while len(clusters) > 1:
        best = None
        for a, b in itertools.combinations(sorted(clusters), 2):
            la, ma = clusters[a]
            lb, mb = clusters[b]
            dist = max(d[i, j] for i in la for j in lb)
            lo, hi = (ma, mb) if ma < mb else (mb, ma)
            key = (dist, lo, hi)
            if best is None or key < best[0]:
                best = (key, a, b)
        (dist, _, _), a, b = best
        la, ma = clusters.pop(a)
        lb, mb = clusters.pop(b)
        left, right = (a, b) if ma < mb else (b, a)
        merges.append((left, right, float(dist)))
        clusters[next_id] = (la | lb, min(ma, mb))
        next_id += 1
    return merges


def parse_newick(text: str):
    """Minimal Newick reader: returns (leaf names in order, nested tuples).

    Supports quoted labels and branch lengths; enough to round-trip what the
    package emits.
    """
    s = text.strip()
    if not s.endswith(";"):
        raise ValueError("newick must end with ';'")
    s = s[:-1]
    pos = 0
    names: list[str] = []

    def read_label() -> str:
        nonlocal pos
        if pos < len(s) and s[pos] == "'":
            pos += 1
            out = []
            while True:
                ch = s[pos]
                if ch == "'":
                    if pos + 1 < len(s) and s[pos + 1] == "'":
                        out.append("'")
                        pos += 2
                        continue
                    pos += 1
                    break
                out.append(ch)
                pos += 1
            return "".join(out)
        start = pos
        while pos < len(s) and s[pos] not in "(),:;":
            pos += 1
        return s[start:pos]

    def skip_length() -> float | None:
        nonlocal pos
        if pos < len(s) and s[pos] == ":":
            pos += 1
            start = pos
            while pos < len(s) and s[pos] not in "(),;":
                pos += 1
            return float(s[start:pos])
        return None

    def node():
        nonlocal pos
        if s[pos] == "(":
            pos += 1
            children = [node()]
            while s[pos] == ",":
                pos += 1
                children.append(node())
            if s[pos] != ")":
                raise ValueError(f"expected ')' at {pos}")
            pos += 1
            read_label()  # internal label, ignored
            length = skip_length()
            return (tuple(children), length)
        name = read_label()
        names.append(name)
        length = skip_length()
        return (name, length)

    tree = node()
    if pos != len(s):
        raise ValueError(f"trailing newick content at {pos}: {s[pos:]!r}")
    return names, tree


# anchors of pitchsim.svg's colour ramp, written out again
RAMP_ANCHORS = (
    (0.000, (68, 1, 84)),
    (0.125, (72, 40, 120)),
    (0.250, (62, 74, 137)),
    (0.375, (49, 104, 142)),
    (0.500, (38, 130, 142)),
    (0.625, (31, 158, 137)),
    (0.750, (53, 183, 121)),
    (0.875, (109, 205, 89)),
    (1.000, (253, 231, 37)),
)


def color_ramp_scalar(t: float) -> str:
    """Hex colour of one value: clip to [0, 1], walk the segments, round each channel."""
    t = min(max(float(t), 0.0), 1.0)
    for (t0, c0), (t1, c1) in zip(RAMP_ANCHORS, RAMP_ANCHORS[1:]):
        if t <= t1:
            f = (t - t0) / (t1 - t0)
            r, g, b = (round(a + f * (b_ - a)) for a, b_ in zip(c0, c1))
            return f"#{r:02x}{g:02x}{b:02x}"
    r, g, b = RAMP_ANCHORS[-1][1]  # NaN compares false with every anchor
    return f"#{r:02x}{g:02x}{b:02x}"


def parse_by_rows(lines, first: int, extent, error: type[Exception]):
    """An activity CSV body read one row at a time through ``csv.reader``.

    ``lines`` is the body after the header and ``first`` the number of its
    first line. Rows with a negative value, then rows outside ``extent``
    (xmin, ymin, xmax, ymax) are dropped and counted. Returns each stripped
    player id's accepted ``(m, 3)`` rows of ``(x, y, value)`` in file order,
    players in first-seen order, and the (out of extent, negative) counts. A
    bad record raises ``error`` naming the first physical line it is on.
    """
    xmin, ymin, xmax, ymax = extent
    buffers: dict[str, array] = {}  # player id -> flat x, y, value buffer
    extends = {}  # player id -> bound extend of its buffer
    isfinite = math.isfinite
    out_of_extent = 0
    negative = 0
    reader = csv.reader(lines)
    start = 0  # lines read before the current record
    try:
        for row in reader:
            lineno, start = first + start, reader.line_num
            if len(row) != 4:
                if not row or (len(row) == 1 and not row[0].strip()):
                    continue
                raise error(f"line {lineno}: expected 4 fields, got {len(row)}")
            try:
                x = float(row[1])
                y = float(row[2])
                value = float(row[3])
            except ValueError:
                raise error(f"line {lineno}: non-numeric field in {row!r}") from None
            if not (isfinite(x) and isfinite(y) and isfinite(value)):
                raise error(f"line {lineno}: non-finite field in {row!r}")
            if value < 0:
                negative += 1
                continue
            if not (xmin <= x <= xmax and ymin <= y <= ymax):
                out_of_extent += 1
                continue
            pid = row[0].strip()
            extend = extends.get(pid)
            if extend is None:
                extend = extends[pid] = buffers.setdefault(pid, array("d")).extend
            extend((x, y, value))
    except csv.Error as exc:  # such as a field over csv.field_size_limit()
        raise error(f"line {first + start}: {exc}") from None
    groups = {pid: np.frombuffer(buf).reshape(-1, 3) for pid, buf in buffers.items()}
    return groups, (out_of_extent, negative)
