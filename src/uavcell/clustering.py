"""User clustering into disjoint elliptic cells.

The driver alternates between a silhouette-guided guess for the number of
clusters and a grow/split loop, then re-clusters any groups whose fitted
ellipses capture each other's users until every ellipse is user-disjoint.
The guess is scored in a helper process while the pool grows its first
cells, which every guess needs.
"""

from __future__ import annotations

import os
import signal
import threading
import warnings
from collections import Counter
from contextlib import contextmanager, nullcontext, suppress
from dataclasses import asdict, dataclass, field

import numpy as np

from .geometry import Ellipse, _radii, mvee

__all__ = [
    "AlgorithmTrace",
    "Cluster",
    "ClusterSet",
    "ClusteringConfig",
    "IterationRecord",
    "NoConvergenceError",
    "ellipse_clustering",
    "find_intersections",
    "grow_to_k",
    "select_k",
    "split_cluster",
]

_UNSPLITTABLE = float("-inf")
_SPLIT_MAX_ITERATIONS = 100  # 2-means rounds in split_cluster
# Cells a phase-1 pool is grown to while the helper scores its select_k: any
# count of three or more needs them, and at two the third is wasted, the same
# on every run.
_GROW_AHEAD = 3

# Pool appearances a user may accumulate before their pool is collapsed into a
# single ellipse instead of being re-split.
_MERGE_PATIENCE = 8


@dataclass
class ClusteringConfig:
    k_max: int = 8
    silhouette_buffer: int = 2
    max_outer_iterations: int = 50

    def __post_init__(self) -> None:
        if self.k_max < 1:
            raise ValueError("k_max must be at least 1")
        if self.silhouette_buffer < 0:
            raise ValueError("silhouette_buffer must be non-negative")
        if self.max_outer_iterations < 1:
            raise ValueError("max_outer_iterations must be at least 1")


@dataclass
class Cluster:
    members: frozenset[int]
    ellipse: Ellipse


@dataclass
class ClusterSet:
    """A set of clusters over one shared user array, indexed into ``users``."""

    users: np.ndarray
    clusters: list[Cluster]

    def member_points(self, m: int) -> np.ndarray:
        idx = sorted(self.clusters[m].members)
        return self.users[idx]


@dataclass
class IterationRecord:
    u_cond_size: int
    k_origin: int
    phase: int
    intersecting: tuple[int, ...]


@dataclass
class AlgorithmTrace:
    iterations: list[IterationRecord] = field(default_factory=list)
    converged: bool = False

    def to_dict(self) -> dict:
        iterations = [{**asdict(rec), "intersecting": list(rec.intersecting)} for rec in self.iterations]
        return {"converged": self.converged, "iterations": iterations}


class NoConvergenceError(RuntimeError):
    """Raised when intersections persist past the outer-iteration budget."""

    def __init__(self, message: str, trace: AlgorithmTrace):
        super().__init__(message)
        self.trace = trace


def _silhouettes(dist: np.ndarray, cuts: np.ndarray) -> np.ndarray:
    """Mean silhouette of every cut, one per row of ``cuts``, which label the
    points of the square distance matrix ``dist``.

    A label must name the same points in every cut that holds it, as
    ``_ward_cuts``' node ids do, so each label's rows are summed once.
    Points in singleton clusters contribute 0, as do points whose intra and
    inter distances are both zero (co-located duplicates).
    """
    nodes, own = np.unique(cuts, return_inverse=True)
    own = own.reshape(cuts.shape)
    points = np.arange(cuts.shape[1])
    members = np.zeros((len(nodes), len(points)), dtype=bool)
    members[own, points] = True
    sums = np.stack([dist[m].sum(axis=0) for m in members])  # sums[c, i]: point i to node c (dist is symmetric)
    counts = members.sum(axis=1)
    a = sums[own, points] / np.maximum(counts[own] - 1, 1)
    held = np.zeros((len(cuts), len(nodes)), dtype=bool)
    held[np.arange(len(cuts))[:, None], own] = True
    others = held[:, :, None] & (np.arange(len(nodes))[:, None] != own[:, None, :])
    b = np.where(others, sums / counts[:, None], np.inf).min(axis=1)
    denom = np.maximum(a, b)
    ok = (counts[own] > 1) & (denom > 0.0)
    return np.divide(b - a, denom, out=np.zeros_like(a), where=ok).mean(axis=1)


def select_k(points, k_limit: int) -> int:
    """Silhouette-optimal cluster count in {2, ..., min(k_limit, n)}.

    Ties break toward the smaller k; fewer than two points or a k_limit below 2 give 1.
    Inside ellipse_clustering's ``_growing_ahead`` block of ``points``, the
    scores come from the helper process.
    """
    pts = np.asarray(points, dtype=float)
    if min(len(pts), k_limit) < 2:
        return 1
    scores = _ahead.reply(points, k_limit)
    if scores is None:  # no job in the helper, or it died, raised or warned: raise and warn here
        scores = _scores(pts, k_limit)
    return 2 + int(np.argmax(scores))  # the first best: ties go to the smaller k


def _scores(pts: np.ndarray, k_limit: int) -> np.ndarray:
    """Mean silhouettes of the Ward cuts of ``pts`` into 2, ..., min(k_limit, n) clusters."""
    from scipy.cluster.hierarchy import linkage
    from scipy.spatial.distance import pdist, squareform

    condensed = pdist(pts)
    ks = list(range(2, min(k_limit, len(pts)) + 1))
    return _silhouettes(squareform(condensed), _ward_cuts(linkage(condensed, method="ward"), ks))


def _ward_cuts(z: np.ndarray, ks: list[int]) -> np.ndarray:
    """Leaf labels after the first n - k merges of ``z``, one row per k in ``ks``.

    Merges go in ``cut_tree``'s order (by height, ties in reverse breadth-first
    order from the root, right child first); a leaf's label is the node id of
    its highest ancestor formed by then, so a cluster has one label in every
    cut that holds it.  The finest cut is found by pointer doubling; each
    coarser cut follows that cut's heads on up the parent chain.
    """
    n = len(z) + 1
    kids = z[:, :2].astype(np.intp)
    visit, level = [], np.array([n - 2])
    while level.size:
        visit.append(level)
        level = kids[level, ::-1].ravel()
        level = level[level >= n] - n
    nodes = np.arange(2 * n - 1)
    parent, step = nodes.copy(), np.zeros_like(nodes)  # step: merges done once a node exists
    parent[kids] = nodes[n:, None]
    step[n + np.lexsort((-np.argsort(np.concatenate(visit)), z[:, 2]))] = nodes[1:n]
    up = np.where(step[parent] <= n - max(ks), parent, nodes)
    while not np.array_equal(jump := up[up], up):
        up = jump
    heads, own = np.unique(up[:n], return_inverse=True)
    parent, step, row, rows = parent.tolist(), step.tolist(), heads.tolist(), {}
    for k in sorted(set(ks), reverse=True):
        for i, h in enumerate(row):
            while parent[h] != h and step[parent[h]] <= n - k:
                row[i] = h = parent[h]
        rows[k] = row.copy()
    return np.array([rows[k] for k in ks])[:, own]


def _serve(conn, parent_end) -> None:
    """The helper's loop: score each (errstate, points, k_limit) job from
    ``conn`` and send back the scores, or None if scoring raised or warned,
    until the parent's end closes."""
    parent_end.close()  # this process's copy of the parent's end would hold off EOF
    signal.signal(signal.SIGINT, signal.SIG_IGN)  # an interrupt is for the parent to handle
    with suppress(EOFError, OSError):
        while True:
            errstate, pts, k_limit = conn.recv()
            with warnings.catch_warnings(record=True) as caught, np.errstate(**errstate):
                warnings.simplefilter("always")
                try:
                    scores = _scores(pts, k_limit)
                except Exception:  # the parent scores the pool again and raises it there
                    scores = None
            conn.send(None if caught else scores)


def _start_helper():
    """Fork the helper; returns (its process, the parent's end of its pipe)."""
    import multiprocessing

    context = multiprocessing.get_context("fork")
    parent_end, child_end = context.Pipe()
    proc = context.Process(target=_serve, args=(child_end, parent_end), name="uavcell-select_k", daemon=True)
    proc.start()
    child_end.close()
    return proc, parent_end


class _Helper:
    """The one process that scores select_k's cuts for ellipse_clustering.

    It is forked on first use.  A job holds ``lock`` from ``submit`` to
    ``reply``, so a second thread finds it busy and scores in-process.  Once
    the helper fails to start or dies, scoring stays in-process.
    """

    def __init__(self):
        self.lock = threading.Lock()
        self.proc = self.conn = None
        self.off = False

    def submit(self, pts: np.ndarray, k_limit: int) -> bool:
        """Send ``pts``' scoring job; False if the helper cannot take it."""
        if self.off or not self.lock.acquire(blocking=False):
            return False
        try:
            if self.proc is None:
                self.proc, self.conn = _start_helper()
            self.conn.send((np.geterr(), pts, k_limit))
            return True
        except (ImportError, ValueError, AssertionError, OSError):
            # no fork start method, a daemonic caller (it may have no children), no process or a dead one
            self.close()
            self.lock.release()
            return False

    def reply(self):
        """The submitted job's scores; None if scoring raised or warned, or the helper died."""
        try:
            return self.conn.recv()
        except BaseException as exc:
            self.close()  # after an interrupt the pipe may hold half a reply
            if isinstance(exc, (EOFError, OSError)):
                return None
            raise
        finally:
            self.lock.release()

    def close(self) -> None:
        """Turn the helper off; it reads EOF and exits."""
        self.off = True
        if self.conn is not None:
            self.conn.close()

    def forget(self) -> None:
        """In a forked child: leave the parent's helper to the parent."""
        if self.proc is None:
            return
        from multiprocessing import process

        process._children.discard(self.proc)  # or this child's exit would terminate and join it
        self.close()
        self.proc = None


_HELPER = _Helper()
if hasattr(os, "register_at_fork"):  # not on Windows, which has no fork and so no helper
    os.register_at_fork(after_in_child=lambda: _HELPER.forget())


class _Ahead(threading.local):
    """This thread's phase-1 pool, its job in the helper and its growth so far."""

    points = job = growth = None

    def send(self, points, k_limit: int) -> None:
        """Send ``points``' scoring to the helper, if it can take it."""
        self.job = (points, k_limit) if _HELPER.submit(points, k_limit) else None

    def reply(self, points, k_limit: int):
        """The helper's reply for ``points`` scored up to ``k_limit``, if it holds that job."""
        if self.job is None or self.job[0] is not points or self.job[1] != k_limit:
            return None
        self.job = None
        return _HELPER.reply()


_ahead = _Ahead()


@contextmanager
def _growing_ahead(points: np.ndarray, k_limit: int):
    """Send ``points``' select_k scoring to the helper and grow them to
    _GROW_AHEAD cells meanwhile; select_k and grow_to_k on ``points`` in the
    block take up both.  Without the helper the growth is the same."""
    if min(len(points), k_limit) < 2:  # select_k has nothing to score
        yield
        return
    _ahead.points, _ahead.growth = points, _Growth(points)
    _ahead.send(points, k_limit)
    try:
        _ahead.growth.to(_GROW_AHEAD)
        yield
    finally:
        if _ahead.job is not None:  # the block raised before select_k took the reply
            _ahead.job = None
            _HELPER.reply()
        _ahead.points = _ahead.growth = None


def split_cluster(points, centres: bool = False):
    """2-means split of ``points``; returns (idx_a, idx_b) local index arrays.

    Centers start at the farthest pair of points (first such pair on ties) so
    repeated runs agree bit for bit.  With ``centres`` it returns (idx_a,
    idx_b, means): the (2, 2) sub-centroids in the bits of each part's
    ``mean(axis=0)``.  Returns None when there is nothing to split.
    """
    pts = np.asarray(points, dtype=float)
    n = len(pts)
    if n < 2:
        return None
    i, j = _farthest_pair(pts)
    x, y = pts[:, 0], pts[:, 1]

    def means(assign, ones: int):  # bincount adds in index order, as a masked mean(axis=0) does
        (x0, x1), (y0, y1) = (np.bincount(assign, weights=v, minlength=2).tolist() for v in (x, y))
        return x0 / (n - ones), y0 / (n - ones), x1 / ones, y1 / ones

    (x0, y0), (x1, y1) = pts[i].tolist(), pts[j].tolist()
    assign = np.zeros(n, dtype=bool)  # False -> center 0
    for _ in range(_SPLIT_MAX_ITERATIONS):
        dx0, dy0, dx1, dy1 = x - x0, y - y0, x - x1, y - y1
        # the bits of np.linalg.norm per center
        new_assign = np.sqrt(dx1 * dx1 + dy1 * dy1) < np.sqrt(dx0 * dx0 + dy0 * dy0)
        ones = int(np.count_nonzero(new_assign))
        if ones in (0, n) or np.array_equal(new_assign, assign):
            break
        assign = new_assign
        x0, y0, x1, y1 = means(assign, ones)
    else:
        message = f"split_cluster: 2-means stopped at its cap of {_SPLIT_MAX_ITERATIONS} rounds on {n} points"
        warnings.warn(message, RuntimeWarning, stacklevel=2)
    # the centers are now the means of ``assign``'s parts, unless the first step ended the loop
    if not assign.any():
        # co-located points collapse onto one center; peel the pair point off
        assign[j] = True
        x0, y0, x1, y1 = means(assign, 1)
    parts = np.flatnonzero(~assign), np.flatnonzero(assign)
    return (*parts, np.array([[x0, y0], [x1, y1]])) if centres else parts


def _farthest_pair(pts: np.ndarray) -> tuple[int, int]:
    """First farthest pair (i, j) in row-major order over the indices of ``pts``.

    With R the largest distance from the centroid, reached at q, and D the
    largest distance from q, a farthest pair is at least D apart and each of
    its points lies within R of the centroid, so both lie at least D - R from
    it.  Only the pairs of that ring are compared, less a relative margin of
    1e-12 for rounding (which holds while no squared coordinate difference
    underflows).  When all points coincide all are on the ring and the pair
    is (0, 0).
    """
    from_center = np.hypot(*(pts - pts.mean(axis=0)).T)
    q = int(np.argmax(from_center))
    reach, far = from_center[q], np.hypot(*(pts - pts[q]).T).max()
    ring = np.flatnonzero(from_center >= far - reach - 1e-12 * (far + reach))
    a, b = divmod(int(np.argmax(_distance_matrix(pts[ring]))), len(ring))
    return int(ring[a]), int(ring[b])


def _distance_matrix(pts: np.ndarray) -> np.ndarray:
    """Square distance matrix of ``pts``, with the bits of ``squareform(pdist(pts))``."""
    dx, dy = (pts[:, d, None] - pts[:, d] for d in (0, 1))
    return np.sqrt(dx * dx + dy * dy)


def _split_priority(points, ellipse: Ellipse):
    """(priority, split_cluster parts) of one cluster.

    The priority is the sub-centroid separation over the full major-axis
    length; -inf flags an unsplittable cluster.
    """
    split = split_cluster(points, centres=True)
    if split is None:
        return _UNSPLITTABLE, None
    *parts, means = split
    gap = float(np.linalg.norm(means[0] - means[1]))
    major, _ = ellipse.semi_axes
    return gap / (2.0 * major), parts


def grow_to_k(points, k_origin: int) -> ClusterSet:
    """Split the worst cluster in two until ``k_origin`` clusters exist.

    Starts from the 2-means split of all points (one all-points cluster when
    ``k_origin`` or the point count is 1) and fits each cluster once.  Stops
    early if every cluster is a singleton.  Members are indices into ``points``.
    Inside ellipse_clustering's ``_growing_ahead`` block of ``points``, the
    splits go on from those already made there.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if pts.size == 0:
        raise ValueError("no points")
    if k_origin < 1:
        raise ValueError("k_origin must be at least 1")
    if not np.all(np.isfinite(pts)):
        raise ValueError("invalid point: coordinates must be finite")

    if k_origin == 1:
        groups, ellipses = [np.arange(len(pts))], [mvee(pts)]
    else:
        growth = _ahead.growth if points is _ahead.points else _Growth(pts)
        groups, ellipses = growth.to(k_origin)
    clusters = [Cluster(frozenset(g.tolist()), e) for g, e in zip(groups, ellipses)]
    return ClusterSet(users=pts, clusters=clusters)


class _Growth:
    """grow_to_k's splits of one point set, carried on as far as asked.

    The groups and ellipses at every count passed on the way are kept, so a
    count below the furthest one asked for reads its own back.
    """

    def __init__(self, pts: np.ndarray):
        self.kept: list[tuple[list, list]] = []
        self.steps = self._steps(pts)

    def to(self, k: int) -> tuple[list, list]:
        """(groups, ellipses) at ``k`` groups, or at the last split if no more are possible."""
        while not self.kept or len(self.kept[-1][0]) < k:
            step = next(self.steps, None)
            if step is None:
                break
            self.kept.append(step)
        return next((step for step in self.kept if len(step[0]) >= k), self.kept[-1])

    @staticmethod
    def _steps(pts: np.ndarray):
        """(groups, ellipses) after the 2-means split of all points, then after each split of the worst group."""
        parts = split_cluster(pts)
        groups: list[np.ndarray] = [np.arange(len(pts))] if parts is None else list(parts)
        ellipses = [mvee(pts[g]) for g in groups]
        # (priority, split) of each group, worked out once, when first needed
        splits: list[tuple | None] = [None] * len(groups)
        while True:
            yield groups.copy(), ellipses.copy()
            splits = [known or _split_priority(pts[g], e) for known, g, e in zip(splits, groups, ellipses)]
            t = int(np.argmax([score for score, _ in splits]))
            if splits[t][0] == _UNSPLITTABLE:
                return
            part_a, part_b = (groups[t][local] for local in splits[t][1])
            groups[t], ellipses[t], splits[t] = part_a, mvee(pts[part_a]), None
            groups.append(part_b)
            ellipses.append(mvee(pts[part_b]))
            splits.append(None)


def find_intersections(cs: ClusterSet) -> set[int]:
    """Indices of clusters that geometrically share at least one user.

    Cluster m intersects m' when some user of either lies inside both
    ellipses (boundary inclusive).
    """
    m = len(cs.clusters)
    if m < 2:
        return set()
    # every ellipse over every user at once: A is (2, 2, m, 1) and b (2, m, 1)
    A = np.stack([c.ellipse.A for c in cs.clusters], axis=-1)[..., None]
    b = np.stack([c.ellipse.b for c in cs.clusters], axis=-1)[..., None]
    inside = _radii(A, b, np.asarray(cs.users, dtype=float)) <= 1.0
    owner = np.zeros_like(inside)
    sizes = [len(c.members) for c in cs.clusters]
    owner[np.repeat(np.arange(m), sizes), [u for c in cs.clusters for u in c.members]] = True
    # shared[m, m'] is set when a user of m lies inside both ellipses; the
    # transpose covers the users of m'
    shared = (owner & inside) @ inside.T
    shared |= shared.T
    np.fill_diagonal(shared, False)
    return set(np.flatnonzero(shared.any(axis=1)).tolist())


def ellipse_clustering(
    users, cfg: ClusteringConfig | None = None
) -> tuple[int, ClusterSet, AlgorithmTrace]:
    """Partition users into disjoint elliptic cells.

    Outer loop: pick a cluster count for the unresolved users (silhouette in
    phase 1, one more than the previous overlap count in phase 2), grow to it,
    then send every cluster that shares a user back into the pool.  Finalized
    clusters stay in the intersection test so late refits cannot silently
    overlap them.  Returns (cluster count, clusters, trace); raises
    NoConvergenceError if overlap persists past the iteration budget.
    """
    cfg = cfg or ClusteringConfig()
    pts = np.atleast_2d(np.asarray(users, dtype=float))
    if pts.size == 0:
        raise ValueError("no users")
    if not np.all(np.isfinite(pts)):
        raise ValueError("invalid point: coordinates must be finite")

    trace = AlgorithmTrace()
    final: list[Cluster] = []
    u_cond = np.arange(len(pts))
    k_max = cfg.k_max
    phase = 1
    # highest cluster count already tried per unresolved pool; revisiting a
    # pool resumes one past it, otherwise the deterministic loop can cycle
    attempts: dict[frozenset[int], int] = {}
    # A contiguous patch of users may admit no disjoint-ellipse split at any
    # cluster count, in which case the only resolution is one ellipse over the
    # whole patch.  Users seen in the pool more than _MERGE_PATIENCE times mark
    # such a patch.  Visit counts never fall, so a later pool that absorbs a
    # collapsed one holds such a user too and collapses again.
    pool_visits: Counter[int] = Counter()
    for _ in range(cfg.max_outer_iterations):
        pool = frozenset(u_cond.tolist())
        pool_visits.update(pool)
        pool_pts, limit = pts[u_cond], k_max + cfg.silhouette_buffer
        collapse = max(pool_visits[i] for i in pool) > _MERGE_PATIENCE
        with _growing_ahead(pool_pts, limit) if phase == 1 and not collapse else nullcontext():
            if collapse:
                k_origin = 1
            else:
                k_origin = select_k(pool_pts, limit) if phase == 1 else k_max + 1
                prior = attempts.get(pool)
                if prior is not None and prior >= k_origin:
                    k_origin = prior + 1
                k_origin = min(k_origin, len(u_cond))
                attempts[pool] = k_origin
            grown = grow_to_k(pool_pts, k_origin)
        fresh = [Cluster(frozenset(u_cond[list(c.members)].tolist()), c.ellipse) for c in grown.clusters]
        combined = ClusterSet(users=pts, clusters=final + fresh)
        flagged = find_intersections(combined)
        trace.iterations.append(
            IterationRecord(
                u_cond_size=len(u_cond),
                k_origin=k_origin,
                phase=phase,
                intersecting=tuple(sorted(flagged)),
            )
        )
        final = [c for i, c in enumerate(combined.clusters) if i not in flagged]
        if not flagged:
            trace.converged = True
            return len(final), ClusterSet(users=pts, clusters=final), trace
        u_cond = np.array(sorted(set().union(*(combined.clusters[i].members for i in flagged))), dtype=int)
        k_max = len(flagged)
        phase = 2 if len(flagged) == k_origin else 1
    raise NoConvergenceError(
        f"no convergence after {cfg.max_outer_iterations} iterations "
        f"({len(u_cond)} users unresolved)",
        trace,
    )
