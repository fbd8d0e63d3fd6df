"""The exact correctness gate every benchmark response goes through.

A response passes only if

1. it completed with a path that starts at the request's ``q_start``, ends
   at its ``q_goal``, and on which a scalar, cache-off checker over the
   request's epoch octree finds no colliding interpolated pose; and
2. it is bit-identical to the solo reference for the same request: equal
   waypoints (``np.array_equal``), equal ``CollisionStats.as_dict()`` and
   equal ``num_phases``.

Failure reasons split in two.  A *wrong answer* (endpoints, collision,
path mismatch) is a path no client may be given; any one makes the run
incorrect.  A *failed operation* (not completed, no path, stats or phase
mismatch) counts against ``failed`` and ``ok_share``: the accounting is
wrong or the request was refused, but no unsafe path was emitted.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional, Sequence

import numpy as np

from repro import api
from repro.config import ReproConfig

WRONG_ANSWER = ("endpoints", "collision", "path_mismatch")


@dataclass(frozen=True)
class Outcome:
    """What the program returned for one plan request."""

    status: str
    path: Optional[Sequence[np.ndarray]]
    stats: Dict[str, object]
    num_phases: int


@dataclass(frozen=True)
class Verdict:
    reason: str

    @property
    def ok(self) -> bool:
        return self.reason == "ok"

    @property
    def wrong_answer(self) -> bool:
        return self.reason in WRONG_ANSWER


def _same_path(a, b) -> bool:
    return len(a) == len(b) and all(np.array_equal(x, y) for x, y in zip(a, b))


class PathChecker:
    """Scalar, cache-off motion checks over one octree."""

    def __init__(self, robot, octree):
        self.checker = api.make_checker(robot, octree, ReproConfig(collect_stats=False))

    def is_free(self, path) -> bool:
        """No interpolated pose of any path segment collides."""
        return all(
            self.checker.motion_is_free(a, b) for a, b in zip(path[:-1], path[1:])
        )


def check(
    q_start,
    q_goal,
    outcome: Outcome,
    reference: Outcome,
    path_is_free: Callable[[Sequence[np.ndarray]], bool],
) -> Verdict:
    """The gate's verdict for one response against its solo reference.

    ``path_is_free`` is the scalar path check on the request's epoch
    octree (:meth:`PathChecker.is_free`).
    """
    if outcome.status != "completed":
        return Verdict("not_completed")
    path = outcome.path
    if not path:
        return Verdict("no_path")
    if not (np.array_equal(path[0], q_start) and np.array_equal(path[-1], q_goal)):
        return Verdict("endpoints")
    if not path_is_free(path):
        return Verdict("collision")
    if reference.path is None or not _same_path(path, reference.path):
        return Verdict("path_mismatch")
    if outcome.stats != reference.stats:
        return Verdict("stats_mismatch")
    if outcome.num_phases != reference.num_phases:
        return Verdict("phases_mismatch")
    return Verdict("ok")
