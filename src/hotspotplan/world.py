"""Grid world: domain, robot poses, action spaces, deterministic transitions.

Cells are ``(row, col)`` integer pairs. A robot has a heading and may move to
the cell in front of it or to its left or right; the heading after a move is
the direction of travel. Moves onto cells that were already observed are
illegal, so every path is self-avoiding. With ``k`` robots the constrained
action set lets exactly one robot move per stage, keeping its size at most
``3k``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from .errors import IllegalAction

Cell = tuple[int, int]

HEADINGS = ("N", "E", "S", "W")
MOVES = ("front", "left", "right")

# heading -> unit step (drow, dcol)
_STEP = {"N": (-1, 0), "E": (0, 1), "S": (1, 0), "W": (0, -1)}
# heading after turning left / right
_LEFT = {"N": "W", "W": "S", "S": "E", "E": "N"}
_RIGHT = {"N": "E", "E": "S", "S": "W", "W": "N"}

# (heading, move) -> (drow, dcol, new heading): the one table of move geometry
MOVE_DELTA = {}
for _h in HEADINGS:
    for _m in MOVES:
        _nh = _h if _m == "front" else (_LEFT[_h] if _m == "left" else _RIGHT[_h])
        _dr, _dc = _STEP[_nh]
        MOVE_DELTA[(_h, _m)] = (_dr, _dc, _nh)
del _h, _m, _nh, _dr, _dc


@dataclass(frozen=True)
class GridDomain:
    rows: int
    cols: int

    def __post_init__(self):
        if self.rows < 1 or self.cols < 1:
            raise ValueError("grid dimensions must be positive")

    @property
    def size(self) -> int:
        return self.rows * self.cols

    def contains(self, cell: Cell) -> bool:
        r, c = cell
        return 0 <= r < self.rows and 0 <= c < self.cols

    def cells(self) -> list[Cell]:
        """All cells in row-major order."""
        return [(r, c) for r in range(self.rows) for c in range(self.cols)]


@dataclass(frozen=True)
class RobotPose:
    cell: Cell
    heading: str

    def __post_init__(self):
        if self.heading not in HEADINGS:
            raise ValueError(f"unknown heading {self.heading!r}")


@dataclass(frozen=True)
class ConstrainedJointAction:
    """One robot moves front/left/right; the rest stay put."""

    robot_index: int
    move: str

    def __post_init__(self):
        if self.move not in MOVES:
            raise ValueError(f"unknown move {self.move!r}")


@dataclass(frozen=True)
class TeamState:
    """Poses of all robots plus the set of cells observed so far.

    ``steps`` counts new cells each robot has taken; a robot whose count has
    reached ``budget`` may no longer move (per-robot path-length constraint).
    """

    poses: tuple[RobotPose, ...]
    visited: frozenset[Cell]
    steps: tuple[int, ...] = field(default=())
    budget: int | None = None

    def __post_init__(self):
        if len(self.poses) < 1:
            raise ValueError("need at least one robot")
        if not self.steps:
            object.__setattr__(self, "steps", (0,) * len(self.poses))
        if len(self.steps) != len(self.poses):
            raise ValueError("steps length must match pose count")
        for p in self.poses:
            if p.cell not in self.visited:
                raise ValueError("every robot pose must be an observed cell")

    @property
    def k(self) -> int:
        return len(self.poses)


def move_target(pose: RobotPose, move: str) -> RobotPose:
    """Pose after a front/left/right move, ignoring legality."""
    dr, dc, heading = MOVE_DELTA[(pose.heading, move)]
    return RobotPose((pose.cell[0] + dr, pose.cell[1] + dc), heading)


def legal_moves(poses, visited, steps, budget, domain: GridDomain, robot: int | None = None):
    """Yield ``(robot, move, cell, heading)`` for every legal one-robot move
    (of robot ``robot`` alone, if given).

    ``poses`` holds ``(cell, heading)`` pairs. Robots whose step count has
    reached ``budget`` do not move; a move must stay on the grid and land on
    a cell not in ``visited``. Order: robot index, then front < left < right.
    """
    rows, cols = domain.rows, domain.cols
    for i in range(len(poses)) if robot is None else (robot,):
        if budget is not None and steps[i] >= budget:
            continue
        (r, c), hd = poses[i]
        for mv in MOVES:
            dr, dc, nh = MOVE_DELTA[(hd, mv)]
            r2, c2 = r + dr, c + dc
            if 0 <= r2 < rows and 0 <= c2 < cols and (r2, c2) not in visited:
                yield i, mv, (r2, c2), nh


def _pose_pairs(s: TeamState):
    return [(p.cell, p.heading) for p in s.poses]


def constrained_actions(s: TeamState, domain: GridDomain) -> list[ConstrainedJointAction]:
    """Legal one-robot moves, ordered by (robot_index, front<left<right)."""
    return [
        ConstrainedJointAction(i, mv)
        for i, mv, _, _ in legal_moves(_pose_pairs(s), s.visited, s.steps, s.budget, domain)
    ]


def action_target(s: TeamState, a: ConstrainedJointAction) -> RobotPose:
    return move_target(s.poses[a.robot_index], a.move)


def transition(s: TeamState, a: ConstrainedJointAction, domain: GridDomain) -> TeamState:
    """Apply a constrained joint action; the new cell becomes observed."""
    if not (0 <= a.robot_index < s.k):
        raise IllegalAction(f"robot index {a.robot_index} out of range")
    nxt = move_target(s.poses[a.robot_index], a.move)
    legal = legal_moves(_pose_pairs(s), s.visited, s.steps, s.budget, domain, a.robot_index)
    if a.move not in {mv for _, mv, _, _ in legal}:
        raise IllegalAction(f"robot {a.robot_index} may not move {a.move} to {nxt.cell}")
    poses = list(s.poses)
    poses[a.robot_index] = nxt
    steps = list(s.steps)
    steps[a.robot_index] += 1
    return TeamState(tuple(poses), s.visited | {nxt.cell}, tuple(steps), s.budget)


def full_joint_actions(s: TeamState, domain: GridDomain) -> list[tuple[str, ...]]:
    """Simultaneous joint moves: one front/left/right move per robot
    (the MASP action set, up to ``3**k`` per stage; no planner steps it).

    Returns tuples of per-robot move names; combinations sending two robots
    into the same cell are excluded.
    """
    per_robot: list[list[tuple]] = [[] for _ in s.poses]
    for i, mv, cell, _ in legal_moves(_pose_pairs(s), s.visited, s.steps, s.budget, domain):
        per_robot[i].append((mv, cell))
    if not all(per_robot):  # a robot is out of budget or boxed in
        return []
    out = []
    for combo in itertools.product(*per_robot):
        if len({cell for _, cell in combo}) == len(combo):
            out.append(tuple(mv for mv, _ in combo))
    return out


def interior_heading(cell: Cell, domain: GridDomain) -> str:
    """Heading pointing toward the grid interior (row axis on ties)."""
    r, c = cell
    dr = (domain.rows - 1) / 2 - r
    dc = (domain.cols - 1) / 2 - c
    if abs(dr) >= abs(dc):
        return "S" if dr >= 0 else "N"
    return "E" if dc >= 0 else "W"
