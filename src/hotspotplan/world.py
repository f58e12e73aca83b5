"""Grid world: domain, robot poses, action spaces, deterministic transitions.

Cells are ``(row, col)`` integer pairs. A robot has a heading and may move to
the cell in front of it or to its left or right; the heading after a move is
the direction of travel. Moves onto cells that were already observed are
illegal, so every path is self-avoiding. With ``k`` robots the constrained
action set lets exactly one robot move per stage, keeping its size at most
``3k``. :meth:`Walk.moves` enumerates the legal moves, for every transition,
policy and search; the walk is stepped and undone in place. It reads a pose's
on-grid targets from its domain's ``move_table``, filled on first read.
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
        object.__setattr__(self, "move_table", {})  # pose -> targets(pose), as read

    @property
    def size(self) -> int:
        return self.rows * self.cols

    def contains(self, cell: Cell) -> bool:
        r, c = cell
        return 0 <= r < self.rows and 0 <= c < self.cols

    def cells(self) -> list[Cell]:
        """All cells in row-major order."""
        return [(r, c) for r in range(self.rows) for c in range(self.cols)]

    def targets(self, pose: tuple[Cell, str]) -> tuple:
        """``(move, cell, heading)`` per on-grid move from a ``(cell, heading)``
        pose, front < left < right; :meth:`Walk.moves` keeps them in ``move_table``."""
        to = [(mv, move_target(RobotPose(*pose), mv)) for mv in MOVES]
        return tuple((mv, t.cell, t.heading) for mv, t in to if self.contains(t.cell))


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

    ``steps`` counts new cells each robot has taken, 0 to ``budget`` each:
    the plan's one length, which MES, MI and ``rollout`` read as :attr:`moves_left`.
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
        if min(self.steps) < 0:
            raise ValueError(f"steps {self.steps} must not be negative")
        if self.budget is not None and (self.budget < 0 or max(self.steps) > self.budget):
            raise ValueError(f"budget {self.budget} is negative or below steps {self.steps}")
        for p in self.poses:
            if p.cell not in self.visited:
                raise ValueError("every robot pose must be an observed cell")

    @property
    def k(self) -> int:
        return len(self.poses)

    @property
    def moves_left(self) -> int:
        """Moves the team may still take: ``k * budget`` less the steps taken."""
        if self.budget is None:
            raise ValueError("a state without a budget has no moves_left")
        return self.k * self.budget - sum(self.steps)


def move_target(pose: RobotPose, move: str) -> RobotPose:
    """Pose after a front/left/right move, ignoring legality."""
    dr, dc, heading = MOVE_DELTA[(pose.heading, move)]
    return RobotPose((pose.cell[0] + dr, pose.cell[1] + dc), heading)


class Walk:
    """A team state walked in place on ``domain``: ``(cell, heading)`` poses, step
    counts, visited set, the state's per-robot ``budget`` and the ``trail`` of
    steps to undo. :meth:`moves` is the one enumeration of legal moves: every
    transition, policy and search reads it."""

    def __init__(self, s: TeamState, domain: GridDomain):
        self.poses = [(p.cell, p.heading) for p in s.poses]
        self.steps, self.visited, self.domain = list(s.steps), set(s.visited), domain
        self.budget = s.budget
        self.trail = []

    def moves(self, robot: int | None = None):
        """Yield ``(robot, move, cell, heading)`` for every legal one-robot move
        (of robot ``robot`` alone, if given).

        Robots whose step count has reached ``budget`` do not move; a move must
        stay on the grid and land on an unvisited cell. Order: robot index, then
        front < left < right. A step taken while they are read is undone before
        the next.
        """
        poses, steps, visited, budget = self.poses, self.steps, self.visited, self.budget
        table = self.domain.move_table
        for i in range(len(poses)) if robot is None else (robot,):
            if budget is not None and steps[i] >= budget:
                continue
            targets = table.get(poses[i])
            if targets is None:
                targets = table[poses[i]] = self.domain.targets(poses[i])
            for mv, cell, nh in targets:
                if cell not in visited:
                    yield i, mv, cell, nh

    def step(self, i: int, cell: Cell, heading: str) -> None:
        self.trail.append((i, self.poses[i]))
        self.poses[i] = (cell, heading)
        self.steps[i] += 1
        self.visited.add(cell)

    def undo(self, count: int = 1) -> None:
        """Take back the last ``count`` steps."""
        for _ in range(count):
            i, pose = self.trail.pop()
            self.visited.discard(self.poses[i][0])
            self.poses[i] = pose
            self.steps[i] -= 1


def constrained_actions(s: TeamState, domain: GridDomain) -> list[ConstrainedJointAction]:
    """Legal one-robot moves, ordered by (robot_index, front<left<right)."""
    return [ConstrainedJointAction(i, mv) for i, mv, _, _ in Walk(s, domain).moves()]


def action_target(s: TeamState, a: ConstrainedJointAction) -> RobotPose:
    return move_target(s.poses[a.robot_index], a.move)


def transition(s: TeamState, a: ConstrainedJointAction, domain: GridDomain) -> TeamState:
    """Apply a constrained joint action; the new cell becomes observed."""
    if not (0 <= a.robot_index < s.k):
        raise IllegalAction(f"robot index {a.robot_index} out of range")
    for i, mv, cell, heading in Walk(s, domain).moves(a.robot_index):
        if mv == a.move:
            poses = list(s.poses)
            poses[i] = RobotPose(cell, heading)
            steps = list(s.steps)
            steps[i] += 1
            return TeamState(tuple(poses), s.visited | {cell}, tuple(steps), s.budget)
    cell = action_target(s, a).cell
    raise IllegalAction(f"robot {a.robot_index} may not move {a.move} to {cell}")


def full_joint_actions(s: TeamState, domain: GridDomain) -> list[tuple[str, ...]]:
    """Simultaneous joint moves: one front/left/right move per robot
    (the MASP action set, up to ``3**k`` per stage; no planner steps it).

    Returns tuples of per-robot move names; combinations sending two robots
    into the same cell are excluded.
    """
    per_robot: list[list[tuple]] = [[] for _ in s.poses]
    for i, mv, cell, _ in Walk(s, domain).moves():
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
