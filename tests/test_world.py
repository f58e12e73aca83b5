import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hotspotplan import world
from hotspotplan.errors import IllegalAction
from hotspotplan.world import (
    HEADINGS,
    MOVES,
    GridDomain,
    RobotPose,
    TeamState,
    ConstrainedJointAction,
    Walk,
    constrained_actions,
    full_joint_actions,
    interior_heading,
    move_target,
    transition,
)


def state(poses, visited=None, budget=None):
    cells = {p.cell for p in poses}
    visited = cells if visited is None else set(visited) | cells
    return TeamState(tuple(poses), frozenset(visited), budget=budget)


def test_front_move_keeps_heading():
    p = RobotPose((2, 2), "N")
    q = move_target(p, "front")
    assert q.cell == (1, 2) and q.heading == "N"


def test_left_from_north_goes_west():
    q = move_target(RobotPose((2, 2), "N"), "left")
    assert q.cell == (2, 1) and q.heading == "W"


def test_right_from_south_goes_west():
    q = move_target(RobotPose((2, 2), "S"), "right")
    assert q.cell == (2, 1) and q.heading == "W"


def test_four_lefts_return_heading_tracing_distinct_cells():
    p = RobotPose((2, 2), "N")
    seen = []
    for _ in range(4):
        p = move_target(p, "left")
        seen.append(p.cell)
    assert p.heading == "N"
    assert p.cell == (2, 2)  # a 2x2 loop comes back home
    assert len(set(seen[:3])) == 3 and (2, 2) not in seen[:3]


def test_center_robot_has_three_actions():
    s = state([RobotPose((1, 1), "N")])
    acts = constrained_actions(s, GridDomain(3, 3))
    assert len(acts) == 3
    assert [a.move for a in acts] == ["front", "left", "right"]


def test_blocked_corner_has_no_actions():
    s = state([RobotPose((0, 0), "N")], visited={(0, 0), (0, 1)})
    assert constrained_actions(s, GridDomain(3, 3)) == []


def test_two_robots_disjoint_neighborhoods_give_six_actions():
    dom = GridDomain(7, 7)
    s = state([RobotPose((1, 1), "S"), RobotPose((5, 5), "N")])
    acts = constrained_actions(s, dom)
    # oracle: direct enumeration over robots and moves
    expected = []
    for i, pose in enumerate(s.poses):
        for move in ("front", "left", "right"):
            nxt = move_target(pose, move)
            if dom.contains(nxt.cell) and nxt.cell not in s.visited:
                expected.append((i, move))
    assert [(a.robot_index, a.move) for a in acts] == expected
    assert len(acts) == 6


def test_action_count_linear_in_team_size():
    rng = np.random.default_rng(3)
    dom = GridDomain(6, 6)
    for _ in range(50):
        k = int(rng.integers(1, 4))
        cells = [tuple(c) for c in rng.integers(0, 6, size=(k, 2))]
        if len(set(cells)) < k:
            continue
        poses = [RobotPose(c, "NESW"[rng.integers(4)]) for c in cells]
        extra = {tuple(c) for c in rng.integers(0, 6, size=(5, 2))}
        s = state(poses, visited=extra)
        assert len(constrained_actions(s, dom)) <= 3 * k


def test_transition_moves_one_robot_and_grows_visited():
    dom = GridDomain(4, 4)
    s = state([RobotPose((1, 1), "E"), RobotPose((3, 3), "N")])
    a = constrained_actions(s, dom)[0]
    s2 = transition(s, a, dom)
    assert len(s2.visited) == len(s.visited) + 1
    changed = [i for i in range(2) if s2.poses[i] != s.poses[i]]
    assert changed == [a.robot_index]
    assert s2.poses[a.robot_index].cell in s2.visited
    assert dom.contains(s2.poses[a.robot_index].cell)


def test_transition_rejects_illegal_moves():
    dom = GridDomain(3, 3)
    s = state([RobotPose((0, 0), "N")])
    with pytest.raises(IllegalAction):
        transition(s, ConstrainedJointAction(0, "front"), dom)  # leaves grid
    s2 = state([RobotPose((1, 1), "N")], visited={(0, 1)})
    with pytest.raises(IllegalAction):
        transition(s2, ConstrainedJointAction(0, "front"), dom)  # revisit


def test_budget_blocks_exhausted_robot():
    dom = GridDomain(4, 4)
    s = TeamState(
        (RobotPose((1, 1), "S"), RobotPose((3, 3), "N")),
        frozenset({(1, 1), (3, 3)}),
        steps=(1, 0),
        budget=1,
    )
    acts = constrained_actions(s, dom)
    assert all(a.robot_index == 1 for a in acts)
    with pytest.raises(IllegalAction):
        transition(s, ConstrainedJointAction(0, "front"), dom)


_ONE = (RobotPose((0, 0), "S"),)


@pytest.mark.parametrize("make, message", [
    (lambda: RobotPose((0, 0), "up"), "unknown heading 'up'"),
    (lambda: ConstrainedJointAction(0, "back"), "unknown move 'back'"),
    (lambda: TeamState((), frozenset()), "need at least one robot"),
    (lambda: TeamState(_ONE, frozenset({(0, 0)}), steps=(0, 0)), "steps length must match"),
    (lambda: TeamState(_ONE, frozenset()), "every robot pose must be an observed cell"),
    (lambda: TeamState(_ONE, frozenset({(0, 0)}), budget=-2), "budget -2 is negative"),
    (lambda: TeamState(_ONE, frozenset({(0, 0)}), steps=(5,), budget=2), r"below steps \(5,\)"),
], ids=["heading", "move", "no-robot", "steps-length", "unobserved-pose", "negative-budget",
        "steps-above-budget"])
def test_world_values_refuse_what_they_cannot_mean(make, message):
    with pytest.raises(ValueError, match=message):
        make()


def test_moves_left_is_the_team_budget_less_the_steps_taken():
    poses = (RobotPose((0, 0), "S"), RobotPose((3, 3), "N"))
    s = TeamState(poses, frozenset({(0, 0), (3, 3)}), steps=(2, 1), budget=3)
    assert s.moves_left == 3
    assert transition(s, ConstrainedJointAction(0, "front"), GridDomain(4, 4)).moves_left == 2
    assert TeamState(poses, s.visited, steps=(3, 3), budget=3).moves_left == 0
    assert TeamState(poses, s.visited, budget=0).moves_left == 0
    with pytest.raises(ValueError, match="without a budget"):
        TeamState(poses, s.visited).moves_left


def test_random_walk_never_revisits():
    rng = np.random.default_rng(11)
    dom = GridDomain(5, 5)
    s = state([RobotPose((2, 2), "N")])
    for _ in range(20):
        acts = constrained_actions(s, dom)
        if not acts:
            break
        before = set(s.visited)
        s = transition(s, acts[rng.integers(len(acts))], dom)
        new = set(s.visited) - before
        assert len(new) == 1 and next(iter(new)) not in before


def test_full_joint_single_robot_matches_constrained():
    dom = GridDomain(3, 3)
    s = state([RobotPose((1, 1), "N")])
    joint = full_joint_actions(s, dom)
    cons = constrained_actions(s, dom)
    assert [c[0] for c in joint] == [a.move for a in cons]


def test_full_joint_two_robots_disjoint_gives_nine():
    dom = GridDomain(7, 7)
    s = state([RobotPose((1, 1), "S"), RobotPose((5, 5), "N")])
    joint = full_joint_actions(s, dom)
    # oracle: product of per-robot legal moves, no shared targets here
    per = []
    for pose in s.poses:
        legal = [
            m
            for m in ("front", "left", "right")
            if dom.contains(move_target(pose, m).cell)
            and move_target(pose, m).cell not in s.visited
        ]
        per.append(legal)
    assert joint == [c for c in itertools.product(*per)]
    assert len(joint) == 9


def test_full_joint_excludes_collisions():
    dom = GridDomain(3, 3)
    # both robots can reach (1, 1); that combination must be excluded
    s = state([RobotPose((0, 1), "S"), RobotPose((2, 1), "N")], visited={(0, 0), (0, 2), (2, 0), (2, 2)})
    joint = full_joint_actions(s, dom)
    cells = [
        tuple(move_target(s.poses[i], m).cell for i, m in enumerate(combo))
        for combo in joint
    ]
    assert all(len(set(cs)) == 2 for cs in cells)
    # oracle: filtered product
    per = []
    for pose in s.poses:
        legal = [
            m
            for m in ("front", "left", "right")
            if dom.contains(move_target(pose, m).cell)
            and move_target(pose, m).cell not in s.visited
        ]
        per.append(legal)
    expected = [
        combo
        for combo in itertools.product(*per)
        if len({move_target(s.poses[i], m).cell for i, m in enumerate(combo)}) == 2
    ]
    assert joint == expected


def test_interior_heading_points_inward():
    dom = GridDomain(5, 5)
    assert interior_heading((0, 2), dom) == "S"
    assert interior_heading((4, 2), dom) == "N"
    assert interior_heading((2, 0), dom) == "E"
    assert interior_heading((2, 4), dom) == "W"


_DOMAINS = {}  # one domain per shape, so its move table outlives an example


@st.composite
def _walk_cases(draw):
    rows, cols = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    domain = _DOMAINS.setdefault((rows, cols), GridDomain(rows, cols))
    k = draw(st.integers(1, min(3, domain.size)))
    picked = draw(st.lists(st.sampled_from(domain.cells()), min_size=k,
                           max_size=min(k + 4, domain.size), unique=True))
    budget = draw(st.sampled_from([None, 1, 2, 3]))
    poses = tuple(RobotPose(c, draw(st.sampled_from(HEADINGS))) for c in picked[:k])
    steps = tuple(draw(st.integers(0, 3 if budget is None else budget)) for _ in range(k))
    robot = draw(st.none() | st.integers(0, k - 1))
    return domain, TeamState(poses, frozenset(picked), steps, budget), robot


@settings(max_examples=200, deadline=None)
@given(_walk_cases())
def test_walk_moves_read_the_same_while_each_is_stepped_and_undone(case):
    # a search reads moves() while it steps a move, goes deeper, and undoes
    # both before the next one: the reading must equal the whole list, read
    # by another walk on the same domain, which must be the legal moves in
    # robot, then front < left < right, order; and every pose in the
    # domain's move table holds its on-grid targets in that order
    domain, s, robot = case
    whole = list(Walk(s, domain).moves(robot))
    walk = Walk(s, domain)
    fresh = (list(walk.poses), list(walk.steps), set(walk.visited), walk.budget, [])
    read = []
    for i, mv, cell, heading in walk.moves(robot):
        read.append((i, mv, cell, heading))
        walk.step(i, cell, heading)
        deeper = list(walk.moves())[:1]
        for j, _, cell2, heading2 in deeper:
            walk.step(j, cell2, heading2)
        walk.undo(1 + len(deeper))
    assert read == whole
    assert (walk.poses, walk.steps, walk.visited, walk.budget, walk.trail) == fresh
    legal = [
        (i, mv, move_target(s.poses[i], mv).cell, move_target(s.poses[i], mv).heading)
        for i in (range(s.k) if robot is None else [robot])
        if s.budget is None or s.steps[i] < s.budget
        for mv in MOVES
        if domain.contains(move_target(s.poses[i], mv).cell)
        and move_target(s.poses[i], mv).cell not in s.visited
    ]
    assert whole == legal
    for (cell, heading), targets in domain.move_table.items():
        to = [move_target(RobotPose(cell, heading), mv) for mv in MOVES]
        assert targets == tuple((mv, t.cell, t.heading) for mv, t in zip(MOVES, to)
                                if domain.contains(t.cell))


def test_a_pose_with_no_on_grid_move_is_kept_in_the_move_table(monkeypatch):
    # on a 1x1 grid no move stays on the grid: the pose's empty target list
    # is filled in once, then read from the table
    calls = []

    def spy_move_target(pose, move):
        calls.append((pose, move))
        return move_target(pose, move)

    monkeypatch.setattr(world, "move_target", spy_move_target)
    domain = GridDomain(1, 1)
    s = TeamState((RobotPose((0, 0), "E"),), frozenset({(0, 0)}))
    for _ in range(3):
        assert list(Walk(s, domain).moves()) == [] and constrained_actions(s, domain) == []
    assert domain.move_table == {((0, 0), "E"): ()} and len(calls) == len(MOVES)
