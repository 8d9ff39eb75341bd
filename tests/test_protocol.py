"""The strategy protocol: a strategy answers the last ball, move(support,
params, ball) and danger_preview(ball), and only `game` keeps the game
record, so no other module builds a `Transcript` or appends to its moves.
A move is a point of K, (center, word), and `game` supplies its radius, so
the strategies build no `Ball` but the one a preview reads.  Each of
Alice's schedules is one object that keeps its own state, so `alice` has
no separate state class and no function of a state."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "schmidtgame"


def protocol_breaches(tree):
    """(line, what) for each second game record or transcript parameter."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            f = node.func
            name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
            if name == "Transcript":
                yield node.lineno, "Transcript()"
            elif (name == "append" and isinstance(f.value, ast.Attribute)
                  and f.value.attr == "moves"):
                yield node.lineno, "moves.append"
        elif (isinstance(node, ast.FunctionDef)
              and node.name in ("move", "danger_preview")):
            yield from ((node.lineno, "%s(transcript)" % node.name)
                        for a in node.args.args if a.arg == "transcript")


def test_guard_sees_each_kind():
    code = ("t = Transcript(p)\nu = game.Transcript(p, [])\n"
            "t.moves.append(x)\nclass S:\n"
            "    def move(self, support, params, transcript):\n"
            "        return None\n"
            "    def danger_preview(self, transcript):\n"
            "        return []\n")
    assert sorted(protocol_breaches(ast.parse(code))) == [
        (1, "Transcript()"), (2, "Transcript()"), (3, "moves.append"),
        (5, "move(transcript)"), (7, "danger_preview(transcript)")]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_only_game_keeps_the_record(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    allowed = ("Transcript()", "moves.append") if path.name == "game.py" else ()
    assert [b for b in protocol_breaches(tree) if b[1] not in allowed] == []


def ball_builders(tree):
    """The module's functions, as "name" or "Class.name", that call Ball."""
    defs = [(node, "") for node in tree.body]
    for node, owner in defs:
        if isinstance(node, ast.ClassDef):
            defs.extend((item, node.name + ".") for item in node.body)
        elif isinstance(node, ast.FunctionDef) and any(
                isinstance(call, ast.Call)
                and getattr(call.func, "id", None) == "Ball"
                for call in ast.walk(node)):
            yield owner + node.name


def test_ball_guard_sees_each_kind():
    code = ("def f(x):\n    return Ball(x, 1)\n"
            "def g(x):\n    return x.center, x.word\n"
            "class S:\n    def move(self, b):\n        return [Ball(b, 1)]\n")
    assert list(ball_builders(ast.parse(code))) == ["f", "S.move"]


@pytest.mark.parametrize("name, allowed", [
    ("alice.py", ["InterleaveStrategy.move"]), ("bob.py", [])])
def test_the_engine_supplies_every_radius(name, allowed):
    path = SRC / name
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    assert list(ball_builders(tree)) == allowed


def state_breaches(tree):
    """(line, what) for each state class, or module-level function taking
    a state, outside the strategy objects."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef) and node.name.endswith("State"):
            yield node.lineno, "class %s" % node.name
        elif isinstance(node, ast.FunctionDef) and any(
                a.arg == "state" for a in (*node.args.posonlyargs,
                                           *node.args.args,
                                           *node.args.kwonlyargs)):
            yield node.lineno, "%s(state)" % node.name


def test_state_guard_sees_each_kind():
    code = ("class LacunaryStrategyState:\n    pass\n"
            "def plan(x):\n    return x\n"
            "def lacunary_move(state, ball):\n    return ball\n"
            "class S:\n    def move(self, state):\n        return state\n")
    assert list(state_breaches(ast.parse(code))) == [
        (1, "class LacunaryStrategyState"), (5, "lacunary_move(state)")]


def test_each_schedule_is_one_object():
    path = SRC / "alice.py"
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    assert list(state_breaches(tree)) == []
