"""The strategy protocol: a strategy answers the last ball, move(support,
params, ball) and danger_preview(ball), and only `game` keeps the game
record, so no other module builds a `Transcript` or appends to its moves.
A move is a point of K, (center, word), and `game` supplies its radius:
only its radius ladder builds a `Ball`, besides the spec's opening that
`cli` reads, and a preview reads the ball Bob is answering.  Each of
Alice's schedules is one object that keeps its own state, so `alice` has
no separate state class and no function of a state.  Only `game` sets a
ball's radius counts, in one helper that computes the radius they count."""

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
                isinstance(call, ast.Call) and "Ball" in (
                    getattr(call.func, "id", None),
                    getattr(call.func, "attr", None))
                for call in ast.walk(node)):
            yield owner + node.name


def test_ball_guard_sees_each_kind():
    code = ("def f(x):\n    return Ball(x, 1)\n"
            "def g(x):\n    return x.center, x.word\n"
            "def h(x):\n    return game.Ball(x, 1)\n"
            "class S:\n    def move(self, b):\n        return [Ball(b, 1)]\n")
    assert list(ball_builders(ast.parse(code))) == ["f", "h", "S.move"]


# the ladder's two steps, and the spec's opening, which starts a ladder
BALL_BUILDERS = {"game.py": ["_ladder_start", "_ladder_step"],
                 "cli.py": ["build_opening"]}


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_the_engine_supplies_every_radius(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    assert list(ball_builders(tree)) == BALL_BUILDERS.get(path.name, [])


def count_setters(tree):
    """(line, how) for each place that sets a ball's `_counts` field."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr == "_counts" \
                and not isinstance(node.ctx, ast.Load):
            yield node.lineno, "attribute"
        elif (isinstance(node, ast.Subscript)
              and not isinstance(node.ctx, ast.Load)
              and getattr(node.slice, "value", None) == "_counts"):
            yield node.lineno, "item"
        elif isinstance(node, ast.Call):
            f = node.func
            name = getattr(f, "id", None) or getattr(f, "attr", None)
            if name in ("setattr", "__setattr__") and any(
                    getattr(a, "value", None) == "_counts" for a in node.args):
                yield node.lineno, "setattr"
            yield from ((node.lineno, "keyword") for k in node.keywords
                        if k.arg == "_counts")


def test_count_guard_sees_each_kind():
    code = ('object.__setattr__(b, "_counts", c)\nsetattr(b, "_counts", c)\n'
            'b._counts = c\nb.__dict__["_counts"] = c\n'
            'Ball(x, r, _counts=c)\nreplace(b, _counts=c)\n'
            'c = b._counts\nc = getattr(b, "_counts")\n'
            'c = b.__dict__["_counts"]\n'
            'class Ball:\n    _counts: tuple = None\n')
    assert sorted(count_setters(ast.parse(code))) == [
        (1, "setattr"), (2, "setattr"), (3, "attribute"), (4, "item"),
        (5, "keyword"), (6, "keyword")]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_only_game_sets_counts(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    setters = [node.name for node in tree.body
               if isinstance(node, ast.FunctionDef)
               for _ in count_setters(node)]
    expected = ["_with_counts"] if path.name == "game.py" else []
    assert setters == expected
    assert len(list(count_setters(tree))) == len(expected)


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
