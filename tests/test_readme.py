import json
import re
from pathlib import Path
from types import SimpleNamespace

from schmidtgame import cli
from schmidtgame.alice import BiLipschitzMap
from schmidtgame.game import run_game, validate_transcript

README = Path(__file__).resolve().parent.parent / "README.md"


def block(heading: str, lang: str) -> str:
    """The first ```lang block under `heading`."""
    section = README.read_text(encoding="utf-8").split(heading, 1)[1]
    return re.search(r"```%s\n(.*?)```" % lang, section, re.S).group(1)


def test_library_use_example_runs():
    code = block("## Library use", "python")
    exec(compile(code, str(README), "exec"), {})


def test_spec_format_example_plays():
    doc = json.loads(block("### Game spec format", "json"))
    support, params, alice, bob, _, opening = cli.build_game(
        doc, SimpleNamespace(rounds=None, seed=None))
    transcript = run_game(support, params, alice, bob, 5, opening)
    validate_transcript(transcript, support)
    assert alice.phi == BiLipschitzMap.from_json(doc["alice"]["phi"])
