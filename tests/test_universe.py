import collections
import json
import pathlib

import universe

DIGEST = pathlib.Path(__file__).parent / "golden" / "universe_digest.json"
# inputs per Albert type and inventory kind, at each weight
SIZE = {
    "I": (840, 840, 3_228, 6_528),
    "II": (357, 357, 4_368, 2_856),
    "III": (357, 357, 4_368, 2_856),
    "IV": (4_086, 4_086, 34_936, 28_272),
}


def test_the_universe_size_is_pinned(verdicts):
    counts = collections.Counter()
    for profile, subfields, _ in verdicts:
        kind = universe.inventory_kind(subfields)
        counts[profile.endo.albert_type, profile.weight, kind] += 1
    assert counts == {
        (t, w, kind): count
        for t, row in SIZE.items()
        for w in universe.WEIGHTS
        for kind, count in zip(universe.KINDS, row)
    }


def test_the_pass_classifies_each_input_once(universe_pass):
    verdicts, calls = universe_pass
    assert calls == list(universe.inputs())
    assert len(set(calls)) == len(calls) == len(verdicts)


def test_every_verdict_matches_the_digest(verdicts):
    classes = universe.digest(verdicts)["classes"]
    pinned = json.loads(DIGEST.read_text())["classes"]
    # golden/universe_diff.py lists the inputs of each changed class
    assert classes == pinned, [c for c in classes if c not in pinned]
