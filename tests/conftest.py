import gc

import pytest

import universe


@pytest.fixture(scope="session")
def universe_pass():
    """The universe classified once per session: its verdicts, and the
    arguments of every ``classify`` call the pass made, in order."""
    calls = []
    classify = universe.classify

    def recorded(profile, subfields):
        calls.append((profile, subfields))
        return classify(profile, subfields)

    # everything the pass allocates lives for the session, so no collection
    # can free it: scanning it took a third of the pass, and a second
    # after, in the collections of later tests
    gc.disable()
    try:
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(universe, "classify", recorded)
            verdicts = universe.classify_all()
    finally:
        gc.freeze()
        gc.enable()
    return verdicts, calls


@pytest.fixture(scope="session")
def verdicts(universe_pass):
    return universe_pass[0]
