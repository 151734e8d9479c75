import pytest

from enctrust import she


@pytest.fixture
def made_keys(monkeypatch):
    """Every ``KeyPair`` that ``she.keygen`` returns during the test, in order."""
    made = []
    real_keygen = she.keygen

    def recording_keygen(params, rng):
        keys = real_keygen(params, rng)
        made.append(keys)
        return keys

    monkeypatch.setattr(she, "keygen", recording_keygen)
    return made
