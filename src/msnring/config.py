"""Runtime limits shared across the package."""

import os

DEFAULT_UNIVERSE_CAP = 5000
DEFAULT_EXACT_CAP = 256
DEFAULT_VALIDATION_CAP = 512
DEFAULT_ENUMERATION_CAP = 10_000

ENV_UNIVERSE_CAP = "MSNRING_UNIVERSE_CAP"
ENV_EXACT_CAP = "MSNRING_EXACT_CAP"


def universe_cap() -> int:
    """Largest ring order any constructor will build."""
    return int(os.environ.get(ENV_UNIVERSE_CAP, DEFAULT_UNIVERSE_CAP))


def exact_cap() -> int:
    """Largest support block dimension accepted by the exact spectrum path."""
    return int(os.environ.get(ENV_EXACT_CAP, DEFAULT_EXACT_CAP))
