"""Runtime limits shared across the package, and the reader of user integers."""

import os
import re

DEFAULT_UNIVERSE_CAP = 5000
DEFAULT_EXACT_CAP = 256
DEFAULT_VALIDATION_CAP = 512
DEFAULT_ENUMERATION_CAP = 10_000

ENV_UNIVERSE_CAP = "MSNRING_UNIVERSE_CAP"
ENV_EXACT_CAP = "MSNRING_EXACT_CAP"

_DECIMAL = re.compile(r"-?[0-9]+")


def parse_decimal(text: str) -> int:
    """An integer written in ASCII decimal digits, with an optional
    leading minus sign.

    Raises ValueError on anything else, including what int() accepts
    beyond that: digits of other scripts, underscores, a plus sign and
    surrounding whitespace.
    """
    if not _DECIMAL.fullmatch(text):
        raise ValueError(f"invalid decimal integer {text!r}")
    return int(text)


def _env_int(name: str, default: int) -> int:
    try:
        value = parse_decimal(os.environ.get(name, str(default)))
    except ValueError as exc:
        raise ValueError(f"{name}: {exc}") from None
    if value < 0:
        raise ValueError(f"{name}: a cap must be at least 0, got {value}")
    return value


def universe_cap() -> int:
    """Largest ring order any constructor will build."""
    return _env_int(ENV_UNIVERSE_CAP, DEFAULT_UNIVERSE_CAP)


def exact_cap() -> int:
    """Largest support block dimension accepted by the exact spectrum
    path; if it is at least 1, a block of a single twin class is accepted
    at any size."""
    return _env_int(ENV_EXACT_CAP, DEFAULT_EXACT_CAP)
