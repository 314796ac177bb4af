"""Runtime caps and the strict reader of user-supplied integers."""

import pytest

from msnring import config
from msnring.config import exact_cap, parse_decimal, universe_cap

NOT_ASCII_DECIMAL = ["١٠", "1_0", "+10", " 10", "10 ", "10.0", "１０", "", "-"]


def test_parse_decimal_accepts_ascii_decimals():
    assert parse_decimal("10") == 10
    assert parse_decimal("-3") == -3
    assert parse_decimal("007") == 7


@pytest.mark.parametrize("text", NOT_ASCII_DECIMAL)
def test_parse_decimal_rejects_what_int_would_coerce(text):
    with pytest.raises(ValueError, match="invalid decimal integer"):
        parse_decimal(text)


def test_parse_decimal_has_one_home():
    # rings and graphs use the reader, and keep no copy of their own
    from msnring import graphs, rings
    assert rings.parse_decimal is graphs.parse_decimal is config.parse_decimal
    assert not hasattr(rings, "_DECIMAL")


@pytest.mark.parametrize("cap, env", [(universe_cap, "MSNRING_UNIVERSE_CAP"),
                                      (exact_cap, "MSNRING_EXACT_CAP")])
def test_caps_read_strict_integers(monkeypatch, cap, env):
    monkeypatch.delenv(env, raising=False)
    default = cap()
    monkeypatch.setenv(env, "10")
    assert cap() == 10
    for text in [*NOT_ASCII_DECIMAL, "-1"]:
        monkeypatch.setenv(env, text)
        with pytest.raises(ValueError, match=env):
            cap()
    monkeypatch.setenv(env, "0")
    assert cap() == 0
    monkeypatch.delenv(env)
    assert cap() == default
