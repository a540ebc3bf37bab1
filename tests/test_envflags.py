"""The shared boolean environment-flag parser."""

import pytest

from repro.envflags import env_flag


@pytest.mark.parametrize(
    "value, expected",
    [(None, False), ("", False), ("0", False), ("1", True), ("yes", True), ("false", True),
     (" ", True), ("00", True)],
)
def test_env_flag_reads_only_unset_empty_and_zero_as_off(value, expected, monkeypatch):
    name = "REPRO_TEST_FLAG"
    if value is None:
        monkeypatch.delenv(name, raising=False)
    else:
        monkeypatch.setenv(name, value)
    assert env_flag(name) is expected
