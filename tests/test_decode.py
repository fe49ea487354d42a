"""The one decoder of outside input, errors.decode, where no scenario,
config or request test reaches it."""

from __future__ import annotations

import pytest

from dataloa.cli import _read_record
from dataloa.errors import MalformedInput, decode
from dataloa.model import TrustClaim


@pytest.mark.parametrize("value, spec, read", [
    (2.0, int, 2),  # integral, as JSON Schema's "integer" reads it
    (3.0, {1, 2, 3}, 3),
    ({}, {"reason": (str, "")}, {"reason": ""}),
    ([1, 2.0], [int], (1, 2)),  # a list reads as a tuple
])
def test_accepted_values(value, spec, read):
    assert decode(value, spec, "x") == read
    assert type(decode(value, spec, "x")) is type(read)


@pytest.mark.parametrize("value, spec, message", [
    (True, {1, 2, 3}, "x: expected an integer, got True"),
    (float("inf"), int, "x: expected an integer, got inf"),
    ({"a": [1, "2"]}, {"a": [int]}, "x.a[1]: expected an integer, got str"),
    ({"a": "b"}, {"a": lambda v: int(v)}, "x.a: invalid literal for int()"),
])
def test_refusals_name_the_path(value, spec, message):
    with pytest.raises(MalformedInput) as excinfo:
        decode(value, spec, "x")
    assert str(excinfo.value).startswith(message)


@pytest.mark.parametrize("text", ["[1]", "{}", "not json"])
def test_cli_record_of_the_wrong_shape_is_malformed_input(tmp_path, text):
    path = tmp_path / "claim.json"
    path.write_text(text)
    with pytest.raises(MalformedInput, match="is not a TrustClaim record"):
        _read_record(TrustClaim, str(path))
