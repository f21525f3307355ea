"""``repro.shape.check``, the one shape check every document the farm
reads from outside goes through, stated on the tables that use it."""

from __future__ import annotations

import pytest

from repro.parallel.campaign import CAMPAIGN, SHARD_SPEC
from repro.shape import ShapeError, check
from repro.verify.certificate import CERTIFICATE

SHARD = {"index": 0, "task": "pkg.module:task"}
CERT = {"label": "x", "digest": "0", "states_explored": 1,
        "leak_count": 0, "result": "CONTAINED", "grants": []}


def case(id, table, document, refusal=None):
    return pytest.param(table, document, refusal, id=id)


@pytest.mark.parametrize("table, document, refusal", [
    # A nested place is named by its path.
    case("nested-field", CAMPAIGN,
         {"name": "c", "shards": [SHARD, dict(SHARD, index="1")]},
         "Campaign.shards[1] field 'index' must be int, got str"),
    case("nested-object", CAMPAIGN, {"name": "c", "shards": [SHARD, None]},
         "Campaign.shards[1] must be a JSON object, got NoneType"),
    # Every unknown key at once, at any depth.
    case("unknown-keys-at-once", CAMPAIGN,
         {"name": "c", "shards": [], "vlans": [1], "hosts": []},
         "unknown Campaign keys: ['hosts', 'vlans']"),
    case("nested-unknown-keys-at-once", CAMPAIGN,
         {"name": "c", "shards": [dict(SHARD, host="a", cpus=8)]},
         "unknown Campaign.shards[0] keys: ['cpus', 'host']"),
    # A bool is no int and no number.
    case("bool-is-no-int", SHARD_SPEC, dict(SHARD, index=True),
         "ShardSpec field 'index' must be int, got bool"),
    case("bool-is-no-number", SHARD_SPEC, dict(SHARD, timeout=False),
         "ShardSpec field 'timeout' must be int or float, got bool"),
    # null passes where the default is None, and only there.
    case("null-where-required", SHARD_SPEC, dict(SHARD, task=None),
         "ShardSpec field 'task' must be str, got NoneType"),
    case("null-where-the-default-is-not-none", CAMPAIGN,
         {"name": "c", "shards": [], "base_seed": None},
         "Campaign field 'base_seed' must be int, got NoneType"),
    case("null-where-the-default-is-none", SHARD_SPEC,
         dict(SHARD, timeout=None, label=None)),
    # An open table keeps the keys it does not name and checks the
    # ones it does.
    case("open-table-keeps-other-keys", CERTIFICATE,
         dict(CERT, verifier="z3")),
    case("open-table-checks-its-keys", CERTIFICATE,
         dict(CERT, leak_count=True),
         "certificate field 'leak_count' must be int, got bool"),
    case("open-table-requires-its-keys", CERTIFICATE,
         {key: CERT[key] for key in CERT if key != "digest"},
         "certificate field 'digest' is required"),
])
def test_check(table, document, refusal):
    if refusal is None:
        defaults = {key: default
                    for key, (_kind, default) in table.fields.items()}
        assert check(table, document) == dict(defaults, **document)
        return
    with pytest.raises(ShapeError) as excinfo:
        check(table, document)
    assert str(excinfo.value) == refusal
    assert isinstance(excinfo.value, ValueError)
