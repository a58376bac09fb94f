"""The attributes the pipeline benchmark's tracing wraps still exist.

``pipebench/tracing.py`` times each layer by replacing public entry
points by name: module globals where the caller looks a function up,
class attributes for methods.  A rename would not break the program,
only silently drop a layer from traced benchmark runs, so this test
fails tier-1 instead.
"""

from __future__ import annotations

import pytest

from repro.net import client, server
from repro.service.gateway import ServiceGateway
from repro.service.merge import EventTimeMerger, GlobalMerger
from repro.service.partition import Router
from repro.service.shard import ShardState
from repro.service.transport.shm import ShardChannel
from repro.stream.engine import StreamEngine
from repro.stream.outoforder import TimestampReorderBuffer

HOOKS = [
    (server, "try_decode_frame_traced"),
    (server, "encode_answers"),
    (server, "encode_frame"),
    (client, "encode_frame"),
    (client, "pack_column"),
    (ServiceGateway, "submit_many"),
    (ServiceGateway, "submit_events"),
    (ServiceGateway, "submit_column"),
    (ServiceGateway, "poll_traced"),
    (Router, "put"),
    (Router, "put_many"),
    (Router, "put_column"),
    (Router, "put_event"),
    (Router, "flush"),
    (TimestampReorderBuffer, "push_into"),
    (TimestampReorderBuffer, "push_many_into"),
    (ShardChannel, "encode_batch"),
    (ShardState, "process"),
    (GlobalMerger, "on_output"),
    (EventTimeMerger, "on_output"),
    (StreamEngine, "feed_many"),
]


@pytest.mark.parametrize(
    "owner, attribute",
    HOOKS,
    ids=[f"{owner.__name__}.{attribute}" for owner, attribute in HOOKS],
)
def test_benchmark_hook_exists_and_is_callable(owner, attribute):
    assert callable(getattr(owner, attribute, None))



def test_mergers_do_not_inherit_from_each_other():
    """The tracing wraps ``on_output`` on both merger classes in turn.

    If one merger subclassed the other and inherited the wrapped
    method, a traced run would nest two ``service.merge`` spans per
    output and count ``service.merge.answers`` twice — without any
    error, only wrong layer figures.  The mergers may share a private
    base; they must not derive from each other.
    """
    assert not issubclass(GlobalMerger, EventTimeMerger)
    assert not issubclass(EventTimeMerger, GlobalMerger)
