"""Structured failure context on transport errors (satellite a).

A chaos report must localize a failure from the exception object alone:
edge, epoch, partition runs, retry budgets — no trace spelunking.
"""

import pytest

from repro.core import FixedAggregation, NativeSpec
from repro.errors import (
    ChannelDownError,
    MPIError,
    RetryExhaustedError,
    TransportError,
)
from repro.faults import FaultSchedule
from repro.units import us
from tests.test_faults.test_recovery import recovery_config, run_faulty_roundtrip


# -- construction ------------------------------------------------------


def test_retry_exhausted_carries_full_context():
    err = RetryExhaustedError(
        "send retries exhausted", edge=(0, 1), epoch=3,
        partitions=((0, 4),), retries={"retry_cnt": 2, "rnr_retry": 1},
        wr_id=17, qp_num=5, status="RETRY_EXC_ERR")
    assert isinstance(err, TransportError)
    assert err.context == {
        "edge": (0, 1), "epoch": 3, "partitions": ((0, 4),),
        "retries": {"retry_cnt": 2, "rnr_retry": 1},
        "wr_id": 17, "qp_num": 5, "status": "RETRY_EXC_ERR"}
    msg = str(err)
    assert msg.startswith("send retries exhausted [")
    assert "edge=(0, 1)" in msg
    assert "epoch=3" in msg


def test_channel_down_carries_context():
    err = ChannelDownError("channel dead", edge=(2, 4), epoch=1)
    assert isinstance(err, MPIError)
    assert err.context == {"edge": (2, 4), "epoch": 1}
    assert "edge=(2, 4)" in str(err)


def test_plain_message_construction_still_works():
    err = ChannelDownError("just a message")
    assert err.context == {}
    assert str(err) == "just a message"


def test_unknown_context_fields_are_rejected():
    with pytest.raises(TypeError):
        RetryExhaustedError("boom", rank=3)


# -- the fields survive the raise path ---------------------------------


@pytest.mark.faults
def test_exhaustion_error_localizes_the_failed_edge():
    sched = (FaultSchedule(allow_reconnect=False)
             .link_flap(0, 1, start=us(50), duration=1.0))
    def spec():
        return NativeSpec(FixedAggregation(2, 1))
    with pytest.raises(RetryExhaustedError) as excinfo:
        run_faulty_roundtrip(spec, sched, config=recovery_config())
    ctx = excinfo.value.context
    cfg = recovery_config()
    assert ctx["edge"] == (0, 1)
    assert ctx["epoch"] >= 1
    assert ctx["retries"] == {"retry_cnt": cfg.nic.retry_cnt,
                              "rnr_retry": cfg.nic.rnr_retry}
    assert ctx["qp_num"] is not None
    assert ctx["status"]
