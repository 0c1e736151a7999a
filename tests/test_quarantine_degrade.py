"""Graceful-degradation tests: sanitizer, circuit breaker, budgets.

The degradation contract (DESIGN §11): anomalous replies are
quarantined before any analyzer sees them, repeatedly dead ping
targets are parked instead of burning retries, and exhausted retries
are accounted — all without crashing or corrupting the campaign
result.
"""

import pytest

from repro.campaign.degrade import CircuitBreaker
from repro.measure import MAX_MPLS_LABEL, inspect_reply
from repro.measure.backend import (
    ECHO_REPLY,
    TIME_EXCEEDED,
    ProbeBackend,
    ProbeReply,
    ProbeRequest,
)
from repro.measure.service import MeasurementPolicy, ProbeService

REQUEST = ProbeRequest("VP", 123, 4, 7)


def _reply(**overrides):
    fields = dict(
        probe_ttl=4,
        reply_kind=TIME_EXCEEDED,
        responder=456,
        reply_ttl=250,
        rtt_ms=3.5,
    )
    fields.update(overrides)
    return ProbeReply(**fields)


class TestInspectReply:
    def test_clean_reply_passes(self):
        assert inspect_reply(REQUEST, _reply()) is None
        assert (
            inspect_reply(REQUEST, _reply(reply_kind=ECHO_REPLY))
            is None
        )

    def test_unknown_kind(self):
        reply = _reply(reply_kind="redirect")
        assert inspect_reply(REQUEST, reply) == "unknown-kind"

    def test_missing_responder(self):
        reply = _reply(responder=None)
        assert inspect_reply(REQUEST, reply) == "missing-responder"

    @pytest.mark.parametrize("ttl", [0, 256, -3])
    def test_bogus_reply_ttl(self, ttl):
        reply = _reply(reply_ttl=ttl)
        assert inspect_reply(REQUEST, reply) == "bogus-reply-ttl"

    def test_negative_rtt(self):
        reply = _reply(rtt_ms=-0.1)
        assert inspect_reply(REQUEST, reply) == "negative-rtt"

    def test_malformed_label_entry(self):
        reply = _reply(quoted_labels=[(17,)])
        assert (
            inspect_reply(REQUEST, reply) == "malformed-label-entry"
        )

    def test_bogus_label_value(self):
        reply = _reply(quoted_labels=[(MAX_MPLS_LABEL + 1, 4)])
        assert inspect_reply(REQUEST, reply) == "bogus-label"

    def test_bogus_quoted_ttl(self):
        reply = _reply(quoted_labels=[(17, 0)])
        assert inspect_reply(REQUEST, reply) == "bogus-quoted-ttl"

    def test_spoofed_source_needs_validator(self):
        reply = _reply()
        assert inspect_reply(REQUEST, reply) is None
        assert (
            inspect_reply(REQUEST, reply, lambda address: False)
            == "spoofed-source"
        )
        assert (
            inspect_reply(REQUEST, reply, lambda address: True)
            is None
        )


class TestCircuitBreaker:
    def test_threshold_validation(self):
        with pytest.raises(ValueError):
            CircuitBreaker(0)

    def test_disabled_breaker_never_trips(self):
        breaker = CircuitBreaker(None)
        for _ in range(100):
            breaker.record("t", ok=False)
        assert not breaker.tripped("t")
        assert breaker.tripped_keys == []

    def test_trips_after_consecutive_misses(self):
        breaker = CircuitBreaker(3)
        breaker.record("t", ok=False)
        breaker.record("t", ok=False)
        assert not breaker.tripped("t")
        breaker.record("t", ok=False)
        assert breaker.tripped("t")

    def test_success_resets_the_streak(self):
        breaker = CircuitBreaker(2)
        breaker.record("t", ok=False)
        breaker.record("t", ok=True)
        breaker.record("t", ok=False)
        assert not breaker.tripped("t")

    def test_tripped_keys_in_trip_order(self):
        breaker = CircuitBreaker(1)
        breaker.record("b", ok=False)
        breaker.record("a", ok=False)
        breaker.record("b", ok=False)  # already tripped: no re-entry
        assert breaker.tripped_keys == ["b", "a"]


class SilentBackend(ProbeBackend):
    """Never answers: every probe is a timeout."""

    name = "silent"

    def __init__(self):
        self.submitted = 0

    def submit(self, request):
        """Count the attempt and time out."""
        self.submitted += 1
        return ProbeReply(probe_ttl=request.ttl)


class SpoofBackend(ProbeBackend):
    """Every reply claims to come from unallocated space."""

    name = "spoof"

    def submit(self, request):
        """Answer with a structurally valid but spoofed reply."""
        return ProbeReply(
            probe_ttl=request.ttl,
            reply_kind=TIME_EXCEEDED,
            responder=0xE0000001,
            reply_ttl=250,
        )


class TestRetryAccounting:
    def test_retries_exhausted_counter(self):
        backend = SilentBackend()
        service = ProbeService(
            backend, MeasurementPolicy(max_retries=2)
        )
        reply = service.traceroute_probe("VP", 99, 3, 1)
        assert reply.reply_kind is None
        assert backend.submitted == 3  # first attempt + 2 retries
        assert service.obs.metrics.get("measure.retries") == 2
        assert (
            service.obs.metrics.get("measure.retries_exhausted") == 1
        )


class TestServiceQuarantine:
    def _sanitizing_service(self):
        return ProbeService(
            SpoofBackend(),
            MeasurementPolicy(
                sanitize=True,
                address_validator=lambda address: False,
            ),
        )

    def test_quarantined_reply_becomes_timeout(self):
        service = self._sanitizing_service()
        reply = service.traceroute_probe("VP", 99, 3, 1)
        assert reply.reply_kind is None
        records = service.quarantine_records
        assert len(records) == 1
        record = records[0]
        assert record["reason"] == "spoofed-source"
        assert record["vp"] == "VP"
        assert record["dst"] == 99
        assert record["ttl"] == 3
        metrics = service.obs.metrics
        assert metrics.get("measure.quarantined") == 1
        assert (
            metrics.get("measure.quarantined.spoofed-source") == 1
        )

    def test_sanitize_off_lets_the_reply_through(self):
        service = ProbeService(SpoofBackend(), MeasurementPolicy())
        reply = service.traceroute_probe("VP", 99, 3, 1)
        assert reply.responder == 0xE0000001
        assert service.quarantine_records == []

    def test_quarantine_export_import_round_trip(self):
        service = self._sanitizing_service()
        for dst in (99, 100, 101):
            service.traceroute_probe("VP", dst, 3, 1)
        exported = service.export_quarantine(0)
        assert len(exported) == 3
        # Delta export: nothing new after the known watermark.
        assert service.export_quarantine(3) == []

        other = ProbeService(SpoofBackend(), MeasurementPolicy())
        other.import_quarantine(exported)
        assert other.quarantine_records == service.quarantine_records

        service.clear_quarantine()
        assert service.quarantine_records == []
