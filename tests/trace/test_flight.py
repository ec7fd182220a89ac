"""The flight recorder: bounded ring, no-allocation writes, crash bundles."""

import json
import logging

from repro.trace import (
    FlightRecorder,
    Trace,
    TraceContext,
    flight_recorder,
    install_flight_recorder,
    new_trace_id,
    uninstall_flight_recorder,
)


class TestRing:
    def test_fifo_overwrite_and_occupancy(self):
        recorder = FlightRecorder(capacity=4)
        for n in range(6):
            recorder.record_event(f"span-{n}")
        assert recorder.occupancy == 4
        assert recorder.dropped == 2
        names = [slot["name"] for slot in recorder.snapshot()]
        assert names == ["span-2", "span-3", "span-4", "span-5"]

    def test_slots_are_reused_not_reallocated(self):
        """The hot path writes into preallocated slot dicts in place."""
        recorder = FlightRecorder(capacity=2)
        recorder.record_event("a")
        first = recorder._slots[0]
        recorder.record_event("b")
        recorder.record_event("c")  # wraps onto slot 0
        assert recorder._slots[0] is first
        assert first["name"] == "c"


class TestDump:
    def test_bundle_contains_meta_spans_and_logs(self, tmp_path):
        recorder = FlightRecorder(capacity=8)
        recorder.record_event("request.run", ok=True)
        handler = recorder.log_handler
        logger = logging.getLogger("repro.test-flight")
        logger.addHandler(handler)
        logger.setLevel(logging.WARNING)
        try:
            logger.warning("something notable happened")
        finally:
            logger.removeHandler(handler)

        bundle = recorder.dump(
            tmp_path, "worker_crashed", meta={"request_id": "r1"}
        )
        assert bundle.name.startswith("flight-")
        assert "worker_crashed" in bundle.name
        meta = json.loads((bundle / "meta.json").read_text())
        assert meta["reason"] == "worker_crashed"
        assert meta["request_id"] == "r1"
        spans = [
            json.loads(line)
            for line in (bundle / "spans.jsonl").read_text().splitlines()
        ]
        assert any(s["name"] == "request.run" for s in spans)
        assert "something notable" in (bundle / "logs.txt").read_text()

    def test_dump_counter_yields_distinct_bundles(self, tmp_path):
        recorder = FlightRecorder(capacity=4)
        recorder.record_event("x")
        a = recorder.dump(tmp_path, "crash")
        b = recorder.dump(tmp_path, "crash")
        assert a != b
        assert recorder.dumps == 2

    def test_extra_spans_ride_along(self, tmp_path):
        recorder = FlightRecorder(capacity=4)
        trace = Trace("req", context=TraceContext(new_trace_id()))
        with trace.span("doomed"):
            pass
        bundle = recorder.dump(tmp_path, "deadline", extra_spans=trace.events)
        spans = (bundle / "spans.jsonl").read_text()
        assert "doomed" in spans


class TestGlobalInstall:
    def test_install_and_uninstall(self):
        assert flight_recorder() is None
        recorder = install_flight_recorder(FlightRecorder(capacity=4))
        try:
            assert flight_recorder() is recorder
            # log records from the repro tree land in the ring
            logging.getLogger("repro.flight-test").error("boom")
            assert any(
                "boom" in line for line in recorder.log_handler.snapshot()
            )
        finally:
            uninstall_flight_recorder()
        assert flight_recorder() is None

    def test_reinstall_replaces(self):
        first = install_flight_recorder(FlightRecorder(capacity=4))
        second = install_flight_recorder(FlightRecorder(capacity=4))
        try:
            assert flight_recorder() is second is not first
            handlers = logging.getLogger("repro").handlers
            assert first.log_handler not in handlers
        finally:
            uninstall_flight_recorder()
