"""Protocol framing: parsing, validation, and the error vocabulary."""

import json

import pytest

from repro.serve.protocol import (
    ERROR_CODES,
    OPS,
    ProtocolError,
    encode_error,
    encode_frame,
    encode_result,
    parse_request,
)


def frame(payload: dict) -> bytes:
    return json.dumps(payload).encode() + b"\n"


class TestParseRequest:
    def test_minimal_valid(self):
        request = parse_request(frame({"op": "health"}))
        assert request.op == "health"
        assert request.id is None
        assert request.params == {}
        assert request.deadline_s is None
        assert request.priority == "normal"

    def test_full_request(self):
        request = parse_request(
            frame(
                {
                    "id": 42,
                    "op": "suite_cell",
                    "params": {"workload": "dhrystone"},
                    "deadline_s": 2.5,
                    "priority": "high",
                }
            )
        )
        assert request.id == 42
        assert request.params == {"workload": "dhrystone"}
        assert request.deadline_s == 2.5
        assert request.priority == "high"

    def test_string_id_passes_through(self):
        assert parse_request(frame({"id": "abc", "op": "health"})).id == "abc"

    @pytest.mark.parametrize(
        "raw",
        [b"not json\n", b"{truncated\n", b"\xff\xfe\n"],
    )
    def test_malformed_json_is_bad_request(self, raw):
        with pytest.raises(ProtocolError) as excinfo:
            parse_request(raw)
        assert excinfo.value.code == "bad_request"

    def test_non_object_frame_is_bad_request(self):
        with pytest.raises(ProtocolError) as excinfo:
            parse_request(b"[1, 2, 3]\n")
        assert excinfo.value.code == "bad_request"

    def test_unknown_op(self):
        with pytest.raises(ProtocolError) as excinfo:
            parse_request(frame({"id": 7, "op": "frobnicate"}))
        assert excinfo.value.code == "unknown_op"
        # the id still travels with the error so the client can match it
        assert excinfo.value.request_id == 7

    def test_missing_op(self):
        with pytest.raises(ProtocolError) as excinfo:
            parse_request(frame({"id": 1}))
        assert excinfo.value.code == "unknown_op"

    @pytest.mark.parametrize(
        "deadline",
        [0, -1, "soon", float("nan"), float("inf"), -float("inf"), True,
         pytest.param(10**400, id="past-float-range")],
    )
    def test_bad_deadline(self, deadline):
        with pytest.raises(ProtocolError) as excinfo:
            parse_request(frame({"op": "run", "deadline_s": deadline}))
        assert excinfo.value.code == "invalid_params"

    def test_bad_priority(self):
        with pytest.raises(ProtocolError) as excinfo:
            parse_request(frame({"op": "run", "priority": "urgent"}))
        assert excinfo.value.code == "invalid_params"

    def test_non_object_params(self):
        with pytest.raises(ProtocolError) as excinfo:
            parse_request(frame({"op": "run", "params": [1]}))
        assert excinfo.value.code == "invalid_params"

    def test_object_id_rejected(self):
        with pytest.raises(ProtocolError) as excinfo:
            parse_request(frame({"op": "health", "id": {"nested": 1}}))
        assert excinfo.value.code == "bad_request"


class TestEncoding:
    def test_result_roundtrip(self):
        line = encode_result(9, {"value": 3})
        payload = json.loads(line)
        assert line.endswith(b"\n")
        assert payload == {"id": 9, "ok": True, "result": {"value": 3}}

    def test_error_roundtrip(self):
        payload = json.loads(encode_error("x", "queue_full", "busy"))
        assert payload == {
            "id": "x",
            "ok": False,
            "error": {"code": "queue_full", "message": "busy"},
        }

    def test_error_codes_are_closed_vocabulary(self):
        with pytest.raises(AssertionError):
            encode_error(None, "made_up_code", "nope")

    def test_frame_is_single_line(self):
        line = encode_frame({"text": "with\nnewline"})
        assert line.count(b"\n") == 1 and line.endswith(b"\n")

    def test_every_op_is_known(self):
        assert OPS == {
            "compile", "run", "suite_cell", "explain",
            "health", "drain", "metrics",
        }
        assert "queue_full" in ERROR_CODES
        assert "deadline_exceeded" in ERROR_CODES
