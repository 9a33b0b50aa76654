"""Binary ⟷ JSON wire equivalence, by construction and by search.

The v2 codec's contract is *identity*: for every JSON-safe message —
specialized hot-op shape or not — ``decode(encode(m)) == m``, exactly
what the JSON codec trivially guarantees.  Hypothesis builds every hot
op's request and response from the full range of field values the
service can produce (plus adversarial extras that force the structural
fallback), and arbitrary JSON-safe objects cover the escape hatch.
"""

from __future__ import annotations

import json
import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.service.protocol import MAX_FRAME
from repro.service.wire import (
    BINARY_CODEC,
    JSON_CODEC,
    decode_binary_payload,
    encode_binary,
    wire_roundtrip,
)
from repro.service.wire import HEADER_SIZE, _HEADER

relaxed = settings(max_examples=150)

#: Every mode/status name the name tables specialize, plus strangers
#: that must take the inline-string escape.
MODES = st.sampled_from(["NL", "IS", "IX", "S", "SIX", "X", "Z9", "weird"])
STATUSES = st.sampled_from(
    ["granted", "blocked", "timeout", "aborted", "parked", "odd-status"]
)

#: Field atoms: everything JSON can carry.  Integers beyond i64 take
#: the bigint escape; floats are finite (NaN is not JSON).
ints = st.integers(min_value=-(2**70), max_value=2**70)
floats = st.floats(allow_nan=False, allow_infinity=False, width=64)
text = st.text(max_size=40)
atoms = st.none() | st.booleans() | ints | floats | text

json_values = st.recursive(
    atoms,
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(text, children, max_size=4),
    max_leaves=12,
)

request_ids = st.none() | st.integers(min_value=0, max_value=2**40)

events = st.fixed_dictionaries(
    {
        "type": st.sampled_from(
            ["granted", "blocked", "aborted", "repositioned"]
        ),
        "tid": st.integers(min_value=0, max_value=2**40),
        "rid": text,
        "mode": MODES,
    }
)


def envelope(extra):
    """A v1 message envelope around op-specific fields."""
    return st.builds(
        lambda rid, fields: {"v": 1, "id": rid, **fields},
        request_ids,
        extra,
    )


lock_requests = envelope(
    st.fixed_dictionaries(
        {
            "op": st.just("lock"),
            "tid": st.integers(min_value=0, max_value=2**40),
            "rid": text,
            "mode": MODES,
        },
        optional={
            "wait": st.booleans(),
            "timeout": floats,
            "trace": text,
        },
    )
)

batch_requests = envelope(
    st.fixed_dictionaries(
        {
            "op": st.just("batch"),
            "ops": st.lists(
                st.one_of(
                    st.fixed_dictionaries(
                        {"op": st.just("begin")},
                        optional={"tid": ints},
                    ),
                    st.fixed_dictionaries(
                        {
                            "op": st.just("lock"),
                            "tid": ints,
                            "rid": text,
                            "mode": MODES,
                        },
                        optional={"wait": st.booleans()},
                    ),
                    st.fixed_dictionaries(
                        {"op": st.sampled_from(["commit", "abort"])},
                        optional={"tid": ints},
                    ),
                ),
                max_size=6,
            ),
        }
    )
)

simple_requests = envelope(
    st.one_of(
        st.fixed_dictionaries(
            {"op": st.sampled_from(["heartbeat", "commit", "abort"])},
            optional={"tid": ints},
        ),
        st.fixed_dictionaries(
            {"op": st.just("begin")}, optional={"tid": ints}
        ),
        st.fixed_dictionaries({"op": st.just("snapshot")}),
        st.fixed_dictionaries(
            {"op": st.just("resolve"), "plan": json_values}
        ),
    )
)

#: Responses carry no ``op``; the sender names the op they answer.
lock_responses = envelope(
    st.fixed_dictionaries(
        {
            "ok": st.just(True),
            "tid": ints,
            "status": STATUSES,
        },
        optional={"event": events, "epoch": ints},
    )
).map(lambda m: ("lock", m))

finish_responses = st.tuples(
    st.sampled_from(["commit", "abort"]),
    envelope(
        st.fixed_dictionaries(
            {
                "ok": st.just(True),
                "tid": ints,
                "grants": st.lists(events, max_size=4),
            },
            optional={"epoch": ints},
        )
    ),
).map(lambda pair: (pair[0], pair[1]))

batch_responses = envelope(
    st.fixed_dictionaries(
        {
            "ok": st.just(True),
            "results": st.lists(json_values, max_size=4),
        },
        optional={"epoch": ints},
    )
).map(lambda m: ("batch", m))

snapshot_responses = envelope(
    st.fixed_dictionaries(
        {"ok": st.just(True), "snapshot": json_values},
        optional={"epoch": ints},
    )
).map(lambda m: ("snapshot", m))

resolve_responses = envelope(
    st.fixed_dictionaries(
        {"ok": st.just(True), "applied": json_values},
        optional={"epoch": ints},
    )
).map(lambda m: ("resolve", m))

error_responses = envelope(
    st.fixed_dictionaries(
        {
            "ok": st.just(False),
            "error": st.fixed_dictionaries(
                {"code": text, "message": text}
            ),
        },
        optional={"epoch": ints},
    )
).map(lambda m: (None, m))

hot_responses = st.one_of(
    lock_responses,
    finish_responses,
    batch_responses,
    snapshot_responses,
    resolve_responses,
    error_responses,
)


def binary_roundtrip(message, reply_to=None):
    frame = encode_binary(message, reply_to, MAX_FRAME)
    _, _, flags, opcode, _, header_id, length = _HEADER.unpack_from(frame)
    assert length == len(frame) - HEADER_SIZE
    return decode_binary_payload(
        flags, opcode, header_id, frame[HEADER_SIZE:]
    )


def assert_identity(message, reply_to=None):
    decoded = binary_roundtrip(message, reply_to)
    assert decoded == message
    # ...and the JSON dialect agrees with itself (the baseline the
    # binary codec is proven against).
    assert wire_roundtrip(message, JSON_CODEC) == message
    assert wire_roundtrip(message, BINARY_CODEC) == message


class TestHotOpIdentity:
    @relaxed
    @given(lock_requests)
    def test_lock_requests(self, message):
        assert_identity(message)

    @relaxed
    @given(batch_requests)
    def test_batch_requests(self, message):
        assert_identity(message)

    @relaxed
    @given(simple_requests)
    def test_simple_requests(self, message):
        assert_identity(message)

    @relaxed
    @given(hot_responses)
    def test_hot_responses(self, pair):
        reply_to, message = pair
        assert_identity(message, reply_to)


class TestFallbackIdentity:
    @relaxed
    @given(st.dictionaries(text, json_values, max_size=6))
    def test_arbitrary_objects(self, message):
        """Messages fitting no fast shape take the whole-message
        structural form — still byte-exact identity."""
        assert binary_roundtrip(message) == message

    @relaxed
    @given(st.dictionaries(text, json_values, max_size=6))
    def test_matches_json_dialect_exactly(self, message):
        """Whatever survives the JSON dialect survives the binary one
        with the same value — the cross-codec equivalence that lets
        the explorer replay one schedule on either."""
        via_json = json.loads(json.dumps(message))
        via_binary = binary_roundtrip(message)
        assert via_binary == via_json


class TestEdgeValues:
    def test_a_peers_flag_json_frame_still_decodes(self):
        """Nothing here sends the ``FLAG_JSON`` escape any more; a v2
        peer may, so the splitter keeps reading it."""
        message = {"v": 1, "id": 9, "op": "stats", "nested": [1, {"a": None}]}
        payload = json.dumps(message).encode("utf-8")
        frame = _HEADER.pack(b"RW", 2, 0x01, 0, 0, 9, len(payload)) + payload
        assert BINARY_CODEC.split(bytearray(frame), 0, len(frame)) == (
            message, len(frame)
        )

    def test_float_precision_is_exact(self):
        for value in (0.1, 1e-300, 1e300, -0.0, math.pi):
            message = {"timeout": value}
            out = binary_roundtrip(message)
            assert math.copysign(1.0, out["timeout"]) == math.copysign(
                1.0, value
            )
            assert out["timeout"] == value

    def test_big_integers_take_the_escape(self):
        message = {"n": 2**100, "m": -(2**100)}
        assert binary_roundtrip(message) == message

    def test_bool_int_distinction_survives(self):
        """``True == 1`` in Python: the codec must not collapse them."""
        message = {"a": True, "b": 1, "c": False, "d": 0}
        out = binary_roundtrip(message)
        assert out["a"] is True and out["c"] is False
        assert type(out["b"]) is int and type(out["d"]) is int

    def test_id_null_and_huge_ids(self):
        for rid in (None, 0, 2**32 - 1, 2**50):
            message = {"v": 1, "id": rid, "op": "heartbeat", "tid": 1}
            assert binary_roundtrip(message) == message
