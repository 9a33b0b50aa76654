"""The held JSON codec objects against the ``json`` module, by search.

``protocol.encode_frame`` / ``journal._encode_body`` hold the C encoder
``JSONEncoder.encode`` would build per call, and ``protocol.json_decode``
asks the scanner directly and falls through to ``JSONDecoder.decode``
for anything that is not exactly one value.  Both must be
indistinguishable from ``json.dumps`` / ``json.loads``: the same bytes,
the same objects, the same exception type with the same message.
(``json.loads`` is ``JSONDecoder().decode`` behind a BOM check the wire
never had; the reference here is the decoder.)
"""

from __future__ import annotations

import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.service import journal
from repro.service.protocol import (
    ProtocolError,
    decode_payload,
    encode_frame,
    json_decode,
)

scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(),  # NaN and the infinities included: allow_nan is on
    st.text(),
)
keys = st.one_of(
    st.text(), st.integers(), st.booleans(), st.none(), st.floats()
)
values = st.recursive(
    scalars,
    lambda inner: st.one_of(
        st.lists(inner, max_size=5),
        st.dictionaries(keys, inner, max_size=5),
    ),
    max_leaves=25,
)
#: What a peer may put around (or instead of) one JSON value.
padding = st.sampled_from(["", " ", "\n\t ", "x", " 1", ",", "}", "\x00"])


reference_decode = json.JSONDecoder().decode


def json_encode(value):
    """The JSON text of ``value``'s frame: its payload."""
    return encode_frame(value, None, float("inf"))[4:].decode("ascii")


def outcome(call, *args):
    """What the call returned (by ``repr``: NaN is not equal to itself),
    or the exception it raised, type and message."""
    try:
        return ("returned", repr(call(*args)))
    except (ValueError, TypeError, RecursionError) as exc:
        return (type(exc), str(exc))


@given(values)
def test_encode_is_json_dumps(value):
    assert outcome(json_encode, value) == outcome(
        lambda v: json.dumps(v, separators=(",", ":")), value
    )
    assert outcome(journal._encode_body, value) == outcome(
        lambda v: json.dumps(v, separators=(",", ":"), sort_keys=True), value
    )


@given(padding, values, padding)
def test_decode_is_the_json_decoder(before, value, after):
    text = before + json.dumps(value) + after
    assert outcome(json_decode, text) == outcome(reference_decode, text)


@given(st.text(max_size=40))
def test_decode_of_arbitrary_text_is_the_json_decoder(text):
    assert outcome(json_decode, text) == outcome(reference_decode, text)


@pytest.mark.parametrize(
    "text",
    ["", " ", "NaN", "-Infinity", "[NaN, Infinity]", '"a" "b"', "{} x",
     " {}", "{}\n", "\ufeff{}", '{"a":}', "[1,]", "nul", '"\\ud800"'],
)
def test_decode_corner_cases_are_the_json_decoder_s(text):
    assert outcome(json_decode, text) == outcome(reference_decode, text)


@pytest.mark.parametrize("encode", [json_encode, journal._encode_body])
def test_encode_errors_are_the_encoder_s_and_leave_no_mark(encode):
    with pytest.raises(TypeError, match="not JSON serializable"):
        encode({"a": {1, 2}})
    ring = []
    ring.append({"self": ring})
    with pytest.raises(ValueError, match="Circular reference detected"):
        encode(ring)
    # The failed encodes left their path in the held encoder's markers;
    # the same objects, now acyclic, must encode.
    inner = ring.pop()
    assert encode(ring) == "[]"
    inner["self"] = 1
    assert encode(inner) == '{"self":1}'
    mixed = {"b": 1, 3: 2}
    if encode is json_encode:
        assert encode(mixed) == '{"b":1,"3":2}'
    else:  # sort_keys compares the raw keys, as json.dumps does
        with pytest.raises(TypeError):
            encode(mixed)


def test_non_object_and_bottomless_payloads_are_protocol_errors():
    for payload in (b"[1]", b'"lock"', b"7", b"null", b"NaN"):
        with pytest.raises(ProtocolError, match="JSON object"):
            decode_payload(payload)
    for payload in (b"[" * 100000, b'{"a":' * 100000, b"{} {}", b"\xff"):
        with pytest.raises(ProtocolError, match="undecodable frame"):
            decode_payload(payload)
    assert decode_payload(b' {"v": 1, "op": "x"} ') == {"v": 1, "op": "x"}


def test_journal_lines_round_trip_through_the_held_codec():
    record = {"kind": "lock", "sid": "S1", "tid": 3, "rid": "Ré",
              "mode": "X", "seq": 17}
    line = journal.encode_record(record)
    assert line.endswith(json.dumps(record, sort_keys=True,
                                    separators=(",", ":")))
    assert journal.decode_record(line) == record
    assert journal.decode_record(line + " ") is None  # crc covers the body
    assert journal.decode_record(line[:-1]) is None
