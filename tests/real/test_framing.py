"""Unit tests for the real backend's length-prefixed wire framing."""

import pytest

from repro.real.framing import (
    FrameDecoder,
    FramingError,
    MAX_FRAME,
    encode_frame,
)


def test_roundtrip_single_frame():
    decoder = FrameDecoder()
    frames = list(decoder.feed(encode_frame({"kind": "hello", "node": "T1"})))
    assert frames == [{"kind": "hello", "node": "T1"}]
    assert decoder.pending_bytes() == 0


def test_multiple_frames_in_one_chunk():
    data = encode_frame(1) + encode_frame("two") + encode_frame([3, 3, 3])
    decoder = FrameDecoder()
    assert list(decoder.feed(data)) == [1, "two", [3, 3, 3]]


def test_byte_by_byte_feed_reassembles():
    payload = {"kind": "msg", "src": "a", "dst": "b",
               "payload": list(range(50)), "deliver_vt": 1.25}
    data = encode_frame(payload)
    decoder = FrameDecoder()
    frames = []
    for i in range(len(data)):
        frames.extend(decoder.feed(data[i:i + 1]))
    assert frames == [payload]
    assert decoder.pending_bytes() == 0


def test_partial_frame_stays_pending():
    data = encode_frame({"kind": "done", "node": "W1"})
    decoder = FrameDecoder()
    assert list(decoder.feed(data[:-3])) == []
    assert decoder.pending_bytes() == len(data) - 3
    assert list(decoder.feed(data[-3:])) == [{"kind": "done", "node": "W1"}]


def test_frame_boundary_split_mid_header():
    data = encode_frame("x") + encode_frame("y")
    decoder = FrameDecoder()
    # Split inside the second frame's 4-byte header.
    first = len(encode_frame("x")) + 2
    frames = list(decoder.feed(data[:first]))
    frames.extend(decoder.feed(data[first:]))
    assert frames == ["x", "y"]


def test_oversized_header_is_rejected():
    import struct

    decoder = FrameDecoder()
    with pytest.raises(FramingError):
        list(decoder.feed(struct.pack(">I", MAX_FRAME + 1)))
