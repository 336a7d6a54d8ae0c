"""Length-prefixed wire protocol (v3) for the shard-store query service.

One frame = a 4-byte big-endian unsigned length followed by that many
bytes.  Requests are one JSON frame holding a single object::

    {"v": 3, "op": "degree", "args": {"vertex": 12345}}

and every request gets one JSON response frame::

    {"ok": true,  "result": {...}}                      # success
    {"ok": false, "error": {"kind": "ValueError",       # failure
                            "message": "..."}}

The ``result`` shapes are produced by :mod:`repro.serve.shaping` — the same
helpers behind the CLI's ``query --json`` output, so the wire and the CLI
cannot drift.  Error frames carry the *store's* exception text verbatim
(``kind`` names the exception class), and :func:`raise_error` re-raises the
matching Python exception on the client side: a served
``store.edge_payloads`` miss raises the same :class:`ValueError` message a
local call would.

**One array encoding.**  A shape may hold numpy arrays (edge rows, neighbour
ids, payload columns).  :func:`encode_parts` lifts every array out of the
answer: in the JSON control frame each array is replaced in place by a
descriptor ``{"shape": [...], "offset": N}``, and **one binary frame**
follows it — the same 4-byte length header, then every array back to back
as raw little-endian ``int64`` bytes, in the order the descriptors appear
in the control frame (*offset* is the array's byte offset in that body).  On the server the bodies are ``memoryview`` objects over the
answer arrays — for a warm range answer, over the mapped shard rows — so
they are written without a Python-level copy.  The client reads the
binary frame only when the control frame holds a descriptor, and
:func:`place_arrays` puts writable arrays back at the same keys.  An answer
without arrays is one frame; error responses are always one JSON frame.
JSON stays the control and error plane, and request args stay JSON.

Framing rules (recorded in the ROADMAP's serving conventions):

* ``v`` must equal :data:`PROTOCOL_VERSION`; a server answers any other
  value with one ``ProtocolError`` frame but keeps the connection (the
  framing is intact).
* Unknown ``op`` / bad ``args`` → error frame, connection stays open.
* A frame that cannot be trusted — oversized length prefix, non-JSON body,
  non-object body, a binary frame whose arrays do not tile its body
  exactly — gets one ``ProtocolError`` frame (server side) or raises
  :class:`ProtocolError` (client side) and the connection is closed (the
  byte stream may be desynchronized).
* Adding optional response keys or new ops does **not** bump the version;
  changing an existing shape or the framing does.  v3 changed every
  answer that carries arrays, so v1 and v2 requests are refused.
* The same additive rule covers optional *request* keys: a traced client
  stamps ``"trace": {"id": <hex>, "span": <hex>}`` beside ``op``/``args``
  and the server parents its spans under it.
* Observability ops — ``profile``, ``events``, ``health`` — are ordinary
  single-JSON-frame request/response ops that shipped with **no** version
  bump; an older server answers them with the standard unknown-``op``
  error frame.

The sync helpers (:func:`write_frame` / :func:`read_frame` /
:func:`read_binary_frame`) serve the blocking client; the server and the
range router's worker connections use :func:`read_frame_async` /
:func:`read_binary_frame_async` over an :class:`asyncio.StreamReader`.  Both
directions enforce a frame-size cap so a corrupt or hostile length prefix
cannot trigger an unbounded allocation.
"""

from __future__ import annotations

import asyncio
import json
import math
import socket
import struct
from typing import Any, List, Optional

import numpy as np

__all__ = [
    "PROTOCOL_VERSION",
    "MAX_FRAME_BYTES",
    "DEFAULT_MAX_REQUEST_BYTES",
    "ProtocolError",
    "ServerError",
    "encode_parts",
    "encode_frame",
    "decode_body",
    "array_slots",
    "place_arrays",
    "request_frame",
    "result_frame",
    "error_frame",
    "raise_error",
    "write_frame",
    "read_frame",
    "read_binary_frame",
    "read_frame_async",
    "read_binary_frame_async",
]

#: The one version a server accepts and a client stamps; bumped only for
#: incompatible shape or framing changes (additive keys and new ops ride on
#: the same version).  v3 moved every answer array into one binary frame.
PROTOCOL_VERSION = 3

#: Every array on the wire is little-endian ``int64``.
_ARRAY_DTYPE = np.dtype("<i8")

_HEADER = struct.Struct(">I")

#: Hard ceiling on any frame in either direction — a length prefix beyond
#: this is treated as stream corruption, not a large result.
MAX_FRAME_BYTES = 1 << 30

#: Default server-side cap on *request* frames.  Requests are small (op name
#: plus index arrays); responses may be large, so the caps are asymmetric.
DEFAULT_MAX_REQUEST_BYTES = 16 << 20


class ProtocolError(ValueError):
    """A frame violated the wire protocol (size, encoding, or shape)."""


class ServerError(RuntimeError):
    """Server-side failure of a kind the client cannot map to a local
    exception class (the error frame's ``kind`` is in the message)."""


# ----------------------------------------------------------------------
# Frame encode / decode
# ----------------------------------------------------------------------
def encode_parts(obj: Any, *, max_bytes: int = MAX_FRAME_BYTES) -> list:
    """Encode one message as the byte parts to write, in order.

    The first part is the JSON control frame, in which every numpy array of
    *obj* is replaced by its descriptor (offsets in encoding order, which is
    the order the descriptors appear in the frame).  When there are arrays,
    the binary frame follows: its length header, then one ``memoryview`` per
    non-empty array — views, not copies, so a server writes mapped shard
    rows straight to the socket.
    """
    arrays: list = []
    total = 0

    def lift(value):
        nonlocal total
        if not isinstance(value, np.ndarray):
            raise TypeError(f"{type(value).__name__} is not JSON serializable")
        array = np.ascontiguousarray(value, dtype=_ARRAY_DTYPE)
        descriptor = {"shape": list(array.shape), "offset": total}
        arrays.append(array)
        total += array.nbytes
        return descriptor

    body = json.dumps(obj, separators=(",", ":"), sort_keys=True,
                      default=lift).encode("utf-8")
    if max(len(body), total) > max_bytes:
        raise ProtocolError(f"frame of {max(len(body), total)} bytes exceeds "
                            f"the {max_bytes}-byte cap")
    parts: list = [_HEADER.pack(len(body)) + body]
    if arrays:
        parts.append(_HEADER.pack(total))
        # Byte views: a buffering transport extends its bytearray with a
        # view's elements.  (A zero-size view refuses the cast.)
        parts.extend(memoryview(array).cast("B")
                     for array in arrays if array.nbytes)
    return parts


def encode_frame(obj: Any, *, max_bytes: int = MAX_FRAME_BYTES) -> bytes:
    """Encode one message as one ``bytes`` object: :func:`encode_parts`
    joined, i.e. the JSON frame plus, when *obj* holds arrays, the binary
    frame after it."""
    return b"".join(encode_parts(obj, max_bytes=max_bytes))


def decode_body(body: bytes) -> dict:
    """Parse a frame body, mapping every failure to :class:`ProtocolError`."""
    try:
        obj = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(f"frame body is not valid JSON: {exc}") from None
    if not isinstance(obj, dict):
        raise ProtocolError(
            f"frame body must be a JSON object, got {type(obj).__name__}")
    return obj


_DESCRIPTOR_KEYS = frozenset({"shape", "offset"})


def array_slots(frame: Any) -> List[tuple]:
    """Every array descriptor in a decoded control *frame* (a dict or
    list), in frame order, as ``(container, key, descriptor)`` triples; a
    dict with exactly the keys ``shape`` and ``offset`` is a descriptor.  A
    non-empty answer means the binary frame holding the arrays follows."""
    slots = []
    items = frame.items() if isinstance(frame, dict) else enumerate(frame)
    for key, item in items:
        if type(item) is dict and item.keys() == _DESCRIPTOR_KEYS:
            slots.append((frame, key, item))
        elif isinstance(item, (dict, list)):
            slots.extend(array_slots(item))
    return slots


def place_arrays(slots: List[tuple], body: bytearray) -> None:
    """Put the arrays of a binary frame *body* back at the keys their
    descriptors hold (client side).

    The arrays must tile the body exactly, back to back in frame order —
    an offset past its end, an overlap, a gap or trailing bytes mean the
    stream cannot be trusted, and :class:`ProtocolError` is raised.  A
    ``bytearray`` *body* makes every array writable without a copy.
    """
    end = 0
    for container, key, descriptor in slots:
        shape, offset = descriptor["shape"], descriptor["offset"]
        if not isinstance(shape, list) or any(
                isinstance(d, bool) or not isinstance(d, int) or d < 0
                for d in shape):
            raise ProtocolError(f"malformed array descriptor {descriptor!r}")
        count = math.prod(shape)
        nbytes = count * _ARRAY_DTYPE.itemsize
        if offset != end or end + nbytes > len(body):
            raise ProtocolError(
                f"arrays do not tile the {len(body)}-byte binary frame: "
                f"{nbytes} bytes at offset {offset!r}, {end} expected")
        container[key] = np.frombuffer(body, _ARRAY_DTYPE, count,
                                       offset).reshape(shape)
        end += nbytes
    if end != len(body):
        raise ProtocolError(f"arrays do not tile the {len(body)}-byte binary "
                            f"frame: they end at byte {end}")


# ----------------------------------------------------------------------
# Canonical frame shapes
# ----------------------------------------------------------------------
def request_frame(op: str, args: Optional[dict] = None) -> dict:
    """The request object for one operation (version stamped in)."""
    return {"v": PROTOCOL_VERSION, "op": op, "args": args or {}}


def result_frame(result: Any) -> dict:
    """A success response wrapping a :mod:`repro.serve.shaping` shape."""
    return {"ok": True, "result": result}


#: Exception classes an error frame round-trips exactly; anything else
#: surfaces as :class:`ServerError` on the client.
_ERROR_KINDS = {
    "ValueError": ValueError,
    "IndexError": IndexError,
    "KeyError": KeyError,
    "TypeError": TypeError,
    "NotImplementedError": NotImplementedError,
    "ProtocolError": ProtocolError,
}


def error_frame(exc: BaseException) -> dict:
    """An error response carrying the exception's class name and message."""
    kind = type(exc).__name__
    if kind not in _ERROR_KINDS:
        kind = "InternalError"
    return {"ok": False, "error": {"kind": kind, "message": str(exc)}}


def raise_error(error: dict) -> None:
    """Re-raise the exception an error frame describes (client side)."""
    kind = error.get("kind", "InternalError")
    message = error.get("message", "")
    cls = _ERROR_KINDS.get(kind)
    if cls is None:
        raise ServerError(f"{kind}: {message}")
    raise cls(message)


# ----------------------------------------------------------------------
# Blocking socket I/O (the synchronous client)
# ----------------------------------------------------------------------
def _recv_exactly(sock: socket.socket, n: int) -> Optional[bytearray]:
    """Read exactly *n* bytes into a new ``bytearray``; ``None`` on a clean
    EOF before the first byte, :class:`ProtocolError` on EOF mid-frame."""
    buf = bytearray(n)
    view = memoryview(buf)
    received = 0
    while received < n:
        got = sock.recv_into(view[received:], n - received)
        if not got:
            if not received:
                return None
            raise ProtocolError(
                f"connection closed mid-frame ({received} of {n} bytes)")
        received += got
    return buf


def write_frame(sock: socket.socket, obj: Any, *,
                max_bytes: int = MAX_FRAME_BYTES) -> None:
    """Send one message (its frames) over a blocking socket."""
    sock.sendall(encode_frame(obj, max_bytes=max_bytes))


def _read_body(sock: socket.socket, max_bytes: int) -> Optional[bytearray]:
    """One frame's body; ``None`` on a clean EOF at a frame boundary."""
    header = _recv_exactly(sock, _HEADER.size)
    if header is None:
        return None
    (length,) = _HEADER.unpack(header)
    if length > max_bytes:
        raise ProtocolError(
            f"incoming frame of {length} bytes exceeds the {max_bytes}-byte cap")
    body = _recv_exactly(sock, length)
    if body is None:
        raise ProtocolError("connection closed between header and body")
    return body


def read_frame(sock: socket.socket, *,
               max_bytes: int = MAX_FRAME_BYTES) -> Optional[dict]:
    """Read one JSON frame from a blocking socket; ``None`` on clean EOF."""
    body = _read_body(sock, max_bytes)
    return None if body is None else decode_body(body)


def read_binary_frame(sock: socket.socket, *,
                      max_bytes: int = MAX_FRAME_BYTES) -> bytearray:
    """Read the binary frame a control frame announced into a ``bytearray``
    (mutable, so the arrays wrapped over it are writable).  It is owed, so
    EOF before it is desynchronization: :class:`ProtocolError`."""
    body = _read_body(sock, max_bytes)
    if body is None:
        raise ProtocolError("connection closed before the announced binary "
                            "frame")
    return body


# ----------------------------------------------------------------------
# Asyncio stream I/O (the server, and the router's worker connections)
# ----------------------------------------------------------------------
async def _read_body_async(reader: asyncio.StreamReader,
                           max_bytes: int) -> Optional[bytes]:
    """One frame's body; ``None`` on a clean EOF at a frame boundary."""
    try:
        header = await reader.readexactly(_HEADER.size)
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None
        raise ProtocolError("connection closed mid-header") from None
    (length,) = _HEADER.unpack(header)
    if length > max_bytes:
        raise ProtocolError(
            f"incoming frame of {length} bytes exceeds the {max_bytes}-byte cap")
    try:
        return await reader.readexactly(length) if length else b""
    except asyncio.IncompleteReadError as exc:
        raise ProtocolError(
            f"connection closed mid-frame "
            f"({len(exc.partial)} of {length} bytes)") from None


async def read_frame_async(reader: asyncio.StreamReader, *,
                           max_bytes: int = MAX_FRAME_BYTES) -> Optional[dict]:
    """Read one JSON frame from an asyncio stream; ``None`` on clean EOF.

    EOF in the middle of a frame — the mid-request-disconnect case — raises
    :class:`ProtocolError` so the connection handler can drop the peer
    without tearing down the server.
    """
    body = await _read_body_async(reader, max_bytes)
    return None if body is None else decode_body(body)


async def read_binary_frame_async(reader: asyncio.StreamReader, *,
                                  max_bytes: int = MAX_FRAME_BYTES) -> bytes:
    """Read the binary frame a control frame announced (the asyncio twin of
    :func:`read_binary_frame`; arrays placed over the ``bytes`` it returns
    are read-only).  EOF before it is :class:`ProtocolError`."""
    body = await _read_body_async(reader, max_bytes)
    if body is None:
        raise ProtocolError("connection closed before the announced binary "
                            "frame")
    return body
