"""Hand-driven peers for the wire-level service tests.

:class:`RawConnection` is a socket the test writes raw bytes to and
reads frames from — through the same :class:`~repro.service.wire.
FrameBuffer` splitter the server and the client use.  :class:`Pipe`
is the deterministic variant with no socket at all: an
:class:`AsyncLockClient` and a :class:`ServerConnection` joined by two
recording transports, every segment delivered by hand, so a test can
count writes, flushes and ``data_received`` calls exactly.
"""

import asyncio
import collections

from repro.service import AsyncLockClient
from repro.service.protocol import MAX_FRAME
from repro.service.server import ServerConnection
from repro.service.wire import JSON_CODEC, FrameBuffer


def frames_in(data, codec=JSON_CODEC, max_frame=MAX_FRAME, eof=False):
    """Every message the splitter finds in ``data``; with ``eof`` the
    peer then closes (a torn frame raises ProtocolError)."""
    frames = FrameBuffer(max_frame, codec)
    decoded, refused = frames.feed(data)
    if refused is not None:
        raise refused
    if eof:
        frames.eof()
    return decoded


class RawConnection:
    def __init__(self, reader, writer, max_frame=MAX_FRAME):
        self.reader = reader
        self.writer = writer
        self.frames = FrameBuffer(max_frame)
        self._decoded = collections.deque()

    @classmethod
    async def open(cls, host, port, max_frame=MAX_FRAME):
        return cls(*await asyncio.open_connection(host, port), max_frame)

    def write(self, data: bytes) -> None:
        self.writer.write(data)

    async def read(self):
        """The next frame; None on a clean EOF between frames (a torn
        frame at EOF raises ProtocolError, like any refused frame)."""
        while not self._decoded:
            data = await self.reader.read(65536)
            if not data:
                self.frames.eof()
                return None
            decoded, refused = self.frames.feed(data)
            self._decoded.extend(decoded)
            if refused is not None and not self._decoded:
                raise refused
        return self._decoded.popleft()

    def close(self) -> None:
        self.writer.close()


class RecordingTransport(asyncio.Transport):
    """Collects what a protocol writes.  ``events`` (shared with a
    recording journal) keeps the global order; ``probe()`` is sampled
    at every write and close — a test passes "records not yet flushed".
    Like a real transport it tells the protocol to pause once more than
    ``high_water`` written bytes sit unread, and honors
    ``pause_reading``."""

    def __init__(self, events, name, probe=lambda: None, high_water=65536):
        super().__init__()
        self.events = events
        self.name = name
        self.probe = probe
        self.high_water = high_water
        self.protocol = None
        self.segments = []
        self.closed = False
        self.reading = True

    def buffered(self):
        return sum(len(segment) for segment in self.segments)

    def write(self, data):
        assert not self.closed, "write after close"
        self.events.append(("write", self.name, self.probe()))
        was_over = self.buffered() > self.high_water
        self.segments.append(bytes(data))
        if not was_over and self.buffered() > self.high_water:
            self.protocol.pause_writing()

    def take(self):
        """The peer reads everything written so far."""
        segments, self.segments = self.segments, []
        return segments

    def close(self):
        if not self.closed:
            self.closed = True
            self.events.append(("close", self.name, self.probe()))

    abort = close

    def is_closing(self):
        return self.closed

    def pause_reading(self):
        self.reading = False

    def resume_reading(self):
        self.reading = True


class Pipe:
    """An in-memory connection between a client and ``server`` (a
    started :class:`LockServer`); nothing moves until the test says
    so."""

    def __init__(self, server, events=None, wire="json", probe=lambda: None):
        self.events = [] if events is None else events
        self.server_transport = RecordingTransport(
            self.events, "server", probe
        )
        self.client_transport = RecordingTransport(self.events, "client")
        self.connection = ServerConnection(server)
        self.server_transport.protocol = self.connection
        self.connection.connection_made(self.server_transport)
        self.client = AsyncLockClient(wire=wire)
        self.client_transport.protocol = self.client
        self.client.connection_made(self.client_transport)

    async def to_server(self, settle=True):
        """Let the client's coalescing flush run, then deliver each of
        its writes as one ``data_received`` — all in the same loop turn
        — and yield that turn so the server's one deferred settle runs
        (``settle=False`` returns before it); returns the segments."""
        for _ in range(4):  # start the calls, then their one flush
            await asyncio.sleep(0)
        segments = self.client_transport.take()
        for segment in segments:
            self.connection.data_received(segment)
        if settle:
            await asyncio.sleep(0)
        return segments

    async def to_client(self):
        segments = self.server_transport.take()
        for segment in segments:
            self.client.data_received(segment)
        await asyncio.sleep(0)
        return segments

    async def handshake(self, **fields):
        hello = asyncio.ensure_future(self.client._handshake("hello", fields))
        await self.to_server()
        await self.to_client()
        await hello
        return self

    async def call(self, *coroutines):
        """Run client calls to completion over one round trip each way;
        returns (results, client segments, server segments)."""
        tasks = [asyncio.ensure_future(c) for c in coroutines]
        sent = await self.to_server()
        received = await self.to_client()
        results = await asyncio.gather(*tasks, return_exceptions=True)
        return results, sent, received

    def lose(self):
        """Both ends see the connection drop."""
        self.connection.connection_lost(None)
        self.client.connection_lost(None)
