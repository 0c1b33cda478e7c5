"""A tiny asyncio HTTP/1.1 server for the management API (stdlib only).

The container bakes in no aiohttp, so the controller serves its
endpoints over a deliberately small HTTP implementation on the same
event loop the cluster runs on: ``asyncio.start_server``, a strict
request-line + header parse with hard size limits, GET/HEAD only,
``Connection: close`` semantics (every scrape is one short-lived
connection -- exactly how Prometheus and the zone-map view consume
it).  Handler exceptions become a 500 with a JSON body instead of a
torn connection.

The module also ships :func:`http_get`, the matching minimal client,
so the endpoint tests and the ``mgmt`` scenario of ``scripts/smoke.py``
exercise the real socket path without pulling in an HTTP library.
"""

from __future__ import annotations

import asyncio
import json
from dataclasses import dataclass, field

#: request-line / header-block size guards (bytes)
MAX_REQUEST_LINE = 8192
MAX_HEADER_BYTES = 65536

_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    500: "Internal Server Error",
    503: "Service Unavailable",
}


@dataclass
class Request:
    """One parsed HTTP request (the parts handlers may care about)."""

    method: str
    path: str
    query: str = ""
    headers: dict = field(default_factory=dict)


@dataclass
class Response:
    """What a route handler returns; rendered by the server."""

    status: int = 200
    content_type: str = "application/json"
    body: bytes = b""

    @classmethod
    def json(cls, data, status: int = 200) -> "Response":
        """A canonical JSON response (sorted keys, compact separators)."""
        text = json.dumps(data, sort_keys=True, separators=(",", ":"))
        return cls(status=status, body=text.encode("utf-8"))

    @classmethod
    def text(cls, text: str) -> "Response":
        """A plain-text response in the Prometheus exposition media type."""
        return cls(content_type="text/plain; version=0.0.4; charset=utf-8",
                   body=text.encode("utf-8"))

    @classmethod
    def html(cls, text: str) -> "Response":
        """An HTML page response."""
        return cls(content_type="text/html; charset=utf-8",
                   body=text.encode("utf-8"))


class HttpServer:
    """Route table + listener; handlers are ``async fn(Request) -> Response``."""

    def __init__(self, routes: dict, host: str = "127.0.0.1", port: int = 0):
        self.routes = dict(routes)
        self.host = host
        self.requested_port = port
        self.port = None
        self._server = None
        #: request/response accounting, surfaced by the controller
        self.requests = 0
        self.errors = 0

    async def start(self) -> None:
        """Bind and start serving (port 0 picks a free one)."""
        if self._server is None:
            self._server = await asyncio.start_server(
                self._serve, self.host, self.requested_port
            )
            self.port = self._server.sockets[0].getsockname()[1]

    async def close(self) -> None:
        """Stop listening and drop in-flight connections."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    @property
    def url(self) -> str:
        """Base URL of the running listener."""
        return f"http://{self.host}:{self.port}"

    async def _read_request(self, reader) -> Request:
        line = await reader.readline()
        if not line or len(line) > MAX_REQUEST_LINE:
            raise ValueError("missing or oversized request line")
        parts = line.decode("latin-1").rstrip("\r\n").split(" ")
        if len(parts) != 3 or not parts[2].startswith("HTTP/1."):
            raise ValueError(f"malformed request line {line!r}")
        method, target, _version = parts
        path, _, query = target.partition("?")
        headers = {}
        total = 0
        while True:
            header = await reader.readline()
            total += len(header)
            if total > MAX_HEADER_BYTES:
                raise ValueError("oversized header block")
            if header in (b"\r\n", b"\n", b""):
                break
            name, _, value = header.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        return Request(method=method.upper(), path=path, query=query,
                       headers=headers)

    async def _respond(self, request: Request) -> Response:
        if request.method not in ("GET", "HEAD"):
            return Response.json(
                {"error": f"method {request.method} not allowed"}, status=405
            )
        handler = self.routes.get(request.path)
        if handler is None:
            return Response.json(
                {"error": f"no such endpoint {request.path}",
                 "endpoints": sorted(self.routes)},
                status=404,
            )
        try:
            return await handler(request)
        except Exception as exc:
            self.errors += 1
            return Response.json(
                {"error": repr(exc), "endpoint": request.path}, status=500
            )

    async def _serve(self, reader, writer) -> None:
        try:
            try:
                request = await self._read_request(reader)
            except (ValueError, UnicodeDecodeError) as exc:
                request = None
                response = Response.json({"error": str(exc)}, status=400)
            else:
                self.requests += 1
                response = await self._respond(request)
            reason = _REASONS.get(response.status, "Unknown")
            head = (
                f"HTTP/1.1 {response.status} {reason}\r\n"
                f"Content-Type: {response.content_type}\r\n"
                f"Content-Length: {len(response.body)}\r\n"
                f"Connection: close\r\n\r\n"
            ).encode("latin-1")
            writer.write(head)
            if request is None or request.method != "HEAD":
                writer.write(response.body)
            await writer.drain()
        except (ConnectionResetError, BrokenPipeError, asyncio.CancelledError):
            pass
        finally:
            writer.close()


async def http_get(host: str, port: int, path: str):
    """Minimal HTTP GET: returns ``(status, headers, body_bytes)``.

    A real-socket client for tests and the smoke runner; speaks exactly
    the ``Connection: close`` dialect the server serves, so the body
    is simply everything until EOF.  Gives up after 10 s.
    """

    async def fetch():
        reader, writer = await asyncio.open_connection(host, port)
        try:
            writer.write(
                f"GET {path} HTTP/1.1\r\nHost: {host}:{port}\r\n"
                f"Connection: close\r\n\r\n".encode("latin-1")
            )
            await writer.drain()
            raw = await reader.read()
        finally:
            writer.close()
        head, _, body = raw.partition(b"\r\n\r\n")
        lines = head.decode("latin-1").split("\r\n")
        status = int(lines[0].split(" ")[1])
        headers = {}
        for line in lines[1:]:
            name, _, value = line.partition(":")
            headers[name.strip().lower()] = value.strip()
        return status, headers, body

    return await asyncio.wait_for(fetch(), 10.0)
