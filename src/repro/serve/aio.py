"""The asyncio HTTP front: selector-loop HTTP over the shared router.

One selector event loop (``asyncio.start_server`` on a background
thread) serves every connection: connections are coroutines, request
parsing is non-blocking, and the inference wait is
``await asyncio.wrap_future(...)`` on the batcher's
``concurrent.futures.Future`` — no thread is parked per in-flight
request, so thousands of slow clients cost file descriptors, not stacks.

Everything above the transport lives in
:class:`repro.serve.routes.Router`: routing, admission (429 +
``Retry-After``), error mapping and latency observation.  The router's
synchronous half (``begin``: parse, admit, submit — plus a possible
first-request checkpoint load) runs in the loop's default executor to
keep the loop responsive; only the cheap completion half runs on the
loop.

The transport is deliberately minimal HTTP/1.1: request line, headers,
``Content-Length`` bodies, keep-alive.  That is exactly what
:class:`~repro.serve.client.ServeClient`, curl, and load generators
speak; it is not a general-purpose web server.  A request it cannot
parse (a malformed request line, a non-integer ``Content-Length``, a
line over the stream limit, too many header lines) gets a 400 with an
``{"error": ...}`` body, and the connection closes.

``start`` / ``stop`` / context manager / ``url``: ``stop()`` closes the
listener, lets in-flight requests finish (bounded by the app's drain
timeout), then drains the app's lanes.
"""

from __future__ import annotations

import asyncio
import threading
from http import HTTPStatus

from repro.errors import ConfigurationError
from repro.serve.http import ServeApp
from repro.serve.protocol import ErrorBody, dump_payload
from repro.serve.routes import RouteResult
from repro.utils.logging import get_logger

__all__ = ["AsyncReproServer"]

_logger = get_logger("serve.aio")

_MAX_HEADER_LINES = 100


class _BadRequest(Exception):
    """A request the transport cannot parse; answered with a 400."""


def _reason(status: int) -> str:
    try:
        return HTTPStatus(status).phrase
    except ValueError:
        return "Unknown"


class AsyncReproServer:
    """Asyncio event-loop HTTP server over a :class:`ServeApp`.

    ``port=0`` binds an ephemeral port (readable from :attr:`port` /
    :attr:`url` once started), ``stop()`` drains gracefully, and it
    works as a context manager.  Any app with a ``router``, a
    ``config`` carrying ``request_timeout`` and ``drain_timeout_s``, and
    a ``close()`` can be served (the coord watch view is one).
    """

    def __init__(
        self, app: ServeApp, host: str = "127.0.0.1", port: int = 0
    ) -> None:
        self.app = app
        self._requested = (host, port)
        self._address: tuple[str, int] | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._thread: threading.Thread | None = None
        self._stop_event: asyncio.Event | None = None
        self._server: asyncio.AbstractServer | None = None
        self._conn_tasks: set[asyncio.Task] = set()
        self._startup = threading.Event()
        self._startup_error: BaseException | None = None

    # ------------------------------------------------------------------
    # Addresses
    # ------------------------------------------------------------------
    @property
    def host(self) -> str:
        if self._address is None:
            raise ConfigurationError("server is not running")
        return self._address[0]

    @property
    def port(self) -> int:
        if self._address is None:
            raise ConfigurationError("server is not running")
        return int(self._address[1])

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "AsyncReproServer":
        if self._thread is not None:
            raise ConfigurationError("server is already running")
        self._startup.clear()
        self._startup_error = None
        self._thread = threading.Thread(
            target=self._run_loop, name="repro-serve-aio", daemon=True
        )
        self._thread.start()
        if not self._startup.wait(timeout=30.0):
            raise ConfigurationError("async server failed to start in time")
        if self._startup_error is not None:
            self._thread.join(timeout=5.0)
            self._thread = None
            raise self._startup_error
        _logger.info("serving on %s", self.url)
        return self

    def stop(self) -> None:
        loop, thread = self._loop, self._thread
        if loop is None or thread is None:
            return
        future = asyncio.run_coroutine_threadsafe(self._shutdown(), loop)
        try:
            future.result(timeout=self.app.config.drain_timeout_s + 10.0)
        except (TimeoutError, asyncio.TimeoutError):  # pragma: no cover
            _logger.warning("async server drain timed out; forcing stop")
            loop.call_soon_threadsafe(self._force_stop)
        thread.join(timeout=10.0)
        self._thread = None
        self._loop = None
        self._address = None
        self.app.close()

    def __enter__(self) -> "AsyncReproServer":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.stop()

    def _force_stop(self) -> None:
        if self._stop_event is not None:
            self._stop_event.set()

    def _run_loop(self) -> None:
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        self._loop = loop
        try:
            loop.run_until_complete(self._main())
        except BaseException as error:  # noqa: BLE001 — surfaced via start()
            if not self._startup.is_set():
                self._startup_error = error
                self._startup.set()
            else:  # pragma: no cover — post-startup loop crash
                _logger.exception("async server loop failed")
        finally:
            try:
                loop.run_until_complete(loop.shutdown_asyncgens())
            finally:
                asyncio.set_event_loop(None)
                loop.close()

    async def _main(self) -> None:
        self._stop_event = asyncio.Event()
        host, port = self._requested
        try:
            self._server = await asyncio.start_server(
                self._handle_connection, host=host, port=port
            )
        except OSError as error:
            raise ConfigurationError(
                f"cannot bind async server to {host}:{port}: {error}"
            ) from error
        sockets = self._server.sockets or ()
        bound = sockets[0].getsockname()
        self._address = (bound[0], int(bound[1]))
        self._startup.set()
        await self._stop_event.wait()

    async def _shutdown(self) -> None:
        """Stop accepting, let in-flight requests finish, exit the loop."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        pending = {task for task in self._conn_tasks if not task.done()}
        if pending:
            await asyncio.wait(
                pending, timeout=self.app.config.drain_timeout_s
            )
        assert self._stop_event is not None
        self._stop_event.set()

    # ------------------------------------------------------------------
    # Connection handling
    # ------------------------------------------------------------------
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._conn_tasks.add(task)
            task.add_done_callback(self._conn_tasks.discard)
        try:
            while True:
                try:
                    request = await self._read_request(reader)
                except _BadRequest as error:
                    self._write_response(
                        writer,
                        RouteResult(
                            400, dump_payload(ErrorBody(str(error)).to_payload())
                        ),
                        keep_alive=False,
                    )
                    await writer.drain()
                    break
                if request is None:
                    break
                method, target, version, headers, body = request
                result = await self._dispatch(method, target, body)
                keep_alive = (
                    headers.get("connection", "keep-alive").lower() != "close"
                    and version == "HTTP/1.1"
                )
                self._write_response(writer, result, keep_alive)
                await writer.drain()
                if not keep_alive:
                    break
        except (ConnectionError, asyncio.IncompleteReadError):
            pass  # client went away mid-request; nothing to answer
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):  # pragma: no cover
                pass

    @staticmethod
    async def _readline(reader: asyncio.StreamReader) -> bytes:
        try:
            return await reader.readline()
        except ValueError as error:  # the line outgrew the stream limit
            raise _BadRequest("line longer than the stream limit") from error

    async def _read_request(
        self, reader: asyncio.StreamReader
    ) -> tuple[str, str, str, dict[str, str], bytes] | None:
        """One parsed request, or ``None`` once the client hung up.

        Raises :class:`_BadRequest` for input that is not HTTP/1.1.
        """
        request_line = await self._readline(reader)
        if not request_line:
            return None
        parts = request_line.decode("latin-1").strip().split(" ")
        if len(parts) != 3:
            raise _BadRequest("malformed request line")
        method, target, version = parts
        headers: dict[str, str] = {}
        for _ in range(_MAX_HEADER_LINES):
            line = await self._readline(reader)
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        else:
            raise _BadRequest(f"more than {_MAX_HEADER_LINES} header lines")
        raw_length = headers.get("content-length", "0") or "0"
        try:
            length = int(raw_length)
        except ValueError:
            length = -1
        if length < 0:
            raise _BadRequest(f"invalid Content-Length {raw_length!r}")
        body = await reader.readexactly(length) if length > 0 else b""
        return method, target, version, headers, body

    async def _dispatch(
        self, method: str, target: str, body: bytes
    ) -> RouteResult:
        loop = asyncio.get_running_loop()
        # begin() is the synchronous half: parse, canonicalise, admit,
        # submit (plus a possible first-request checkpoint load).  It
        # runs in the executor so a slow load never stalls the loop;
        # the inference *wait* costs no thread at all.
        outcome = await loop.run_in_executor(
            None, self.app.router.begin, method, target, body
        )
        if isinstance(outcome, RouteResult):
            return outcome
        try:
            logits = await asyncio.wait_for(
                asyncio.wrap_future(outcome.future),
                timeout=self.app.config.request_timeout,
            )
        except BaseException as error:  # noqa: BLE001 — rendered as a response
            return outcome.fail(error)
        return outcome.finish(logits)

    @staticmethod
    def _write_response(
        writer: asyncio.StreamWriter, result: RouteResult, keep_alive: bool
    ) -> None:
        lines = [
            f"HTTP/1.1 {result.status} {_reason(result.status)}",
            f"Content-Type: {result.content_type}",
            f"Content-Length: {len(result.body)}",
            f"Connection: {'keep-alive' if keep_alive else 'close'}",
        ]
        lines.extend(f"{name}: {value}" for name, value in result.headers)
        head = ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")
        writer.write(head + result.body)
