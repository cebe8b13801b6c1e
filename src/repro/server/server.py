"""The multi-session debug server: TCP transport + connection loop.

:class:`DebugServer` listens on a TCP socket, spawns one thread per
connection, and feeds frames through a
:class:`~repro.server.handlers.RequestRouter` backed by a shared
:class:`~repro.server.manager.SessionManager`.  Responses and streamed
events share the connection's socket behind a write lock, so a
``monitorHit`` fired mid-``continue`` interleaves cleanly with the
eventual response frame.

Failure containment, end to end:

* a malformed frame body gets an error *response* and the connection
  keeps serving (frame boundaries are still synchronised);
* an oversized or truncated frame drops only that connection — the
  length prefix can no longer be trusted;
* any error inside a handler (including injected
  :class:`~repro.errors.MrsTransactionError` faults) is serialised as
  a structured error payload and the server keeps serving every other
  session;
* :meth:`DebugServer.close` performs a graceful shutdown: stop
  accepting, drain in-flight executions, evict every session with
  reason ``"shutdown"``, then close the sockets.

When ``idle_timeout`` is configured a sweeper thread evicts sessions
that have not been touched within the window, emitting a
``sessionEvicted`` event to their subscribers first.

Crash safety: with ``hibernate_dir`` configured the server owns a
:class:`~repro.server.hibernate.HibernationStore`.  Startup scans the
directory and adopts sessions frozen by a previous process — so a
``kill -9`` mid-flight loses at most the sessions that were live in
RAM, and everything already hibernated resumes under its old id.  A
dropped connection (client crash, network partition, liveness-timeout
expiry) *hibernates* its sessions instead of destroying them, so the
client can reconnect and ``resume``; only an explicit ``disconnect``
request destroys.
"""

from __future__ import annotations

import socket
import threading
from typing import Any, Dict, List, Optional, Tuple

from repro.errors import ProtocolError
from repro.server.handlers import RequestRouter, ServerConfig
from repro.server.manager import SessionManager
from repro.server.protocol import (Event, Request, Response, decode,
                                   encode, error_payload, read_frame)

__all__ = ["DebugServer"]


class _Connection:
    """One client connection: a request loop plus an event sink."""

    def __init__(self, server: "DebugServer", sock: socket.socket,
                 peer: Tuple[str, int]):
        self.server = server
        self.sock = sock
        self.peer = peer
        self._write_lock = threading.Lock()
        self._seq_lock = threading.Lock()
        self._seq = 0
        #: sessions launched over this connection (torn down on close)
        self.sessions: List[str] = []
        self.closed = False

    def next_seq(self) -> int:
        with self._seq_lock:
            self._seq += 1
            return self._seq

    def send(self, message) -> None:
        payload = encode(message)
        with self._write_lock:
            if self.closed:
                return
            try:
                self.sock.sendall(payload)
            except OSError:
                self.closed = True

    def emit(self, event: str, body: Dict[str, Any]) -> None:
        if not self.closed:
            self.send(Event(seq=self.next_seq(), event=event, body=body))

    def serve(self) -> None:
        router = self.server.router
        try:
            while not self.closed and self.server.running:
                try:
                    payload = read_frame(
                        self.sock, self.server.config.max_frame_bytes)
                except ProtocolError as exc:
                    # framing is lost: report once, then drop the link
                    self.send(Response(
                        seq=self.next_seq(), request_seq=0,
                        command="", success=False,
                        error=error_payload(exc)))
                    break
                except OSError:
                    break
                if payload is None:
                    break
                try:
                    message = decode(payload)
                    if not isinstance(message, Request):
                        raise ProtocolError(
                            "clients may only send requests",
                            reason="direction")
                except ProtocolError as exc:
                    # the frame boundary held: answer and keep serving
                    self.send(Response(
                        seq=self.next_seq(), request_seq=0,
                        command="", success=False,
                        error=error_payload(exc)))
                    continue
                response = router.dispatch(message, self.emit,
                                           self.next_seq)
                if message.command in ("launch", "resume") and \
                        response.success:
                    session_id = response.body["sessionId"]
                    if session_id not in self.sessions:
                        self.sessions.append(session_id)
                self.send(response)
        finally:
            self.close()

    def close(self) -> None:
        self.closed = True
        for session_id in self.sessions:
            # a dead connection is not a disconnect request: with a
            # hibernation store the session freezes (resumable after
            # reconnect); a busy session stays live for the idle
            # sweeper.  Only without a store does a drop still destroy.
            manager = self.server.manager
            if manager.store is not None:
                try:
                    manager.hibernate(session_id, reason="connection")
                except Exception:
                    pass
            else:
                manager.destroy(session_id, reason="disconnect")
        self.sessions = []
        try:
            self.sock.close()
        except OSError:
            pass
        self.server._forget(self)


class DebugServer:
    """A TCP debug server hosting many concurrent sessions."""

    def __init__(self, host: str = "127.0.0.1", port: int = 0,
                 config: Optional[ServerConfig] = None):
        self.config = config if config is not None else ServerConfig()
        self.store = None
        if self.config.hibernate_dir is not None:
            from repro.server.hibernate import HibernationStore
            self.store = HibernationStore(
                self.config.hibernate_dir,
                faults=self.config.hibernate_faults)
        self.trace_store = None
        if self.config.trace_store is not None:
            from repro.store import TraceStore
            self.trace_store = TraceStore(self.config.trace_store)
        self.manager = SessionManager(
            max_sessions=self.config.max_sessions,
            idle_timeout=self.config.idle_timeout,
            workers=self.config.workers,
            store=self.store,
            trace_store=self.trace_store)
        #: sessions frozen by a previous process, resumable by id
        self.adopted = self.manager.adopt_frozen()
        self.router = RequestRouter(self.manager, self.config)
        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._listener.bind((host, port))
        self._listener.listen(64)
        self.address: Tuple[str, int] = self._listener.getsockname()
        self.running = True
        self._conn_lock = threading.Lock()
        self._connections: List[_Connection] = []
        self._threads: List[threading.Thread] = []
        self._accept_thread: Optional[threading.Thread] = None
        self._sweeper: Optional[threading.Thread] = None
        self._stop = threading.Event()
        if self.config.idle_timeout is not None:
            self._sweeper = threading.Thread(target=self._sweep,
                                             name="repro-evict",
                                             daemon=True)
            self._sweeper.start()

    @property
    def port(self) -> int:
        return self.address[1]

    # -- accept loop -------------------------------------------------------

    def serve_forever(self) -> None:
        """Accept connections until :meth:`close` (CLI entry point)."""
        while self.running:
            try:
                sock, peer = self._listener.accept()
            except OSError:
                break
            self._spawn(sock, peer)

    def start(self) -> "DebugServer":
        """Run the accept loop on a background thread (tests, bench)."""
        self._accept_thread = threading.Thread(target=self.serve_forever,
                                               name="repro-accept",
                                               daemon=True)
        self._accept_thread.start()
        return self

    def _spawn(self, sock: socket.socket, peer) -> None:
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        if self.config.liveness_timeout is not None:
            # a connection silent past the deadline (no requests, no
            # heartbeat pings) times out of its blocking read; the
            # close path then hibernates its sessions
            sock.settimeout(self.config.liveness_timeout)
        connection = _Connection(self, sock, peer)
        with self._conn_lock:
            self._connections.append(connection)
        thread = threading.Thread(target=connection.serve,
                                  name="repro-conn-%s:%d" % peer,
                                  daemon=True)
        self._threads.append(thread)
        thread.start()

    def _forget(self, connection: _Connection) -> None:
        with self._conn_lock:
            if connection in self._connections:
                self._connections.remove(connection)

    def _sweep(self) -> None:
        interval = max(0.05, min(self.config.idle_timeout / 2.0, 1.0))
        while not self._stop.wait(interval):
            self.manager.evict_idle()

    # -- shutdown ----------------------------------------------------------

    def close(self, drain: bool = True,
              timeout: Optional[float] = 30.0) -> None:
        """Graceful shutdown: stop accepting, drain in-flight requests,
        evict all sessions, then close every socket."""
        if not self.running:
            return
        self.running = False
        self._stop.set()
        # close() alone does not wake a thread blocked in accept() on
        # Linux; shutdown() does
        try:
            self._listener.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        try:
            self._listener.close()
        except OSError:
            pass
        self.manager.shutdown(drain=drain, timeout=timeout)
        with self._conn_lock:
            connections = list(self._connections)
        for connection in connections:
            connection.close()
        if self._accept_thread is not None:
            self._accept_thread.join(timeout=5.0)
        if self.trace_store is not None:
            self.trace_store.close()

    def __enter__(self) -> "DebugServer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
