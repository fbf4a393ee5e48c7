//! Blocking client for the `medvid-serve/v1` protocol.

use crate::protocol::{self, IngestShot, QueryRequest, Request, Response, WireJobKind};
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// One connection to a serve instance. Requests are strictly
/// request/response, so a client is usable from one thread at a time;
/// spawn one per thread for concurrent load.
///
/// The transport is generic so tests can speak the protocol over an
/// in-memory or fault-injected stream ([`Client::over`]); production
/// code uses the `TcpStream` default via [`Client::connect`].
pub struct Client<S: Read + Write = TcpStream> {
    stream: S,
}

impl<S: Read + Write> std::fmt::Debug for Client<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Client").finish_non_exhaustive()
    }
}

impl Client<TcpStream> {
    /// Connects with `timeout` applied to the connection attempt and both
    /// socket directions, with Nagle's algorithm off: every request is one
    /// complete frame, so there is nothing to coalesce and only delayed
    /// ACKs to wait for.
    ///
    /// # Errors
    /// Propagates connection failures.
    pub fn connect(addr: SocketAddr, timeout: Duration) -> io::Result<Self> {
        let stream = TcpStream::connect_timeout(&addr, timeout)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(timeout))?;
        stream.set_write_timeout(Some(timeout))?;
        Ok(Client { stream })
    }
}

impl<S: Read + Write> Client<S> {
    /// Wraps an already-established transport.
    pub fn over(stream: S) -> Self {
        Client { stream }
    }

    /// Consumes the client, returning the transport.
    pub fn into_inner(self) -> S {
        self.stream
    }

    /// Sends one request and reads its response.
    ///
    /// # Errors
    /// Propagates I/O and framing failures.
    pub fn request(&mut self, request: &Request) -> io::Result<Response> {
        protocol::send_message(&mut self.stream, request)?;
        protocol::recv_message(&mut self.stream)
    }

    /// Runs a query.
    ///
    /// # Errors
    /// Propagates I/O and framing failures.
    pub fn query(&mut self, query: QueryRequest) -> io::Result<Response> {
        self.request(&Request::Query(query))
    }

    /// Ingests a batch of shots.
    ///
    /// # Errors
    /// Propagates I/O and framing failures.
    pub fn ingest(&mut self, shots: Vec<IngestShot>) -> io::Result<Response> {
        self.request(&Request::Ingest {
            shots,
            trace_id: None,
            trace: false,
            topology_epoch: None,
        })
    }

    /// Ingests a batch with an explicit trace id and a per-stage timing
    /// breakdown requested in the acknowledgement.
    ///
    /// # Errors
    /// Propagates I/O and framing failures.
    pub fn ingest_traced(
        &mut self,
        shots: Vec<IngestShot>,
        trace_id: Option<String>,
    ) -> io::Result<Response> {
        self.request(&Request::Ingest {
            shots,
            trace_id,
            trace: true,
            topology_epoch: None,
        })
    }

    /// Fetches server statistics.
    ///
    /// # Errors
    /// Propagates I/O and framing failures.
    pub fn stats(&mut self) -> io::Result<Response> {
        self.request(&Request::Stats)
    }

    /// Fetches the live rolling-window metrics snapshot.
    ///
    /// # Errors
    /// Propagates I/O and framing failures.
    pub fn metrics(&mut self) -> io::Result<Response> {
        self.request(&Request::Metrics)
    }

    /// Fetches the slow-query log; `drain` also empties it server-side.
    ///
    /// # Errors
    /// Propagates I/O and framing failures.
    pub fn slow_queries(&mut self, drain: bool) -> io::Result<Response> {
        self.request(&Request::SlowQueries { drain })
    }

    /// Asks the server to persist its current epoch at `path`.
    ///
    /// # Errors
    /// Propagates I/O and framing failures.
    pub fn snapshot(&mut self, path: impl Into<String>) -> io::Result<Response> {
        self.request(&Request::Snapshot { path: path.into() })
    }

    /// Asks the server to replace its serving database with the snapshot
    /// at a server-side `path`.
    ///
    /// # Errors
    /// Propagates I/O and framing failures.
    pub fn restore(&mut self, path: impl Into<String>) -> io::Result<Response> {
        self.request(&Request::Restore { path: path.into() })
    }

    /// Enqueues background work on the server's durable job queue.
    ///
    /// # Errors
    /// Propagates I/O and framing failures.
    pub fn submit_job(&mut self, kind: WireJobKind) -> io::Result<Response> {
        self.request(&Request::SubmitJob { kind })
    }

    /// Fetches job status: one job by id, or the whole queue when `id` is
    /// `None`.
    ///
    /// # Errors
    /// Propagates I/O and framing failures.
    pub fn job_status(&mut self, id: Option<u64>) -> io::Result<Response> {
        self.request(&Request::JobStatus { id })
    }

    /// Requests a graceful drain.
    ///
    /// # Errors
    /// Propagates I/O and framing failures.
    pub fn shutdown(&mut self) -> io::Result<Response> {
        self.request(&Request::Shutdown)
    }
}
