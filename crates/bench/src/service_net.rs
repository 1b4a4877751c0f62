//! The socket layer shared by `nvmx-serve`, `nvmx-client`, and
//! `run --connect`: re-exports of the transport primitives that moved to
//! [`nvmexplorer_core::transport`] (endpoint specs, listener/stream
//! wrappers making Unix and TCP sockets interchangeable), plus the
//! line-at-a-time [`Client`] call helper for the service protocol of
//! `nvmexplorer_core::wire` (normative spec: `docs/PROTOCOL.md`).
//!
//! The primitives moved into core so the campaign runner
//! (`nvmx-coordinator` / `nvmx-worker --connect`) and the persistent
//! service can share one transport; existing `service_net::{Endpoint,
//! Listener, Stream}` call sites keep compiling unchanged.

use nvmexplorer_core::transport::read_frame_line;
use std::io::{self, BufReader, Write};

pub use nvmexplorer_core::transport::{Connection, Endpoint, Listener, Stream};

/// A connected protocol client: writes request lines, reads response and
/// event lines.
pub struct Client {
    reader: BufReader<Stream>,
    writer: Stream,
}

impl Client {
    /// Connects to a serve endpoint.
    ///
    /// # Errors
    ///
    /// Propagates connect/clone failures.
    pub fn connect(endpoint: &Endpoint) -> io::Result<Self> {
        let stream = Stream::connect(endpoint)?;
        let writer = stream.try_clone()?;
        Ok(Self {
            reader: BufReader::new(stream),
            writer,
        })
    }

    /// Sends one request line.
    ///
    /// # Errors
    ///
    /// Propagates write failures.
    pub fn send(&mut self, request: &nvmexplorer_core::wire::RequestFrame) -> io::Result<()> {
        let mut line = request.to_line();
        line.push('\n');
        self.writer.write_all(line.as_bytes())?;
        self.writer.flush()
    }

    /// Reads the next line (without its newline). `Ok(None)` is a clean
    /// end-of-stream — the server closed the connection.
    ///
    /// # Errors
    ///
    /// Propagates read failures; a line longer than
    /// [`MAX_FRAME_BYTES`](nvmexplorer_core::wire::MAX_FRAME_BYTES) is an
    /// [`io::ErrorKind::InvalidData`] error.
    pub fn read_line(&mut self) -> io::Result<Option<String>> {
        let mut line = String::new();
        Ok(read_frame_line(&mut self.reader, &mut line)?.then_some(line))
    }
}
