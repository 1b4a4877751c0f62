//! Framed transport for the wire protocol: endpoint specs, listeners and
//! streams that make Unix-domain and TCP sockets interchangeable, and a
//! line-framed duplex [`Connection`] that works over sockets *and* over a
//! child process's stdin/stdout pipe — so every campaign binary speaks the
//! same strict JSONL frames (`crate::wire`) whatever carries the bytes.
//!
//! An endpoint spec is a string:
//!
//! - `unix:/path/to.sock` — a Unix-domain socket at that path,
//! - `tcp:HOST:PORT` — a TCP socket (use port `0` to bind ephemerally;
//!   [`Listener::local_spec`] reports the resolved address).
//!
//! The third transport is not an endpoint at all: [`Connection::pipe`]
//! frames a worker's own stdin/stdout, which a supervising coordinator
//! holds as the child's pipe pair. A worker started with `--connect pipe`
//! and one started with `--connect tcp:…` run the identical protocol loop;
//! only the byte carrier differs.
//!
//! [`Connection`] is the only way a protocol peer reads or writes those
//! bytes. Its two halves own the framing: a [`FrameReader`] yields whole
//! lines, bounded by [`MAX_FRAME_BYTES`] and with blank lines skipped, and
//! a [`FrameWriter`] buffers lines until the peer flushes. Every client,
//! daemon, worker and coordinator frames its lines through them.
//!
//! Everything here is synchronous std networking — the protocol is
//! line-oriented JSONL and the peers are thread-per-connection; no async
//! runtime is needed (or available offline).

use crate::wire::MAX_FRAME_BYTES;
use std::io::{self, BufRead, BufReader, BufWriter, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;

/// A parsed endpoint spec.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Endpoint {
    /// A Unix-domain socket path (`unix:/path`).
    Unix(PathBuf),
    /// A TCP address (`tcp:HOST:PORT`).
    Tcp(String),
}

impl Endpoint {
    /// Parses an endpoint spec.
    ///
    /// # Errors
    ///
    /// A usage message when the spec has neither a `unix:` nor a `tcp:`
    /// scheme, or the address part is empty.
    pub fn parse(spec: &str) -> Result<Self, String> {
        if let Some(path) = spec.strip_prefix("unix:") {
            if path.is_empty() {
                return Err("unix: endpoint needs a socket path".to_owned());
            }
            return Ok(Self::Unix(PathBuf::from(path)));
        }
        if let Some(addr) = spec.strip_prefix("tcp:") {
            if addr.is_empty() {
                return Err("tcp: endpoint needs HOST:PORT".to_owned());
            }
            return Ok(Self::Tcp(addr.to_owned()));
        }
        Err(format!(
            "endpoint `{spec}` must be `unix:PATH` or `tcp:HOST:PORT`"
        ))
    }
}

impl std::fmt::Display for Endpoint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Unix(path) => write!(f, "unix:{}", path.display()),
            Self::Tcp(addr) => write!(f, "tcp:{addr}"),
        }
    }
}

/// A bound service listener over either socket family.
pub enum Listener {
    /// Bound Unix-domain socket.
    Unix(UnixListener, PathBuf),
    /// Bound TCP socket.
    Tcp(TcpListener),
}

impl Listener {
    /// Binds the endpoint. A pre-existing Unix socket path is removed
    /// first (the daemon owns its path, and a stale socket from a killed
    /// process would otherwise block every restart).
    ///
    /// # Errors
    ///
    /// Propagates bind failures.
    pub fn bind(endpoint: &Endpoint) -> io::Result<Self> {
        match endpoint {
            Endpoint::Unix(path) => {
                if path.exists() {
                    std::fs::remove_file(path)?;
                }
                Ok(Self::Unix(UnixListener::bind(path)?, path.clone()))
            }
            Endpoint::Tcp(addr) => Ok(Self::Tcp(TcpListener::bind(addr.as_str())?)),
        }
    }

    /// The bound address as a connectable spec — for TCP this is the
    /// *resolved* address, so binding `tcp:127.0.0.1:0` reports the
    /// ephemeral port the OS picked.
    pub fn local_spec(&self) -> String {
        match self {
            Self::Unix(_, path) => format!("unix:{}", path.display()),
            Self::Tcp(listener) => match listener.local_addr() {
                Ok(addr) => format!("tcp:{addr}"),
                Err(_) => "tcp:?".to_owned(),
            },
        }
    }

    /// Accepts one connection.
    ///
    /// # Errors
    ///
    /// Propagates accept failures.
    pub fn accept(&self) -> io::Result<Stream> {
        match self {
            Self::Unix(listener, _) => listener.accept().map(|(s, _)| Stream::Unix(s)),
            Self::Tcp(listener) => listener.accept().map(|(s, _)| Stream::Tcp(s)),
        }
    }
}

impl Drop for Listener {
    fn drop(&mut self) {
        if let Self::Unix(_, path) = self {
            let _ = std::fs::remove_file(path);
        }
    }
}

/// One connection over either socket family.
pub enum Stream {
    /// A Unix-domain connection.
    Unix(UnixStream),
    /// A TCP connection.
    Tcp(TcpStream),
}

impl Stream {
    /// Connects to an endpoint.
    ///
    /// # Errors
    ///
    /// Propagates connect failures.
    pub fn connect(endpoint: &Endpoint) -> io::Result<Self> {
        match endpoint {
            Endpoint::Unix(path) => UnixStream::connect(path).map(Self::Unix),
            Endpoint::Tcp(addr) => TcpStream::connect(addr.as_str()).map(Self::Tcp),
        }
    }

    /// An independent handle to the same connection (separate read and
    /// write positions are not duplicated — this is the OS-level dup the
    /// std socket types provide).
    ///
    /// # Errors
    ///
    /// Propagates `try_clone` failures.
    pub fn try_clone(&self) -> io::Result<Self> {
        match self {
            Self::Unix(s) => s.try_clone().map(Self::Unix),
            Self::Tcp(s) => s.try_clone().map(Self::Tcp),
        }
    }
}

impl io::Read for Stream {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            Self::Unix(s) => s.read(buf),
            Self::Tcp(s) => s.read(buf),
        }
    }
}

impl io::Write for Stream {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            Self::Unix(s) => s.write(buf),
            Self::Tcp(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        match self {
            Self::Unix(s) => s.flush(),
            Self::Tcp(s) => s.flush(),
        }
    }
}

/// How a campaign's workers reach their coordinator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransportKind {
    /// Child-process stdin/stdout pipes (single-host, no sockets).
    Pipe,
    /// A TCP listener (workers may live on other hosts).
    Tcp,
    /// A Unix-domain socket (single host, filesystem-addressed).
    Unix,
}

impl TransportKind {
    /// Parses the CLI form: `pipe`, `tcp`, or `unix`.
    ///
    /// # Errors
    ///
    /// A usage message naming the valid forms.
    pub fn parse(spec: &str) -> Result<Self, String> {
        match spec {
            "pipe" => Ok(Self::Pipe),
            "tcp" => Ok(Self::Tcp),
            "unix" => Ok(Self::Unix),
            other => Err(format!(
                "transport `{other}` must be `pipe`, `tcp`, or `unix`"
            )),
        }
    }

    /// The CLI spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            Self::Pipe => "pipe",
            Self::Tcp => "tcp",
            Self::Unix => "unix",
        }
    }
}

impl std::fmt::Display for TransportKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Bytes a [`FrameWriter`] buffers before it writes through on its own.
const WRITE_BUFFER_BYTES: usize = 64 * 1024;

/// The bounded read half of a [`Connection`]: yields whole frame lines,
/// skipping blank ones, through [`read_frame_line`].
pub struct FrameReader {
    inner: BufReader<Box<dyn Read + Send>>,
}

impl FrameReader {
    /// Reads the next non-blank frame line into `line` (a caller-owned
    /// buffer, reused across calls), without its terminator. Returns
    /// `Ok(false)` at a clean end of input.
    ///
    /// # Errors
    ///
    /// As [`read_frame_line`]: [`io::ErrorKind::InvalidData`] for a line
    /// over [`MAX_FRAME_BYTES`] or one that is not UTF-8; read failures
    /// propagate.
    pub fn next_line(&mut self, line: &mut String) -> io::Result<bool> {
        while read_frame_line(&mut self.inner, line)? {
            if !line.trim().is_empty() {
                return Ok(true);
            }
        }
        Ok(false)
    }

    /// Whether bytes already read from the peer wait in the buffer. When
    /// `false`, the next [`next_line`](Self::next_line) reads from the
    /// peer, and blocks if the peer has sent nothing more; when `true`,
    /// the buffered bytes may still end in a partial line.
    #[inline]
    pub fn has_buffered(&self) -> bool {
        !self.inner.buffer().is_empty()
    }
}

/// The buffered write half of a [`Connection`]: [`send`](Self::send)
/// buffers one line, [`flush`](Self::flush) delivers everything buffered,
/// and [`send_now`](Self::send_now) does both. The buffer (64 KiB) writes
/// through on its own only when it fills.
pub struct FrameWriter {
    inner: BufWriter<Box<dyn Write + Send>>,
}

impl FrameWriter {
    /// Buffers one frame line; the newline is appended here.
    ///
    /// # Errors
    ///
    /// Propagates write failures of a full buffer's write-through.
    pub fn send(&mut self, line: &str) -> io::Result<()> {
        self.inner.write_all(line.as_bytes())?;
        self.inner.write_all(b"\n")
    }

    /// Delivers every buffered line.
    ///
    /// # Errors
    ///
    /// Propagates write failures — on a socket, the usual sign the peer is
    /// gone.
    pub fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }

    /// Buffers one frame line and delivers it, with anything buffered
    /// before it.
    ///
    /// # Errors
    ///
    /// As [`flush`](Self::flush).
    pub fn send_now(&mut self, line: &str) -> io::Result<()> {
        self.send(line)?;
        self.flush()
    }
}

/// A line-framed duplex connection: reads and writes whole `\n`-terminated
/// JSONL frames — the one way a protocol peer touches a socket or pipe.
///
/// [`send_line`](Self::send_line) and [`recv_line`](Self::recv_line) serve
/// a peer that talks from one thread. The halves are independent objects
/// (a socket dup, or the two ends of a pipe pair), so a peer that reads on
/// one thread and writes on others takes them apart — by
/// [`into_split`](Self::into_split) or by destructuring
/// `Connection { reader, writer }`. The worker reads leases on its main
/// thread while its emitter, heartbeat and compute threads share the
/// writer; the coordinator pumps each worker's reader on its own thread
/// and grants leases through the writer from the merge loop.
pub struct Connection {
    /// The bounded frame-line reader.
    pub reader: FrameReader,
    /// The buffered frame-line writer.
    pub writer: FrameWriter,
}

impl Connection {
    /// Frames an accepted or dialed socket.
    ///
    /// # Errors
    ///
    /// Propagates the dup of the write half.
    pub fn from_stream(stream: Stream) -> io::Result<Self> {
        let writer = stream.try_clone()?;
        Ok(Self::from_parts(stream, writer))
    }

    /// Dials an endpoint and frames the connection.
    ///
    /// # Errors
    ///
    /// Propagates connect failures.
    pub fn connect(endpoint: &Endpoint) -> io::Result<Self> {
        Self::from_stream(Stream::connect(endpoint)?)
    }

    /// Frames this process's own stdin/stdout — the pipe transport of a
    /// worker whose coordinator holds the other ends as the child's pipes.
    /// Anything else the process wants to say must go to stderr.
    pub fn pipe() -> Self {
        Self::from_parts(io::stdin(), io::stdout())
    }

    /// Frames an arbitrary read/write pair (a child's stdout/stdin from
    /// the parent side, or an in-memory pair in tests).
    pub fn from_parts(
        reader: impl Read + Send + 'static,
        writer: impl Write + Send + 'static,
    ) -> Self {
        Self {
            reader: FrameReader {
                inner: BufReader::new(Box::new(reader)),
            },
            writer: FrameWriter {
                inner: BufWriter::with_capacity(WRITE_BUFFER_BYTES, Box::new(writer)),
            },
        }
    }

    /// Writes one frame line (the newline is appended here) and flushes.
    ///
    /// # Errors
    ///
    /// Propagates write failures — on a socket, the usual sign the peer is
    /// gone.
    pub fn send_line(&mut self, line: &str) -> io::Result<()> {
        self.writer.send_now(line)
    }

    /// Reads the next non-blank frame line, without its newline.
    /// `Ok(None)` is a clean end-of-stream — the peer closed the
    /// connection.
    ///
    /// # Errors
    ///
    /// As [`FrameReader::next_line`].
    pub fn recv_line(&mut self) -> io::Result<Option<String>> {
        let mut line = String::new();
        Ok(self.reader.next_line(&mut line)?.then_some(line))
    }

    /// Splits the connection into its read half and write half, for peers
    /// that put the two on different threads.
    pub fn into_split(self) -> (FrameReader, FrameWriter) {
        (self.reader, self.writer)
    }
}

/// Reads one `\n`-terminated line into `line` (cleared first), without
/// its `\n` / `\r\n` terminator. Returns `Ok(false)` at a clean end of
/// input; an unterminated final line is still returned.
///
/// This is the one line reader of every protocol path — each
/// [`FrameReader`], and strict replay of a capture — and it is bounded: the
/// line's bytes before its `\n` (a `\r` included) may number at most
/// [`MAX_FRAME_BYTES`], and a longer line fails once `MAX_FRAME_BYTES + 1`
/// bytes without a newline are buffered, so a peer that streams bytes
/// without ever sending a newline costs at most one bounded buffer. The
/// newline is found by std's [`BufRead::read_until`] (a word-at-a-time
/// scan of each buffered chunk), which also retries
/// [`io::ErrorKind::Interrupted`]. Every caller stops reading at the first
/// error: after one, the stream's position is unspecified.
///
/// # Errors
///
/// [`io::ErrorKind::InvalidData`] for a line over [`MAX_FRAME_BYTES`] or
/// one that is not UTF-8; read failures propagate.
pub fn read_frame_line<R: BufRead + ?Sized>(reader: &mut R, line: &mut String) -> io::Result<bool> {
    let mut bytes = std::mem::take(line).into_bytes();
    bytes.clear();
    // One byte past the bound: a line that fills it without a newline is
    // over the bound, and `bytes` never holds more than that.
    let limit = MAX_FRAME_BYTES as u64 + 1;
    Read::take(&mut *reader, limit).read_until(b'\n', &mut bytes)?;
    let read = !bytes.is_empty();
    if bytes.last() == Some(&b'\n') {
        bytes.pop();
    } else if bytes.len() > MAX_FRAME_BYTES {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame line exceeds MAX_FRAME_BYTES ({MAX_FRAME_BYTES} bytes)"),
        ));
    }
    if bytes.last() == Some(&b'\r') {
        bytes.pop();
    }
    *line = String::from_utf8(bytes)
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "frame line is not valid UTF-8"))?;
    Ok(read)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn endpoint_specs_parse_and_display() {
        assert_eq!(
            Endpoint::parse("unix:/tmp/x.sock").unwrap().to_string(),
            "unix:/tmp/x.sock"
        );
        assert_eq!(
            Endpoint::parse("tcp:127.0.0.1:0").unwrap().to_string(),
            "tcp:127.0.0.1:0"
        );
        assert!(Endpoint::parse("udp:1.2.3.4:5").is_err());
        assert!(Endpoint::parse("unix:").is_err());
        assert!(Endpoint::parse("tcp:").is_err());
    }

    #[test]
    fn transport_kinds_parse() {
        assert_eq!(TransportKind::parse("pipe").unwrap(), TransportKind::Pipe);
        assert_eq!(TransportKind::parse("tcp").unwrap(), TransportKind::Tcp);
        assert_eq!(TransportKind::parse("unix").unwrap(), TransportKind::Unix);
        assert!(TransportKind::parse("carrier-pigeon").is_err());
        assert_eq!(TransportKind::Unix.to_string(), "unix");
    }

    #[test]
    fn frame_lines_are_bounded_by_max_frame_bytes() {
        let mut line = String::new();
        let mut exact = vec![b'x'; MAX_FRAME_BYTES];
        exact.extend_from_slice(b"\nnext\r\n");
        let mut reader = io::Cursor::new(exact);
        assert!(read_frame_line(&mut reader, &mut line).unwrap());
        assert_eq!(line.len(), MAX_FRAME_BYTES, "the bound itself is accepted");
        assert!(read_frame_line(&mut reader, &mut line).unwrap());
        assert_eq!(line, "next", "a CRLF terminator is stripped");
        assert!(!read_frame_line(&mut reader, &mut line).unwrap());
        let mut tail = io::Cursor::new("last");
        assert!(read_frame_line(&mut tail, &mut line).unwrap());
        assert_eq!(line, "last", "an unterminated tail is still a line");

        let mut oversized = vec![b'x'; MAX_FRAME_BYTES + 1];
        oversized.push(b'\n');
        let err = read_frame_line(&mut io::Cursor::new(oversized), &mut line).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    /// A frame reader over a 7-byte buffer, so lines and terminators
    /// straddle refills.
    fn tiny(input: impl Read + Send + 'static) -> FrameReader {
        FrameReader {
            inner: BufReader::with_capacity(7, Box::new(input)),
        }
    }

    /// Every line `read_frame_line` yields from `input` over a 7-byte
    /// buffer, up to the end or the first error.
    fn tiny_lines(input: &[u8]) -> (Vec<String>, Option<io::Error>) {
        let mut reader = BufReader::with_capacity(7, input);
        let (mut lines, mut line) = (Vec::new(), String::new());
        loop {
            match read_frame_line(&mut reader, &mut line) {
                Ok(true) => lines.push(line.clone()),
                Ok(false) => return (lines, None),
                Err(e) => return (lines, Some(e)),
            }
        }
    }

    #[test]
    fn has_buffered_says_whether_the_next_line_reads_from_the_peer() {
        let mut reader = tiny(io::Cursor::new(b"ab\ncd\nef\n".to_vec()));
        let mut line = String::new();
        assert!(
            !reader.has_buffered(),
            "nothing is read before the first line"
        );
        // The first fill is `ab\ncd\ne`.
        assert!(reader.next_line(&mut line).unwrap());
        assert!(reader.has_buffered());
        assert!(reader.next_line(&mut line).unwrap());
        assert!(reader.has_buffered(), "a partial line counts as buffered");
        // `e` joins the second fill, `f\n`, which the line uses up.
        assert!(reader.next_line(&mut line).unwrap());
        assert_eq!(line, "ef");
        assert!(!reader.has_buffered());
    }

    #[test]
    fn lines_and_terminators_split_across_refills_frame_whole() {
        // `\r` ends the first 7-byte fill and `\n` starts the next.
        let (lines, err) = tiny_lines(b"abcdef\r\nxyz\n0123456789abcdef\r\n\r\ntail");
        assert!(err.is_none());
        assert_eq!(lines, ["abcdef", "xyz", "0123456789abcdef", "", "tail"]);
        // A lone `\r` at the end is an empty unterminated line; a `\r`
        // inside a line is content.
        let (lines, _) = tiny_lines(b"a\rb\n\r");
        assert_eq!(lines, ["a\rb", ""]);
        assert_eq!(tiny_lines(b"").0, Vec::<String>::new());
    }

    #[test]
    fn the_bound_holds_across_refills_with_and_without_cr() {
        let x = |n: usize, end: &[u8]| {
            let mut line = vec![b'x'; n];
            line.extend_from_slice(end);
            line
        };
        let max = MAX_FRAME_BYTES;
        // Accepted: the bytes before `\n`, a `\r` included, number at most
        // the bound, terminated or not.
        for (input, len) in [
            (x(max, b"\n"), max),
            (x(max - 1, b"\r\n"), max - 1),
            (x(max, b""), max),
            (x(max - 1, b"\r"), max - 1),
        ] {
            let (lines, err) = tiny_lines(&input);
            assert!(err.is_none(), "{err:?}");
            assert_eq!(lines.iter().map(String::len).collect::<Vec<_>>(), [len]);
        }
        // Rejected: one byte more, a `\r` counting as that byte.
        for input in [x(max + 1, b"\n"), x(max, b"\r\n"), x(max + 1, b"")] {
            let (lines, err) = tiny_lines(&input);
            assert!(lines.is_empty());
            assert_eq!(err.map(|e| e.kind()), Some(io::ErrorKind::InvalidData));
        }
    }

    /// Serves `Endless` bytes, counting them.
    struct Counted(std::sync::Arc<std::sync::atomic::AtomicUsize>);

    impl Read for Counted {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            let n = Endless.read(buf)?;
            self.0.fetch_add(n, std::sync::atomic::Ordering::Relaxed);
            Ok(n)
        }
    }

    #[test]
    fn an_oversized_line_fails_after_at_most_the_bound_plus_one_byte() {
        let served = std::sync::Arc::new(std::sync::atomic::AtomicUsize::new(0));
        let mut reader = BufReader::with_capacity(7, Counted(served.clone()));
        let mut line = String::new();
        let err = read_frame_line(&mut reader, &mut line).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        let served = served.load(std::sync::atomic::Ordering::Relaxed);
        // Buffered: the bound plus one byte, and at most one refill more.
        assert!(
            served > MAX_FRAME_BYTES && served <= MAX_FRAME_BYTES + 1 + 7,
            "{served}"
        );
    }

    #[test]
    fn invalid_utf8_is_invalid_data_and_blank_lines_are_skipped_across_refills() {
        let (lines, err) = tiny_lines(b"ok\n\xff\xfe\nafter\n");
        assert_eq!(lines, ["ok"]);
        assert_eq!(err.map(|e| e.kind()), Some(io::ErrorKind::InvalidData));
        // A character split across refills is still one character.
        assert_eq!(tiny_lines("abcdeé\n".as_bytes()).0, ["abcdeé"]);

        let mut reader = tiny(io::Cursor::new(
            "\n \t \r\n\r\n     \nfirst\n\n\n\nsecond\r\n \n",
        ));
        let mut line = String::new();
        assert!(reader.next_line(&mut line).unwrap());
        assert_eq!(line, "first");
        assert!(reader.next_line(&mut line).unwrap());
        assert_eq!(line, "second");
        assert!(!reader.next_line(&mut line).unwrap());
    }

    /// Serves `chunks` in order, one per read: `Ok` bytes, or an error of
    /// the given kind.
    struct Scripted(std::collections::VecDeque<Result<&'static [u8], io::ErrorKind>>);

    impl Read for Scripted {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            match self.0.pop_front() {
                None => Ok(0),
                Some(Err(kind)) => Err(kind.into()),
                Some(Ok(bytes)) => {
                    let n = bytes.len().min(buf.len());
                    buf[..n].copy_from_slice(&bytes[..n]);
                    Ok(n)
                }
            }
        }
    }

    #[test]
    fn a_reader_failing_mid_line_fails_the_line_and_interrupts_are_retried() {
        use io::ErrorKind::{ConnectionReset, Interrupted};
        let script = [
            Ok(&b"first\n"[..]),
            Ok(b"par"),
            Err(Interrupted),
            Ok(b"t\r"),
            Err(Interrupted),
            Ok(b"\nbro"),
            Err(ConnectionReset),
        ];
        let mut reader = tiny(Scripted(script.into_iter().collect()));
        let mut line = String::new();
        assert!(reader.next_line(&mut line).unwrap());
        assert_eq!(line, "first");
        assert!(reader.next_line(&mut line).unwrap());
        assert_eq!(line, "part", "interrupted reads are retried");
        let err = reader.next_line(&mut line).unwrap_err();
        assert_eq!(err.kind(), ConnectionReset);
    }

    /// A peer that streams bytes forever without a newline.
    struct Endless;

    impl Read for Endless {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            buf.fill(b'{');
            Ok(buf.len())
        }
    }

    #[test]
    fn a_peer_that_never_sends_a_newline_fails_bounded() {
        let mut line = String::new();
        let (mut reader, _) = Connection::from_parts(Endless, io::sink()).into_split();
        let err = reader.next_line(&mut line).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);

        // The same over a real socket: the sender is cut off once the
        // receiver gives up, instead of the receiver buffering forever.
        let path = std::env::temp_dir().join(format!(
            "nvmx_transport_endless_{}.sock",
            std::process::id()
        ));
        let endpoint = Endpoint::Unix(path);
        let listener = Listener::bind(&endpoint).unwrap();
        let sender = std::thread::spawn(move || {
            let mut stream = listener.accept().unwrap();
            let chunk = [b'a'; 64 * 1024];
            while stream.write_all(&chunk).is_ok() {}
        });
        let (mut reader, writer) = Connection::connect(&endpoint).unwrap().into_split();
        let err = reader.next_line(&mut line).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        drop((reader, writer));
        sender.join().unwrap();
    }

    /// An in-memory peer: every byte written reaches it at once.
    #[derive(Clone, Default)]
    struct Peer(std::sync::Arc<std::sync::Mutex<Vec<u8>>>);

    impl Peer {
        fn received(&self) -> String {
            String::from_utf8(self.0.lock().unwrap().clone()).unwrap()
        }
    }

    impl Write for Peer {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn a_sent_line_reaches_the_peer_only_when_flushed() {
        let peer = Peer::default();
        let (_, mut writer) = Connection::from_parts(io::empty(), peer.clone()).into_split();
        writer.send("first").unwrap();
        writer.send("second").unwrap();
        assert_eq!(peer.received(), "", "send only buffers");
        writer.flush().unwrap();
        assert_eq!(peer.received(), "first\nsecond\n");
        writer.send("third").unwrap();
        assert_eq!(peer.received(), "first\nsecond\n");
        writer.send_now("fourth").unwrap();
        assert_eq!(peer.received(), "first\nsecond\nthird\nfourth\n");

        let mut conn = Connection::from_parts(io::empty(), peer.clone());
        conn.send_line("fifth").unwrap();
        assert!(
            peer.received().ends_with("fourth\nfifth\n"),
            "send_line flushes"
        );
    }

    #[test]
    fn the_reader_skips_blank_lines() {
        let input = "\n  \r\nfirst\n\n\t\nsecond\r\n\n";
        let (mut reader, _) =
            Connection::from_parts(io::Cursor::new(input), io::sink()).into_split();
        let mut line = String::new();
        assert!(reader.next_line(&mut line).unwrap());
        assert_eq!(line, "first");
        assert!(reader.next_line(&mut line).unwrap());
        assert_eq!(line, "second");
        assert!(
            !reader.next_line(&mut line).unwrap(),
            "trailing blanks end the stream"
        );

        let mut conn = Connection::from_parts(io::Cursor::new("\n\nonly\n"), io::sink());
        assert_eq!(conn.recv_line().unwrap().as_deref(), Some("only"));
        assert_eq!(conn.recv_line().unwrap(), None);
    }

    #[test]
    fn connections_frame_lines_over_both_socket_families() {
        for spec in ["unix:TMP", "tcp:127.0.0.1:0"] {
            let endpoint = if spec == "unix:TMP" {
                let path = std::env::temp_dir()
                    .join(format!("nvmx_transport_test_{}.sock", std::process::id()));
                Endpoint::Unix(path)
            } else {
                Endpoint::parse(spec).unwrap()
            };
            let listener = Listener::bind(&endpoint).unwrap();
            let connect_to = Endpoint::parse(&listener.local_spec()).unwrap();
            let server = std::thread::spawn(move || {
                let mut conn = Connection::from_stream(listener.accept().unwrap()).unwrap();
                let got = conn.recv_line().unwrap().unwrap();
                conn.send_line(&format!("echo {got}")).unwrap();
                assert!(conn.recv_line().unwrap().is_none(), "client closed");
            });
            let mut client = Connection::connect(&connect_to).unwrap();
            client.send_line("hello").unwrap();
            assert_eq!(client.recv_line().unwrap().unwrap(), "echo hello");
            drop(client);
            server.join().unwrap();
        }
    }
}
