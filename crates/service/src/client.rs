//! The client side of the protocol: connect, stream a `.fadet` byte
//! buffer, consume the report stream. Shared by the `fade-client`
//! binary, the load harness, and the integration suite.

use std::io::{self, BufReader};
use std::os::unix::net::UnixStream;
use std::path::Path;

use crate::protocol::{
    read_frame, write_frame, EndSummary, FrameError, Hello, FRAME_END, FRAME_ERROR, FRAME_FINISH,
    FRAME_HELLO, FRAME_REPORT, FRAME_TRACE,
};

/// TRACE frames carry at most this many bytes each (a streaming
/// client's write granularity; servers accept any chunking).
pub const TRACE_CHUNK: usize = 64 * 1024;

/// How one served session can fail from the client's side.
#[derive(Debug)]
pub enum ClientError {
    /// The transport failed (connect, write, or mid-frame close).
    Io(io::Error),
    /// The server's reply violated the framing rules.
    Frame(FrameError),
    /// The server replied with a typed ERROR line (the JSON payload,
    /// verbatim).
    Server(String),
    /// The server closed the stream without END or ERROR.
    ClosedEarly,
    /// The server sent a frame kind a client never expects.
    UnexpectedFrame(u8),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "transport: {e}"),
            ClientError::Frame(e) => write!(f, "bad reply framing: {e}"),
            ClientError::Server(line) => write!(f, "server error: {line}"),
            ClientError::ClosedEarly => write!(f, "server closed the stream before END"),
            ClientError::UnexpectedFrame(k) => write!(f, "unexpected reply frame {k:#04x}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> Self {
        ClientError::Io(e)
    }
}

impl From<FrameError> for ClientError {
    fn from(e: FrameError) -> Self {
        ClientError::Frame(e)
    }
}

/// Runs one full session conversation: HELLO, the trace bytes in
/// [`TRACE_CHUNK`]-sized TRACE frames, FINISH — then reads the reply
/// stream, handing each REPORT line to `on_report`, until END (the
/// decoded counters are returned) or ERROR (a
/// [`ClientError::Server`]).
///
/// If the server errors while we are still streaming (a rejected
/// HELLO, an oversized trace), the local write fails first — the
/// pending ERROR frame is then drained so callers still see the typed
/// reply instead of a bare broken pipe.
pub fn stream_session(
    socket: &Path,
    hello: &Hello,
    trace: &[u8],
    on_report: impl FnMut(&str),
) -> Result<EndSummary, ClientError> {
    replies(&mut send(socket, hello, trace)?, on_report)
}

/// [`stream_session`]'s sending half, ERROR drain included: returns
/// the reply side of the connection once FINISH is written.
pub(crate) fn send(
    socket: &Path,
    hello: &Hello,
    trace: &[u8],
) -> Result<BufReader<UnixStream>, ClientError> {
    let mut stream = UnixStream::connect(socket)?;
    let sent = (|| -> io::Result<()> {
        write_frame(&mut stream, FRAME_HELLO, &hello.encode())?;
        for chunk in trace.chunks(TRACE_CHUNK) {
            write_frame(&mut stream, FRAME_TRACE, chunk)?;
        }
        write_frame(&mut stream, FRAME_FINISH, &[])
    })();
    let mut reader = BufReader::new(stream);
    if let Err(send_err) = sent {
        // Surface the server's typed reply if one is pending.
        if let Ok(Some((FRAME_ERROR, payload))) = read_frame(&mut reader) {
            return Err(ClientError::Server(
                String::from_utf8_lossy(&payload).into_owned(),
            ));
        }
        return Err(send_err.into());
    }
    Ok(reader)
}

/// [`stream_session`]'s reply half: REPORT lines until END or ERROR.
pub(crate) fn replies(
    reader: &mut BufReader<UnixStream>,
    mut on_report: impl FnMut(&str),
) -> Result<EndSummary, ClientError> {
    loop {
        match read_frame(reader)? {
            Some((FRAME_REPORT, payload)) => {
                on_report(&String::from_utf8_lossy(&payload));
            }
            Some((FRAME_END, payload)) => {
                return EndSummary::decode(&payload).map_err(|e| ClientError::Frame(e.into()));
            }
            Some((FRAME_ERROR, payload)) => {
                return Err(ClientError::Server(
                    String::from_utf8_lossy(&payload).into_owned(),
                ));
            }
            Some((kind, _)) => return Err(ClientError::UnexpectedFrame(kind)),
            None => return Err(ClientError::ClosedEarly),
        }
    }
}
