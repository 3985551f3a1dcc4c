//! TCP wire protocol for the classification service.
//!
//! The protocol is deliberately minimal and fully deterministic: after a
//! one-line JSON handshake from the server, every message is fixed-layout
//! binary with little-endian integers and `f32` payloads transported as
//! raw bits, so the bytes on the wire are exactly as reproducible as the
//! engine outputs behind them.
//!
//! ```text
//! server → client   handshake: one JSON line (schema, model dims, defense,
//!                   batching profile), terminated by `\n`
//! client → server   request:  u32 LE element count, then that many f32 LE
//!                   (count 0 = goodbye, connection closes)
//! server → client   response: u8 status
//!                     0 (ok):    u32 LE label, u32 LE confidence f32 bits,
//!                                u8 verdict (0 = clean, 1 = flagged)
//!                     1 (error): u32 LE byte length (at most
//!                                64 KiB), UTF-8 message
//!                     2 (queue_full):        no body — admission shed the
//!                                            request; retry with backoff
//!                     3 (deadline_exceeded): no body — the request went
//!                                            stale in the queue
//! ```
//!
//! A request whose element count exceeds [`MAX_FRAME_ELEMENTS`] is
//! answered with an error response and its payload is drained in bounded
//! chunks (never buffered whole), keeping the connection usable — a
//! hostile or corrupt length prefix cannot make the server allocate
//! gigabytes.
//!
//! Requests on one connection are answered in order; concurrency comes
//! from opening multiple connections, which all feed the same
//! micro-batching queue and therefore coalesce into shared batches.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use blurnet_tensor::Tensor;
use serde::Value;

use crate::service::{ModelInfo, ServeClient};
use crate::{Classification, DefenseVerdict, Result, ServeError};

/// Protocol identifier sent in the handshake's `schema` field.
pub const SCHEMA: &str = "blurnet-serve/1";

/// Response status byte: request answered.
const STATUS_OK: u8 = 0;
/// Response status byte: request failed; an error message follows.
const STATUS_ERR: u8 = 1;
/// Response status byte: admission queue full, request shed (no body).
const STATUS_QUEUE_FULL: u8 = 2;
/// Response status byte: per-request deadline exceeded (no body).
const STATUS_DEADLINE: u8 = 3;

/// Hard cap on the element count of one request frame (4 MiB of `f32`s —
/// three orders of magnitude above any image this service classifies). A
/// larger length prefix is answered with an error response and the
/// payload is drained without ever being buffered whole.
pub const MAX_FRAME_ELEMENTS: usize = 1 << 20;

/// Hard cap on the client's read of the handshake line (a real one is
/// about 150 bytes), so a hostile server cannot grow the client's buffer
/// without bound.
const MAX_HANDSHAKE_BYTES: u64 = 64 * 1024;

/// Hard cap on an error response's message: the server truncates longer
/// messages (at a UTF-8 boundary) and the client rejects a longer length
/// prefix before allocating, so a hostile server cannot make the client
/// allocate up to 4 GiB.
const MAX_ERROR_BYTES: usize = 64 * 1024;

/// The server's opening JSON line, describing the model and batching
/// profile so clients can size payloads without out-of-band knowledge.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Handshake {
    /// Protocol identifier; always [`SCHEMA`] for this version.
    pub schema: String,
    /// Number of output classes.
    classes: usize,
    /// Expected image shape, `[channels, height, width]`.
    pub input_dims: [usize; 3],
    /// Label of the defense variant being served.
    pub defense: String,
    /// The service's size-triggered flush threshold.
    pub max_batch: usize,
    /// The service's deadline-triggered flush window, in microseconds.
    pub window_us: u64,
}

impl Handshake {
    /// Number of `f32` elements in one request image.
    pub fn elements(&self) -> usize {
        self.input_dims.iter().product()
    }

    /// Builds the handshake for a service's model and batching profile.
    pub fn new(info: &ModelInfo, max_batch: usize, flush_window: Duration) -> Self {
        Handshake {
            schema: SCHEMA.to_string(),
            classes: info.classes,
            input_dims: info.input_dims,
            defense: info.defense.clone(),
            max_batch,
            window_us: flush_window.as_micros() as u64,
        }
    }

    /// Encodes the handshake as its one-line JSON wire form (no trailing
    /// newline).
    fn to_json(&self) -> String {
        let value = Value::Map(vec![
            ("schema".into(), Value::Str(self.schema.clone())),
            ("classes".into(), Value::Int(self.classes as i64)),
            (
                "input_dims".into(),
                Value::Seq(
                    self.input_dims
                        .iter()
                        .map(|&d| Value::Int(d as i64))
                        .collect(),
                ),
            ),
            ("defense".into(), Value::Str(self.defense.clone())),
            ("max_batch".into(), Value::Int(self.max_batch as i64)),
            ("window_us".into(), Value::Int(self.window_us as i64)),
        ]);
        serde_json::to_string(&value).expect("handshake serialization is infallible")
    }

    /// Parses the handshake from its JSON wire form.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::Protocol`] for malformed JSON, a missing
    /// field, or an unknown schema identifier.
    pub fn from_json(line: &str) -> Result<Self> {
        let value: Value = serde_json::from_str(line)
            .map_err(|e| ServeError::Protocol(format!("bad handshake JSON: {e}")))?;
        let field = |key: &str| {
            value
                .get_field(key)
                .ok_or_else(|| ServeError::Protocol(format!("handshake missing `{key}`")))
        };
        let as_usize = |key: &str| -> Result<usize> {
            match field(key)? {
                Value::Int(i) if *i >= 0 => Ok(*i as usize),
                Value::UInt(u) => Ok(*u as usize),
                other => Err(ServeError::Protocol(format!(
                    "handshake `{key}` is not a non-negative integer: {other:?}"
                ))),
            }
        };
        let schema = match field("schema")? {
            Value::Str(s) => s.clone(),
            other => {
                return Err(ServeError::Protocol(format!(
                    "handshake `schema` is not a string: {other:?}"
                )))
            }
        };
        if schema != SCHEMA {
            return Err(ServeError::Protocol(format!(
                "unknown protocol schema {schema:?} (expected {SCHEMA:?})"
            )));
        }
        let defense = match field("defense")? {
            Value::Str(s) => s.clone(),
            other => {
                return Err(ServeError::Protocol(format!(
                    "handshake `defense` is not a string: {other:?}"
                )))
            }
        };
        let dims = match field("input_dims")? {
            Value::Seq(items) if items.len() == 3 => {
                let mut dims = [0usize; 3];
                for (slot, item) in dims.iter_mut().zip(items) {
                    *slot = match item {
                        Value::Int(i) if *i >= 0 => *i as usize,
                        Value::UInt(u) => *u as usize,
                        other => {
                            return Err(ServeError::Protocol(format!(
                                "handshake `input_dims` entry is not an integer: {other:?}"
                            )))
                        }
                    };
                }
                dims
            }
            other => {
                return Err(ServeError::Protocol(format!(
                    "handshake `input_dims` is not a 3-element array: {other:?}"
                )))
            }
        };
        Ok(Handshake {
            schema,
            classes: as_usize("classes")?,
            input_dims: dims,
            defense,
            max_batch: as_usize("max_batch")?,
            window_us: as_usize("window_us")? as u64,
        })
    }
}

/// Read-side lifecycle policy for a served stream: how long a silent
/// client may hold the connection, and a drain flag for graceful
/// shutdown. `StreamPolicy::default()` is fully passive — plain blocking
/// reads, exactly the pre-policy behavior — so in-memory tests and
/// embedded callers are unaffected.
#[derive(Debug, Clone, Default)]
pub struct StreamPolicy {
    /// Disconnect a connection that produces **no bytes** for this long
    /// while a read is outstanding (slowloris defense). Progress — any
    /// byte — resets the clock. Requires the underlying transport to
    /// return `WouldBlock`/`TimedOut` on stalled reads (TCP streams get a
    /// short read timeout from [`serve_connections`] automatically).
    pub idle_timeout: Option<Duration>,
    /// When set and flipped true: stop accepting connections, stop
    /// reading **new** requests at frame boundaries, finish requests
    /// already in flight. Connections end as if the client said goodbye.
    pub drain: Option<Arc<AtomicBool>>,
}

impl StreamPolicy {
    /// Whether any non-default behavior is configured.
    fn is_active(&self) -> bool {
        self.idle_timeout.is_some() || self.drain.is_some()
    }

    /// Whether a drain has been requested.
    fn draining(&self) -> bool {
        self.drain
            .as_ref()
            .is_some_and(|flag| flag.load(Ordering::Relaxed))
    }
}

/// What a frame-boundary read can resolve to.
enum FrameRead {
    /// The buffer was filled.
    Complete,
    /// The stream ended cleanly (EOF, or a drain observed at the
    /// boundary) — only possible when `at_boundary`.
    End,
}

/// Fills `buf` from `reader` under `policy`. At a frame boundary
/// (`at_boundary`), EOF and drain both end the stream cleanly; mid-frame,
/// EOF is a protocol error and a drain lets the in-flight frame finish.
/// A stalled transport (`WouldBlock`/`TimedOut`) is retried until the
/// idle deadline — measured from the last byte of progress — expires.
fn fill_frame(
    reader: &mut impl Read,
    buf: &mut [u8],
    policy: &StreamPolicy,
    at_boundary: bool,
) -> Result<FrameRead> {
    let mut filled = 0usize;
    let mut last_progress = Instant::now();
    while filled < buf.len() {
        if at_boundary && filled == 0 && policy.draining() {
            return Ok(FrameRead::End);
        }
        match reader.read(&mut buf[filled..]) {
            Ok(0) => {
                // A hangup at a frame boundary is a normal goodbye (even
                // after a partial length prefix, matching the pre-policy
                // `read_exact` handling); mid-frame it is truncation.
                return if at_boundary {
                    Ok(FrameRead::End)
                } else {
                    Err(std::io::Error::new(
                        std::io::ErrorKind::UnexpectedEof,
                        "connection closed mid-frame",
                    )
                    .into())
                };
            }
            Ok(n) => {
                filled += n;
                last_progress = Instant::now();
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e)
                if policy.is_active()
                    && matches!(
                        e.kind(),
                        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                    ) =>
            {
                if let Some(limit) = policy.idle_timeout {
                    if last_progress.elapsed() >= limit {
                        return Err(ServeError::IdleTimeout(limit));
                    }
                }
                std::thread::sleep(Duration::from_millis(1));
            }
            Err(e) => return Err(e.into()),
        }
    }
    Ok(FrameRead::Complete)
}

fn read_u32(reader: &mut impl Read) -> std::io::Result<u32> {
    let mut buf = [0u8; 4];
    reader.read_exact(&mut buf)?;
    Ok(u32::from_le_bytes(buf))
}

fn read_u8(reader: &mut impl Read) -> std::io::Result<u8> {
    let mut buf = [0u8; 1];
    reader.read_exact(&mut buf)?;
    Ok(buf[0])
}

/// Writes one response message (any status) to `writer` as one buffer,
/// so a socket sends it in one segment instead of waiting on the peer's
/// delayed ACK between its fields.
fn write_response(writer: &mut impl Write, result: &Result<Classification>) -> std::io::Result<()> {
    let mut message = Vec::with_capacity(10);
    match result {
        Ok(c) => {
            message.push(STATUS_OK);
            message.extend_from_slice(&(c.label as u32).to_le_bytes());
            message.extend_from_slice(&c.confidence.to_bits().to_le_bytes());
            message.push(match c.verdict {
                DefenseVerdict::Clean => 0u8,
                DefenseVerdict::Flagged => 1u8,
            });
        }
        Err(ServeError::QueueFull) => message.push(STATUS_QUEUE_FULL),
        Err(ServeError::DeadlineExceeded) => message.push(STATUS_DEADLINE),
        Err(e) => {
            let msg = e.to_string();
            let mut end = msg.len().min(MAX_ERROR_BYTES);
            while !msg.is_char_boundary(end) {
                end -= 1;
            }
            let msg = &msg[..end];
            message.push(STATUS_ERR);
            message.extend_from_slice(&(msg.len() as u32).to_le_bytes());
            message.extend_from_slice(msg.as_bytes());
        }
    }
    writer.write_all(&message)?;
    writer.flush()
}

/// Discards exactly `bytes` from `reader` in bounded chunks, so an
/// oversized frame is consumed without a matching allocation.
fn drain_payload(reader: &mut impl Read, bytes: u64) -> std::io::Result<()> {
    let copied = std::io::copy(&mut reader.take(bytes), &mut std::io::sink())?;
    if copied < bytes {
        return Err(std::io::Error::new(
            std::io::ErrorKind::UnexpectedEof,
            "connection closed mid-payload",
        ));
    }
    Ok(())
}

/// Serves one framed request stream until the client says goodbye
/// (element count 0), the stream ends, or `policy` ends it (idle
/// deadline, drain at a frame boundary) — the transport-agnostic core of
/// [`serve_connections`], directly drivable from in-memory buffers in
/// tests. Malformed-size and oversized requests are answered with an
/// error response and their payloads drained, keeping the stream usable.
pub fn serve_stream(
    reader: &mut impl BufRead,
    writer: &mut impl Write,
    client: &ServeClient,
    handshake: &Handshake,
    policy: &StreamPolicy,
) -> Result<()> {
    writer.write_all(format!("{}\n", handshake.to_json()).as_bytes())?;
    writer.flush()?;

    let expected = handshake.elements();
    loop {
        let mut count_buf = [0u8; 4];
        let count = match fill_frame(reader, &mut count_buf, policy, true)? {
            FrameRead::End => return Ok(()),
            FrameRead::Complete => u32::from_le_bytes(count_buf) as usize,
        };
        if count == 0 {
            return Ok(());
        }
        if count > MAX_FRAME_ELEMENTS {
            drain_payload(reader, count as u64 * 4)?;
            let err = Err(ServeError::BadInput(format!(
                "frame of {count} elements exceeds the {MAX_FRAME_ELEMENTS}-element cap"
            )));
            write_response(writer, &err)?;
            continue;
        }
        let mut payload = vec![0u8; count * 4];
        fill_frame(reader, &mut payload, policy, false)?;
        if count != expected {
            let err = Err(ServeError::BadInput(format!(
                "expected {expected} f32 elements per image, got {count}"
            )));
            write_response(writer, &err)?;
            continue;
        }
        // Fault site `serve.tcp.frame`: a fired fault turns this frame
        // into a per-request error response; the payload is already
        // consumed, so the connection stays in sync.
        #[cfg(feature = "fault-injection")]
        {
            if blurnet::fault::fire(blurnet::fault::sites::SERVE_TCP_FRAME) {
                let err = Err(ServeError::Protocol(format!(
                    "{}: injected frame error",
                    blurnet::fault::MARKER
                )));
                write_response(writer, &err)?;
                continue;
            }
        }
        let values: Vec<f32> = payload
            .chunks_exact(4)
            .map(|b| f32::from_le_bytes([b[0], b[1], b[2], b[3]]))
            .collect();
        let result = Tensor::from_vec(values, &handshake.input_dims)
            .map_err(ServeError::from)
            .and_then(|image| client.classify(image));
        write_response(writer, &result)?;
    }
}

/// Serves one accepted TCP connection via [`serve_stream`]. Nagle's
/// algorithm is off, so each response leaves as soon as it is written. An
/// active policy puts a short read timeout on the socket so stalled reads
/// surface as `WouldBlock`/`TimedOut` for [`fill_frame`] to pace.
fn serve_connection(
    stream: TcpStream,
    client: &ServeClient,
    handshake: &Handshake,
    policy: &StreamPolicy,
) -> Result<()> {
    stream.set_nodelay(true)?;
    if policy.is_active() {
        stream.set_read_timeout(Some(Duration::from_millis(50)))?;
    }
    let mut writer = stream.try_clone()?;
    let mut reader = BufReader::new(stream);
    serve_stream(&mut reader, &mut writer, client, handshake, policy)
}

/// Accepts connections on `listener` and serves each on its own thread,
/// all feeding the shared micro-batching service behind `client`.
///
/// With `max_conns = Some(n)` the loop returns after accepting (and fully
/// serving) `n` connections — the shape the tests and the CI smoke run
/// use; `None` serves forever. When `policy.drain` is set, the listener
/// runs non-blocking and the loop exits as soon as the flag flips —
/// already-accepted connections are joined (each finishing its in-flight
/// requests) before the function returns. Per-connection protocol errors
/// are reported on that connection and do not take the server down; idle
/// disconnects get their own log line.
///
/// # Errors
///
/// Returns [`ServeError::Io`] only for accept-loop failures on the
/// listener itself.
pub fn serve_connections(
    listener: &TcpListener,
    client: &ServeClient,
    handshake: &Handshake,
    max_conns: Option<usize>,
    policy: &StreamPolicy,
) -> Result<()> {
    let mut handles = Vec::new();
    let mut spawn = |stream: TcpStream| {
        let client = client.clone();
        let handshake = handshake.clone();
        let policy = policy.clone();
        handles.push(std::thread::spawn(move || {
            match serve_connection(stream, &client, &handshake, &policy) {
                Ok(()) => {}
                Err(ServeError::IdleTimeout(limit)) => {
                    eprintln!("serve: disconnected idle client (no bytes for {limit:?})")
                }
                Err(e) => eprintln!("serve: connection error: {e}"),
            }
        }));
    };

    if let Some(drain) = policy.drain.clone() {
        // Drainable accept loop: non-blocking accepts polled against the
        // drain flag, so SIGTERM stops admission within one poll tick.
        listener.set_nonblocking(true)?;
        let mut served = 0usize;
        while !drain.load(Ordering::Relaxed) {
            match listener.accept() {
                Ok((stream, _)) => {
                    // Accepted sockets may inherit non-blocking mode;
                    // hand the handler a blocking stream.
                    stream.set_nonblocking(false)?;
                    spawn(stream);
                    served += 1;
                    if max_conns.is_some_and(|n| served >= n) {
                        break;
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    std::thread::sleep(Duration::from_millis(10));
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e.into()),
            }
        }
    } else {
        for (served, conn) in listener.incoming().enumerate() {
            spawn(conn?);
            if max_conns.is_some_and(|n| served + 1 >= n) {
                break;
            }
        }
    }
    for handle in handles {
        let _ = handle.join();
    }
    Ok(())
}

/// A blocking TCP client for the service: one connection, requests
/// answered in order.
#[derive(Debug)]
pub struct RemoteClient {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    handshake: Handshake,
}

impl RemoteClient {
    /// Connects and reads the server's handshake line.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::Io`] for socket failures and
    /// [`ServeError::Protocol`] for a malformed or over-long handshake.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let writer = stream.try_clone()?;
        let mut reader = BufReader::new(stream);
        let mut line = String::new();
        (&mut reader)
            .take(MAX_HANDSHAKE_BYTES)
            .read_line(&mut line)?;
        if !line.ends_with('\n') && line.len() as u64 == MAX_HANDSHAKE_BYTES {
            return Err(ServeError::Protocol(format!(
                "handshake line longer than {MAX_HANDSHAKE_BYTES} bytes"
            )));
        }
        let handshake = Handshake::from_json(line.trim_end())?;
        Ok(RemoteClient {
            reader,
            writer,
            handshake,
        })
    }

    /// The server's handshake (model dims, defense, batching profile).
    pub fn handshake(&self) -> &Handshake {
        &self.handshake
    }

    /// Sends one image (row-major `[C, H, W]` values) and blocks for its
    /// classification.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::BadInput`] for a wrong element count
    /// (checked locally), the server's error for failed requests, and
    /// [`ServeError::Io`]/[`ServeError::Protocol`] for transport faults.
    pub fn classify(&mut self, values: &[f32]) -> Result<Classification> {
        let expected = self.handshake.elements();
        if values.len() != expected {
            return Err(ServeError::BadInput(format!(
                "expected {expected} f32 elements per image, got {}",
                values.len()
            )));
        }
        let mut payload = Vec::with_capacity(4 + values.len() * 4);
        payload.extend_from_slice(&(values.len() as u32).to_le_bytes());
        for v in values {
            payload.extend_from_slice(&v.to_bits().to_le_bytes());
        }
        self.writer.write_all(&payload)?;
        self.writer.flush()?;

        match read_u8(&mut self.reader)? {
            STATUS_OK => {
                let label = read_u32(&mut self.reader)? as usize;
                let confidence = f32::from_bits(read_u32(&mut self.reader)?);
                let verdict = match read_u8(&mut self.reader)? {
                    0 => DefenseVerdict::Clean,
                    1 => DefenseVerdict::Flagged,
                    other => {
                        return Err(ServeError::Protocol(format!(
                            "unknown verdict byte {other}"
                        )))
                    }
                };
                Ok(Classification {
                    label,
                    confidence,
                    verdict,
                })
            }
            STATUS_ERR => {
                let len = read_u32(&mut self.reader)? as usize;
                if len > MAX_ERROR_BYTES {
                    return Err(ServeError::Protocol(format!(
                        "error message of {len} bytes exceeds the {MAX_ERROR_BYTES}-byte cap"
                    )));
                }
                let mut msg = vec![0u8; len];
                self.reader.read_exact(&mut msg)?;
                Err(ServeError::Worker(
                    String::from_utf8_lossy(&msg).into_owned(),
                ))
            }
            STATUS_QUEUE_FULL => Err(ServeError::QueueFull),
            STATUS_DEADLINE => Err(ServeError::DeadlineExceeded),
            other => Err(ServeError::Protocol(format!(
                "unknown response status byte {other}"
            ))),
        }
    }

    /// Tells the server this connection is done (element count 0).
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::Io`] if the goodbye cannot be written.
    pub fn goodbye(mut self) -> Result<()> {
        self.writer.write_all(&0u32.to_le_bytes())?;
        self.writer.flush()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn handshake_json_roundtrip() {
        let handshake = Handshake {
            schema: SCHEMA.to_string(),
            classes: 17,
            input_dims: [3, 32, 32],
            defense: "input_filter(k=3)".to_string(),
            max_batch: 32,
            window_us: 2000,
        };
        let parsed = Handshake::from_json(&handshake.to_json()).expect("roundtrip parses");
        assert_eq!(parsed, handshake);
        assert_eq!(parsed.elements(), 3 * 32 * 32);
    }

    #[test]
    fn handshake_rejects_garbage() {
        assert!(Handshake::from_json("not json").is_err());
        assert!(Handshake::from_json("{}").is_err());
        let wrong_schema = r#"{"schema":"other/9","classes":2,"input_dims":[1,8,8],"defense":"baseline","max_batch":4,"window_us":0}"#;
        assert!(Handshake::from_json(wrong_schema).is_err());
    }

    #[test]
    fn deeply_nested_handshakes_are_protocol_errors_on_a_small_stack() {
        std::thread::Builder::new()
            .stack_size(256 * 1024)
            .spawn(|| {
                let err = Handshake::from_json(&"[".repeat(200_000)).unwrap_err();
                assert!(matches!(err, ServeError::Protocol(_)), "{err:?}");
            })
            .expect("spawn parser thread")
            .join()
            .expect("deep nesting is an error, not a crash");
    }

    #[test]
    fn an_over_long_handshake_line_is_a_protocol_error() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind a local port");
        let addr = listener.local_addr().expect("local addr");
        let server = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().expect("accept the client");
            // One byte past the cap and no newline; the client hangs up
            // mid-write, so write errors are expected.
            let _ = stream.write_all(&vec![b'a'; MAX_HANDSHAKE_BYTES as usize + 1]);
        });
        let err = RemoteClient::connect(addr).unwrap_err();
        assert!(
            matches!(&err, ServeError::Protocol(msg) if msg.contains("longer than")),
            "{err:?}"
        );
        server.join().expect("server thread");
    }

    #[test]
    fn error_messages_are_truncated_at_a_char_boundary() {
        // 'é' is two bytes, so the cap falls inside a character.
        let long = "é".repeat(MAX_ERROR_BYTES);
        let mut wire = Vec::new();
        write_response(&mut wire, &Err(ServeError::Worker(long))).expect("write to a Vec");
        assert_eq!(wire[0], STATUS_ERR);
        let len = u32::from_le_bytes(wire[1..5].try_into().unwrap()) as usize;
        assert!(len <= MAX_ERROR_BYTES && len > MAX_ERROR_BYTES - 2, "{len}");
        assert_eq!(wire.len(), 5 + len);
        let msg = std::str::from_utf8(&wire[5..]).expect("truncated message is UTF-8");
        assert!(msg.starts_with("batch worker failed: é"));
    }

    #[test]
    fn an_over_long_error_length_is_a_protocol_error() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind a local port");
        let addr = listener.local_addr().expect("local addr");
        let server = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().expect("accept the client");
            let handshake = Handshake {
                schema: SCHEMA.to_string(),
                classes: 2,
                input_dims: [1, 2, 2],
                defense: "baseline".to_string(),
                max_batch: 1,
                window_us: 0,
            };
            stream
                .write_all(format!("{}\n", handshake.to_json()).as_bytes())
                .expect("send the handshake");
            // Read the client's frame (count + 4 f32s), then answer with
            // an error whose declared length is 4 GiB − 1.
            let mut frame = [0u8; 4 + 4 * 4];
            stream.read_exact(&mut frame).expect("read the request");
            let mut response = vec![STATUS_ERR];
            response.extend_from_slice(&u32::MAX.to_le_bytes());
            stream.write_all(&response).expect("send the response");
        });
        let mut client = RemoteClient::connect(addr).expect("valid handshake");
        let err = client.classify(&[0.0; 4]).unwrap_err();
        assert!(
            matches!(&err, ServeError::Protocol(msg) if msg.contains("byte cap")),
            "{err:?}"
        );
        server.join().expect("server thread");
    }
}
