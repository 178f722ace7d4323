//! Open-loop load generator over at most two pipelined wire connections.
//!
//! Every operation has a scheduled send time. One sender thread writes each
//! frame when it falls due (never early) and one receiver thread decodes
//! responses from both sockets; latency runs from the *scheduled* time to
//! the moment the response frame is decoded, so a stall in the server (or
//! in the generator) is charged to every request it delays. The sender
//! records how late it ran so a phase whose generator fell behind can be
//! marked invalid instead of reported.

use duet_serve::wire::frame::{self, FrameView, DEFAULT_MAX_FRAME_LEN, PREAMBLE_LEN};
use std::ffi::{c_int, c_short, c_ulong};
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::unix::io::AsRawFd;
use std::time::{Duration, Instant};

#[repr(C)]
struct PollFd {
    fd: c_int,
    events: c_short,
    revents: c_short,
}

const POLLIN: c_short = 0x1;
const POLLOUT: c_short = 0x4;
const PR_SET_TIMERSLACK: c_int = 29;

extern "C" {
    fn poll(fds: *mut PollFd, nfds: c_ulong, timeout: c_int) -> c_int;
    fn prctl(option: c_int, arg2: c_ulong, arg3: c_ulong, arg4: c_ulong, arg5: c_ulong) -> c_int;
}

/// Wait until one of `fds` is ready for `events` or `timeout_ms` passes.
fn wait_ready(fds: &[c_int], events: c_short, timeout_ms: c_int) {
    let mut pollfds: Vec<PollFd> =
        fds.iter().map(|&fd| PollFd { fd, events, revents: 0 }).collect();
    // SAFETY: `pollfds` is a live, exclusively borrowed array of
    // `pollfds.len()` `struct pollfd`-layout records for the duration of
    // the call; poll only writes their `revents` fields.
    unsafe {
        poll(pollfds.as_mut_ptr(), pollfds.len() as c_ulong, timeout_ms);
    }
}

/// Ask the kernel to wake this thread's sleeps without the default 50 µs
/// timer slack, so scheduled sends are not systematically late.
fn tighten_timer_slack() {
    // SAFETY: PR_SET_TIMERSLACK takes one integer argument and touches only
    // the calling thread's timer slack; the unused arguments are ignored.
    unsafe {
        prctl(PR_SET_TIMERSLACK, 1, 0, 0, 0);
    }
}

/// One open wire connection (preamble already sent), nonblocking.
pub struct Conn {
    stream: TcpStream,
}

impl Conn {
    /// Connect to `addr` and send the protocol preamble.
    pub fn connect(addr: SocketAddr) -> std::io::Result<Self> {
        let mut stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let mut preamble = Vec::with_capacity(PREAMBLE_LEN);
        frame::encode_preamble(&mut preamble);
        stream.write_all(&preamble)?;
        stream.set_nonblocking(true)?;
        Ok(Self { stream })
    }
}

/// Write all of `bytes` to a nonblocking socket, waiting for writability
/// when its send buffer is full.
fn write_all_nb(mut stream: &TcpStream, mut bytes: &[u8]) -> std::io::Result<()> {
    while !bytes.is_empty() {
        match stream.write(bytes) {
            Ok(0) => return Err(ErrorKind::WriteZero.into()),
            Ok(n) => bytes = &bytes[n..],
            Err(e) if e.kind() == ErrorKind::WouldBlock => {
                wait_ready(&[stream.as_raw_fd()], POLLOUT, 10);
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

/// What an operation is, for accounting and the correctness gate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    /// An estimation request.
    Read,
    /// An `Ingest` frame (one row).
    Ingest,
    /// A `Feedback` frame.
    Feedback,
}

/// One scheduled operation: send pre-encoded frame `frame` on connection
/// `conn` at `at_ns` after the phase start.
#[derive(Debug, Clone, Copy)]
pub struct Op {
    /// Scheduled send time, ns after the phase start.
    pub at_ns: u64,
    /// Connection index (0 or 1).
    pub conn: u8,
    /// Kind of frame.
    pub kind: OpKind,
    /// Index of the pre-encoded frame in the phase's [`Frames`].
    pub frame: u32,
    /// Workload-defined tag (query index, row index, ...).
    pub tag: u32,
}

/// Pre-encoded request frames (request id zeroed), patched with the real
/// request id at send time.
#[derive(Clone, Default)]
pub struct Frames {
    bytes: Vec<u8>,
    spans: Vec<(usize, usize)>,
}

/// Offset of the `u64 request_id` in every client frame: `u32 body_len`
/// then the kind byte.
const REQUEST_ID_AT: usize = 5;

impl Frames {
    /// Encode one frame with `encode` (which receives a request id of 0)
    /// and return its index.
    pub fn push(&mut self, encode: impl FnOnce(&mut Vec<u8>)) -> u32 {
        let start = self.bytes.len();
        encode(&mut self.bytes);
        self.spans.push((start, self.bytes.len()));
        (self.spans.len() - 1) as u32
    }

    /// The encoded bytes of frame `i`.
    pub fn get(&self, i: u32) -> &[u8] {
        let (s, e) = self.spans[i as usize];
        &self.bytes[s..e]
    }
}

/// Sentinel for "no reply".
pub const NONE: u64 = u64::MAX;

/// Everything recorded about one phase.
pub struct PhaseResult {
    /// Scheduled send times (ns after phase start), per op.
    pub sched_ns: Vec<u64>,
    /// Actual send times, per op.
    pub sent_ns: Vec<u64>,
    /// End of the write call that carried the op (tracing only; else equal
    /// to `sent_ns`).
    pub sent_end_ns: Vec<u64>,
    /// Time the first reply was decoded ([`NONE`] if none), per op.
    pub recv_ns: Vec<u64>,
    /// Time the read that delivered the reply returned (tracing only).
    pub read_ns: Vec<u64>,
    /// Reply status byte (255 if none), per op.
    pub status: Vec<u8>,
    /// Reply value, per op.
    pub value: Vec<f64>,
    /// Number of replies received, per op.
    pub replies: Vec<u32>,
    /// Replies whose request id matched no op of this phase.
    pub stray_replies: u64,
    /// Request-frame bytes written.
    pub bytes_out: u64,
    /// Wall time from the phase start until the sender wrote its last op,
    /// minus the last op's scheduled time (how far the sender overran).
    pub overrun_ns: u64,
}

/// Status byte of a `Status::Ok` response.
pub const STATUS_OK: u8 = 0;

impl PhaseResult {
    /// Latency of op `i` in µs from its scheduled send time, if answered.
    pub fn latency_us(&self, i: usize) -> Option<f64> {
        (self.recv_ns[i] != NONE)
            .then(|| self.recv_ns[i].saturating_sub(self.sched_ns[i]) as f64 / 1e3)
    }

    /// Whether op `i` was answered `Ok`.
    pub fn ok(&self, i: usize) -> bool {
        self.status[i] == STATUS_OK
    }

    /// Lateness of every send in µs.
    pub fn lateness_us(&self) -> Vec<f64> {
        self.sent_ns
            .iter()
            .zip(&self.sched_ns)
            .map(|(&s, &d)| s.saturating_sub(d) as f64 / 1e3)
            .collect()
    }

    /// Ops sent by `t_ns` whose reply had not yet arrived at `t_ns`.
    pub fn outstanding_at(&self, t_ns: u64) -> usize {
        self.sent_ns
            .iter()
            .zip(&self.recv_ns)
            .filter(|&(&s, &r)| s <= t_ns && (r == NONE || r > t_ns))
            .count()
    }
}

/// Run one open-loop phase starting at `t0`: send every op of `ops`
/// (sorted by `at_ns`) on schedule and collect replies until all arrived or
/// `drain` passed after the last scheduled send. Request ids are
/// `id_base + op index`.
pub fn run_phase(
    conns: &[Conn],
    ops: &[Op],
    frames: &Frames,
    id_base: u64,
    t0: Instant,
    drain: Duration,
    trace: bool,
) -> std::io::Result<PhaseResult> {
    let n = ops.len();
    let last_at = ops.last().map_or(0, |op| op.at_ns);
    let (send_out, recv_out) = std::thread::scope(|scope| {
        let sender = scope.spawn(|| send_ops(conns, ops, frames, id_base, t0, trace));
        let receiver = scope.spawn(|| {
            let hard_stop = t0 + Duration::from_nanos(last_at) + drain;
            recv_replies(conns, n, id_base, t0, hard_stop, trace)
        });
        (
            sender.join().expect("sender thread panicked"),
            receiver.join().expect("receiver thread panicked"),
        )
    });
    let (sent_ns, sent_end_ns, bytes_out, finished_ns) = send_out?;
    let recv = recv_out?;
    Ok(PhaseResult {
        sched_ns: ops.iter().map(|op| op.at_ns).collect(),
        sent_ns,
        sent_end_ns,
        recv_ns: recv.recv_ns,
        read_ns: recv.read_ns,
        status: recv.status,
        value: recv.value,
        replies: recv.replies,
        stray_replies: recv.stray,
        bytes_out,
        overrun_ns: finished_ns.saturating_sub(last_at),
    })
}

type SendOut = (Vec<u64>, Vec<u64>, u64, u64);

fn send_ops(
    conns: &[Conn],
    ops: &[Op],
    frames: &Frames,
    id_base: u64,
    t0: Instant,
    trace: bool,
) -> std::io::Result<SendOut> {
    tighten_timer_slack();
    let mut sent = vec![NONE; ops.len()];
    let mut sent_end = if trace { vec![NONE; ops.len()] } else { Vec::new() };
    let mut bufs = vec![Vec::with_capacity(1 << 16); conns.len()];
    let mut bytes_out = 0u64;
    let mut i = 0;
    while i < ops.len() {
        let due = t0 + Duration::from_nanos(ops[i].at_ns);
        let now = Instant::now();
        if now < due {
            let wait = due - now;
            if wait > Duration::from_micros(15) {
                std::thread::sleep(wait);
            } else {
                std::hint::spin_loop();
            }
            continue;
        }
        let now_ns = now.duration_since(t0).as_nanos() as u64;
        let first = i;
        while i < ops.len() && ops[i].at_ns <= now_ns && i - first < 256 {
            let op = &ops[i];
            let buf = &mut bufs[op.conn as usize];
            let at = buf.len();
            buf.extend_from_slice(frames.get(op.frame));
            buf[at + REQUEST_ID_AT..at + REQUEST_ID_AT + 8]
                .copy_from_slice(&(id_base + i as u64).to_le_bytes());
            sent[i] = now_ns;
            i += 1;
        }
        for (conn, buf) in conns.iter().zip(bufs.iter_mut()) {
            if !buf.is_empty() {
                write_all_nb(&conn.stream, buf)?;
                bytes_out += buf.len() as u64;
                buf.clear();
            }
        }
        if trace {
            let end = t0.elapsed().as_nanos() as u64;
            sent_end[first..i].fill(end);
        }
    }
    let finished = t0.elapsed().as_nanos() as u64;
    if !trace {
        sent_end = sent.clone();
    }
    Ok((sent, sent_end, bytes_out, finished))
}

struct RecvOut {
    recv_ns: Vec<u64>,
    read_ns: Vec<u64>,
    status: Vec<u8>,
    value: Vec<f64>,
    replies: Vec<u32>,
    stray: u64,
}

fn recv_replies(
    conns: &[Conn],
    n: usize,
    id_base: u64,
    t0: Instant,
    hard_stop: Instant,
    trace: bool,
) -> std::io::Result<RecvOut> {
    let mut out = RecvOut {
        recv_ns: vec![NONE; n],
        read_ns: vec![NONE; n],
        status: vec![255; n],
        value: vec![0.0; n],
        replies: vec![0; n],
        stray: 0,
    };
    let fds: Vec<c_int> = conns.iter().map(|c| c.stream.as_raw_fd()).collect();
    let mut bufs: Vec<Vec<u8>> = vec![Vec::with_capacity(1 << 16); conns.len()];
    let mut chunk = vec![0u8; 1 << 16];
    let mut answered = 0usize;
    while answered < n && Instant::now() < hard_stop {
        wait_ready(&fds, POLLIN, 5);
        for (c, conn) in conns.iter().enumerate() {
            loop {
                match (&conn.stream).read(&mut chunk) {
                    Ok(0) => {
                        return Err(std::io::Error::new(
                            ErrorKind::UnexpectedEof,
                            "server closed a benchmark connection",
                        ))
                    }
                    Ok(k) => {
                        let read_at = if trace { t0.elapsed().as_nanos() as u64 } else { 0 };
                        bufs[c].extend_from_slice(&chunk[..k]);
                        let mut pos = 0;
                        while let Some((view, used)) =
                            frame::next_frame(&bufs[c][pos..], DEFAULT_MAX_FRAME_LEN).map_err(
                                |e| std::io::Error::new(ErrorKind::InvalidData, e.to_string()),
                            )?
                        {
                            pos += used;
                            let FrameView::Response(r) = view else { continue };
                            let idx = r.request_id.wrapping_sub(id_base);
                            if idx >= n as u64 {
                                out.stray += 1;
                                continue;
                            }
                            let idx = idx as usize;
                            out.replies[idx] += 1;
                            if out.replies[idx] == 1 {
                                out.recv_ns[idx] = t0.elapsed().as_nanos() as u64;
                                out.read_ns[idx] = read_at;
                                out.status[idx] = r.status as u8;
                                out.value[idx] = r.value;
                                answered += 1;
                            }
                        }
                        bufs[c].drain(..pos);
                    }
                    Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == ErrorKind::Interrupted => {}
                    Err(e) => return Err(e),
                }
            }
        }
    }
    Ok(out)
}
