//! The open-loop load generator: each connection sends its schedule on
//! time, pipelining behind outstanding requests (the protocol answers in
//! order). Nothing spins: the sender sleeps until each due time and the
//! reader blocks in `read`. Latency is measured from the *due* time, so
//! a stalled response also charges the wait it imposes on the requests
//! queued behind it.

use crate::sched::Req;
use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Outstanding requests per connection beyond which a rung stops sending
/// (its backlog is growing; the rung fails).
const MAX_OUTSTANDING: usize = 64;
/// The sender yields (rather than sleeps) through the last this-many µs
/// before a due time.
const SPIN_US: u64 = 300;
/// How long a rung waits for its last responses after the last send.
const DRAIN: Duration = Duration::from_secs(15);

/// What happened to one scheduled request.
#[derive(Clone, Debug, Default)]
pub struct Outcome {
    /// Microseconds after the rung start the request was sent (`None` if
    /// the rung stopped sending before it was due).
    pub sent_us: Option<u64>,
    /// Microseconds after the rung start its response arrived.
    pub done_us: Option<u64>,
    /// The response line.
    pub response: Option<String>,
}

/// One connection's run of one rung.
#[derive(Debug, Default)]
pub struct ConnRun {
    /// Per scheduled request, in schedule order.
    pub outcomes: Vec<Outcome>,
    /// Arrival times (µs after rung start) of pushed `estimate` frames.
    pub pushes_us: Vec<u64>,
    /// Pushed frames that were not `estimate` events.
    pub other_frames: Vec<String>,
    /// Most requests outstanding at once.
    pub max_outstanding: usize,
    /// The connection failed (reset, EOF or drain timeout).
    pub broken: Option<String>,
    /// The rung stopped sending because the backlog hit the cap.
    pub backlogged: bool,
}

/// Whether a line is a pushed frame rather than a response.
fn is_push(line: &str) -> bool {
    line.contains("\"event\":")
}

/// State shared by a connection's sender and reader.
#[derive(Default)]
struct Shared {
    /// Indices of sent, unanswered requests, oldest first.
    outstanding: VecDeque<usize>,
    /// The sender is done (`Some(at_us)`): the reader drains and stops.
    sent_all: Option<u64>,
}

/// Drives `reqs` over `stream` against the clock started at `start`.
///
/// Two threads per connection: the sender sleeps until each due time
/// (`nanosleep`, precise to tens of µs) and the reader blocks in `read`.
/// A single thread blocking in `read` with a timeout until the next due
/// time would send late by up to a kernel tick, because `SO_RCVTIMEO`
/// rounds up to whole ticks.
pub fn drive(stream: &mut TcpStream, reqs: &[Req], start: Instant) -> ConnRun {
    let now_us = || start.elapsed().as_micros() as u64;
    let shared = Mutex::new(Shared::default());
    let mut run = ConnRun {
        outcomes: vec![Outcome::default(); reqs.len()],
        ..ConnRun::default()
    };
    let reader = match stream.try_clone() {
        Ok(r) => r,
        Err(e) => {
            run.broken = Some(format!("clone: {e}"));
            return run;
        }
    };
    let (sent, received) = std::thread::scope(|s| {
        let reader = s.spawn(|| read_loop(reader, &shared, now_us));
        let sent = send_loop(stream, reqs, &shared, now_us, &mut run);
        let received = reader.join().expect("reader thread");
        (sent, received)
    });
    for (i, at) in sent {
        run.outcomes[i].sent_us = Some(at);
    }
    let Received {
        responses,
        pushes_us,
        other_frames,
        broken,
    } = received;
    for (i, at, line) in responses {
        run.outcomes[i].done_us = Some(at);
        run.outcomes[i].response = Some(line);
    }
    run.pushes_us = pushes_us;
    run.other_frames = other_frames;
    run.broken = run.broken.take().or(broken);
    run
}

/// Sends each request when due; returns (index, sent at µs) pairs.
fn send_loop(
    stream: &mut TcpStream,
    reqs: &[Req],
    shared: &Mutex<Shared>,
    now_us: impl Fn() -> u64,
    run: &mut ConnRun,
) -> Vec<(usize, u64)> {
    let mut sent = Vec::with_capacity(reqs.len());
    for (i, req) in reqs.iter().enumerate() {
        // Sleep to just short of the due time, then yield until it: a
        // bare sleep wakes tens to hundreds of µs late, depending on how
        // deeply the idle core slept.
        let now = now_us();
        if req.due_us > now + SPIN_US {
            std::thread::sleep(Duration::from_micros(req.due_us - now - SPIN_US));
        }
        while now_us() < req.due_us {
            std::thread::yield_now();
        }
        let mut line = req.line.clone();
        line.push('\n');
        {
            let mut st = shared.lock().expect("load state lock");
            if st.outstanding.len() >= MAX_OUTSTANDING {
                run.backlogged = true;
                break;
            }
            st.outstanding.push_back(i);
            run.max_outstanding = run.max_outstanding.max(st.outstanding.len());
        }
        let at = now_us();
        if let Err(e) = stream.write_all(line.as_bytes()) {
            run.broken = Some(format!("send: {e}"));
            break;
        }
        sent.push((i, at));
    }
    shared.lock().expect("load state lock").sent_all = Some(now_us());
    sent
}

/// What a connection's reader saw.
#[derive(Default)]
struct Received {
    /// (request index, arrival µs, response line).
    responses: Vec<(usize, u64, String)>,
    pushes_us: Vec<u64>,
    other_frames: Vec<String>,
    broken: Option<String>,
}

/// Reads responses until every sent request is answered after the
/// sender finished, the drain deadline passes, or the connection fails.
fn read_loop(mut stream: TcpStream, shared: &Mutex<Shared>, now_us: impl Fn() -> u64) -> Received {
    let mut got = Received::default();
    let mut acc: Vec<u8> = Vec::new();
    let mut buf = vec![0u8; 64 << 10];
    // Only bounds how soon the reader notices the end; arrivals wake it
    // at once.
    if let Err(e) = stream.set_read_timeout(Some(Duration::from_millis(50))) {
        got.broken = Some(format!("set timeout: {e}"));
        return got;
    }
    loop {
        {
            let st = shared.lock().expect("load state lock");
            if let Some(done_at) = st.sent_all {
                if st.outstanding.is_empty() {
                    return got;
                }
                if now_us() > done_at + DRAIN.as_micros() as u64 {
                    got.broken = Some(format!("{} responses missing", st.outstanding.len()));
                    return got;
                }
            }
        }
        match stream.read(&mut buf) {
            Ok(0) => {
                got.broken = Some("server closed the connection".into());
                return got;
            }
            Ok(n) => {
                let at = now_us();
                acc.extend_from_slice(&buf[..n]);
                while let Some(pos) = acc.iter().position(|&b| b == b'\n') {
                    let raw: Vec<u8> = acc.drain(..=pos).collect();
                    let line = String::from_utf8_lossy(&raw[..raw.len() - 1]).into_owned();
                    if is_push(&line) {
                        if line.contains("\"event\":\"estimate\"") {
                            got.pushes_us.push(at);
                        } else {
                            got.other_frames.push(line);
                        }
                        continue;
                    }
                    let front = shared
                        .lock()
                        .expect("load state lock")
                        .outstanding
                        .pop_front();
                    match front {
                        Some(i) => got.responses.push((i, at, line)),
                        None => got.other_frames.push(line),
                    }
                }
            }
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) => {}
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => {
                got.broken = Some(format!("read: {e}"));
                return got;
            }
        }
    }
}

/// Sends one line and reads one response line (set-up traffic, closed
/// loop), skipping pushed frames.
pub fn exchange(stream: &mut TcpStream, reader: &mut Vec<u8>, line: &str) -> io::Result<String> {
    stream.write_all(format!("{line}\n").as_bytes())?;
    read_response(stream, reader)
}

/// Reads the next non-push line off `stream`, buffering in `reader`.
pub fn read_response(stream: &mut TcpStream, reader: &mut Vec<u8>) -> io::Result<String> {
    stream.set_read_timeout(Some(Duration::from_secs(60)))?;
    let mut buf = [0u8; 64 << 10];
    loop {
        while let Some(pos) = reader.iter().position(|&b| b == b'\n') {
            let raw: Vec<u8> = reader.drain(..=pos).collect();
            let line = String::from_utf8_lossy(&raw[..raw.len() - 1]).into_owned();
            if !is_push(&line) {
                return Ok(line);
            }
        }
        let n = stream.read(&mut buf)?;
        if n == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        reader.extend_from_slice(&buf[..n]);
    }
}

/// Connects with `TCP_NODELAY` (the generator never delays its own
/// sends).
pub fn connect(addr: &str) -> io::Result<TcpStream> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    Ok(stream)
}
