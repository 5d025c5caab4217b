//! Keep-alive HTTP client, the open-loop and closed-loop load
//! generators, and the `/metrics` scraper.

use mb_datagen::LinkedMention;
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// An arrival sent more than this after its due time counts as late.
const LATE_AFTER: Duration = Duration::from_millis(1);

/// One keep-alive connection.
pub struct Conn {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Conn {
    pub fn open(addr: SocketAddr) -> Result<Conn, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream.set_nodelay(true).map_err(|e| format!("nodelay: {e}"))?;
        let writer = stream.try_clone().map_err(|e| format!("clone socket: {e}"))?;
        Ok(Conn { writer, reader: BufReader::new(stream) })
    }

    /// Send `raw` and read one response: `(status, body)`.
    pub fn exchange(&mut self, raw: &[u8]) -> Result<(u16, String), String> {
        self.writer.write_all(raw).map_err(|e| format!("send: {e}"))?;
        let mut line = String::new();
        self.reader.read_line(&mut line).map_err(|e| format!("status: {e}"))?;
        let status = line
            .split(' ')
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| format!("bad status line {line:?}"))?;
        let mut length = 0usize;
        loop {
            line.clear();
            self.reader.read_line(&mut line).map_err(|e| format!("header: {e}"))?;
            let header = line.trim_end();
            if header.is_empty() {
                break;
            }
            if let Some(v) = header.to_ascii_lowercase().strip_prefix("content-length:") {
                length = v.trim().parse().map_err(|e| format!("content-length: {e}"))?;
            }
        }
        let mut body = vec![0u8; length];
        self.reader.read_exact(&mut body).map_err(|e| format!("body: {e}"))?;
        String::from_utf8(body).map(|b| (status, b)).map_err(|e| format!("body utf-8: {e}"))
    }
}

/// One request on a fresh connection (control endpoints).
pub fn fetch(addr: SocketAddr, method: &str, path: &str) -> Result<(u16, String), String> {
    let raw = format!("{method} {path} HTTP/1.1\r\nhost: perfbench\r\ncontent-length: 0\r\n\r\n");
    Conn::open(addr)?.exchange(raw.as_bytes())
}

/// The `/link` request for `m` (answer size left at the server default).
pub fn link_request(m: &LinkedMention) -> Vec<u8> {
    let body = format!(
        "{{\"surface\":{},\"left\":{},\"right\":{}}}",
        mb_serve::json::escape(&m.surface),
        mb_serve::json::escape(&m.left),
        mb_serve::json::escape(&m.right),
    );
    let mut raw = format!(
        "POST /link HTTP/1.1\r\nhost: perfbench\r\ncontent-type: application/json\r\ncontent-length: {}\r\n\r\n",
        body.len()
    )
    .into_bytes();
    raw.extend_from_slice(body.as_bytes());
    raw
}

/// The outcome of one `/link` request.
pub struct Record {
    /// Index of the request in its phase's request list.
    pub index: usize,
    /// Microseconds from the due time (open loop) or send time (closed
    /// loop) to the complete reply.
    pub latency_us: f64,
    /// Sent more than [`LATE_AFTER`] after its due time.
    pub late: bool,
    /// `(status, body)`, or the transport error.
    pub reply: Result<(u16, String), String>,
}

fn send(conn: &mut Option<Conn>, addr: SocketAddr, raw: &[u8]) -> Result<(u16, String), String> {
    if conn.is_none() {
        *conn = Some(Conn::open(addr)?);
    }
    let result =
        conn.as_mut().map_or_else(|| Err("no connection".to_string()), |c| c.exchange(raw));
    if result.is_err() {
        // Reconnect for the next request; this one is a failure.
        *conn = None;
    }
    result
}

/// Run `threads` client threads against `addr`, merging their records in
/// request order. `job(t, conn)` is one thread's loop.
fn clients<F>(threads: usize, addr: SocketAddr, job: F) -> Vec<Record>
where
    F: Fn(&mut Option<Conn>, &mut Vec<Record>) + Sync,
{
    let mut records: Vec<Record> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                let job = &job;
                scope.spawn(move || {
                    let mut conn = Conn::open(addr).ok();
                    let mut out = Vec::new();
                    job(&mut conn, &mut out);
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().unwrap_or_else(|p| std::panic::resume_unwind(p)))
            .collect()
    });
    records.sort_by_key(|r| r.index);
    records
}

/// Open loop: request `k` is due at `start + offsets[k]` whatever
/// happened to earlier requests. Each free thread takes the next
/// arrival, so a stall delays later arrivals, and that delay is part of
/// their latency.
pub fn open_loop(
    addr: SocketAddr,
    requests: &[Vec<u8>],
    offsets: &[Duration],
    threads: usize,
) -> Vec<Record> {
    let next = AtomicUsize::new(0);
    // Lead time so every thread is connected before arrival 0.
    let start = Instant::now() + Duration::from_millis(20);
    clients(threads, addr, |conn, out| loop {
        let k = next.fetch_add(1, Ordering::Relaxed);
        if k >= requests.len() {
            return;
        }
        let due = start + offsets[k];
        let now = Instant::now();
        if now < due {
            std::thread::sleep(due - now);
        }
        let late = Instant::now() > due + LATE_AFTER;
        let reply = send(conn, addr, &requests[k]);
        let latency_us = due.elapsed().as_secs_f64() * 1e6;
        out.push(Record { index: k, latency_us, late, reply });
    })
}

/// Closed loop: `threads` callers send back to back until `duration`
/// has passed or the request list runs out.
pub fn closed_loop(
    addr: SocketAddr,
    requests: &[Vec<u8>],
    duration: Duration,
    threads: usize,
) -> (Vec<Record>, Duration) {
    let next = AtomicUsize::new(0);
    let start = Instant::now();
    let end = start + duration;
    let records = clients(threads, addr, |conn, out| {
        while Instant::now() < end {
            let k = next.fetch_add(1, Ordering::Relaxed);
            if k >= requests.len() {
                return;
            }
            let t0 = Instant::now();
            let reply = send(conn, addr, &requests[k]);
            let latency_us = t0.elapsed().as_secs_f64() * 1e6;
            out.push(Record { index: k, latency_us, late: false, reply });
        }
    });
    (records, start.elapsed())
}

/// Offsets of `count` arrivals at `rate` per second: evenly paced, each
/// moved by a uniform jitter of up to a quarter interval drawn from
/// `rng`. Pacing instead of Poisson bursts keeps the open loop from
/// queueing on its own nproc connections, so latency measures the
/// server at that rate.
pub fn paced_schedule(rate: f64, count: usize, rng: &mut mb_common::Rng) -> Vec<Duration> {
    (0..count)
        .map(|k| Duration::from_secs_f64((k as f64 + 0.5 + (rng.f64() - 0.5) * 0.5) / rate))
        .collect()
}

/// A parsed `/metrics` page: one value per series name (labels kept).
#[derive(Debug, Clone, Default)]
pub struct Scrape(BTreeMap<String, f64>);

impl Scrape {
    pub fn take(addr: SocketAddr) -> Result<Scrape, String> {
        let (status, body) = fetch(addr, "GET", "/metrics")?;
        if status != 200 {
            return Err(format!("/metrics answered {status}"));
        }
        Ok(Scrape(
            body.lines()
                .filter_map(|l| {
                    let (k, v) = l.rsplit_once(' ')?;
                    Some((k.to_string(), v.parse().ok()?))
                })
                .collect(),
        ))
    }

    pub fn get(&self, series: &str) -> f64 {
        self.0.get(series).copied().unwrap_or(0.0)
    }

    /// `self - before` for a counter.
    pub fn delta(&self, before: &Scrape, series: &str) -> f64 {
        self.get(series) - before.get(series)
    }

    /// Batch-size histogram delta as `(bucket upper bound, batches)`,
    /// non-cumulative; the `+Inf` bucket is reported as bound 0.
    pub fn batch_sizes(&self, before: &Scrape) -> Vec<(usize, f64)> {
        let mut out = Vec::new();
        let mut prev = 0.0;
        for (le, bound) in mb_serve::metrics::BATCH_BUCKETS
            .iter()
            .map(|b| (b.to_string(), *b as usize))
            .chain(std::iter::once(("+Inf".to_string(), 0)))
        {
            let cum = self.delta(before, &format!("serve_batch_size_bucket{{le=\"{le}\"}}"));
            out.push((bound, cum - prev));
            prev = cum;
        }
        out
    }
}
