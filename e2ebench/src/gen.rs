//! The open-loop load generator.
//!
//! A phase is a precomputed plan of requests, each with the time it is
//! *due* (a fixed-rate schedule from the phase start). Requests are
//! dealt round-robin to at most `threads` generator threads, each with
//! one connection. A thread sends its next request when it is due, or
//! as soon as its connection is free if the previous answer came late.
//! Latency is always measured from the due time, so a stall is charged
//! to every request queued behind it (no coordinated omission).
//!
//! Every request keeps four timestamps (nanoseconds from phase start):
//!
//! * `due` — when the schedule wanted it sent;
//! * `ready` — when its thread became free (previous answer read);
//! * `sent` — when it was actually written;
//! * `done` — when the last response byte was read.
//!
//! From these, `done − due` is the request's latency and
//! `sent − max(due, ready)` is the generator's own lateness: time the
//! generator spent neither waiting for the schedule nor for the
//! system under test. A run whose generator lateness is high measured
//! the generator, and is marked invalid rather than slow.

use crate::client::Reply;
use crate::stats;
use std::io;
use std::time::{Duration, Instant};

/// Lead time between planning a phase and its first due request, so
/// every thread is parked on its schedule before the clock starts.
const LEAD: Duration = Duration::from_millis(20);

/// How a generator thread waits for its next due time.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Wait {
    /// `thread::sleep`: the core may halt while the thread waits.
    Sleep,
    /// Yield in a loop: the core stays awake and gives way to any
    /// runnable thread of the stack. On a virtual machine, waking a
    /// halted core takes a host-dependent time; over keep-alive
    /// connections that time would otherwise dominate the measured
    /// latencies. (Over one-connection-per-request traffic the edge's
    /// acceptor parks on a timer, and yielding threads delayed its
    /// wake-ups instead, so that traffic sleeps.)
    Yield,
}

/// Wait until `target`.
// Pacing an open-loop schedule is what a sleep is for; no thread waits
// on this one to observe a state change.
#[allow(clippy::disallowed_methods)]
pub fn wait_until(target: Instant, wait: Wait) {
    match wait {
        Wait::Sleep => {
            let now = Instant::now();
            if target > now {
                std::thread::sleep(target - now);
            }
        }
        Wait::Yield => {
            while Instant::now() < target {
                std::thread::yield_now();
            }
        }
    }
}

/// One planned request.
#[derive(Clone, Debug)]
pub struct Planned {
    /// Due time, nanoseconds after the phase start.
    pub due_ns: u64,
    /// Request path.
    pub path: &'static str,
    /// Request body (always a `POST`).
    pub body: String,
}

/// Evenly spaced due times: `n` requests at `rate` per second.
pub fn schedule(n: usize, rate: f64) -> impl Iterator<Item = u64> {
    let step = 1e9 / rate.max(1e-9);
    (0..n).map(move |i| (i as f64 * step) as u64)
}

/// What the system answered, as classified by the generator.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Outcome {
    /// 2xx with a correct body.
    Ok,
    /// 2xx whose body failed the workload's check.
    Wrong,
    /// 429 or 503: refused by admission or backpressure.
    Refused,
    /// Transport error or any other status.
    Failed,
}

/// The generator's record of one request.
#[derive(Copy, Clone, Debug)]
pub struct Record {
    /// Due time (ns from phase start).
    pub due: u64,
    /// When the sending thread became free (ns from phase start).
    pub ready: u64,
    /// When the request was written (ns from phase start).
    pub sent: u64,
    /// When the response was read (ns from phase start).
    pub done: u64,
    /// Handler time reported by the edge (0 when unknown).
    pub handler_ns: u64,
    /// Classification.
    pub outcome: Outcome,
}

impl Record {
    /// Scheduled-send to last-byte latency.
    pub fn latency_ns(&self) -> u64 {
        self.done.saturating_sub(self.due)
    }

    /// The generator's own lateness on this request.
    pub fn lag_ns(&self) -> u64 {
        self.sent.saturating_sub(self.due.max(self.ready))
    }

    /// Actual-send to last-byte time: what the client that sent the
    /// request waited, without the time it spent queued behind earlier
    /// requests on its connection.
    pub fn response_ns(&self) -> u64 {
        self.done.saturating_sub(self.sent)
    }

    /// Actual-send to last-byte time minus the edge's handler time:
    /// accept park, dispatch queue, socket, parse and encode.
    pub fn edge_overhead_ns(&self) -> u64 {
        self.done
            .saturating_sub(self.sent)
            .saturating_sub(self.handler_ns)
    }
}

/// Run `plan` open-loop on `threads` threads, waiting for due times
/// as `wait` says. `make(thread)` builds each thread's sender;
/// `check(i, reply)` judges every 2xx answer to request `i` (and may
/// record it for a later oracle). Returns one record per planned
/// request, in plan order.
pub fn drive<T, M, C>(
    plan: &[Planned],
    threads: usize,
    wait: Wait,
    make: M,
    check: C,
) -> Vec<Record>
where
    M: Fn(usize) -> T + Sync,
    T: FnMut(&Planned) -> io::Result<Reply>,
    C: Fn(usize, &Reply) -> bool + Sync,
{
    let threads = threads.clamp(1, plan.len().max(1));
    let start = Instant::now() + LEAD;
    let since = |t: Instant| t.saturating_duration_since(start).as_nanos() as u64;
    let mut records: Vec<Option<Record>> = vec![None; plan.len()];
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let (make, check) = (&make, &check);
                scope.spawn(move || {
                    let mut send = make(t);
                    let mut ready = 0u64;
                    let mut out = Vec::with_capacity(plan.len() / threads + 1);
                    for (i, item) in plan.iter().enumerate().skip(t).step_by(threads) {
                        wait_until(start + Duration::from_nanos(item.due_ns), wait);
                        let sent = since(Instant::now());
                        let reply = send(item);
                        let done = since(Instant::now());
                        let (outcome, handler_ns) = match &reply {
                            Ok(r) if (200..300).contains(&r.status) => {
                                let ok = check(i, r);
                                (if ok { Outcome::Ok } else { Outcome::Wrong }, r.handler_ns)
                            }
                            Ok(r) if r.status == 429 || r.status == 503 => {
                                // A partial accept still has to be counted.
                                check(i, r);
                                (Outcome::Refused, r.handler_ns)
                            }
                            Ok(r) => (Outcome::Failed, r.handler_ns),
                            Err(_) => (Outcome::Failed, 0),
                        };
                        out.push((
                            i,
                            Record {
                                due: item.due_ns,
                                ready,
                                sent,
                                done,
                                handler_ns,
                                outcome,
                            },
                        ));
                        ready = done;
                    }
                    out
                })
            })
            .collect();
        for handle in handles {
            for (i, record) in handle.join().expect("generator thread") {
                records[i] = Some(record);
            }
        }
    });
    records
        .into_iter()
        .map(|r| r.expect("every planned request ran"))
        .collect()
}

/// Aggregates of one phase.
#[derive(Clone, Debug, Default)]
pub struct PhaseStats {
    /// Requests sent.
    pub sent: u64,
    /// Correct 2xx answers.
    pub ok: u64,
    /// Wrong 2xx answers.
    pub wrong: u64,
    /// 429/503 answers.
    pub refused: u64,
    /// Transport failures and other statuses.
    pub failed: u64,
    /// Sorted latencies (ms).
    pub latency_ms: Vec<f64>,
    /// Sorted response times (ms).
    pub response_ms: Vec<f64>,
    /// Sorted generator lateness (ms).
    pub lag_ms: Vec<f64>,
    /// Sorted handler times of answered requests (ms).
    pub handler_ms: Vec<f64>,
    /// Sorted edge overheads of answered requests (ms).
    pub edge_ms: Vec<f64>,
    /// Median schedule delay (`sent − due`, ms) over the last quarter
    /// of the schedule: how far behind the generator was at the end.
    /// A backlog that grows shows here; one stall that the system
    /// drains again does not.
    pub tail_backlog_ms: f64,
    /// p99 latency (ms) of each of up to [`MAX_SLICES`] consecutive
    /// slices of the schedule, each holding at least
    /// [`SLICE_SAMPLES`] requests when the phase has that many.
    pub slice_p99_ms: Vec<f64>,
}

const MS: f64 = 1e6;

/// Most slices a phase's p99 is taken over.
pub const MAX_SLICES: usize = 5;

/// Requests per slice that give a p99 ten samples of support.
pub const SLICE_SAMPLES: usize = 1000;

impl PhaseStats {
    /// Fold records.
    pub fn from_records(records: &[Record]) -> PhaseStats {
        let mut s = PhaseStats {
            sent: records.len() as u64,
            ..Default::default()
        };
        for r in records {
            match r.outcome {
                Outcome::Ok => s.ok += 1,
                Outcome::Wrong => s.wrong += 1,
                Outcome::Refused => s.refused += 1,
                Outcome::Failed => s.failed += 1,
            }
            s.latency_ms.push(r.latency_ns() as f64 / MS);
            s.response_ms.push(r.response_ns() as f64 / MS);
            s.lag_ms.push(r.lag_ns() as f64 / MS);
            if r.outcome != Outcome::Failed && r.handler_ns > 0 {
                s.handler_ms.push(r.handler_ns as f64 / MS);
                s.edge_ms.push(r.edge_overhead_ns() as f64 / MS);
            }
        }
        let tail: Vec<f64> = records[records.len() - records.len() / 4..]
            .iter()
            .map(|r| r.sent.saturating_sub(r.due) as f64 / MS)
            .collect();
        s.tail_backlog_ms = stats::median(&tail);
        let slices = (records.len() / SLICE_SAMPLES).clamp(1, MAX_SLICES);
        let per_slice = records.len().div_ceil(slices).max(1);
        s.slice_p99_ms = records
            .chunks(per_slice)
            .filter_map(|chunk| {
                let lat: Vec<f64> = chunk.iter().map(|r| r.latency_ns() as f64 / MS).collect();
                stats::percentile(&stats::sorted(&lat), 0.99)
            })
            .collect();
        for v in [
            &mut s.latency_ms,
            &mut s.response_ms,
            &mut s.lag_ms,
            &mut s.handler_ms,
            &mut s.edge_ms,
        ] {
            stats::sort(v);
        }
        s
    }

    /// Requests that did not get a correct answer.
    pub fn errors(&self) -> u64 {
        self.wrong + self.refused + self.failed
    }

    /// Nearest-rank percentile of the latencies.
    pub fn latency(&self, q: f64) -> f64 {
        stats::percentile(&self.latency_ms, q).unwrap_or(0.0)
    }

    /// Median response time (ms).
    pub fn response_p50(&self) -> f64 {
        stats::percentile(&self.response_ms, 0.5).unwrap_or(0.0)
    }

    /// The phase's p99 latency (ms): the median of its slices' p99s,
    /// so one stalled slice does not decide the figure. `None` unless
    /// every slice has ten samples beyond its p99.
    pub fn latency_p99(&self) -> Option<f64> {
        let supported = self.latency_ms.len() / self.slice_p99_ms.len().max(1);
        (stats::beyond(supported, 0.99) >= stats::TAIL_SUPPORT)
            .then(|| stats::median(&self.slice_p99_ms))
    }

    /// The generator's own lateness at p99 (ms).
    pub fn lag_p99_ms(&self) -> f64 {
        stats::percentile(&self.lag_ms, 0.99).unwrap_or(0.0)
    }

    /// Merge another phase's records into this one.
    pub fn absorb(&mut self, other: &PhaseStats) {
        self.sent += other.sent;
        self.ok += other.ok;
        self.wrong += other.wrong;
        self.refused += other.refused;
        self.failed += other.failed;
        for (mine, theirs) in [
            (&mut self.latency_ms, &other.latency_ms),
            (&mut self.response_ms, &other.response_ms),
            (&mut self.lag_ms, &other.lag_ms),
            (&mut self.handler_ms, &other.handler_ms),
            (&mut self.edge_ms, &other.edge_ms),
        ] {
            mine.extend_from_slice(theirs);
            stats::sort(mine);
        }
        self.tail_backlog_ms = self.tail_backlog_ms.max(other.tail_backlog_ms);
    }
}

#[cfg(test)]
// The stalls under test are sleeps: of the system, or of the generator.
#[allow(clippy::disallowed_methods)]
mod tests {
    use super::*;

    fn plan(n: usize, every_ms: u64) -> Vec<Planned> {
        (0..n)
            .map(|i| Planned {
                due_ns: i as u64 * every_ms * 1_000_000,
                path: "/x",
                body: String::new(),
            })
            .collect()
    }

    fn reply() -> io::Result<Reply> {
        Ok(Reply {
            status: 200,
            handler_ns: 1_000,
            body: Vec::new(),
        })
    }

    #[test]
    fn schedule_is_evenly_spaced() {
        let due: Vec<u64> = schedule(4, 1000.0).collect();
        assert_eq!(due, vec![0, 1_000_000, 2_000_000, 3_000_000]);
    }

    #[test]
    fn a_server_stall_is_charged_to_every_request_queued_behind_it() {
        // One request every 2 ms; the system stalls 30 ms on request 5.
        let plan = plan(30, 2);
        let records = drive(
            &plan,
            1,
            Wait::Sleep,
            |_| {
                |p: &Planned| {
                    if p.due_ns == 10_000_000 {
                        std::thread::sleep(Duration::from_millis(30));
                    }
                    reply()
                }
            },
            |_, _| true,
        );
        let lat_ms = |i: usize| records[i].latency_ns() as f64 / MS;
        assert!(
            lat_ms(5) >= 30.0,
            "the stalled request itself: {}",
            lat_ms(5)
        );
        // Request 6 was due 2 ms into the stall and waited for it.
        assert!(lat_ms(6) >= 28.0, "queued behind the stall: {}", lat_ms(6));
        assert!(lat_ms(10) >= 20.0, "still queued: {}", lat_ms(10));
        // A closed-loop timer (sent → done) would have hidden this.
        assert!(records[6].done - records[6].sent < 5_000_000);
        // The stall was the system's, not the generator's.
        let stats = PhaseStats::from_records(&records);
        assert!(
            stats.lag_p99_ms() < 5.0,
            "generator lag {}",
            stats.lag_p99_ms()
        );
        assert_eq!(stats.ok, 30);
        assert!(stats.latency(1.0) >= 30.0);
    }

    #[test]
    fn a_generator_stall_shows_as_lateness_not_latency_of_the_system() {
        // The generator itself stalls 30 ms after request 5's answer
        // (e.g. descheduled while checking it); the system is instant.
        let plan = plan(30, 2);
        let records = drive(
            &plan,
            1,
            Wait::Sleep,
            |_| |_: &Planned| reply(),
            |i, _| {
                if i == 5 {
                    std::thread::sleep(Duration::from_millis(30));
                }
                true
            },
        );
        let lag_ms = records[6].lag_ns() as f64 / MS;
        assert!(
            lag_ms >= 25.0,
            "request 6 was sent late by the generator: {lag_ms}"
        );
        let stats = PhaseStats::from_records(&records);
        assert!(stats.lag_p99_ms() >= 25.0);
    }

    #[test]
    fn outcomes_are_classified() {
        let plan = plan(4, 1);
        let records = drive(
            &plan,
            2,
            Wait::Yield,
            |_| {
                |p: &Planned| match p.due_ns / 1_000_000 {
                    0 => reply(),
                    1 => Ok(Reply {
                        status: 429,
                        handler_ns: 0,
                        body: Vec::new(),
                    }),
                    2 => Ok(Reply {
                        status: 500,
                        handler_ns: 0,
                        body: Vec::new(),
                    }),
                    _ => Err(io::Error::other("reset")),
                }
            },
            |_, _| false,
        );
        let kinds: Vec<Outcome> = records.iter().map(|r| r.outcome).collect();
        assert_eq!(
            kinds,
            vec![
                Outcome::Wrong,
                Outcome::Refused,
                Outcome::Failed,
                Outcome::Failed
            ]
        );
        let stats = PhaseStats::from_records(&records);
        assert_eq!((stats.sent, stats.ok, stats.errors()), (4, 0, 4));
    }
}
