//! The load generator: at most two threads.
//!
//! An open loop (`interactive`, `video`) runs a submitting thread that
//! sends each request when it is due, and a waiting thread that blocks on
//! tickets in submission order, stamps the completion time first and only
//! then hashes the output. A closed loop (the bulk workloads) runs each of
//! its two clients on its own thread, which sends the client's next frame
//! the moment the last one completes. Latency runs from when a request was
//! *due*, so a stall in the system also charges the requests it delayed.
//!
//! Caveat: the open-loop waiter observes completions in submission order,
//! so a request that finishes before an earlier one is seen late. The
//! workloads keep completions close to submission order: small requests
//! all have one size, and the second video session runs half a period
//! behind the first. The closed-loop clients wait on their own frames
//! only, so their completion times are exact.

use crate::trace::{SpanLog, SpanSink};
use crate::workload::{Live, Mode, Plan, Request};
use sesr_serve::{RouterTicket, Ticket};
use sesr_tensor::Tensor;
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// Threads the generator runs: the submitter and the waiter, or the two
/// closed-loop clients.
pub const GENERATOR_THREADS: usize = 2;

/// Pause between process set-up and the first due time, so the first
/// request is not charged for the thread start-up.
const LEAD: Duration = Duration::from_millis(20);

#[derive(Debug, Clone, PartialEq)]
pub enum Outcome {
    /// Served; the 64-bit hash of the output.
    Ok(u64),
    /// Refused at admission.
    Refused(String),
    /// Admitted but failed.
    Failed(String),
}

/// What happened to one request of the window.
#[derive(Debug, Clone)]
pub struct Record {
    pub request: Request,
    pub due: Instant,
    pub sent: Instant,
    pub admitted: Instant,
    /// When the generator saw the outcome; `None` for a refused request.
    pub done: Option<Instant>,
    pub outcome: Outcome,
    /// Span id of the request when it was traced, else 0.
    pub span: u64,
}

impl Record {
    pub fn latency_ms(&self) -> Option<f64> {
        self.done
            .map(|d| d.saturating_duration_since(self.due).as_secs_f64() * 1e3)
    }

    pub fn late_ms(&self) -> f64 {
        self.sent.saturating_duration_since(self.due).as_secs_f64() * 1e3
    }

    pub fn is_ok(&self) -> bool {
        matches!(self.outcome, Outcome::Ok(_))
    }
}

/// The timed window's records plus its start and end.
pub struct Window {
    pub start: Instant,
    pub end: Instant,
    pub records: Vec<Record>,
}

enum Pending {
    Router(RouterTicket),
    Frame(Ticket),
}

impl Pending {
    fn wait(self) -> Result<Tensor, String> {
        match self {
            Pending::Router(t) => t.wait().map_err(|e| e.to_string()),
            Pending::Frame(t) => t.wait().map_err(|e| e.to_string()),
        }
    }
}

fn submit(live: &Live, plan: &Plan, req: &Request) -> Result<Pending, String> {
    let input = plan.images[req.input].clone();
    match req.frame {
        Some((session, seq)) => live
            .router
            .feed_video_frame(live.sessions[session], seq, input, Some(req.deadline))
            .map(Pending::Frame),
        None => live
            .router
            .submit(
                &plan.tenants[req.tenant],
                req.class,
                &req.key(),
                input,
                Some(req.deadline),
            )
            .map(Pending::Router),
    }
    .map_err(|e| e.to_string())
}

struct Sent {
    request: Request,
    due: Instant,
    sent: Instant,
    admitted: Instant,
    span: u64,
    pending: Pending,
}

/// One generator thread's sending side: traces every other request it
/// sends when a span log is given.
struct Submitter<'a> {
    live: &'a Live,
    plan: &'a Plan,
    log: Option<&'a SpanLog>,
    sink: Option<SpanSink<'a>>,
    sent: u64,
}

impl<'a> Submitter<'a> {
    fn new(live: &'a Live, plan: &'a Plan, log: Option<&'a SpanLog>) -> Self {
        Self {
            live,
            plan,
            log,
            sink: log.map(SpanLog::sink),
            sent: 0,
        }
    }

    /// Submits `req`; a refusal comes back as its finished record.
    fn send(&mut self, req: &Request, due: Instant) -> Result<Sent, Box<Record>> {
        let traced = self.sent % 2 == 1;
        self.sent += 1;
        let span = match self.log {
            Some(log) if traced => log.next_id(),
            _ => 0,
        };
        let sent = Instant::now();
        let result = submit(self.live, self.plan, req);
        let admitted = Instant::now();
        if let Some(sink) = self.sink.as_mut().filter(|_| span != 0) {
            sink.record("router.submit", sent, admitted, span, span);
        }
        match result {
            Ok(pending) => Ok(Sent {
                request: req.clone(),
                due,
                sent,
                admitted,
                span,
                pending,
            }),
            Err(e) => Err(Box::new(Record {
                request: req.clone(),
                due,
                sent,
                admitted,
                done: None,
                outcome: Outcome::Refused(e),
                span: 0,
            })),
        }
    }
}

impl Sent {
    /// Blocks until the request settles and stamps the time. Hashing waits
    /// for [`Settled::record`], so it delays neither the stamp nor what the
    /// caller sends next.
    fn settle(self) -> Settled {
        let result = self.pending.wait();
        Settled {
            done: Instant::now(),
            request: self.request,
            due: self.due,
            sent: self.sent,
            admitted: self.admitted,
            span: self.span,
            result,
        }
    }
}

/// A request whose outcome has arrived.
struct Settled {
    done: Instant,
    request: Request,
    due: Instant,
    sent: Instant,
    admitted: Instant,
    span: u64,
    result: Result<Tensor, String>,
}

impl Settled {
    /// Hashes the output and records the request's spans.
    fn record(self, sink: &mut Option<SpanSink>) -> Record {
        let outcome = match self.result {
            Ok(out) => Outcome::Ok(crate::stats::hash_f32(out.data())),
            Err(e) => Outcome::Failed(e),
        };
        if let Some(sink) = sink.as_mut().filter(|_| self.span != 0) {
            sink.record(
                "router.wait",
                self.admitted,
                self.done,
                self.span,
                self.span,
            );
            sink.record_root("request", self.due, self.done, self.span);
        }
        Record {
            request: self.request,
            due: self.due,
            sent: self.sent,
            admitted: self.admitted,
            done: Some(self.done),
            outcome,
            span: self.span,
        }
    }
}

/// Runs the plan's window against the live router. With `log`, every
/// other request each generator thread sends is traced, so the traced run
/// can price its own tracing against the untraced half of the same window.
pub fn drive(live: &Live, plan: &Plan, log: Option<&SpanLog>) -> Window {
    let start = Instant::now() + LEAD;
    let end = start + Duration::from_secs_f64(plan.seconds);
    let mut records = match &plan.mode {
        Mode::Closed { cycles } => {
            assert!(
                cycles.len() <= GENERATOR_THREADS,
                "a closed loop runs one client per generator thread"
            );
            drive_clients(live, plan, log, cycles, start, end)
        }
        Mode::Open(requests) => drive_open(live, plan, log, requests, start),
    };
    records.sort_by_key(|r| r.due);
    Window {
        start,
        end,
        records,
    }
}

/// One closed-loop client per generator thread: each sends its next
/// request the moment its last one completes, then hashes the last output.
fn drive_clients(
    live: &Live,
    plan: &Plan,
    log: Option<&SpanLog>,
    cycles: &[Vec<Request>],
    start: Instant,
    end: Instant,
) -> Vec<Record> {
    let client = |slot: usize| {
        let cycle = &cycles[slot];
        let mut sender = Submitter::new(live, plan, log);
        let mut records = Vec::new();
        sleep_until(start);
        let mut next = Some(sender.send(&cycle[0], start));
        for n in 1.. {
            let Some(current) = next.take() else { break };
            let (freed, settled) = match current {
                Ok(sent) => {
                    let settled = sent.settle();
                    (settled.done, Some(settled))
                }
                Err(refused) => {
                    records.push(*refused);
                    (Instant::now(), None)
                }
            };
            if freed < end {
                next = Some(sender.send(&cycle[n % cycle.len()], freed));
            }
            if let Some(settled) = settled {
                records.push(settled.record(&mut sender.sink));
            }
        }
        if let Some(log) = log {
            log.merge(sender.sink);
        }
        records
    };
    let client = &client;
    std::thread::scope(|s| {
        let others: Vec<_> = (1..cycles.len())
            .map(|slot| s.spawn(move || client(slot)))
            .collect();
        let mut records = client(0);
        for h in others {
            records.extend(h.join().expect("client thread panicked"));
        }
        records
    })
}

/// An open loop: a submitting thread on the schedule, and one waiting
/// thread observing completions in submission order.
fn drive_open(
    live: &Live,
    plan: &Plan,
    log: Option<&SpanLog>,
    requests: &[Request],
    start: Instant,
) -> Vec<Record> {
    let (tx, rx) = mpsc::channel::<Sent>();
    std::thread::scope(|s| {
        let waiter = s.spawn(move || {
            let mut sink = log.map(SpanLog::sink);
            let records: Vec<Record> = rx
                .into_iter()
                .map(|sent| sent.settle().record(&mut sink))
                .collect();
            if let Some(log) = log {
                log.merge(sink);
            }
            records
        });
        let mut sender = Submitter::new(live, plan, log);
        let mut refused = Vec::new();
        for req in requests {
            let due = start + req.due;
            sleep_until(due);
            match sender.send(req, due) {
                Ok(sent) => tx.send(sent).expect("the waiter outlives the submitter"),
                Err(record) => refused.push(*record),
            }
        }
        drop(tx);
        let mut records = waiter.join().expect("waiter thread panicked");
        if let Some(log) = log {
            log.merge(sender.sink);
        }
        records.extend(refused);
        records
    })
}

fn sleep_until(t: Instant) {
    let now = Instant::now();
    if t > now {
        std::thread::sleep(t - now);
    }
}
