//! Open-loop load: Poisson arrivals served inline by one generator thread.
//!
//! Every request is timed from the moment it was *due*, not from when the
//! generator got round to sending it, so a stall is charged to every request
//! that queued behind it. The generator also reports how late it ran.

use rand::rngs::StdRng;
use rand::Rng;
use std::time::{Duration, Instant};

/// The fixed reference rate for `query_p50_us` / `query_p99_us`: twice the
/// paper's ">1000 queries per second".
pub const REFERENCE_QPS: f64 = 2000.0;

/// Latency limit a `max_qps` rung must meet at p99.
pub const LATENCY_LIMIT_US: f64 = 1000.0;

/// The fixed geometric ladder `max_qps` climbs.
pub const LADDER_QPS: [f64; 8] = [
    500.0, 1000.0, 2000.0, 4000.0, 8000.0, 16000.0, 32000.0, 64000.0,
];

/// Requests per ladder rung: the smallest count whose p99 has ten samples
/// beyond it.
pub const RUNG_REQUESTS: usize = 1000;

/// One served request, in ns since the phase started.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Sample {
    /// When the request was due.
    pub due_ns: u64,
    /// When the generator sent it.
    pub start_ns: u64,
    /// When the answer came back.
    pub end_ns: u64,
}

impl Sample {
    /// Latency from the due time, in µs.
    pub fn latency_us(&self) -> f64 {
        (self.end_ns - self.due_ns) as f64 / 1e3
    }

    /// Service time (send to answer), in µs.
    pub fn service_us(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e3
    }

    /// How late the generator sent the request, in µs.
    pub fn late_us(&self) -> f64 {
        (self.start_ns - self.due_ns) as f64 / 1e3
    }
}

/// Due times (ns from phase start) of `n` Poisson arrivals at `rate_qps`.
pub fn poisson_schedule(rate_qps: f64, n: usize, rng: &mut StdRng) -> Vec<u64> {
    let mut t = 0.0f64;
    (0..n)
        .map(|_| {
            let u: f64 = rng.gen();
            t += -(1.0 - u).ln() / rate_qps * 1e9;
            t as u64
        })
        .collect()
}

/// Serve request `i` at `schedule[i]` for every `i`, inline on the calling
/// thread. `serve` receives the request index and a [`Stamp`]; a callback
/// that checks its output marks the answer's arrival first (see [`timed`]),
/// otherwise the request ends when the callback returns.
pub fn run(schedule: &[u64], mut serve: impl FnMut(usize, &mut Stamp)) -> Vec<Sample> {
    let t0 = crate::trace::now();
    let mut out = Vec::with_capacity(schedule.len());
    for (i, &due) in schedule.iter().enumerate() {
        wait_until(t0, due);
        let start = t0.elapsed().as_nanos() as u64;
        let mut stamp = Stamp { t0, end_ns: None };
        serve(i, &mut stamp);
        let end = stamp
            .end_ns
            .unwrap_or_else(|| t0.elapsed().as_nanos() as u64);
        out.push(Sample {
            due_ns: due,
            start_ns: start,
            end_ns: end,
        });
    }
    out
}

/// Lets a `serve` callback mark when its answer arrived, so output checks
/// that follow inside the callback are not charged to the request.
pub struct Stamp {
    t0: Instant,
    end_ns: Option<u64>,
}

impl Stamp {
    /// Mark the answer as arrived now.
    pub fn done(&mut self) {
        self.end_ns = Some(self.t0.elapsed().as_nanos() as u64);
    }
}

/// Run `f`, then mark the answer arrived on `stamp`.
pub fn timed<R>(stamp: &mut Stamp, f: impl FnOnce() -> R) -> R {
    let r = f();
    stamp.done();
    r
}

fn wait_until(t0: Instant, due_ns: u64) {
    const SPIN_NS: u64 = 150_000;
    loop {
        let now = t0.elapsed().as_nanos() as u64;
        if now >= due_ns {
            return;
        }
        let left = due_ns - now;
        if left > SPIN_NS {
            std::thread::sleep(Duration::from_nanos(left - SPIN_NS));
        } else {
            std::hint::spin_loop();
        }
    }
}

/// The backlog seen at each request's due time: requests due by then that
/// the generator had not yet sent.
pub fn backlog(samples: &[Sample]) -> Vec<usize> {
    let mut due: Vec<u64> = samples.iter().map(|s| s.due_ns).collect();
    let mut start: Vec<u64> = samples.iter().map(|s| s.start_ns).collect();
    due.sort_unstable();
    start.sort_unstable();
    let mut sent = 0;
    due.iter()
        .enumerate()
        .map(|(j, &d)| {
            while sent < start.len() && start[sent] <= d {
                sent += 1;
            }
            (j + 1).saturating_sub(sent)
        })
        .collect()
}

/// The backlog rule: the backlog grows when its mean over the last quarter
/// of the arrivals exceeds twice its mean over the second quarter plus two
/// requests. A stable queue fluctuates around a fixed level; an overloaded
/// one grows linearly, so its late mean far exceeds its early mean.
pub fn backlog_grows(samples: &[Sample]) -> bool {
    let b = backlog(samples);
    let q = b.len() / 4;
    if q == 0 {
        return false;
    }
    let mean = |xs: &[usize]| xs.iter().sum::<usize>() as f64 / xs.len() as f64;
    mean(&b[3 * q..]) > 2.0 * mean(&b[q..2 * q]) + 2.0
}

/// Whether one ladder rung meets the limit: p99 latency within
/// [`LATENCY_LIMIT_US`] and no growing backlog.
pub fn rung_passes(samples: &[Sample]) -> bool {
    let lat: Vec<f64> = samples.iter().map(Sample::latency_us).collect();
    crate::stats::percentile_nines(&lat, 2) <= LATENCY_LIMIT_US && !backlog_grows(samples)
}

/// `max_qps`: the highest ladder rate whose rung passes. `run_rung` serves
/// one rung at the given rate and returns its samples. Every rung runs, so
/// a non-monotone curve is reported as measured. Returns 0 when no rung
/// passes, together with each rung's verdict.
pub fn max_qps(
    ladder: &[f64],
    mut run_rung: impl FnMut(f64) -> Vec<Sample>,
) -> (f64, Vec<(f64, bool)>) {
    let verdicts: Vec<(f64, bool)> = ladder
        .iter()
        .map(|&rate| (rate, rung_passes(&run_rung(rate))))
        .collect();
    let best = verdicts
        .iter()
        .filter(|(_, ok)| *ok)
        .map(|(r, _)| *r)
        .fold(0.0, f64::max);
    (best, verdicts)
}
