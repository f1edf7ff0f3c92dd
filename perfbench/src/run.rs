//! Workload orchestration.
//!
//! A run covers [`WEBS`] benchmark webs derived from its seed, one after
//! the other, so web-to-web variation averages out within the run. On each
//! web a workload runs the system's whole life — set-up build, open-loop
//! cluster serving and refresh churn — and its name says which phase gets
//! the web's share of the measured window:
//!
//! | workload        | measured window            | fixed-size remainder          |
//! |-----------------|----------------------------|-------------------------------|
//! | `build`         | builds, each followed by a | churn cycle                   |
//! |                 | 1,000-query serving window |                               |
//! | `serve_zipf`    | cluster at 2,000 q/s       | churn cycle, build, ladder    |
//! | `refresh_churn` | churn cycles               | serving epilogue              |
//!
//! so each end-to-end metric is measured on each workload, and each
//! workload stresses its own layers.
//!
//! Timings are gated on the lower quartile of their repeated measurements
//! (builds, merge cycles, 1,000-request windows): on a shared two-vCPU
//! host, hypervisor steal arrives in bursts of seconds and can double a
//! whole window's latency, while a code change moves every window. The
//! table prints the median and tail beside each gated value.

use crate::catalog::{BUILD, REFRESH_CHURN, SERVE_ZIPF};
use crate::openloop::{self, Sample};
use crate::phases::{self, BuildFacts, ChurnOut, Queries};
use crate::record::{Checks, Layers};
use crate::stats;
use crate::system::{self, bench_config};
use crate::trace::{self, Tracer};
use deepweb_common::{derive_rng, QueryId};
use deepweb_core::{DeepWebSystem, SystemConfig};
use deepweb_index::ClusterServer;
use rand::rngs::StdRng;
use std::collections::BTreeMap;

/// Benchmark webs per run.
pub const WEBS: u64 = 3;
/// Queries sent back to back before a serving phase is timed.
pub const WARM_QUERIES: usize = 5000;
/// Open-loop queries per web of the serving epilogue of `refresh_churn`.
pub const SERVE_EPILOGUE_QUERIES: usize = 2000;
/// Most serving windows `build` interleaves with one web's builds.
pub const BUILD_WINDOWS: usize = 12;
/// Open-loop queries per refresh round in `refresh_churn`.
pub const CHURN_ROUND_QUERIES: usize = 1000;
/// Open-loop queries per refresh round in the churn epilogue.
pub const EPILOGUE_ROUND_QUERIES: usize = 100;
/// Requests per latency window: the fewest whose p99 has ten samples
/// beyond it (half a second at the reference rate).
pub const WINDOW: usize = 1000;

/// Command-line arguments.
#[derive(Clone, Debug)]
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Run seed: derives the webs, their fault schedules, the queries and
    /// the arrivals.
    pub seed: u64,
    /// Length of the measured window.
    pub seconds: f64,
    /// Traced run.
    pub trace: bool,
}

impl Args {
    /// Parse `--workload W --seed N --seconds S --trace 0|1`.
    pub fn parse(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
        let mut args = Args {
            workload: String::new(),
            seed: 1,
            seconds: 20.0,
            trace: false,
        };
        while let Some(flag) = it.next() {
            let value = it.next().ok_or(format!("{flag} needs a value"))?;
            let bad = |e: &dyn std::fmt::Display| format!("bad {flag} {value:?}: {e}");
            match flag.as_str() {
                "--workload" => args.workload = value,
                "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
                "--seconds" => args.seconds = value.parse().map_err(|e| bad(&e))?,
                "--trace" => args.trace = value == "1",
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        if ![BUILD, SERVE_ZIPF, REFRESH_CHURN].contains(&args.workload.as_str()) {
            return Err(format!("unknown workload {:?}", args.workload));
        }
        if !args.seconds.is_finite() || args.seconds <= 0.0 {
            return Err("--seconds must be positive".to_string());
        }
        Ok(args)
    }
}

/// The seeds of a run's webs. Distinct runs get disjoint sets.
pub fn web_seeds(seed: u64) -> Vec<u64> {
    (0..WEBS)
        .map(|j| seed.wrapping_mul(WEBS).wrapping_add(j))
        .collect()
}

/// Everything one run measured.
#[derive(Default)]
pub struct Outcome {
    /// Output checks.
    pub checks: Checks,
    /// End-to-end values by name (gated and ungated).
    pub e2e: BTreeMap<&'static str, f64>,
    /// How each end-to-end value was formed, by name.
    pub summaries: BTreeMap<&'static str, String>,
    /// Per-layer samples (traced runs).
    pub layers: Layers,
    /// Trace overhead ratios `(what, traced / untraced)`.
    pub overhead: Vec<(&'static str, f64)>,
}

/// One web's share of a run.
struct Web {
    seed: u64,
    cfg: SystemConfig,
    /// The web's reference build, which every later build must match.
    facts: Option<BuildFacts>,
    build_s: Vec<f64>,
    churn: ChurnOut,
}

/// Shared state of a run while it executes.
struct Ctx<'a> {
    args: &'a Args,
    tracer: &'a Tracer,
    untraced: Tracer,
    rng: StdRng,
    out: Outcome,
    setup_s: Vec<f64>,
    /// Per web: lower quartile of its build times.
    build_q1: Vec<f64>,
    all_build_s: Vec<f64>,
    traced_build_s: Vec<f64>,
    /// Per web: lower quartile of its merge cycles' mean round times.
    refresh_q1: Vec<f64>,
    rounds: usize,
    covered: (usize, usize),
    load: (u64, usize),
    p50_windows: Vec<f64>,
    p99_windows: Vec<f64>,
    requests: usize,
    query_overhead: Vec<f64>,
    late_us: Vec<f64>,
    max_qps: Option<(f64, Vec<(f64, bool)>)>,
}

impl<'a> Ctx<'a> {
    fn new(args: &'a Args, tracer: &'a Tracer) -> Self {
        Ctx {
            args,
            tracer,
            untraced: Tracer::new(false),
            rng: derive_rng(args.seed, "perfbench-arrivals"),
            out: Outcome::default(),
            setup_s: Vec::new(),
            build_q1: Vec::new(),
            all_build_s: Vec::new(),
            traced_build_s: Vec::new(),
            refresh_q1: Vec::new(),
            rounds: 0,
            covered: (0, 0),
            load: (0, 0),
            p50_windows: Vec::new(),
            p99_windows: Vec::new(),
            requests: 0,
            query_overhead: Vec::new(),
            late_us: Vec::new(),
            max_qps: None,
        }
    }

    /// The web's share of the measured window, in seconds.
    fn slice(&self) -> f64 {
        self.args.seconds / WEBS as f64
    }

    /// Check a build against its web's reference facts (the first build of
    /// a web becomes the reference when set-up set none).
    fn check_build(&mut self, web: &mut Web, facts: BuildFacts) {
        match &web.facts {
            Some(reference) => {
                self.out.checks.check(facts == *reference, || {
                    format!(
                        "web {}: build differs from the reference build: {} docs vs {}",
                        web.seed, facts.docs, reference.docs
                    )
                });
            }
            None => web.facts = Some(facts),
        }
    }

    fn build(&mut self, web: &mut Web) -> DeepWebSystem {
        let (sys, s) = system::timed_build(&web.cfg);
        web.build_s.push(s);
        self.check_build(web, BuildFacts::of(&sys));
        sys
    }

    fn traced_build(&mut self, web: &mut Web) {
        let request = self.traced_build_s.len() as u64;
        let (facts, s) = phases::traced_build(&web.cfg, self.tracer, request, &mut self.out.layers);
        self.traced_build_s.push(s);
        self.check_build(web, facts);
    }

    fn stream(&mut self, q: &Queries, n: usize) -> Vec<QueryId> {
        q.workload.stream(n, &mut self.rng)
    }

    /// Serve `ids` open loop at the reference rate on `cluster`, traced or
    /// not.
    fn serve_on(
        &mut self,
        sys: &DeepWebSystem,
        cluster: &ClusterServer<'_>,
        q: &Queries,
        ids: &[QueryId],
        traced: bool,
    ) -> Vec<Sample> {
        let schedule =
            openloop::poisson_schedule(openloop::REFERENCE_QPS, ids.len(), &mut self.rng);
        let tracer = if traced { self.tracer } else { &self.untraced };
        let samples = phases::serve(
            sys,
            cluster,
            q,
            ids,
            &schedule,
            tracer,
            &mut self.out.checks,
            &mut self.out.layers,
        );
        self.late_us.extend(samples.iter().map(Sample::late_us));
        samples
    }

    /// Serve `ids` on a freshly warmed default cluster.
    fn serve(
        &mut self,
        sys: &DeepWebSystem,
        q: &Queries,
        warm: &[QueryId],
        ids: &[QueryId],
        traced: bool,
    ) -> Vec<Sample> {
        let cluster = phases::default_cluster(sys);
        phases::warm_up(&cluster, q, warm, &mut self.out.checks);
        self.serve_on(sys, &cluster, q, ids, traced)
    }

    /// Serve `ids` in two halves, each on its own warm cluster: the first
    /// untraced, the second traced in a traced run (their p50 ratio is the
    /// trace overhead). Returns the samples of both.
    fn serve_halves(
        &mut self,
        sys: &DeepWebSystem,
        q: &Queries,
        warm: &[QueryId],
        ids: &[QueryId],
    ) -> Vec<Sample> {
        let (a, b) = ids.split_at(ids.len() / 2);
        let first = self.serve(sys, q, warm, a, false);
        let second = self.serve(sys, q, warm, b, self.args.trace);
        if self.args.trace {
            self.query_overhead
                .push(stats::ratio(p50_us(&second), p50_us(&first)));
        }
        first.into_iter().chain(second).collect()
    }

    /// Count `samples` toward `query_p50_us` and `query_p99_us`: each
    /// [`WINDOW`]-request window gives one median and one p99.
    fn add_queries(&mut self, samples: &[Sample]) {
        let lat: Vec<f64> = samples.iter().map(Sample::latency_us).collect();
        self.p50_windows.extend(stats::windowed(&lat, WINDOW, 0));
        self.p99_windows.extend(stats::windowed(&lat, WINDOW, 2));
        self.requests += lat.len();
    }

    fn churn(&mut self, sys: &mut DeepWebSystem, web: &mut Web, q: &Queries, per_round: usize) {
        phases::churn_cycle(
            sys,
            &web.cfg,
            web.seed,
            q,
            per_round,
            &mut self.rng,
            self.tracer,
            &mut self.out.checks,
            &mut self.out.layers,
            &mut web.churn,
        );
    }

    /// Fold one finished web into the run's aggregates.
    fn fold(&mut self, web: Web) {
        self.build_q1.push(stats::lower_quartile(&web.build_s));
        self.all_build_s.extend(&web.build_s);
        self.refresh_q1
            .push(stats::lower_quartile(&web.churn.cycle_ms));
        self.rounds += web.churn.refresh_ms.len();
        self.late_us
            .extend(web.churn.samples.iter().map(Sample::late_us));
        if let Some(f) = &web.facts {
            self.covered.0 += f.coverage.0;
            self.covered.1 += f.coverage.1;
            self.load.0 += f.requests;
            self.load.1 += f.docs;
        }
        if self.args.trace && !web.churn.traced_us.is_empty() && self.args.workload == REFRESH_CHURN
        {
            self.query_overhead.push(stats::ratio(
                stats::median(&web.churn.traced_us),
                stats::median(&web.churn.untraced_us),
            ));
        }
    }

    fn finish(mut self) -> Outcome {
        let e2e = &mut self.out.e2e;
        let sum = &mut self.out.summaries;
        let mean = |xs: &[f64]| xs.iter().sum::<f64>() / xs.len().max(1) as f64;
        e2e.insert("setup_s", stats::median(&self.setup_s));
        sum.insert(
            "setup_s",
            format!("median of {} set-ups (one per web)", self.setup_s.len()),
        );
        e2e.insert("build_s", mean(&self.build_q1));
        sum.insert(
            "build_s",
            format!(
                "mean over {WEBS} webs of each web's q1 · all builds: {}",
                stats::summarize(&self.all_build_s).render()
            ),
        );
        e2e.insert(
            "record_coverage",
            stats::ratio(self.covered.0 as f64, self.covered.1 as f64),
        );
        sum.insert(
            "record_coverage",
            format!("{} of {} GET-site records", self.covered.0, self.covered.1),
        );
        e2e.insert(
            "requests_per_doc",
            stats::ratio(self.load.0 as f64, self.load.1 as f64),
        );
        sum.insert(
            "requests_per_doc",
            format!("{} offline requests for {} docs", self.load.0, self.load.1),
        );
        e2e.insert("query_p50_us", stats::lower_quartile(&self.p50_windows));
        e2e.insert("query_p99_us", stats::lower_quartile(&self.p99_windows));
        sum.insert(
            "query_p50_us",
            format!(
                "q1 of {} window medians ({} requests) · median window {:.4}",
                self.p50_windows.len(),
                self.requests,
                stats::median(&self.p50_windows)
            ),
        );
        sum.insert(
            "query_p99_us",
            format!(
                "q1 of {} window p99s · median window {:.4} · worst window {:.4}",
                self.p99_windows.len(),
                stats::median(&self.p99_windows),
                self.p99_windows.iter().copied().fold(0.0, f64::max)
            ),
        );
        e2e.insert("refresh_ms", mean(&self.refresh_q1));
        sum.insert(
            "refresh_ms",
            format!(
                "mean over {WEBS} webs of each web's q1 of merge-cycle mean rounds ({} rounds)",
                self.rounds
            ),
        );
        if let Some((best, verdicts)) = &self.max_qps {
            e2e.insert("max_qps", *best);
            let ladder: Vec<String> = verdicts
                .iter()
                .map(|(r, ok)| format!("{r}:{}", if *ok { "ok" } else { "over" }))
                .collect();
            sum.insert("max_qps", ladder.join(" "));
        }
        e2e.insert("failed_share", self.out.checks.failed_share());

        if !self.traced_build_s.is_empty() {
            let r = stats::ratio(
                stats::median(&self.traced_build_s),
                stats::median(&self.all_build_s),
            );
            self.out.overhead.push(("build_s", r));
        }
        if !self.query_overhead.is_empty() {
            let r = stats::median(&self.query_overhead);
            self.out.overhead.push(("query_p50_us", r));
        }
        if self.args.trace {
            self.out.layers.push(
                "harness.late_p99_us",
                stats::percentile_nines(&self.late_us, 2),
            );
            let primary = if self.args.workload == BUILD {
                "build_s"
            } else {
                "query_p50_us"
            };
            let ratio = self
                .out
                .overhead
                .iter()
                .find(|(w, _)| *w == primary)
                .map_or(0.0, |o| o.1);
            self.out.layers.push("harness.trace_overhead", ratio);
        }
        self.out
    }
}

/// Median latency of `samples`, in µs.
fn p50_us(samples: &[Sample]) -> f64 {
    stats::median(&samples.iter().map(Sample::latency_us).collect::<Vec<_>>())
}

/// Run one workload.
pub fn run(args: &Args, tracer: &Tracer) -> Outcome {
    let mut ctx = Ctx::new(args, tracer);
    for (j, seed) in web_seeds(args.seed).into_iter().enumerate() {
        let mut web = Web {
            seed,
            cfg: bench_config(seed),
            facts: None,
            build_s: Vec::new(),
            churn: ChurnOut::default(),
        };
        match args.workload.as_str() {
            BUILD => build_web(&mut ctx, &mut web),
            SERVE_ZIPF => serve_web(&mut ctx, &mut web, j == 0),
            _ => churn_web(&mut ctx, &mut web),
        }
        ctx.fold(web);
    }
    ctx.finish()
}

/// `build` on one web: back-to-back builds for the web's slice, each
/// followed by one [`WINDOW`] of open-loop serving on a warm default
/// cluster over the reference build (the same index every build makes), so
/// builds and serving windows interleave over the whole run. A traced run
/// follows each build with a traced reassembly of it, and traces every
/// other window, starting with the first.
fn build_web(ctx: &mut Ctx<'_>, web: &mut Web) {
    // Set-up: the num_workers = 1 reference build every timed build must
    // match, and the references of the queries to serve.
    let t = trace::now();
    let mut ref_cfg = web.cfg.clone();
    ref_cfg.surfacer.num_workers = 1;
    let reference = DeepWebSystem::build(&ref_cfg);
    let mut q = Queries::new(&reference, web.seed);
    let warm = ctx.stream(&q, WARM_QUERIES);
    let ids = ctx.stream(&q, BUILD_WINDOWS * WINDOW);
    q.add_refs(&reference, &warm);
    q.add_refs(&reference, &ids);
    web.facts = Some(BuildFacts::of(&reference));
    ctx.setup_s.push(t.elapsed().as_secs_f64());

    let cluster = phases::default_cluster(&reference);
    phases::warm_up(&cluster, &q, &warm, &mut ctx.out.checks);
    let slice = ctx.slice();
    let t0 = trace::now();
    let (mut untraced_p50, mut traced_p50) = (Vec::new(), Vec::new());
    let mut windows = ids.chunks_exact(WINDOW).enumerate();
    let mut sys = loop {
        let sys = ctx.build(web);
        if ctx.args.trace {
            ctx.traced_build(web);
        }
        if let Some((w, part)) = windows.next() {
            let traced = ctx.args.trace && w % 2 == 0;
            let samples = ctx.serve_on(&reference, &cluster, &q, part, traced);
            ctx.add_queries(&samples);
            let p50s = if traced {
                &mut traced_p50
            } else {
                &mut untraced_p50
            };
            p50s.push(p50_us(&samples));
        }
        if t0.elapsed().as_secs_f64() >= slice {
            break sys;
        }
    };
    if !traced_p50.is_empty() {
        ctx.query_overhead.push(stats::ratio(
            stats::median(&traced_p50),
            stats::median(&untraced_p50),
        ));
    }
    drop(cluster);
    drop(reference);
    ctx.churn(&mut sys, web, &q, EPILOGUE_ROUND_QUERIES);
}

/// `serve_zipf` on one web; the first web also climbs the `max_qps` ladder.
fn serve_web(ctx: &mut Ctx<'_>, web: &mut Web, ladder: bool) {
    let n = (ctx.slice() * openloop::REFERENCE_QPS) as usize;
    let t = trace::now();
    let mut sys = ctx.build(web);
    let mut q = Queries::new(&sys, web.seed);
    let warm = ctx.stream(&q, WARM_QUERIES);
    let ids = ctx.stream(&q, n);
    let rungs: Vec<Vec<QueryId>> = if ladder {
        openloop::LADDER_QPS
            .iter()
            .map(|_| ctx.stream(&q, openloop::RUNG_REQUESTS))
            .collect()
    } else {
        Vec::new()
    };
    for list in [&warm, &ids].into_iter().chain(&rungs) {
        q.add_refs(&sys, list);
    }
    ctx.setup_s.push(t.elapsed().as_secs_f64());
    if ctx.args.trace {
        ctx.traced_build(web);
    }

    let samples = ctx.serve_halves(&sys, &q, &warm, &ids);
    ctx.add_queries(&samples);
    if ladder {
        let cluster = phases::default_cluster(&sys);
        phases::warm_up(&cluster, &q, &warm, &mut ctx.out.checks);
        ctx.max_qps = Some(phases::climb_ladder(
            &cluster,
            &q,
            &rungs,
            &mut ctx.rng,
            &mut ctx.out.checks,
        ));
    }
    ctx.churn(&mut sys, web, &q, EPILOGUE_ROUND_QUERIES);
    drop(sys);
    drop(ctx.build(web));
}

/// `refresh_churn` on one web: whole merge cycles for the web's slice,
/// each later cycle on a fresh build of the same web so every cycle does
/// the same work; then serving on the default cluster for the serving
/// layers.
fn churn_web(ctx: &mut Ctx<'_>, web: &mut Web) {
    let t = trace::now();
    let mut sys = ctx.build(web);
    sys.fresh_index();
    let mut q = Queries::new(&sys, web.seed);
    let warm = ctx.stream(&q, WARM_QUERIES);
    let ids = ctx.stream(&q, SERVE_EPILOGUE_QUERIES);
    q.add_refs(&sys, &warm);
    q.add_refs(&sys, &ids);
    ctx.setup_s.push(t.elapsed().as_secs_f64());
    if ctx.args.trace {
        ctx.traced_build(web);
    }

    let slice = ctx.slice();
    let t0 = trace::now();
    loop {
        ctx.churn(&mut sys, web, &q, CHURN_ROUND_QUERIES);
        sys = ctx.build(web);
        if t0.elapsed().as_secs_f64() >= slice {
            break;
        }
    }
    let samples = std::mem::take(&mut web.churn.samples);
    ctx.late_us.extend(samples.iter().map(Sample::late_us));
    ctx.add_queries(&samples);
    ctx.serve_halves(&sys, &q, &warm, &ids);
}
