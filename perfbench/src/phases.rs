//! The three phases every workload is made of — full builds, open-loop
//! cluster serving and refresh churn — each in an untraced and a traced
//! form. A workload gives one phase its measured window and runs the other
//! two at a small fixed size, so every end-to-end metric is measured on
//! every workload.

use crate::openloop::{self, Sample, Stamp};
use crate::record::{Checks, Layers};
use crate::stats::{self, ratio};
use crate::system::{self, same_hits, K};
use crate::tap::TapFetcher;
use crate::trace::{self, Tracer};
use deepweb_common::{DocId, QueryId, ThreadPool, Url};
use deepweb_core::{DeepWebSystem, SystemConfig};
use deepweb_html::Document;
use deepweb_index::analysis::analyze_query;
use deepweb_index::{
    ClusterConfig, ClusterServer, Generation, Hit, PruningMode, SearchIndex, SearchOptions,
    SearchService,
};
use deepweb_queries::{generate_workload, Workload, WorkloadConfig};
use deepweb_surfacer::{crawl_and_surface, resurface_host};
use deepweb_webworld::{generate, grow_site, FaultyFetcher};
use rand::rngs::StdRng;
use rand::Rng;
use std::hint::black_box;
use std::time::Instant;

/// Distinct queries in the serving workload.
pub const DISTINCT_QUERIES: usize = 4000;
/// Rows each grown site gains per refresh round.
pub const GROWTH_ROWS: usize = 30;
/// Refresh rounds per merge cycle; each round grows one quarter of sites.
pub const ROUNDS_PER_CYCLE: usize = 4;

fn us_since(t: Instant) -> f64 {
    t.elapsed().as_nanos() as f64 / 1e3
}

// ---------------------------------------------------------------- builds --

/// What a build left behind that the checks compare: two builds of one
/// web must agree on all of it.
#[derive(PartialEq, Eq, Debug)]
pub struct BuildFacts {
    /// Docs indexed.
    pub docs: usize,
    /// Sorted URL set.
    pub urls: Vec<String>,
    /// `(records covered, records held)` over GET sites.
    pub coverage: (usize, usize),
    /// Offline requests.
    pub requests: u64,
}

impl BuildFacts {
    /// Facts of a built system.
    pub fn of(sys: &DeepWebSystem) -> Self {
        BuildFacts {
            docs: sys.index.len(),
            urls: system::url_set(&sys.index),
            coverage: system::record_coverage(&sys.world, &sys.outcome),
            requests: sys.offline_requests,
        }
    }
}

/// The system build reassembled from its layers' public functions, with a
/// span around each: `webworld.generate`, `surfacer.crawl_and_surface`
/// (parent of every `webworld.fetch`), `index.add_batch` and
/// `index.enable_pruning`, all under one `core.build` span. Afterwards the
/// fetched bodies are re-parsed under `html.parse_replay` to size the cost
/// of parsing every page once. Pushes the build-layer metrics and returns
/// the build's facts and wall time in seconds.
pub fn traced_build(
    cfg: &SystemConfig,
    tracer: &Tracer,
    request: u64,
    layers: &mut Layers,
) -> (BuildFacts, f64) {
    let root = tracer.reserve();
    let t0 = tracer.now_ns();
    let (world, gen_ns) = tracer.span("webworld.generate", Some(root), request, |_| {
        generate(&cfg.web)
    });
    world.server.reset_counts();
    let faults = cfg.faults.expect("the benchmark web always injects faults");
    let faulty = FaultyFetcher::new(&world.server, faults);
    let surf = tracer.reserve();
    let tap = TapFetcher::new(&faulty, tracer, surf, request);
    let s0 = tracer.now_ns();
    let outcome = crawl_and_surface(&tap, &[Url::new("dir.sim", "/")], &cfg.surfacer);
    let s1 = tracer.now_ns();
    tracer.record(
        surf,
        Some(root),
        "surfacer.crawl_and_surface",
        "",
        request,
        s0,
        s1,
    );
    let requests = world.server.total_requests();
    world.server.reset_counts();
    let pool = ThreadPool::new(cfg.surfacer.num_workers);
    let batch = outcome
        .docs
        .iter()
        .map(|d| system::to_batch_doc(&world, d))
        .collect();
    let mut index = SearchIndex::new();
    let (_, add_ns) = tracer.span("index.add_batch", Some(root), request, |_| {
        index.add_batch(&pool, batch)
    });
    for report in &outcome.reports {
        for (key, values) in &report.facet_values {
            index.add_facet_values(key, values.iter().cloned());
        }
    }
    let (_, block_ns) = tracer.span("index.enable_pruning", Some(root), request, |_| {
        index.enable_pruning()
    });
    let t1 = tracer.now_ns();
    tracer.record(root, None, "core.build", "", request, t0, t1);
    let wall_s = (t1 - t0) as f64 / 1e9;

    let fetches = tap.fetches();
    let busy_ms = tap.busy_ms();
    let kb = tap.kb();
    let bodies = tap.into_bodies();
    let (_, parse_ns) = tracer.span("html.parse_replay", None, request, |_| {
        for body in &bodies {
            black_box(Document::parse(black_box(body)));
        }
    });
    drop(bodies);

    let spans = tracer.spans();
    let self_ns = spans
        .iter()
        .find(|s| s.id == surf)
        .map_or(s1 - s0, |s| trace::self_time_ns(s, &spans));
    let retries = outcome.robustness().total_retries();
    let sum = |f: fn(&deepweb_surfacer::SiteReport) -> f64| -> f64 {
        outcome.reports.iter().map(f).sum()
    };
    let ms = |ns: u64| ns as f64 / 1e6;
    layers.push("webworld.generate_ms", ms(gen_ns));
    layers.push("webworld.fetches", fetches as f64);
    layers.push("webworld.fetch_busy_ms", busy_ms);
    layers.push("webworld.fetch_kb", kb);
    layers.push("fetchpolicy.retries", retries as f64);
    layers.push(
        "fetchpolicy.retry_ratio",
        ratio(retries as f64, fetches as f64),
    );
    layers.push("surfacer.wall_ms", ms(s1 - s0));
    layers.push("surfacer.self_ms", ms(self_ns));
    layers.push(
        "surfacer.analysis_requests",
        sum(|r| r.analysis_requests as f64),
    );
    layers.push(
        "surfacer.surfacing_requests",
        sum(|r| r.surfacing_requests as f64),
    );
    layers.push(
        "surfacer.docs_per_fetch",
        ratio(outcome.docs.len() as f64, fetches as f64),
    );
    layers.push(
        "surfacer.informative_ratio",
        ratio(
            sum(|r| r.templates_informative as f64),
            sum(|r| r.templates_tested as f64),
        ),
    );
    layers.push("html.parse_once_ms", ms(parse_ns));
    layers.push("index.add_batch_ms", ms(add_ns));
    layers.push("index.block_build_ms", ms(block_ns));
    layers.push("index.postings", index.stats().postings as f64);

    let facts = BuildFacts {
        docs: index.len(),
        urls: system::url_set(&index),
        coverage: system::record_coverage(&world, &outcome),
        requests,
    };
    (facts, wall_s)
}

// --------------------------------------------------------------- queries --

/// The query side of the benchmark: the workload's texts and, for the
/// ids the run will send, the sequential reference answers.
pub struct Queries {
    /// Workload over the benchmark web.
    pub workload: Workload,
    /// Reference answer per query id, for every id sent to the cluster.
    refs: Vec<Option<Vec<Hit>>>,
}

impl Queries {
    /// The workload over `sys`'s web, seeded by the workload seed.
    pub fn new(sys: &DeepWebSystem, seed: u64) -> Self {
        let workload = generate_workload(
            &sys.world,
            &WorkloadConfig {
                distinct: DISTINCT_QUERIES,
                seed,
                ..WorkloadConfig::default()
            },
        );
        let refs = vec![None; workload.len()];
        Queries { workload, refs }
    }

    /// `n` ids drawn uniformly from the distinct queries. The fresh tier
    /// has no cache, so popularity does not change what a query costs it;
    /// a Zipf stream would only let a few head queries set a round's
    /// median.
    pub fn uniform(&self, n: usize, rng: &mut StdRng) -> Vec<QueryId> {
        (0..n)
            .map(|_| QueryId(rng.gen_range(0..self.workload.len()) as u32))
            .collect()
    }

    /// Text of a query.
    pub fn text(&self, id: QueryId) -> &str {
        &self.workload.query(id).text
    }

    /// Compute the sequential `DeepWebSystem::search` reference for every
    /// id in `ids` that has none yet.
    pub fn add_refs(&mut self, sys: &DeepWebSystem, ids: &[QueryId]) {
        for &id in ids {
            let slot = id.0 as usize;
            if self.refs[slot].is_none() {
                self.refs[slot] = Some(sys.search(&self.workload.query(id).text, K));
            }
        }
    }

    fn check(&self, id: QueryId, hits: &[Hit]) -> bool {
        self.refs[id.0 as usize]
            .as_deref()
            .is_some_and(|r| same_hits(r, hits))
    }
}

// --------------------------------------------------------------- serving --

/// Send `ids[..warm]` back to back (untimed), so the cache is filled before
/// timing starts.
pub fn warm_up(cluster: &ClusterServer<'_>, q: &Queries, ids: &[QueryId], checks: &mut Checks) {
    for &id in ids {
        let hits = cluster.search(q.text(id), K);
        checks.check(q.check(id, &hits), || {
            format!(
                "warm-up answer differs from sequential search: {:?}",
                q.text(id)
            )
        });
    }
}

/// Serve `ids` through `cluster` on `schedule`, checking every answer
/// against its sequential reference. When tracing, every request gets a
/// `cluster.search` span labelled `hit` or `miss` from the change in the
/// cache's counters (`none` when no term resolved and the cache was not
/// consulted), and the serving-layer metrics are pushed.
#[allow(clippy::too_many_arguments)]
pub fn serve(
    sys: &DeepWebSystem,
    cluster: &ClusterServer<'_>,
    q: &Queries,
    ids: &[QueryId],
    schedule: &[u64],
    tracer: &Tracer,
    checks: &mut Checks,
    layers: &mut Layers,
) -> Vec<Sample> {
    let trace = tracer.enabled();
    let cache = || cluster.cache_stats().unwrap_or_default();
    let before = cache();
    let mut outcomes = Vec::with_capacity(if trace { ids.len() } else { 0 });
    let samples = openloop::run(schedule, |i, stamp: &mut Stamp| {
        let id = ids[i];
        let text = q.text(id);
        let hits = if trace {
            let c0 = cache();
            let span = tracer.reserve();
            let s = tracer.now_ns();
            let hits = openloop::timed(stamp, || cluster.search(text, K));
            let e = tracer.now_ns();
            let c1 = cache();
            let label = if c1.hits > c0.hits {
                "hit"
            } else if c1.misses > c0.misses {
                "miss"
            } else {
                "none"
            };
            tracer.record(span, None, "cluster.search", label, i as u64, s, e);
            outcomes.push(label);
            hits
        } else {
            openloop::timed(stamp, || cluster.search(text, K))
        };
        checks.check(q.check(id, &hits), || {
            format!("cluster answer differs from sequential search: {text:?}")
        });
    });
    if trace {
        serving_layers(sys, cluster, q, ids, &samples, &outcomes, before, layers);
    }
    samples
}

/// Serving-layer metrics of one traced phase.
#[allow(clippy::too_many_arguments)]
fn serving_layers(
    sys: &DeepWebSystem,
    cluster: &ClusterServer<'_>,
    q: &Queries,
    ids: &[QueryId],
    samples: &[Sample],
    outcomes: &[&str],
    before: deepweb_index::CacheStats,
    layers: &mut Layers,
) {
    let after = cluster.cache_stats().unwrap_or_default();
    let lookups = (after.hits + after.misses) - (before.hits + before.misses);
    layers.push(
        "cache.hit_ratio",
        ratio((after.hits - before.hits) as f64, lookups as f64),
    );
    layers.push(
        "cache.evictions",
        (after.evictions - before.evictions) as f64,
    );
    let (mut hit_us, mut miss_us, mut misses) = (Vec::new(), Vec::new(), Vec::new());
    for ((s, &outcome), &id) in samples.iter().zip(outcomes).zip(ids) {
        match outcome {
            "hit" => hit_us.push(s.service_us()),
            "miss" => {
                miss_us.push(s.service_us());
                misses.push((id, s.service_us()));
            }
            _ => {}
        }
    }
    layers.push("cluster.hit_p50_us", stats::median(&hit_us));
    layers.push("cluster.miss_p50_us", stats::median(&miss_us));
    layers.push("cluster.miss_p99_us", stats::percentile_nines(&miss_us, 2));
    // Replay the same misses through the sequential kernel, exhaustive (the
    // system's mode) and block-max.
    let searcher = sys.service();
    let blockmax = sys.index.searcher(SearchOptions {
        pruning: PruningMode::BlockMax,
        ..sys.options
    });
    let mut blockmax_us = Vec::new();
    let postings = sys.index.postings();
    let (mut kernel_us, mut overhead_us, mut resolved_df) = (Vec::new(), Vec::new(), 0usize);
    for &(id, miss) in &misses {
        let text = q.text(id);
        let t = trace::now();
        black_box(searcher.search(black_box(text), K));
        let k = us_since(t);
        kernel_us.push(k);
        overhead_us.push(miss - k);
        let t = trace::now();
        black_box(blockmax.search(black_box(text), K));
        blockmax_us.push(us_since(t));
        let mut terms = analyze_query(text);
        terms.sort_unstable();
        terms.dedup();
        resolved_df += terms.iter().map(|t| postings.df(t)).sum::<usize>();
    }
    layers.push("index.kernel_p50_us", stats::median(&kernel_us));
    layers.push(
        "index.kernel_p99_us",
        stats::percentile_nines(&kernel_us, 2),
    );
    layers.push("index.blockmax_p50_us", stats::median(&blockmax_us));
    layers.push(
        "index.blockmax_p99_us",
        stats::percentile_nines(&blockmax_us, 2),
    );
    layers.push(
        "cluster.fanout_overhead_p50_us",
        stats::median(&overhead_us),
    );
    layers.push(
        "cluster.fanout_overhead_p99_us",
        stats::percentile_nines(&overhead_us, 2),
    );
    layers.push(
        "index.postings_per_miss",
        ratio(resolved_df as f64, misses.len() as f64),
    );
    let served: Vec<f64> = cluster
        .partitions()
        .iter()
        .map(|p| p.served() as f64)
        .collect();
    let mean = served.iter().sum::<f64>() / served.len().max(1) as f64;
    let max = served.iter().copied().fold(0.0, f64::max);
    layers.push("partition.skew", ratio(max, mean));
    let cs = cluster.stats();
    layers.push("cluster.shed", cs.shed as f64);
    layers.push("cluster.spilled", cs.spilled as f64);
}

/// The default serving tier the benchmark measures.
pub fn default_cluster(sys: &DeepWebSystem) -> ClusterServer<'_> {
    sys.cluster(ClusterConfig::default())
}

/// `max_qps` on a warm `cluster`: rung `i` of the ladder serves
/// `rung_ids[i]` on a Poisson schedule at its rate; answers are checked
/// like any other request.
pub fn climb_ladder(
    cluster: &ClusterServer<'_>,
    q: &Queries,
    rung_ids: &[Vec<QueryId>],
    rng: &mut StdRng,
    checks: &mut Checks,
) -> (f64, Vec<(f64, bool)>) {
    let mut rung = 0;
    openloop::max_qps(&openloop::LADDER_QPS, |rate| {
        let ids = &rung_ids[rung];
        rung += 1;
        let schedule = openloop::poisson_schedule(rate, ids.len(), rng);
        openloop::run(&schedule, |i, stamp| {
            let hits = openloop::timed(stamp, || cluster.search(q.text(ids[i]), K));
            checks.check(q.check(ids[i], &hits), || {
                format!("ladder answer differs: {:?}", q.text(ids[i]))
            });
        })
    })
}

// ----------------------------------------------------------------- churn --

/// Accumulated results of refresh churn.
#[derive(Default)]
pub struct ChurnOut {
    /// Wall time of every refresh round, ms.
    pub refresh_ms: Vec<f64>,
    /// Mean round time of every merge cycle (each cycle grows every site
    /// once), ms.
    pub cycle_ms: Vec<f64>,
    /// Every query's timing on the fresh tier.
    pub samples: Vec<Sample>,
    /// Untraced query latencies of traced rounds (trace-overhead base), µs.
    pub untraced_us: Vec<f64>,
    /// Traced query latencies of traced rounds, µs.
    pub traced_us: Vec<f64>,
    /// Refresh rounds run.
    pub rounds: u64,
}

/// One merge cycle of refresh churn on `sys`: four rounds, each growing a
/// rotating quarter of the sites by [`GROWTH_ROWS`] rows (untimed: the web
/// changing), timing `refresh` over every site, checking that the round's
/// new docs are found by a query quoting them, and serving `per_round`
/// open-loop queries on the fresh tier with segments pending, each checked
/// against a from-scratch index over base + delta docs. The queries are
/// drawn uniformly ([`Queries::uniform`]). `merge_fresh` ends the cycle; a
/// sample of queries is re-checked after it.
#[allow(clippy::too_many_arguments)]
pub fn churn_cycle(
    sys: &mut DeepWebSystem,
    cfg: &SystemConfig,
    seed: u64,
    q: &Queries,
    per_round: usize,
    rng: &mut StdRng,
    tracer: &Tracer,
    checks: &mut Checks,
    layers: &mut Layers,
    out: &mut ChurnOut,
) {
    let trace = tracer.enabled();
    let opts = sys.options;
    sys.fresh_index(); // fingerprints are pinned before the web changes
    let num_sites = sys.world.server.sites().len();
    let mut last_ref: Option<(SearchIndex, Vec<QueryId>)> = None;
    for r in 0..ROUNDS_PER_CYCLE {
        let request = out.rounds;
        out.rounds += 1;
        let grown: Vec<usize> = (0..num_sites)
            .filter(|i| i % ROUNDS_PER_CYCLE == r)
            .collect();
        for &i in &grown {
            grow_site(&mut sys.world, i, GROWTH_ROWS, seed);
        }
        let docs_before = sys.fresh_index().num_docs();
        sys.world.server.reset_counts();
        let (outcome, refresh_ns) =
            tracer.span("core.refresh", None, request, |_| sys.refresh(num_sites));
        out.refresh_ms.push(refresh_ns as f64 / 1e6);
        let refresh_requests = sys.world.server.total_requests();

        let snapshot = sys.fresh_index().snapshot();
        check_new_docs(&snapshot, docs_before, opts, sys.fresh_index(), checks);
        let reference = system::rebuild(system::generation_docs(&snapshot));
        let ids = q.uniform(per_round, rng);
        let refs: Vec<Vec<Hit>> = ids
            .iter()
            .map(|&id| reference.searcher(opts).search(q.text(id), K))
            .collect();
        let schedule = openloop::poisson_schedule(openloop::REFERENCE_QPS, ids.len(), rng);
        let fresh = sys.fresh_index();
        let pending = fresh.num_segments();
        let half = ids.len() / 2;
        let samples = openloop::run(&schedule, |i, stamp| {
            let text = q.text(ids[i]);
            let hits = if trace && i >= half {
                let id = tracer.reserve();
                let s = tracer.now_ns();
                let h = openloop::timed(stamp, || fresh.search(text, K, opts));
                tracer.record(id, None, "segments.search", "", request, s, tracer.now_ns());
                h
            } else {
                openloop::timed(stamp, || fresh.search(text, K, opts))
            };
            checks.check(same_hits(&hits, &refs[i]), || {
                format!("fresh tier differs from a from-scratch rebuild: {text:?}")
            });
        });
        if trace {
            let lat = |s: &[Sample]| s.iter().map(Sample::latency_us).collect::<Vec<_>>();
            out.untraced_us.extend(lat(&samples[..half]));
            out.traced_us.extend(lat(&samples[half..]));
            layers.push("core.refresh_changed", outcome.changed as f64);
            layers.push("core.refresh_new_docs", outcome.new_docs as f64);
            layers.push("core.refresh_stale_docs", outcome.stale_docs as f64);
            layers.push(
                "core.refresh_new_doc_ratio",
                ratio(
                    outcome.new_docs as f64,
                    (outcome.new_docs + outcome.stale_docs) as f64,
                ),
            );
            layers.push("webworld.refresh_requests", refresh_requests as f64);
            layers.push("segments.pending", pending as f64);
            // Resurfacing replayed on the grown hosts.
            let faulty = cfg.faults.map(|f| FaultyFetcher::new(&sys.world.server, f));
            let t = trace::now();
            for &i in &grown {
                let host = sys.world.server.sites()[i].host.clone();
                match &faulty {
                    Some(f) => black_box(resurface_host(f, &host, &cfg.surfacer)),
                    None => black_box(resurface_host(&sys.world.server, &host, &cfg.surfacer)),
                };
            }
            layers.push("surfacer.resurface_ms", t.elapsed().as_secs_f64() * 1e3);
            // The pending segments' cost: fresh tier against its base alone.
            let base = snapshot.base().searcher(opts);
            let mut distinct = ids.clone();
            distinct.sort_unstable();
            distinct.dedup();
            let mut overhead = Vec::new();
            for &id in distinct.iter().take(200) {
                let text = q.text(id);
                let t = trace::now();
                black_box(snapshot.search(black_box(text), K, opts));
                let fresh_us = us_since(t);
                let t = trace::now();
                black_box(base.search(black_box(text), K));
                overhead.push(fresh_us - us_since(t));
            }
            layers.push("segments.pending_overhead_p50_us", stats::median(&overhead));
        }
        out.samples.extend(samples);
        last_ref = Some((reference, ids));
    }
    let cycle = &out.refresh_ms[out.refresh_ms.len() - ROUNDS_PER_CYCLE..];
    out.cycle_ms
        .push(cycle.iter().sum::<f64>() / ROUNDS_PER_CYCLE as f64);
    let id = tracer.reserve();
    let s = tracer.now_ns();
    let t = trace::now();
    sys.merge_fresh();
    if trace {
        layers.push("segments.merge_ms", t.elapsed().as_secs_f64() * 1e3);
    }
    tracer.record(
        id,
        None,
        "segments.merge",
        "",
        out.rounds,
        s,
        tracer.now_ns(),
    );
    if let Some((reference, ids)) = last_ref {
        let fresh = sys.fresh_index();
        for &id in ids.iter().take(200) {
            let text = q.text(id);
            let want = reference.searcher(opts).search(text, K);
            checks.check(same_hits(&fresh.search(text, K, opts), &want), || {
                format!("merged tier differs from a from-scratch rebuild: {text:?}")
            });
        }
    }
}

/// Every doc appended since `docs_before` must be found among the top
/// [`K`] hits of a query quoting its content: every distinct word of its
/// title and text.
fn check_new_docs(
    snapshot: &Generation,
    docs_before: usize,
    opts: deepweb_index::SearchOptions,
    fresh: &deepweb_index::SegmentedIndex,
    checks: &mut Checks,
) {
    for seg in snapshot.segments() {
        let range = seg.doc_range();
        if (range.start as usize) < docs_before {
            continue;
        }
        for (doc, id) in seg.docs().iter().zip(range) {
            let query = quote(&doc.title, &doc.text);
            let hits = fresh.search(&query, K, opts);
            let found = hits.iter().any(|h| h.doc == DocId(id));
            checks.check(found, || {
                format!("new doc {} not found by quoting it: {query:?}", doc.url)
            });
        }
    }
}

/// A query quoting a doc: every distinct word of its title and text, in
/// order of first appearance.
pub fn quote(title: &str, text: &str) -> String {
    let mut words: Vec<String> = Vec::new();
    for w in analyze_query(title).into_iter().chain(analyze_query(text)) {
        if !words.contains(&w) {
            words.push(w);
        }
    }
    words.join(" ")
}
