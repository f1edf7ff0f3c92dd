//! The benchmark web and the helpers every phase shares: configuration,
//! the build-time doc mapping, reference indexes and output comparison.

use deepweb_common::{DocId, ThreadPool};
use deepweb_core::{quick_config, DeepWebSystem, SystemConfig};
use deepweb_index::{Annotation, BatchDoc, DocKind, Generation, Hit, SearchIndex};
use deepweb_surfacer::{DocOrigin, ProducedDoc, SurfacingOutcome};
use deepweb_webworld::{FaultConfig, World};

/// Deep-web sites in the benchmark web.
pub const SITES: usize = 120;
/// Worker threads for the offline pipeline and index build.
pub const WORKERS: usize = 2;
/// Share of sites rendering hostile markup.
pub const HOSTILE_FRACTION: f64 = 0.1;
/// Share of URLs with an injected transient fault.
pub const FAULT_RATE: f64 = 0.1;
/// Hits per query.
pub const K: usize = 10;

/// The benchmark web: `quick_config(120)` with two workers, 10% hostile
/// sites and a 10% transient fault schedule, all seeded by `seed`. Every
/// other setting is the default (Exhaustive pruning, no annotations).
pub fn bench_config(seed: u64) -> SystemConfig {
    let mut cfg = quick_config(SITES);
    cfg.web.seed = seed;
    cfg.web.hostile_fraction = HOSTILE_FRACTION;
    cfg.surfacer.num_workers = WORKERS;
    cfg.faults = Some(FaultConfig::transient(seed, FAULT_RATE));
    cfg
}

/// `(records covered, records held)` summed over GET sites: how much of the
/// deep web's content reaches search.
pub fn record_coverage(world: &World, outcome: &SurfacingOutcome) -> (usize, usize) {
    let get_sites: Vec<&str> = world
        .truth
        .sites
        .iter()
        .filter(|s| !s.post)
        .map(|s| s.host.as_str())
        .collect();
    let held = world
        .truth
        .sites
        .iter()
        .filter(|s| !s.post)
        .map(|s| s.records)
        .sum();
    let covered = outcome
        .reports
        .iter()
        .filter(|r| get_sites.contains(&r.host.as_str()))
        .map(|r| r.records_covered)
        .sum();
    (covered, held)
}

/// The sorted URL set of an index.
pub fn url_set(index: &SearchIndex) -> Vec<String> {
    let mut urls: Vec<String> = index.docs().iter().map(|d| d.url.to_string()).collect();
    urls.sort_unstable();
    urls
}

/// Map one pipeline doc to an index batch doc exactly as the system build
/// does, so a build reassembled from its layers indexes the same docs.
pub fn to_batch_doc(world: &World, doc: &ProducedDoc) -> BatchDoc {
    let kind = match doc.origin {
        DocOrigin::Surface => DocKind::Surface,
        DocOrigin::Surfaced => DocKind::Surfaced,
        DocOrigin::Discovered => DocKind::Discovered,
    };
    BatchDoc {
        url: doc.url.clone(),
        title: doc.title.clone(),
        text: doc.text.clone(),
        kind,
        site: world.server.site_by_host(&doc.host).map(|s| s.id),
        annotations: doc
            .annotations
            .iter()
            .map(|(k, v)| Annotation {
                key: k.clone(),
                value: v.to_ascii_lowercase(),
            })
            .collect(),
    }
}

/// Every doc a generation serves, base then delta segments, in doc-id order.
pub fn generation_docs(generation: &Generation) -> Vec<BatchDoc> {
    let base = generation.base();
    let mut docs: Vec<BatchDoc> = (0..base.len())
        .map(|i| {
            let d = base.docs().get(DocId(i as u32));
            BatchDoc {
                url: d.url.clone(),
                title: d.title.clone(),
                text: d.text.clone(),
                kind: d.kind,
                site: d.site,
                annotations: d.annotations.clone(),
            }
        })
        .collect();
    for seg in generation.segments() {
        docs.extend(seg.docs().iter().cloned());
    }
    docs
}

/// A from-scratch index over `docs` — the reference a fresh tier must match.
pub fn rebuild(docs: Vec<BatchDoc>) -> SearchIndex {
    let mut idx = SearchIndex::new();
    idx.add_batch(&ThreadPool::new(WORKERS), docs);
    idx
}

/// Byte-identical hit lists: same docs in the same order with bit-equal
/// scores.
pub fn same_hits(a: &[Hit], b: &[Hit]) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|(x, y)| x.doc == y.doc && x.score.to_bits() == y.score.to_bits())
}

/// Wall time of `DeepWebSystem::build`, in seconds, with the system.
pub fn timed_build(cfg: &SystemConfig) -> (DeepWebSystem, f64) {
    let t = crate::trace::now();
    let sys = DeepWebSystem::build(cfg);
    (sys, t.elapsed().as_secs_f64())
}
