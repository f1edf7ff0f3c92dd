//! A timing and counting [`Fetcher`] wrapper for the traced build.
//!
//! Passed to `crawl_and_surface` in place of the plain fetcher, it records
//! one `webworld.fetch` span per attempt, labelled by URL kind, parented to
//! the enclosing surfacer span, and keeps every delivered body so the HTML
//! parse cost can be replayed afterwards.

use crate::trace::{SpanId, Tracer};
use deepweb_common::{Result, Url};
use deepweb_webworld::{Fetcher, Response};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};

/// Kind of URL a fetch asked for.
pub fn url_kind(url: &Url) -> &'static str {
    match url.path.as_str() {
        "/results" => "form_result",
        "/item" => "detail_page",
        _ => "crawl_page",
    }
}

/// Counting, timing fetcher wrapper.
pub struct TapFetcher<'a, F: Fetcher> {
    inner: F,
    tracer: &'a Tracer,
    parent: SpanId,
    request: u64,
    fetches: AtomicU64,
    busy_ns: AtomicU64,
    bytes: AtomicU64,
    bodies: Mutex<Vec<String>>,
}

impl<'a, F: Fetcher> TapFetcher<'a, F> {
    /// Wrap `inner`; fetch spans are parented to `parent` under `request`.
    pub fn new(inner: F, tracer: &'a Tracer, parent: SpanId, request: u64) -> Self {
        TapFetcher {
            inner,
            tracer,
            parent,
            request,
            fetches: AtomicU64::new(0),
            busy_ns: AtomicU64::new(0),
            bytes: AtomicU64::new(0),
            bodies: Mutex::new(Vec::new()),
        }
    }

    /// Fetch attempts seen, failed ones included.
    pub fn fetches(&self) -> u64 {
        self.fetches.load(Ordering::Relaxed)
    }

    /// Summed time inside the wrapped fetcher, in ms.
    pub fn busy_ms(&self) -> f64 {
        self.busy_ns.load(Ordering::Relaxed) as f64 / 1e6
    }

    /// Bytes of delivered bodies, in kB.
    pub fn kb(&self) -> f64 {
        self.bytes.load(Ordering::Relaxed) as f64 / 1e3
    }

    /// Every delivered body, in delivery order.
    pub fn into_bodies(self) -> Vec<String> {
        self.bodies.into_inner()
    }
}

impl<F: Fetcher> Fetcher for TapFetcher<'_, F> {
    fn fetch(&self, url: &Url) -> Result<Response> {
        let id = self.tracer.reserve();
        let start = self.tracer.now_ns();
        let out = self.inner.fetch(url);
        let end = self.tracer.now_ns();
        self.tracer.record(
            id,
            Some(self.parent),
            "webworld.fetch",
            url_kind(url),
            self.request,
            start,
            end,
        );
        self.fetches.fetch_add(1, Ordering::Relaxed);
        self.busy_ns.fetch_add(end - start, Ordering::Relaxed);
        if let Ok(resp) = &out {
            self.bytes
                .fetch_add(resp.html.len() as u64, Ordering::Relaxed);
            self.bodies.lock().push(resp.html.clone());
        }
        out
    }
}
