//! Doc-range index partitions — the bottom layer of the cluster serving
//! tier (DESIGN.md §13).
//!
//! A partition is a contiguous doc-id range `[lo, hi)` over one shared,
//! immutable [`SearchIndex`]. Splitting by *document* rather than by term
//! keeps every per-doc score whole inside exactly one partition: each query
//! term's posting list is sorted by doc id, so the range kernel
//! binary-searches the partition's sub-range and folds contributions in
//! query-term order — the same floating-point sequence, over the same
//! *global* BM25 statistics (N, df, avg doc length), as the sequential
//! searcher. Per-partition top-k is therefore **exact** (never pruned), and
//! merging exact top-k lists under the strict score-desc/doc-id-asc order
//! reproduces the global top-k byte-for-byte.
//!
//! A partition owns no scoring code and no scratch: the cluster scans its
//! partitions in order on the caller's scratch. It only records its range
//! and how many queries it scored.

use crate::index::SearchIndex;
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};

/// Contiguous doc-id ranges covering `num_docs` documents in `parts` slices,
/// sized as evenly as possible (first `num_docs % parts` slices get the
/// extra doc). Pure and deterministic: the layout is a function of the two
/// counts alone, never of build order or hashing.
pub fn partition_ranges(num_docs: usize, parts: usize) -> Vec<(u32, u32)> {
    let parts = parts.max(1);
    let base = num_docs / parts;
    let extra = num_docs % parts;
    let mut ranges = Vec::with_capacity(parts);
    let mut lo = 0usize;
    for p in 0..parts {
        let len = base + usize::from(p < extra);
        ranges.push((lo as u32, (lo + len) as u32));
        lo += len;
    }
    ranges
}

/// One doc-range slice of the index: the unit the [`ClusterServer`]
/// aggregator scans queries across.
///
/// [`ClusterServer`]: crate::cluster::ClusterServer
#[derive(Debug)]
pub struct IndexPartition {
    ordinal: usize,
    lo: u32,
    hi: u32,
    served: AtomicU64,
}

impl IndexPartition {
    /// Build `parts` partitions covering every doc of `index`.
    pub fn layout(index: &SearchIndex, parts: usize) -> Vec<IndexPartition> {
        partition_ranges(index.postings().num_docs(), parts)
            .into_iter()
            .enumerate()
            .map(|(ordinal, (lo, hi))| IndexPartition {
                ordinal,
                lo,
                hi,
                served: AtomicU64::new(0),
            })
            .collect()
    }

    /// Position of this partition in the cluster layout.
    pub fn ordinal(&self) -> usize {
        self.ordinal
    }

    /// The doc-id range this partition owns.
    pub fn doc_range(&self) -> Range<u32> {
        self.lo..self.hi
    }

    /// Documents owned by this partition.
    pub fn num_docs(&self) -> usize {
        (self.hi - self.lo) as usize
    }

    /// Queries this partition has scored.
    pub fn served(&self) -> u64 {
        self.served.load(Ordering::Relaxed)
    }

    /// Count one scored query and hand back the range to score it over.
    pub(crate) fn serve(&self) -> (u32, u32) {
        self.served.fetch_add(1, Ordering::Relaxed);
        (self.lo, self.hi)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::docstore::DocKind;
    use crate::searcher::{merge_topk, search, QueryScratch, SearchOptions, View};
    use deepweb_common::Url;

    #[test]
    fn ranges_cover_exactly_once() {
        for num_docs in [0usize, 1, 2, 7, 64, 65, 100] {
            for parts in [1usize, 2, 3, 4, 7, 13] {
                let ranges = partition_ranges(num_docs, parts);
                assert_eq!(ranges.len(), parts);
                let mut expect_lo = 0u32;
                for &(lo, hi) in &ranges {
                    assert_eq!(lo, expect_lo, "gap or overlap at {lo}");
                    assert!(hi >= lo);
                    expect_lo = hi;
                }
                assert_eq!(expect_lo as usize, num_docs, "ranges must cover all docs");
                let sizes: Vec<u32> = ranges.iter().map(|&(lo, hi)| hi - lo).collect();
                let (min, max) = (sizes.iter().min().unwrap(), sizes.iter().max().unwrap());
                assert!(max - min <= 1, "ranges must be balanced: {sizes:?}");
            }
        }
    }

    #[test]
    fn zero_parts_clamps_to_one() {
        assert_eq!(partition_ranges(5, 0), vec![(0, 5)]);
    }

    #[test]
    fn partition_topk_union_contains_global_topk() {
        let mut idx = SearchIndex::new();
        let texts = [
            "honda civic mileage",
            "used ford focus",
            "honda accord review",
            "ford truck listing",
            "civic and focus compared",
            "cooking recipes",
            "honda focus hybrid rumour",
        ];
        for (i, text) in texts.iter().enumerate() {
            idx.add(
                Url::new("p.sim", format!("/d{i}")),
                String::new(),
                (*text).into(),
                DocKind::Surface,
                None,
                vec![],
            );
        }
        let opts = SearchOptions::default();
        let k = 3;
        for parts in [1usize, 2, 3, 7] {
            let partitions = IndexPartition::layout(&idx, parts);
            let view = View::new(&idx, None);
            for q in ["honda", "ford focus", "honda civic focus"] {
                let global = search(&idx, q, k, opts);
                let merged = view.with_sig(q, &mut QueryScratch::new(), |sig, s| {
                    let lists = partitions
                        .iter()
                        .map(|p| view.kernel(sig, k, opts, p.serve(), s));
                    merge_topk(lists, k)
                });
                assert_eq!(merged, global, "parts={parts} q={q:?}");
            }
        }
    }
}
