//! Self-tests of the benchmark harness: open-loop timing, the tail rule,
//! the `max_qps` backlog rule, the metric catalogue and `BENCHMARK.json`.
//! Run with `cargo test --manifest-path perfbench/Cargo.toml`.

use perfbench::catalog::{self, END_TO_END, PER_LAYER, UNGATED, WORKLOADS};
use perfbench::openloop::{self, Sample};
use perfbench::run::Args;
use perfbench::stats;
use perfbench::trace::{self, Span, Tracer};
use std::time::Duration;

const MS: u64 = 1_000_000;

#[test]
fn a_stall_is_charged_to_the_requests_queued_behind_it() {
    // One request per ms; request 10 stalls for 20 ms, the rest are instant.
    let schedule: Vec<u64> = (0..40).map(|i| i * MS).collect();
    let samples = openloop::run(&schedule, |i, stamp| {
        openloop::timed(stamp, || {
            if i == 10 {
                std::thread::sleep(Duration::from_millis(20));
            }
        })
    });
    let lat_ms = |i: usize| samples[i].latency_us() / 1e3;
    assert!(lat_ms(10) >= 20.0, "the stalled request: {}", lat_ms(10));
    // Request 11 was due at 11 ms but could not start before 30 ms.
    assert!(
        lat_ms(11) >= 15.0,
        "queued behind the stall: {}",
        lat_ms(11)
    );
    assert!(samples[11].late_us() / 1e3 >= 15.0);
    assert!(samples[11].service_us() / 1e3 < 15.0);
    // Every queued request carries part of the wait, later ones less.
    assert!(lat_ms(15) >= 10.0, "{}", lat_ms(15));
    assert!(lat_ms(11) > lat_ms(15));
    // Request 0 was served on time.
    assert!(lat_ms(0) < 5.0);
}

#[test]
fn the_tail_rule_picks_the_highest_percentile_with_ten_samples_beyond() {
    assert_eq!(stats::tail_nines(99), None);
    assert_eq!(stats::tail_nines(100), Some(1));
    assert_eq!(stats::tail_nines(999), Some(1));
    assert_eq!(stats::tail_nines(1000), Some(2));
    assert_eq!(stats::tail_nines(9999), Some(2));
    assert_eq!(stats::tail_nines(10_000), Some(3));
    assert_eq!(stats::nines_label(1), "p90");
    assert_eq!(stats::nines_label(2), "p99");
    assert_eq!(stats::nines_label(3), "p99.9");
    // Exactly ten samples lie beyond the reported value.
    for n in [100usize, 1000, 1999, 10_000, 123_456] {
        let xs: Vec<f64> = (1..=n).rev().map(|v| v as f64).collect();
        let k = stats::tail_nines(n).expect("n >= 100");
        let p = stats::percentile_nines(&xs, k);
        let beyond = xs.iter().filter(|&&x| x > p).count();
        assert!(beyond >= stats::MIN_BEYOND, "n={n}: {beyond} beyond");
        let next = xs.len() / 10usize.pow(k + 1);
        assert!(
            next < stats::MIN_BEYOND,
            "n={n}: a higher percentile qualifies"
        );
    }
    let s = stats::summarize(&(1..=1000).map(f64::from).collect::<Vec<_>>());
    assert_eq!(s.p50, 500.5);
    assert_eq!(s.tail, Some(("p99".to_string(), 990.0)));
    assert!(s.render().contains("n=1000"));
    assert_eq!(stats::windowed(&[1.0; 2500], 1000, 2).len(), 2);
}

/// `n` requests at `rate`, each served `service_ns` after it could start.
fn synthetic(rate: f64, n: usize, service_ns: u64) -> Vec<Sample> {
    let gap = (1e9 / rate) as u64;
    let mut free = 0;
    (0..n as u64)
        .map(|i| {
            let due = i * gap;
            let start = due.max(free);
            free = start + service_ns;
            Sample {
                due_ns: due,
                start_ns: start,
                end_ns: free,
            }
        })
        .collect()
}

#[test]
fn the_backlog_rule_separates_a_stable_queue_from_a_growing_one() {
    // 100 µs of service at 1,000/s: never queues.
    let stable = synthetic(1000.0, 1000, 100_000);
    assert!(!openloop::backlog_grows(&stable));
    assert!(openloop::rung_passes(&stable));
    // 2 ms of service at 1,000/s: the queue grows without bound.
    let growing = synthetic(1000.0, 1000, 2 * MS);
    assert!(openloop::backlog_grows(&growing));
    assert!(!openloop::rung_passes(&growing));
    // A one-off stall raises latency but the backlog drains: it is the
    // latency limit, not the backlog rule, that fails such a rung.
    let mut stalled = synthetic(1000.0, 1000, 100_000);
    for s in &mut stalled[100..110] {
        s.end_ns += 5 * MS;
    }
    assert!(!openloop::backlog_grows(&stalled));
}

#[test]
fn max_qps_is_the_highest_rung_that_meets_the_limit() {
    // Capacity 4,000/s at 200 µs per request; above it the queue grows.
    let service = 200_000;
    let (best, verdicts) = openloop::max_qps(&openloop::LADDER_QPS, |rate| {
        synthetic(rate, openloop::RUNG_REQUESTS, service)
    });
    assert_eq!(best, 4000.0);
    assert_eq!(verdicts.len(), openloop::LADDER_QPS.len());
    assert!(verdicts.iter().all(|&(r, ok)| ok == (r <= 4000.0)));
    // Nothing passes: max_qps is 0, reported as a value.
    let (none, _) = openloop::max_qps(&openloop::LADDER_QPS, |rate| {
        synthetic(rate, openloop::RUNG_REQUESTS, 5 * MS)
    });
    assert_eq!(none, 0.0);
}

#[test]
fn metric_names_units_and_counts_stay_within_the_contract() {
    assert!((2..=8).contains(&WORKLOADS.len()));
    assert!((1..=16).contains(&END_TO_END.len()));
    assert!((1..=128).contains(&PER_LAYER.len()));
    let mut names: Vec<&str> = WORKLOADS.iter().map(|w| w.0).collect();
    names.extend(END_TO_END.iter().chain(UNGATED).map(|m| m.name));
    names.extend(PER_LAYER.iter().map(|m| m.name));
    for n in &names {
        assert!(catalog::valid_name(n), "bad name {n:?}");
    }
    let mut sorted = names.clone();
    sorted.sort_unstable();
    sorted.dedup();
    assert_eq!(sorted.len(), names.len(), "a name is used twice");
    let units = END_TO_END
        .iter()
        .chain(UNGATED)
        .map(|m| m.unit)
        .chain(PER_LAYER.iter().map(|m| m.unit));
    for u in units {
        assert!(
            !u.is_empty()
                && u.len() <= 16
                && u.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
            "bad unit {u:?}"
        );
    }
    for (_, why) in WORKLOADS {
        assert!(why.len() <= 200 && !why.contains('\n'), "{why:?}");
    }
    for m in END_TO_END {
        assert!(
            m.bound > 0.0 && m.bound <= 0.25,
            "{}: bound {}",
            m.name,
            m.bound
        );
    }
    let setup = END_TO_END
        .iter()
        .find(|m| m.name == "setup_s")
        .expect("setup_s is an end-to-end metric");
    assert_eq!((setup.unit, setup.better), ("s", catalog::Better::Lower));
    assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
    assert!(!catalog::valid_name("_x") && !catalog::valid_name("a b"));
    assert!(!catalog::valid_name(&"x".repeat(65)));
}

#[test]
fn every_per_layer_metric_moves_an_end_to_end_metric_of_its_own_workload() {
    for m in PER_LAYER {
        assert!(!m.workloads.is_empty() && !m.moves.is_empty(), "{}", m.name);
        for target in m.moves {
            assert!(
                !catalog::primary_of(target).is_empty(),
                "{} moves unknown metric {target}",
                m.name
            );
        }
        for w in m.workloads {
            assert!(
                m.moves.iter().any(|t| catalog::primary_of(t).contains(w)),
                "{} names no end-to-end metric that {w} measures",
                m.name
            );
        }
    }
}

#[test]
fn benchmark_json_is_generated_from_the_catalogue() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let on_disk = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    assert_eq!(
        on_disk,
        catalog::benchmark_json(),
        "regenerate with `perfbench --print-benchmark-json > BENCHMARK.json`"
    );
}

#[test]
fn self_time_subtracts_the_union_of_child_spans() {
    let span = |id, parent, start, end| Span {
        id,
        parent,
        name: "x",
        label: "",
        request: 0,
        start_ns: start,
        end_ns: end,
    };
    // Parent [0, 100); children overlap on [20, 40) and [30, 60), and one
    // runs past the parent's end.
    let spans = vec![
        span(1, None, 0, 100),
        span(2, Some(1), 20, 40),
        span(3, Some(1), 30, 60),
        span(4, Some(1), 90, 120),
        span(5, None, 0, 50),
    ];
    assert_eq!(trace::self_time_ns(&spans[0], &spans), 100 - 40 - 10);
    assert_eq!(trace::covered_ns(0, 10, &[]), 0);
    let t = Tracer::new(true);
    let (v, _) = t.span("a", None, 7, |id| t.span("b", Some(id), 7, |_| 3).0);
    assert_eq!(v, 3);
    let recorded = t.spans();
    assert_eq!(recorded.len(), 2);
    assert_eq!(recorded[0].parent, Some(recorded[1].id));
    let mut out = Vec::new();
    t.write_jsonl(&mut out).expect("write to memory");
    assert_eq!(String::from_utf8(out).expect("utf8").lines().count(), 2);
    assert!(Tracer::new(false).spans().is_empty());
}

#[test]
fn arguments_are_checked() {
    let parse = |s: &str| Args::parse(s.split_whitespace().map(String::from));
    let a = parse("--workload serve_zipf --seed 7 --seconds 3 --trace 1").expect("valid");
    assert_eq!((a.seed, a.seconds, a.trace), (7, 3.0, true));
    assert!(parse("--workload nope --seed 1").is_err());
    assert!(parse("--workload build --seed x").is_err());
    assert!(parse("--workload build --seconds 0").is_err());
    assert!(parse("--workload build --bogus 1").is_err());
}
