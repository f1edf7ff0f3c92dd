//! `perfbench --workload <build|serve_zipf|refresh_churn> --seed <n>
//! --seconds <s> --trace <0|1>`
//!
//! Runs one workload, checks every output, prints a table of every metric
//! with its unit, then one JSON result line: the end-to-end metrics for an
//! untraced run, the per-layer metrics for a traced run (whose spans are
//! written to `perfbench/out/spans-<workload>-seed<n>.jsonl` when it ends).
//! `perfbench --print-benchmark-json` prints `BENCHMARK.json`.

use perfbench::catalog::{self, END_TO_END, PER_LAYER, UNGATED};
use perfbench::run::{self, Args, Outcome};
use perfbench::trace::Tracer;
use std::fmt::Write as _;
use std::io::Write as _;

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("--print-benchmark-json") {
        print!("{}", catalog::benchmark_json());
        return;
    }
    let args = match Args::parse(argv.into_iter()) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let tracer = Tracer::new(args.trace);
    let outcome = run::run(&args, &tracer);
    print_table(&args, &outcome);
    if args.trace {
        if let Err(e) = write_spans(&args, &tracer) {
            eprintln!("perfbench: writing spans: {e}");
            std::process::exit(1);
        }
    }
    for f in &outcome.checks.failures {
        eprintln!("perfbench: check failed: {f}");
    }
    println!("{}", result_json(&args, &outcome));
}

fn print_table(args: &Args, o: &Outcome) {
    println!(
        "perfbench {} seed={} seconds={} trace={}",
        args.workload, args.seed, args.seconds, args.trace as u8
    );
    println!("end-to-end:");
    for m in END_TO_END.iter().chain(UNGATED) {
        let (name, unit) = (m.name, m.unit);
        let value = o
            .e2e
            .get(name)
            .map_or("not measured on this workload".to_string(), |v| {
                format!("{v:.4}")
            });
        let detail = o.summaries.get(name).map_or("", String::as_str);
        println!("  {name:<18} {value:>12} {unit:<6} {detail}");
    }
    for (what, r) in &o.overhead {
        println!("  trace overhead on {what}: {r:.3} (traced / untraced)");
    }
    println!(
        "  checks: {} attempted, {} failed",
        o.checks.attempted, o.checks.failed
    );
    if !args.trace {
        return;
    }
    println!("per-layer (median over samples; workload it targets → end-to-end metric it moves):");
    for m in PER_LAYER {
        let value = o
            .layers
            .value(m.name)
            .map_or("not sampled".to_string(), |v| format!("{v:.4}"));
        println!(
            "  {:<34} {:>12} {:<6} n={:<4} {} → {}",
            m.name,
            value,
            m.unit,
            o.layers.count(m.name),
            m.workloads.join(","),
            m.moves.join(", ")
        );
    }
}

/// Where traced runs write their spans, relative to the repository root.
const SPAN_DIR: &str = "perfbench/out";

fn write_spans(args: &Args, tracer: &Tracer) -> std::io::Result<()> {
    std::fs::create_dir_all(SPAN_DIR)?;
    let path = format!("{SPAN_DIR}/spans-{}-seed{}.jsonl", args.workload, args.seed);
    let mut f = std::io::BufWriter::new(std::fs::File::create(&path)?);
    tracer.write_jsonl(&mut f)?;
    f.flush()?;
    println!("spans: {} written to {path}", tracer.spans().len());
    Ok(())
}

fn finite(v: f64) -> f64 {
    if v.is_finite() {
        v
    } else {
        0.0
    }
}

/// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
fn result_json(args: &Args, o: &Outcome) -> String {
    let mut metrics = String::new();
    let entries: Vec<(&str, &str, f64)> = if args.trace {
        PER_LAYER
            .iter()
            .map(|m| (m.name, m.unit, o.layers.value(m.name).unwrap_or(0.0)))
            .collect()
    } else {
        END_TO_END
            .iter()
            .map(|m| (m.name, m.unit, o.e2e.get(m.name).copied().unwrap_or(0.0)))
            .collect()
    };
    for (i, (name, unit, v)) in entries.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            metrics,
            "{sep}\"{name}\": {{\"value\": {:?}, \"unit\": \"{unit}\"}}",
            finite(*v)
        );
    }
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
        o.checks.failed == 0 && o.checks.attempted > 0,
        o.checks.attempted.max(1),
        o.checks.failed,
    )
}
