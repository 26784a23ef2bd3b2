//! The repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <climate-ne8|ensemble-waves|dist-ne8-2rank> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Generates the workload's inputs from the seed, measures for the given
//! seconds, checks the outputs, prints run metadata, the correctness
//! checks and every metric with its unit and sample count, and ends with
//! one JSON line: `{"correct", "attempted", "failed", "metrics"}`. With
//! `--trace 0` the metrics are the end-to-end set ([`END_TO_END`]); with
//! `--trace 1` a separate traced run re-drives each layer's public phase
//! functions inside spans, writes the spans to `perfbench/out/` and
//! reports the per-layer set ([`PER_LAYER`]). Exits 1 when a check fails.

mod climate;
mod dist;
mod ensemble;
mod gen;
mod meta;
mod report;
mod state;
mod stats;
mod trace;

use report::Outcome;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use trace::Span;

/// Worker threads of every workload (element pool, or one per rank).
pub const THREADS: usize = 2;

/// Constructions before the run; `setup_s` is their median. None are
/// timed during or after the run: a construction beside the live model
/// adds to `peak_rss_mb`, and after the run the allocator's state makes a
/// construction take half the time or less.
pub const SETUP_REPS: usize = 9;

/// End-to-end metrics (name, unit), reported by every untraced run.
pub const END_TO_END: [(&str, &str); 6] = [
    ("sypd", "yr/day"),
    ("step_ms_p50", "ms"),
    ("members_per_s", "1/s"),
    ("member_latency_s_p50", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics (name, unit), reported by every traced run. A layer
/// a workload does not run through reads 0 with 0 samples.
pub const PER_LAYER: [(&str, &str); 32] = [
    ("homme.prim.rk_ms", "ms"),
    ("homme.prim.hypervis_ms", "ms"),
    ("homme.prim.tracer_ms", "ms"),
    ("homme.prim.remap_ms", "ms"),
    ("homme.prim.hypervis_subcycles", "count"),
    ("homme.prim.hypervis_ms_per_subcycle", "ms"),
    ("homme.dss.apply_flat4_ms", "ms"),
    ("homme.sched.rk_speedup_2t", "x"),
    ("homme.sched.hypervis_speedup_2t", "x"),
    ("homme.sched.tracer_speedup_2t", "x"),
    ("homme.sched.remap_speedup_2t", "x"),
    ("core.ensemble.step_ms", "ms"),
    ("core.ensemble.lane_occupancy", "frac"),
    ("core.ensemble.full_group_frac", "frac"),
    ("core.ensemble.admissions", "count"),
    ("core.ensemble.rollbacks", "count"),
    ("core.coupling.physics_ms", "ms"),
    ("core.checkpoint.restore_ms", "ms"),
    ("core.checkpoint.write_ms", "ms"),
    ("core.checkpoint.bytes", "B"),
    ("homme.dist.rk_ms", "ms"),
    ("homme.dist.hypervis_ms", "ms"),
    ("homme.dist.tracer_ms", "ms"),
    ("homme.dist.remap_ms", "ms"),
    ("homme.bndry.msgs_per_step", "count"),
    ("homme.bndry.bytes_per_step", "B"),
    ("homme.bndry.staged_bytes_per_step", "B"),
    ("swmpi.recvs_per_step", "count"),
    ("swmpi.retry_attempts", "count"),
    ("swmpi.barrier_wait_ms", "ms"),
    ("swmpi.rank_imbalance", "x"),
    ("trace.overhead_frac", "frac"),
];

/// The workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 3] = ["climate-ne8", "ensemble-waves", "dist-ne8-2rank"];

/// Command-line options.
pub struct Opts {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Measurement seconds.
    pub seconds: f64,
    /// Traced run.
    pub trace: bool,
    /// Output directory (restart files, span files).
    pub out: PathBuf,
}

/// Per-layer values of a traced run, keyed by [`PER_LAYER`] name.
#[derive(Default)]
pub struct Layers(BTreeMap<&'static str, (f64, usize)>);

impl Layers {
    /// Set a layer metric.
    ///
    /// # Panics
    /// Panics on a name outside [`PER_LAYER`] (a bug in this program).
    pub fn set(&mut self, name: &'static str, value: f64, samples: usize) {
        assert!(
            PER_LAYER.iter().any(|(n, _)| *n == name),
            "undeclared layer metric {name}"
        );
        self.0.insert(name, (value, samples));
    }
}

/// Finish a traced run: report every [`PER_LAYER`] metric, the self time
/// of every span name, and write the span file. `spans` holds one
/// recorder's spans per rank.
pub fn finish_trace(opts: &Opts, o: &mut Outcome, l: Layers, spans: &[Vec<Span>]) {
    let total: usize = spans.iter().map(Vec::len).sum();
    let mut self_ns: BTreeMap<&str, u64> = BTreeMap::new();
    let mut counts: BTreeMap<&str, usize> = BTreeMap::new();
    for rank in spans {
        for (name, ns) in trace::self_times(rank) {
            *self_ns.entry(name).or_default() += ns;
        }
        for (name, (_, n)) in trace::totals(rank) {
            *counts.entry(name).or_default() += n;
        }
    }
    o.notes.push("self time per span name (all ranks):".into());
    for (name, ns) in &self_ns {
        o.notes.push(format!(
            "  {name:<34} {:>10.2} ms self  {:>6} spans",
            *ns as f64 / 1e6,
            counts[name]
        ));
    }
    for (name, unit) in PER_LAYER {
        let (v, n) = l.0.get(name).copied().unwrap_or((0.0, 0));
        o.metric(name, unit, v, n);
    }
    // One file, span indices made global by offsetting each rank's.
    let mut all = Vec::with_capacity(total);
    for rank in spans {
        let off = all.len();
        all.extend(rank.iter().map(|s| Span {
            parent: s.parent.map(|p| p + off),
            ..s.clone()
        }));
    }
    let path = opts
        .out
        .join(format!("spans-{}-{}.jsonl", opts.workload, opts.seed));
    match trace::write_spans(&path, &opts.workload, &all) {
        Ok(()) => o
            .notes
            .push(format!("wrote {} spans to {}", all.len(), path.display())),
        Err(e) => o.check(
            "span file written",
            false,
            format!("{}: {e}", path.display()),
        ),
    }
}

fn parse_args() -> Result<Opts, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let val = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(val),
            "--seed" => {
                seed = Some(
                    val.parse::<u64>()
                        .map_err(|e| format!("--seed {val}: {e}"))?,
                )
            }
            "--seconds" => {
                let s = val
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds {val}: {e}"))?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err(format!("--seconds {val} out of range"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {val}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    let out = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    Ok(Opts {
        workload,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
        out,
    })
}

fn main() {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    // Every element pool the workloads build (standalone models, the
    // ensemble engine's shared dycore) runs on THREADS workers. Set before
    // any thread exists.
    std::env::set_var("SWCAM_THREADS", THREADS.to_string());
    let ranks = if opts.workload == "dist-ne8-2rank" {
        dist::RANKS
    } else {
        1
    };
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    let meta = meta::Meta::probe(&root, opts.seed, THREADS, ranks);

    let ticks0 = meta::cpu_ticks();
    let mut o = match opts.workload.as_str() {
        "climate-ne8" => climate::run(&opts),
        "ensemble-waves" => ensemble::run(&opts),
        _ => dist::run(&opts),
    };
    if opts.trace {
        // setup_s belongs to the end-to-end set; a traced run only notes it.
        if let Some(i) = o.metrics.iter().position(|m| m.name == "setup_s") {
            let m = o.metrics.remove(i);
            o.notes
                .push(format!("setup {:.4} s (median of {})", m.value, m.samples));
        }
        o.check_metric_set(&PER_LAYER);
    } else {
        o.metric("peak_rss_mb", "MB", meta::peak_rss_mb(), 1);
        o.check_metric_set(&END_TO_END);
    }

    let ticks1 = meta::cpu_ticks();
    for line in meta.lines(&opts.workload, o.working_set_bytes) {
        println!("{line}");
    }
    let total = ticks1.0.saturating_sub(ticks0.0).max(1);
    let steal = ticks1.1.saturating_sub(ticks0.1);
    println!(
        "host steal during run: {:.1}% of CPU time",
        100.0 * steal as f64 / total as f64
    );
    println!("trace: {}  seconds: {}", opts.trace, opts.seconds);
    for c in &o.checks {
        println!(
            "[{}] {} ({})",
            if c.pass { "PASS" } else { "FAIL" },
            c.name,
            c.detail
        );
    }
    for n in &o.notes {
        println!("{n}");
    }
    for m in &o.metrics {
        let tail = stats::tail_percentile(m.samples)
            .map_or("no tail percentile".to_string(), |q| {
                format!("p{q} reportable")
            });
        println!(
            "{:<38} {:>16.6} {:<7} n={:<5} {tail}",
            m.name, m.value, m.unit, m.samples
        );
    }
    println!("{}", o.json_line());
    if !o.correct() {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The `(name, unit)` pairs of one metric list in `BENCHMARK.json`.
    fn declared(section: &str) -> Vec<(String, String)> {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let start = text
            .find(&format!("\"{section}\""))
            .expect("section present");
        let body = &text[start..];
        let body = &body[..body.find(']').expect("section closes")];
        let field = |chunk: &str, key: &str| {
            let k = format!("\"{key}\": \"");
            let at = chunk.find(&k).expect("key present") + k.len();
            chunk[at..at + chunk[at..].find('"').expect("string closes")].to_string()
        };
        body.split('{')
            .skip(1)
            .map(|c| (field(c, "name"), field(c, "unit")))
            .collect()
    }

    #[test]
    fn metric_lists_match_benchmark_json() {
        let own = |l: &[(&str, &str)]| -> Vec<(String, String)> {
            l.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(declared("end_to_end"), own(&END_TO_END));
        assert_eq!(declared("per_layer"), own(&PER_LAYER));
        for (n, _) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(report::valid_name(n), "{n}");
        }
    }
}
