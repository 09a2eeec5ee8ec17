//! `perfsuite`: the repository benchmark.
//!
//! ```text
//! perfsuite --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Runs one workload in this process, checks every output it
//! produces, and prints as its last stdout line one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. `--trace 0` gives
//! the end-to-end metrics, measured untraced; `--trace 1` gives the
//! per-layer metrics from spans around the calls into each crate. The
//! line before it carries the full detail (sample counts, host
//! fingerprint, drift), which is also written under `out/`.
//! See README.md for what each workload measures and why.

mod fuzz_sim;
mod host;
mod paper_eval;
mod service;
mod stats;
mod trace;
mod warm_resume;

use sfence_harness::Json;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};
use trace::Tracer;

/// Workload names, in the order BENCHMARK.json lists them.
pub const WORKLOADS: [&str; 4] = ["paper-eval", "fuzz-sim", "service-campaigns", "warm-resume"];

/// End-to-end metrics every untraced run reports: `(name, unit)`.
pub const END_TO_END: [(&str, &str); 3] =
    [("pass_ms", "ms"), ("setup_s", "s"), ("peak_rss_mb", "MB")];

/// Per-layer metrics every traced run reports: `(name, unit)`. A layer
/// a workload does not exercise reads 0 there.
pub const PER_LAYER: [(&str, &str); 50] = [
    // Share of traced pass time in each layer's spans (self time).
    ("sim.self_frac", "fraction"),
    ("workloads.self_frac", "fraction"),
    ("isa.self_frac", "fraction"),
    ("harness.self_frac", "fraction"),
    ("fuzz.self_frac", "fraction"),
    ("dist.self_frac", "fraction"),
    ("trace.unattributed_frac", "fraction"),
    ("trace.overhead_frac", "fraction"),
    // paper-eval
    ("sim.run_ms", "ms"),
    ("sim.ns_per_cycle.lockfree", "ns"),
    ("sim.ns_per_cycle.apps", "ns"),
    ("sim.ns_per_instr", "ns"),
    ("sim.cycles", "count"),
    ("cpu.instrs_retired", "count"),
    ("cpu.fence_stall_cycles", "count"),
    ("cpu.rob_full_stall_cycles", "count"),
    ("cpu.load_disambiguation_blocks", "count"),
    ("mem.l1_hits", "count"),
    ("mem.l2_hits", "count"),
    ("mem.mem_misses", "count"),
    ("core.scoped_fences", "count"),
    ("core.degraded_fences", "count"),
    ("core.fss_overflows", "count"),
    ("workloads.build_ms", "ms"),
    // fuzz-sim
    ("sim.row_us", "us"),
    ("sim.rows", "count"),
    ("harness.enumerate_us", "us"),
    ("harness.sc_states_explored", "count"),
    ("workloads.synth_us", "us"),
    ("isa.functional_row_us", "us"),
    ("fuzz.cases", "count"),
    ("fuzz.corpus", "count"),
    // service-campaigns
    ("dist.submit_ms", "ms"),
    ("dist.poll_ms", "ms"),
    ("dist.polls_per_campaign", "count"),
    ("dist.lease_grant_ms.p50", "ms"),
    ("dist.cell_wall_ms.p50", "ms"),
    ("dist.frame_handle_ms.p50", "ms"),
    ("dist.checkpoint_save_ms.p50", "ms"),
    ("dist.busy_frac", "fraction"),
    ("dist.cells_executed", "count"),
    // warm-resume
    ("harness.cache_open_ms", "ms"),
    ("harness.cache_bytes", "bytes"),
    ("harness.cache_parse_mb_per_s", "MB/s"),
    ("harness.job_key_ms", "ms"),
    ("harness.lookup_ms", "ms"),
    ("harness.store_append_ms", "ms"),
    ("harness.store_diff_ms", "ms"),
    ("harness.cache_hit_ratio", "fraction"),
    ("harness.merge_ms", "ms"),
];

/// Each layer and the metric its span self-time share goes to.
const LAYER_SHARES: [(&str, &str); 6] = [
    ("sim", "sim.self_frac"),
    ("workloads", "workloads.self_frac"),
    ("isa", "isa.self_frac"),
    ("harness", "harness.self_frac"),
    ("fuzz", "fuzz.self_frac"),
    ("dist", "dist.self_frac"),
];

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Opts {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args(args: &[String]) -> Result<Opts, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 10.0f64;
    let mut trace = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?.clone()),
            "--seed" => seed = value()?.parse().map_err(|_| "--seed expects an integer")?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|_| "--seconds expects a number")?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace expects 0 or 1".into()),
                }
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?} (one of {WORKLOADS:?})"
        ));
    }
    Ok(Opts {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// The repository root this benchmark was built in.
pub fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark lives one level below the repository root")
        .to_path_buf()
}

/// Scratch and result files, inside the benchmark's own directory.
pub fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// Operations a workload attempted, and why any of them failed.
#[derive(Debug, Default)]
pub struct Ops {
    pub attempted: u64,
    pub failures: Vec<String>,
}

impl Ops {
    pub fn check(&mut self, ok: bool, why: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failures.push(why());
        }
    }

    pub fn absorb(&mut self, other: Ops) {
        self.attempted += other.attempted;
        self.failures.extend(other.failures);
    }
}

/// Everything one workload run measured.
pub struct Outcome {
    pub ops: Ops,
    /// One sample per set-up, in seconds.
    pub setup_s: Vec<f64>,
    pub passes: Passes,
    /// Per-layer metrics the workload measured itself (traced runs).
    pub layer: BTreeMap<&'static str, f64>,
    /// Workload-specific figures for the detail line.
    pub detail: Json,
}

/// Wall times of the timed passes and the spans of the traced ones.
pub struct Passes {
    /// Untraced pass wall times, ms. End-to-end metrics come only
    /// from these.
    pub untraced_ms: Vec<f64>,
    /// Traced pass wall times, ms (traced runs only).
    pub traced_ms: Vec<f64>,
    /// CPU time of this thread during each untraced pass, ms.
    pub untraced_cpu_ms: Vec<f64>,
    pub tracer: Tracer,
    pub drift: Json,
}

/// Run `pass` back to back for `opts.seconds` (at least once; a
/// traced run alternates untraced and traced passes and does at least
/// one of each). Only `pass` is timed, less what it runs through
/// [`Tracer::off_clock`]; `check` runs after the clock stops and
/// judges the pass's output.
pub fn timed_passes<T>(
    opts: &Opts,
    mut pass: impl FnMut(&mut Tracer) -> T,
    mut check: impl FnMut(T) -> Ops,
) -> (Passes, Ops) {
    let budget = Duration::from_secs_f64(opts.seconds);
    let drift = host::Drift::start();
    let start = Instant::now();
    let mut tracer = Tracer::new(opts.trace);
    let mut ops = Ops::default();
    let (mut untraced_ms, mut traced_ms, mut untraced_cpu_ms) =
        (Vec::new(), Vec::new(), Vec::new());
    let mut group = 0u64;
    loop {
        let traced = opts.trace && untraced_ms.len() > traced_ms.len();
        tracer.set_enabled(traced);
        group += 1;
        tracer.group(group);
        let (t0, cpu0) = (Instant::now(), host::thread_cpu_ns());
        let out = tracer.span(trace::PASS, |t| pass(t));
        let off_ns = tracer.take_off_clock_ns();
        let ms = t0.elapsed().as_nanos().saturating_sub(off_ns as u128) as f64 / 1e6;
        let cpu_ms = host::thread_cpu_ns()
            .saturating_sub(cpu0)
            .saturating_sub(off_ns) as f64
            / 1e6;
        if traced {
            traced_ms.push(ms);
        } else {
            untraced_ms.push(ms);
            untraced_cpu_ms.push(cpu_ms);
        }
        ops.absorb(check(out));
        let enough = !opts.trace || !traced_ms.is_empty();
        if start.elapsed() >= budget && enough {
            break;
        }
    }
    let drift = drift.finish();
    (
        Passes {
            untraced_ms,
            traced_ms,
            untraced_cpu_ms,
            tracer,
            drift,
        },
        ops,
    )
}

/// Run `setup` `reps` times, timing each; keep the last result.
pub fn timed_setup<T>(
    reps: usize,
    mut setup: impl FnMut() -> Result<T, String>,
) -> Result<(T, Vec<f64>), String> {
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps.max(1) {
        let t0 = Instant::now();
        let value = setup()?;
        times.push(t0.elapsed().as_secs_f64());
        last = Some(value);
    }
    Ok((last.expect("at least one set-up ran"), times))
}

/// Add one `{"value", "unit"}` entry to the result's metrics.
fn with_metric(metrics: Json, name: &str, value: f64, unit: &str) -> Json {
    assert!(
        stats::valid_metric_name(name),
        "metric name {name:?} breaks the naming rule"
    );
    metrics.field(name, Json::obj().field("value", value).field("unit", unit))
}

pub fn samples_json(samples: &[f64]) -> Json {
    Json::obj()
        .field("n", samples.len())
        .field(
            "median",
            stats::median(samples).map_or(Json::Null, Json::Num),
        )
        .field(
            "p90",
            stats::percentile(samples, 0.9).map_or(Json::Null, Json::Num),
        )
        .field(
            "samples",
            Json::Arr(samples.iter().map(|&s| Json::Num(s)).collect()),
        )
}

/// Per-layer self-time shares and tracing overhead, from the spans of
/// the traced passes.
fn span_layer_metrics(passes: &Passes, layer: &mut BTreeMap<&'static str, f64>) {
    let pass_ns = passes.tracer.total_ns(trace::PASS) as f64;
    let by_layer = passes.tracer.self_ns_by_layer();
    let share = |l: &str| by_layer.get(l).copied().unwrap_or(0) as f64 / pass_ns.max(1.0);
    for (l, name) in LAYER_SHARES {
        layer.insert(name, share(l));
    }
    layer.insert("trace.unattributed_frac", share("bench"));
    let overhead = match (
        stats::median(&passes.traced_ms),
        stats::median(&passes.untraced_ms),
    ) {
        (Some(t), Some(u)) => t / u - 1.0,
        _ => 0.0,
    };
    layer.insert("trace.overhead_frac", overhead);
}

fn run(opts: &Opts) -> Result<(Json, Json), String> {
    let outcome = match opts.workload.as_str() {
        "paper-eval" => paper_eval::run(opts)?,
        "fuzz-sim" => fuzz_sim::run(opts)?,
        "service-campaigns" => service::run(opts)?,
        "warm-resume" => warm_resume::run(opts)?,
        other => unreachable!("workload {other} passed argument validation"),
    };
    let Outcome {
        ops,
        setup_s,
        passes,
        mut layer,
        detail,
    } = outcome;

    let pass_ms = stats::median(&passes.untraced_ms).expect("at least one untraced pass");
    let setup = stats::median(&setup_s).expect("at least one set-up");
    let mut metrics = Json::obj();
    if opts.trace {
        span_layer_metrics(&passes, &mut layer);
        for name in layer.keys() {
            assert!(
                PER_LAYER.iter().any(|(n, _)| n == name),
                "{name} is not a declared per-layer metric"
            );
        }
        for (name, unit) in PER_LAYER {
            metrics = with_metric(metrics, name, layer.get(name).copied().unwrap_or(0.0), unit);
        }
    } else {
        let values = [pass_ms, setup, host::peak_rss_mb()];
        for ((name, unit), value) in END_TO_END.iter().zip(values) {
            metrics = with_metric(metrics, name, value, unit);
        }
    }
    let failed = ops.failures.len() as u64;
    let result = Json::obj()
        .field("correct", failed == 0)
        .field("attempted", ops.attempted.max(1))
        .field("failed", failed)
        .field("metrics", metrics);
    let detail = Json::obj()
        .field("workload", opts.workload.as_str())
        .field("seed", opts.seed)
        .field("seconds", opts.seconds)
        .field("trace", opts.trace)
        .field("host", host::fingerprint(&repo_root()))
        .field("drift", passes.drift.clone())
        .field("pass_ms", samples_json(&passes.untraced_ms))
        .field("pass_thread_cpu_ms", samples_json(&passes.untraced_cpu_ms))
        .field("traced_pass_ms", samples_json(&passes.traced_ms))
        .field(
            "setup_s",
            Json::Arr(setup_s.iter().map(|&s| Json::Num(s)).collect()),
        )
        .field("peak_rss_mb", host::peak_rss_mb())
        .field("workload_detail", detail)
        .field(
            "failures",
            Json::Arr(
                ops.failures
                    .iter()
                    .map(|f| Json::from(f.as_str()))
                    .collect(),
            ),
        );
    if opts.trace {
        let spans_path = out_dir().join(format!("spans-{}-{}.json", opts.workload, opts.seed));
        write_file(&spans_path, &passes.tracer.to_json().to_string_compact())?;
    }
    Ok((result, detail))
}

fn write_file(path: &Path, text: &str) -> Result<(), String> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    }
    std::fs::write(path, text).map_err(|e| format!("write {}: {e}", path.display()))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = parse_args(&args).unwrap_or_else(|e| {
        eprintln!("perfsuite: {e}");
        std::process::exit(2);
    });
    match run(&opts) {
        Ok((result, detail)) => {
            let name = format!(
                "result-{}-{}-trace{}.json",
                opts.workload, opts.seed, opts.trace as u8
            );
            if let Err(e) = write_file(&out_dir().join(name), &detail.to_string_pretty()) {
                eprintln!("perfsuite: {e}");
            }
            println!("{}", detail.to_string_compact());
            println!("{}", result.to_string_compact());
        }
        Err(e) => {
            eprintln!("perfsuite: {}: {e}", opts.workload);
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn declared_metric_names_are_valid_and_unique() {
        let names: Vec<&str> = END_TO_END
            .iter()
            .chain(PER_LAYER.iter())
            .map(|(n, _)| *n)
            .collect();
        for n in &names {
            assert!(stats::valid_metric_name(n), "{n}");
        }
        let mut sorted = names.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), names.len(), "a metric name is used twice");
    }

    #[test]
    fn benchmark_json_matches_the_declared_metrics() {
        let path = repo_root().join("BENCHMARK.json");
        let text = std::fs::read_to_string(&path).expect("BENCHMARK.json");
        let doc = sfence_harness::json::parse(&text).expect("BENCHMARK.json parses");
        let names = |key: &str| -> Vec<String> {
            doc.get(key)
                .and_then(Json::as_arr)
                .expect("metric list")
                .iter()
                .map(|m| {
                    m.get("name")
                        .and_then(Json::as_str)
                        .expect("name")
                        .to_string()
                })
                .collect()
        };
        let declared = |list: &[(&str, &str)]| -> Vec<String> {
            list.iter().map(|(n, _)| n.to_string()).collect()
        };
        assert_eq!(names("end_to_end"), declared(&END_TO_END));
        assert_eq!(names("per_layer"), declared(&PER_LAYER));
        assert_eq!(names("workloads"), WORKLOADS.map(String::from).to_vec());
    }

    #[test]
    fn arguments_are_validated() {
        let args = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        let o = parse_args(&args("--workload fuzz-sim --seed 7 --seconds 3 --trace 1")).unwrap();
        assert_eq!((o.seed, o.seconds, o.trace), (7, 3.0, true));
        assert!(parse_args(&args("--workload nope")).is_err());
        assert!(parse_args(&args("--workload fuzz-sim --trace 2")).is_err());
        assert!(parse_args(&args("--seed 1")).is_err());
    }
}
