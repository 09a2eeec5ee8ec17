//! `paper-eval`: the 32 Eval-scale cells pinned in
//! `tests/golden/sim_digests.json` — the 8 Table IV programs under
//! T, S, T+ and S+ on `MachineConfig::paper_default()` — run in this
//! process with no cache, in identical passes. The seed only orders
//! the cells. Each cell's `RunReport` SHA-256 is taken off the pass
//! clock right after the cell runs, and checked against the golden.

use crate::trace::Tracer;
use crate::{timed_passes, timed_setup, Ops, Opts, Outcome};
use sfence_bench::digests::{parse_digests, DigestRow, DIGEST_FENCES};
use sfence_harness::hash::sha256_hex;
use sfence_harness::{Json, RunReport, Session};
use sfence_sim::{FenceConfig, MachineConfig};
use sfence_workloads::catalog::lock_free_names;
use sfence_workloads::support::Prng;
use sfence_workloads::{BuiltWorkload, Scale, WorkloadParams, REGISTRY};
use std::collections::BTreeMap;

/// Set-ups per run; the median is reported.
const SETUP_REPS: usize = 3;

/// One (program, fence config) cell.
pub struct Cell {
    /// Index into the built programs.
    pub program: usize,
    pub workload: &'static str,
    pub fence: FenceConfig,
    pub lockfree: bool,
    pub golden: String,
}

/// The built programs and the cells over them, in seed order.
pub struct Setup {
    pub built: Vec<BuiltWorkload>,
    pub cells: Vec<Cell>,
}

fn scale_params(scale: Scale) -> (WorkloadParams, &'static str) {
    match scale {
        Scale::Eval => (WorkloadParams::default(), "eval"),
        Scale::Small => (WorkloadParams::small(), "small"),
    }
}

/// Read the pinned digests and build every registry program at
/// `scale`; order the cells by `seed`.
pub fn setup(scale: Scale, seed: u64, build_ms: &mut Vec<f64>) -> Result<Setup, String> {
    let path = crate::repo_root().join("tests/golden/sim_digests.json");
    let text =
        std::fs::read_to_string(&path).map_err(|e| format!("read {}: {e}", path.display()))?;
    let golden: Vec<DigestRow> = parse_digests(&sfence_harness::json::parse(&text)?)?;
    let (params, scale_name) = scale_params(scale);
    let t0 = std::time::Instant::now();
    let built: Vec<BuiltWorkload> = REGISTRY.iter().map(|w| w.build(&params)).collect();
    build_ms.push(t0.elapsed().as_secs_f64() * 1000.0);
    let lockfree = lock_free_names();
    let mut cells = Vec::new();
    for (program, w) in REGISTRY.iter().enumerate() {
        for fence in DIGEST_FENCES {
            let golden = golden
                .iter()
                .find(|r| {
                    r.workload == w.name() && r.scale == scale_name && r.fence == fence.label()
                })
                .ok_or_else(|| format!("{}/{} has no pinned digest", w.name(), fence.label()))?;
            cells.push(Cell {
                program,
                workload: w.name(),
                fence,
                lockfree: lockfree.contains(&w.name()),
                golden: golden.sha256.clone(),
            });
        }
    }
    // Fisher-Yates: the seed picks the run order, never the work.
    let mut rng = Prng::seed_from_u64(seed);
    for i in (1..cells.len()).rev() {
        cells.swap(i, rng.gen_range(0..i + 1));
    }
    Ok(Setup { built, cells })
}

/// Simulated counts of a cell, in [`COUNT_METRICS`] order.
pub type Counts = [u64; 11];

/// The per-layer metric each simulated count is reported as.
pub const COUNT_METRICS: [&str; 11] = [
    "sim.cycles",
    "cpu.instrs_retired",
    "cpu.fence_stall_cycles",
    "cpu.rob_full_stall_cycles",
    "cpu.load_disambiguation_blocks",
    "mem.l1_hits",
    "mem.l2_hits",
    "mem.mem_misses",
    "core.scoped_fences",
    "core.degraded_fences",
    "core.fss_overflows",
];

fn counts(r: &RunReport) -> Counts {
    fn sum<T>(items: &[T], f: impl Fn(&T) -> u64) -> u64 {
        items.iter().map(f).sum()
    }
    let (core, scope, mem) = (&r.core_stats, &r.scope_stats, &r.mem_stats);
    [
        r.cycles.unwrap_or(0),
        sum(core, |c| c.instrs_retired),
        sum(core, |c| c.fence_stall_cycles),
        sum(core, |c| c.rob_full_stall_cycles),
        sum(core, |c| c.load_disambiguation_blocks),
        mem.l1_hits,
        mem.l2_hits,
        mem.mem_misses,
        sum(scope, |s| s.scoped_fences),
        sum(scope, |s| s.degraded_fences),
        sum(scope, |s| s.fss_overflows),
    ]
}

/// What one cell leaves behind once its report is digested.
pub struct Ran {
    pub digest: String,
    pub counts: Counts,
}

/// One pass: every cell once, in order, on the cycle-accurate engine.
/// Each report is digested off the pass clock and dropped before the
/// next cell runs, so the process holds one report at a time.
pub fn pass(setup: &Setup, tracer: &mut Tracer) -> Vec<Ran> {
    setup
        .cells
        .iter()
        .enumerate()
        .map(|(i, cell)| {
            tracer.group(i as u64);
            let report = tracer.span("sim.run", |_| {
                Session::for_workload(&setup.built[cell.program])
                    .config(MachineConfig::paper_default().with_fence(cell.fence))
                    .run()
            });
            tracer.off_clock("harness.report_json", |_| Ran {
                digest: digest(&report),
                counts: counts(&report),
            })
        })
        .collect()
}

/// The digest `sim_digests.json` pins for a report.
pub fn digest(report: &RunReport) -> String {
    sha256_hex(report.to_json().to_string_pretty().as_bytes())
}

/// Check every cell of a pass against its pinned digest.
fn check_digests(setup: &Setup, ran: &[Ran], ops: &mut Ops) {
    for (cell, r) in setup.cells.iter().zip(ran) {
        let got = &r.digest;
        ops.check(*got == cell.golden, || {
            format!(
                "{}/{}: digest {got} != pinned {}",
                cell.workload,
                cell.fence.label(),
                cell.golden
            )
        });
    }
}

pub fn run(opts: &Opts) -> Result<Outcome, String> {
    let mut build_ms = Vec::new();
    let mut ops = Ops::default();
    // Set-up builds the Eval programs, then runs the same 32 cells at
    // Small scale against their pinned digests: a preflight that
    // proves the build before the long passes and warms the code.
    let (setup, setup_s) = timed_setup(SETUP_REPS, || {
        let small = setup(Scale::Small, opts.seed, &mut Vec::new())?;
        check_digests(&small, &pass(&small, &mut Tracer::new(false)), &mut ops);
        setup(Scale::Eval, opts.seed, &mut build_ms)
    })?;

    // Simulated counts per pass, and cycles per cell group
    // (index 1 = lock-free); every pass must repeat the first.
    let mut first: Option<(Counts, [u64; 2])> = None;
    let (passes, pass_ops) = timed_passes(
        opts,
        |t| pass(&setup, t),
        |ran| {
            let mut ops = Ops::default();
            check_digests(&setup, &ran, &mut ops);
            let mut total: Counts = [0; 11];
            let mut group = [0u64; 2];
            for (cell, r) in setup.cells.iter().zip(&ran) {
                for (t, c) in total.iter_mut().zip(r.counts) {
                    *t += c;
                }
                group[cell.lockfree as usize] += r.counts[0];
            }
            match &first {
                None => first = Some((total, group)),
                Some(f) => ops.check(*f == (total, group), || {
                    "simulated counts changed between passes".into()
                }),
            }
            ops
        },
    );
    ops.absorb(pass_ops);
    let (counts, per_group_cycles) = first.unwrap_or_default();
    let (cycles, instrs) = (counts[0], counts[1]);

    let cycles_per_s: Vec<f64> = passes
        .untraced_ms
        .iter()
        .map(|ms| cycles as f64 / (ms / 1000.0))
        .collect();
    let mut layer = BTreeMap::new();
    if opts.trace {
        // Host time per simulated event, split by cell group: the
        // lock-free half is fence-heavy, the app half miss-heavy.
        let traced = passes.traced_ms.len().max(1) as f64;
        let mut sim_ns = [0u64; 2];
        for s in passes.tracer.spans().iter().filter(|s| s.name == "sim.run") {
            let cell = &setup.cells[s.group as usize];
            sim_ns[cell.lockfree as usize] += s.end_ns - s.start_ns;
        }
        let per_pass = |ns: u64| ns as f64 / traced;
        layer.insert("sim.run_ms", per_pass(sim_ns[0] + sim_ns[1]) / 1e6);
        layer.insert(
            "sim.ns_per_cycle.lockfree",
            per_pass(sim_ns[1]) / per_group_cycles[1].max(1) as f64,
        );
        layer.insert(
            "sim.ns_per_cycle.apps",
            per_pass(sim_ns[0]) / per_group_cycles[0].max(1) as f64,
        );
        layer.insert(
            "sim.ns_per_instr",
            per_pass(sim_ns[0] + sim_ns[1]) / instrs.max(1) as f64,
        );
        for (name, count) in COUNT_METRICS.into_iter().zip(counts) {
            layer.insert(name, count as f64);
        }
        layer.insert(
            "workloads.build_ms",
            crate::stats::median(&build_ms).unwrap_or(0.0),
        );
    }
    let detail = Json::obj()
        .field("cells", setup.cells.len())
        .field(
            "order",
            Json::Arr(
                setup
                    .cells
                    .iter()
                    .map(|c| Json::from(format!("{}/{}", c.workload, c.fence.label())))
                    .collect(),
            ),
        )
        .field("sim_cycles_per_pass", cycles)
        .field(
            "sim_cycles_per_s",
            crate::stats::median(&cycles_per_s).map_or(Json::Null, Json::Num),
        )
        .field(
            "build_ms",
            Json::Arr(build_ms.iter().map(|&m| Json::Num(m)).collect()),
        );
    Ok(Outcome {
        ops,
        setup_s,
        passes,
        layer,
        detail,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Identical passes do identical work: the same digests, pinned
    /// by the golden, on every pass and in any cell order.
    #[test]
    fn passes_repeat_the_pinned_small_scale_digests() {
        let s = setup(Scale::Small, 3, &mut Vec::new()).unwrap();
        assert_eq!(s.cells.len(), 32);
        let mut off = Tracer::new(false);
        let digests = |off: &mut Tracer| {
            pass(&s, off)
                .into_iter()
                .map(|r| r.digest)
                .collect::<Vec<_>>()
        };
        let first = digests(&mut off);
        let second = digests(&mut off);
        assert_eq!(first, second);
        for (cell, d) in s.cells.iter().zip(&first) {
            assert_eq!(d, &cell.golden, "{}/{}", cell.workload, cell.fence.label());
        }
        let other = setup(Scale::Small, 4, &mut Vec::new()).unwrap();
        let order = |s: &Setup| {
            s.cells
                .iter()
                .map(|c| (c.program, c.fence.label()))
                .collect::<Vec<_>>()
        };
        assert_ne!(order(&s), order(&other), "the seed orders the cells");
    }
}
