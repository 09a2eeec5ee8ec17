//! `fuzz-sim`: `run_fuzz` on the sim backend (the nightly engine)
//! with no injected bug and one worker thread, in identical passes.
//! A pass is [`CAMPAIGNS`] short campaigns of [`BUDGET`] candidates
//! each, whose campaign seeds derive from the command-line seed. One
//! long campaign's cost rests on the few programs its corpus happens
//! to grow, so it moves severalfold from seed to seed; the mean over
//! many short campaigns does not. The SC enumerator is bounded at
//! [`MAX_STATES`]: an occasional four-thread mutant has a 10k–18k
//! state space that costs ~60 ms and 2–3 MB of peak memory, which made
//! both figures depend on whether the seed happened to draw one.
//! Checks: zero divergences, and report JSON byte-identical to the
//! reference made in set-up.
//!
//! Traced passes drive the same candidate streams through the calls
//! `evaluate` is made of — `synth::ir` + `compile`, `enumerate_sc`,
//! the four sim rows and the functional row — so each gets a span,
//! and must reproduce the untraced reports' corpus and coverage.

use crate::trace::Tracer;
use crate::{timed_passes, timed_setup, Ops, Opts, Outcome};
use sfence_fuzz::{run_fuzz, FuzzConfig, FuzzReport, ROWS};
use sfence_harness::{enumerate_sc, BackendId, CheckerConfig, Json, Session};
use sfence_isa::Program;
use sfence_litmus::overflow_scope;
use sfence_sim::{FenceConfig, MachineConfig, RunExit};
use sfence_workloads::support::{compile, Prng};
use sfence_workloads::synth::{self, mutate, seed_corpus, SynthSpec};
use std::collections::BTreeMap;

/// Campaigns per pass.
pub const CAMPAIGNS: u64 = 64;
/// SC states the enumerator may visit per candidate; a candidate
/// beyond it is skipped, as `run_fuzz` does at its default 250,000.
pub const MAX_STATES: usize = 4096;
/// Candidates per campaign: the seed templates plus one batch of
/// mutants, then one batch mutated from the grown corpus.
pub const BUDGET: usize = 32;
/// Reference campaigns in set-up; all must agree.
const SETUP_REPS: usize = 3;
/// `run_fuzz`'s scheduling batch width: candidates of one batch
/// mutate from the same corpus snapshot.
const BATCH: usize = 16;

/// The campaigns of one pass: seeds `seed * CAMPAIGNS + j`, so
/// distinct run seeds never share a campaign.
pub fn configs(seed: u64, campaigns: u64, budget: usize) -> Vec<FuzzConfig> {
    (0..campaigns)
        .map(|j| FuzzConfig {
            seed: seed.wrapping_mul(campaigns).wrapping_add(j),
            budget,
            backend: BackendId::Sim,
            checker: CheckerConfig {
                max_states: MAX_STATES,
                ..CheckerConfig::default()
            },
            ..FuzzConfig::default()
        })
        .collect()
}

fn untraced_pass(cfgs: &[FuzzConfig]) -> Result<Vec<FuzzReport>, String> {
    cfgs.iter().map(|c| run_fuzz(c, 1)).collect()
}

fn traced_pass(cfgs: &[FuzzConfig], t: &mut Tracer) -> Result<Vec<StreamResult>, String> {
    cfgs.iter().map(|c| traced_campaign(c, t)).collect()
}

fn reports_json(reports: &[FuzzReport]) -> String {
    Json::Arr(reports.iter().map(FuzzReport::to_json).collect()).to_string_compact()
}

/// What the traced stream found: the parts of a `FuzzReport` the
/// simulator's counts decide.
#[derive(Debug, PartialEq)]
pub struct StreamResult {
    pub cases: usize,
    pub skipped: usize,
    pub corpus: Vec<String>,
    pub coverage: Vec<(&'static str, u32)>,
    pub divergences: usize,
    pub sc_states_explored: u64,
}

impl StreamResult {
    fn of(report: &FuzzReport) -> StreamResult {
        StreamResult {
            cases: report.cases,
            skipped: report.skipped,
            corpus: report.corpus.clone(),
            coverage: report.coverage.clone(),
            divergences: report.divergences.len(),
            sc_states_explored: 0,
        }
    }

    fn same_search(&self, other: &StreamResult) -> bool {
        (
            self.cases,
            self.skipped,
            &self.corpus,
            &self.coverage,
            self.divergences,
        ) == (
            other.cases,
            other.skipped,
            &other.corpus,
            &other.coverage,
            other.divergences,
        )
    }
}

/// `run_fuzz`'s candidate `i`: a seed template, then mutants of a
/// PRNG-chosen corpus entry.
fn derive(seed: u64, i: usize, templates: &[SynthSpec], corpus: &[SynthSpec]) -> SynthSpec {
    if i < templates.len() {
        return templates[i].clone();
    }
    let mut rng = Prng::seed_from_u64(seed ^ (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    let pool = if corpus.is_empty() { templates } else { corpus };
    let mut cand = pool[rng.gen_range(0..pool.len())].clone();
    for _ in 0..1 + rng.gen_range(0..3) {
        cand = mutate(&cand, &mut rng);
    }
    cand
}

fn base_config(num_threads: usize) -> MachineConfig {
    let mut cfg = MachineConfig::paper_default();
    cfg.num_cores = num_threads;
    cfg.max_cycles = 50_000_000;
    cfg
}

/// One matrix row: run, then observe the final state.
fn row(
    program: &Program,
    cfg: MachineConfig,
    backend: BackendId,
) -> Result<(Vec<i64>, u32), String> {
    let exec = backend.instantiate();
    let report = Session::for_program(program)
        .config(cfg)
        .backend(exec.as_ref())
        .run();
    if report.exit != RunExit::Completed {
        return Err("run hit the cycle limit".into());
    }
    let coverage = report.scope_coverage.iter().fold(0, |a, &b| a | b);
    Ok((report.observed_state(program), coverage))
}

/// One judged row: `(label, coverage, diverged)`.
type Judged = (&'static str, u32, bool);

/// `evaluate`, call by call, each inside its layer's span. `None`
/// when the SC enumeration was cut off (a skipped candidate).
fn evaluate_traced(
    spec: &SynthSpec,
    cfg: &FuzzConfig,
    t: &mut Tracer,
    explored: &mut u64,
) -> Result<Option<Vec<Judged>>, String> {
    let (fenced, stripped) = t.span("workloads.synth", |_| {
        (
            compile(&synth::ir(spec, false)),
            compile(&synth::ir(spec, true)),
        )
    });
    let outcomes = t
        .span("harness.enumerate", |_| enumerate_sc(&fenced, &cfg.checker))
        .map_err(|e| format!("{}: checker: {e}", spec.name()))?;
    *explored += outcomes.states_explored;
    if !outcomes.complete {
        return Ok(None);
    }
    let threads = fenced.num_threads();
    let covering = spec.covering();
    let mut overflow = base_config(threads).with_fence(FenceConfig::SFENCE);
    overflow.core.scope = overflow_scope();
    let matrix = [
        (
            "T",
            &fenced,
            base_config(threads).with_fence(FenceConfig::TRADITIONAL),
            spec.fenced_traditional(),
        ),
        (
            "S",
            &fenced,
            base_config(threads).with_fence(FenceConfig::SFENCE),
            covering,
        ),
        ("S-overflow", &fenced, overflow, covering),
        (
            "S-nofence",
            &stripped,
            base_config(threads).with_fence(FenceConfig::SFENCE),
            false,
        ),
    ];
    let mut rows = Vec::with_capacity(ROWS.len());
    for (label, program, machine, expect_sc) in matrix {
        let (observed, coverage) = t
            .span("sim.row", |_| row(program, machine, BackendId::Sim))
            .map_err(|e| format!("{}: {label}: {e}", spec.name()))?;
        rows.push((label, coverage, expect_sc && !outcomes.allows(&observed)));
    }
    let (observed, _) = t
        .span("isa.functional_row", |_| {
            row(&fenced, base_config(threads), BackendId::Functional)
        })
        .map_err(|e| format!("{}: functional: {e}", spec.name()))?;
    rows.push(("functional", 0, !outcomes.allows(&observed)));
    Ok(Some(rows))
}

/// `run_fuzz` with one worker, as a stream of traced calls.
pub fn traced_campaign(cfg: &FuzzConfig, t: &mut Tracer) -> Result<StreamResult, String> {
    let templates = seed_corpus();
    let mut corpus: Vec<SynthSpec> = Vec::new();
    let mut out = StreamResult {
        cases: 0,
        skipped: 0,
        corpus: Vec::new(),
        coverage: ROWS.iter().map(|&l| (l, 0)).collect(),
        divergences: 0,
        sc_states_explored: 0,
    };
    while out.cases < cfg.budget && out.divergences == 0 {
        let batch = BATCH.min(cfg.budget - out.cases);
        let candidates: Vec<SynthSpec> = t.span("workloads.mutate", |_| {
            (0..batch)
                .map(|k| derive(cfg.seed, out.cases + k, &templates, &corpus))
                .collect()
        });
        for (k, cand) in candidates.iter().enumerate() {
            t.group((out.cases + k) as u64);
            let rows = evaluate_traced(cand, cfg, t, &mut out.sc_states_explored)?;
            t.span("fuzz.judge", |_| match rows {
                None => out.skipped += 1,
                Some(rows) => {
                    let mut novel = false;
                    for (label, coverage, diverged) in rows {
                        let slot = out
                            .coverage
                            .iter_mut()
                            .find(|(l, _)| *l == label)
                            .expect("row label registered");
                        if coverage & !slot.1 != 0 {
                            novel = true;
                            slot.1 |= coverage;
                        }
                        out.divergences += diverged as usize;
                    }
                    if novel {
                        corpus.push(cand.clone());
                        out.corpus.push(cand.name());
                    }
                }
            });
        }
        out.cases += batch;
    }
    Ok(out)
}

enum PassOut {
    Untraced(Result<Vec<FuzzReport>, String>),
    Traced(Result<Vec<StreamResult>, String>),
}

pub fn run(opts: &Opts) -> Result<Outcome, String> {
    let cfgs = configs(opts.seed, CAMPAIGNS, BUDGET);
    let mut references = Vec::new();
    let (reference, setup_s) = timed_setup(SETUP_REPS, || {
        let reports = untraced_pass(&cfgs)?;
        references.push(reports_json(&reports));
        Ok(reports)
    })?;
    let reference_json = references[0].clone();
    let expected: Vec<StreamResult> = reference.iter().map(StreamResult::of).collect();
    let cases: usize = reference.iter().map(|r| r.cases).sum();
    let divergences: usize = reference.iter().map(|r| r.divergences.len()).sum();

    let mut ops = Ops::default();
    for (i, r) in references.iter().enumerate() {
        ops.check(*r == reference_json, || {
            format!("set-up pass {i} reports differ from the first")
        });
    }
    ops.check(divergences == 0, || {
        format!("{divergences} divergences in the reference pass")
    });

    let mut explored = 0u64;
    let (passes, pass_ops) = timed_passes(
        opts,
        |t| match t.enabled() {
            false => PassOut::Untraced(untraced_pass(&cfgs)),
            true => PassOut::Traced(traced_pass(&cfgs, t)),
        },
        |out| {
            let mut ops = Ops::default();
            match out {
                PassOut::Untraced(Err(e)) | PassOut::Traced(Err(e)) => ops.check(false, || e),
                PassOut::Untraced(Ok(reports)) => {
                    let n: usize = reports.iter().map(|r| r.divergences.len()).sum();
                    ops.check(n == 0, || format!("{n} divergences"));
                    ops.check(reports_json(&reports) == reference_json, || {
                        "reports differ from the reference".into()
                    });
                }
                PassOut::Traced(Ok(streams)) => {
                    let same = streams.len() == expected.len()
                        && streams.iter().zip(&expected).all(|(s, e)| s.same_search(e));
                    ops.check(same, || {
                        "traced streams' corpus or coverage differs from run_fuzz".into()
                    });
                    explored = streams.iter().map(|s| s.sc_states_explored).sum();
                }
            }
            ops
        },
    );
    ops.absorb(pass_ops);

    let mut layer = BTreeMap::new();
    if opts.trace {
        let tr = &passes.tracer;
        let mean_us = |name: &str| tr.total_ns(name) as f64 / tr.count(name).max(1) as f64 / 1000.0;
        let per_pass = passes.traced_ms.len().max(1) as f64;
        layer.insert("sim.row_us", mean_us("sim.row"));
        layer.insert("sim.rows", tr.count("sim.row") as f64 / per_pass);
        layer.insert("harness.enumerate_us", mean_us("harness.enumerate"));
        layer.insert("harness.sc_states_explored", explored as f64);
        layer.insert("workloads.synth_us", mean_us("workloads.synth"));
        layer.insert("isa.functional_row_us", mean_us("isa.functional_row"));
        layer.insert("fuzz.cases", cases as f64);
        layer.insert(
            "fuzz.corpus",
            expected.iter().map(|e| e.corpus.len()).sum::<usize>() as f64,
        );
    }
    let cases_per_s: Vec<f64> = passes
        .untraced_ms
        .iter()
        .map(|ms| cases as f64 / (ms / 1000.0))
        .collect();
    let detail = Json::obj()
        .field("campaigns", CAMPAIGNS)
        .field("budget", BUDGET)
        .field("max_states", MAX_STATES)
        .field("cases_per_pass", cases)
        .field(
            "skipped_per_pass",
            reference.iter().map(|r| r.skipped).sum::<usize>(),
        )
        .field(
            "corpus_per_pass",
            expected.iter().map(|e| e.corpus.len()).sum::<usize>(),
        )
        .field(
            "cases_per_s",
            crate::stats::median(&cases_per_s).map_or(Json::Null, Json::Num),
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

    /// Identical passes do identical work: the same report bytes, and
    /// the traced call stream finds the same corpus as `run_fuzz`.
    #[test]
    fn passes_repeat_and_the_traced_stream_matches_run_fuzz() {
        let cfg = configs(5, 1, 48).remove(0);
        let a = run_fuzz(&cfg, 1).unwrap();
        let b = run_fuzz(&cfg, 1).unwrap();
        assert_eq!(
            a.to_json().to_string_compact(),
            b.to_json().to_string_compact()
        );
        assert!(a.divergences.is_empty());
        let mut t = Tracer::new(true);
        let stream = traced_campaign(&cfg, &mut t).unwrap();
        assert!(stream.same_search(&StreamResult::of(&a)));
        assert_eq!(t.count("sim.row"), 4 * (a.cases - a.skipped));
    }
}
