//! `warm-resume`: the `sfence-sweep --cache-dir --resume --store
//! --diff` path over a warm cache. Set-up fills a `ResultCache` with
//! the 32 paper-eval cells through `Experiment::run_with` (one thread)
//! and stores that cold run. Each timed pass opens the cache
//! directory, resolves every cell (all hits), merges, diffs against
//! the stored run and appends to the `ResultStore`; the store is put
//! back to its set-up bytes after each pass, off the clock. The
//! harness does all of the work and the simulator none. The seed
//! does not change this workload's inputs.

use crate::trace::Tracer;
use crate::{timed_passes, timed_setup, Ops, Opts, Outcome};
use sfence_bench::digests::DIGEST_FENCES;
use sfence_harness::{
    diff_rows, Experiment, Json, ResultCache, ResultStore, RunMeta, RunOptions, SweepResult,
};
use sfence_sim::MachineConfig;
use sfence_workloads::{Scale, WorkloadParams, REGISTRY};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// Set-ups per run; the median is reported.
const SETUP_REPS: usize = 3;

/// The paper-eval cells as one sweep.
pub fn experiment(scale: Scale) -> Experiment {
    let params = match scale {
        Scale::Eval => WorkloadParams::default(),
        Scale::Small => WorkloadParams::small(),
    };
    Experiment::new("paper-eval")
        .base(MachineConfig::paper_default())
        .workloads(REGISTRY.iter().map(|w| w.name()), params)
        .fences(DIGEST_FENCES.to_vec())
}

/// A filled cache and a store holding the cold run.
pub struct Setup {
    pub dir: PathBuf,
    pub cache_dir: PathBuf,
    pub store: PathBuf,
    pub store_bytes: Vec<u8>,
    pub cold: String,
    pub cache_bytes: u64,
}

impl Drop for Setup {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

fn meta(e: &Experiment, timestamp: u64) -> RunMeta {
    RunMeta::new(
        &e.name,
        e.axis_name(),
        "eval",
        "sim",
        "perfsuite",
        timestamp,
    )
}

/// Bytes of every cache file in `dir`.
pub fn cache_bytes(dir: &Path) -> Result<u64, String> {
    let mut total = 0;
    for entry in std::fs::read_dir(dir).map_err(|e| format!("read {}: {e}", dir.display()))? {
        let entry = entry.map_err(|e| e.to_string())?;
        total += entry.metadata().map_err(|e| e.to_string())?.len();
    }
    Ok(total)
}

pub fn setup(e: &Experiment, dir: PathBuf, seed: u64) -> Result<Setup, String> {
    let _ = std::fs::remove_dir_all(&dir);
    let cache_dir = dir.join("cache");
    let mut cache =
        ResultCache::open_unique(&cache_dir, "cache").map_err(|e| format!("open cache: {e}"))?;
    let outcome = e.run_with(RunOptions::new(1).cache(&mut cache));
    if !outcome.complete || outcome.stats.cache_write_errors > 0 {
        return Err("cold run did not complete and cache every cell".into());
    }
    let cold = SweepResult::from_indexed(&e.name, e.job_count(), outcome.rows)?;
    let store = dir.join("store.jsonl");
    ResultStore::new(&store)
        .append(&meta(e, seed), &cold)
        .map_err(|err| format!("append cold run: {err}"))?;
    let store_bytes = std::fs::read(&store).map_err(|err| format!("read store: {err}"))?;
    Ok(Setup {
        cache_bytes: cache_bytes(&cache_dir)?,
        dir,
        cache_dir,
        store,
        store_bytes,
        cold: cold.to_json_string(),
    })
}

/// What one warm pass produced.
pub struct Resumed {
    /// The merged result, serialized.
    pub rows: String,
    /// Cells found in the cache before resolving.
    pub hits: usize,
    /// Cells `run_with` had to execute.
    pub executed: usize,
    /// The diff against the stored run was empty.
    pub unchanged: bool,
}

/// One warm pass: open, resolve, merge, diff, append.
pub fn pass(e: &Experiment, s: &Setup, seed: u64, t: &mut Tracer) -> Result<Resumed, String> {
    let mut cache = t
        .span("harness.cache_open", |_| {
            ResultCache::open_unique(&s.cache_dir, "cache")
        })
        .map_err(|err| format!("open cache: {err}"))?;
    let hits = t.span("harness.job_keys", |_| {
        e.job_keys()
            .iter()
            .filter(|k| cache.get(k).is_some())
            .count()
    });
    let outcome = t.span("harness.lookup", |_| {
        e.run_with(RunOptions::new(1).cache(&mut cache))
    });
    let result = t.span("harness.merge", |_| {
        SweepResult::from_indexed(&e.name, e.job_count(), outcome.rows)
    })?;
    let store = ResultStore::new(&s.store);
    let unchanged = t.span("harness.store_diff", |_| -> Result<bool, String> {
        let history = store.history_at(&e.name, "eval", "sim")?;
        let prev = history.first().ok_or("the store lost the cold run")?;
        Ok(diff_rows(&prev.rows, &result.rows).is_empty())
    })?;
    t.span("harness.store_append", |_| {
        store.append(&meta(e, seed), &result)
    })
    .map_err(|err| format!("append: {err}"))?;
    Ok(Resumed {
        rows: result.to_json_string(),
        hits,
        executed: outcome.stats.executed,
        unchanged,
    })
}

/// Judge a pass and put the store back to its set-up bytes.
pub fn check(s: &Setup, jobs: usize, pass: Result<Resumed, String>) -> Ops {
    let mut ops = Ops::default();
    match pass {
        Err(err) => ops.check(false, || err),
        Ok(r) => {
            let same_rows = r.rows == s.cold;
            let ok = r.hits == jobs && r.executed == 0 && r.unchanged && same_rows;
            ops.check(ok, || {
                format!(
                    "warm pass: {}/{jobs} hits, {} executed, diff empty {}, rows equal {same_rows}",
                    r.hits, r.executed, r.unchanged
                )
            });
        }
    }
    if let Err(err) = std::fs::write(&s.store, &s.store_bytes) {
        ops.check(false, || format!("reset store: {err}"));
    }
    let bytes = cache_bytes(&s.cache_dir);
    ops.check(bytes.as_ref() == Ok(&s.cache_bytes), || {
        format!("cache bytes changed: {bytes:?}")
    });
    ops
}

pub fn run(opts: &Opts) -> Result<Outcome, String> {
    let e = experiment(Scale::Eval);
    let base = crate::out_dir().join(format!("warm-{}", std::process::id()));
    let mut rep = 0;
    let (setup, setup_s) = timed_setup(SETUP_REPS, || {
        rep += 1;
        setup(&e, base.join(rep.to_string()), opts.seed)
    })?;
    let jobs = e.job_count();
    let mut hits = Vec::new();
    let (passes, ops) = timed_passes(
        opts,
        |t| pass(&e, &setup, opts.seed, t),
        |p| {
            if let Ok(r) = &p {
                hits.push(r.hits);
            }
            check(&setup, jobs, p)
        },
    );

    let mut layer = BTreeMap::new();
    if opts.trace {
        let tr = &passes.tracer;
        let per_pass = |name: &str| tr.total_ns(name) as f64 / tr.count(name).max(1) as f64 / 1e6;
        let open_ms = per_pass("harness.cache_open");
        layer.insert("harness.cache_open_ms", open_ms);
        layer.insert("harness.cache_bytes", setup.cache_bytes as f64);
        layer.insert(
            "harness.cache_parse_mb_per_s",
            setup.cache_bytes as f64 / 1e6 / (open_ms / 1e3).max(1e-9),
        );
        layer.insert("harness.job_key_ms", per_pass("harness.job_keys"));
        layer.insert("harness.lookup_ms", per_pass("harness.lookup"));
        layer.insert("harness.merge_ms", per_pass("harness.merge"));
        layer.insert("harness.store_diff_ms", per_pass("harness.store_diff"));
        layer.insert("harness.store_append_ms", per_pass("harness.store_append"));
        let resolved = (jobs * hits.len()).max(1) as f64;
        layer.insert(
            "harness.cache_hit_ratio",
            hits.iter().sum::<usize>() as f64 / resolved,
        );
    }
    let detail = Json::obj()
        .field("cells", jobs)
        .field("cache_bytes", setup.cache_bytes)
        .field("resume_ms", crate::samples_json(&passes.untraced_ms));
    let _ = std::fs::remove_dir_all(&base);
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

    /// Identical passes do identical work: all hits, the cold rows,
    /// and the same cache bytes every time.
    #[test]
    fn warm_passes_repeat_over_a_small_scale_cache() {
        let e = experiment(Scale::Small);
        let dir = crate::out_dir().join(format!("warm-test-{}", std::process::id()));
        let s = setup(&e, dir, 1).unwrap();
        let mut off = Tracer::new(false);
        for _ in 0..2 {
            let ops = check(&s, e.job_count(), pass(&e, &s, 1, &mut off));
            assert!(ops.failures.is_empty(), "{:?}", ops.failures);
        }
    }
}
