//! The content-addressed result cache: key stability, hit/miss
//! accounting, and recovery from corrupt or schema-mismatched
//! entries.

use sfence_harness::json::{self, Json};
use sfence_harness::{
    hash, job_canonical_json, job_key, Axis, BackendId, Experiment, ResultCache, RunOptions,
    SweepResult,
};
use sfence_sim::{FenceConfig, MachineConfig};
use sfence_workloads::WorkloadParams;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

/// A fresh scratch directory per test (std-only; no tempfile crate).
fn scratch_dir(tag: &str) -> PathBuf {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "sfence-cache-test-{}-{}-{}",
        std::process::id(),
        tag,
        COUNTER.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn small_experiment() -> Experiment {
    Experiment::new("cache-test")
        .workloads(["dekker", "msn"], WorkloadParams::small())
        .fences(vec![FenceConfig::TRADITIONAL, FenceConfig::SFENCE])
        .axis(Axis::Level(vec![1, 2]))
}

#[test]
fn hash_is_stable_across_field_reorderings() {
    // The same document with object fields permuted (nested too)
    // must canonicalize — and therefore hash — identically.
    let a = json::parse(
        r#"{"workload":"dekker","cfg":{"num_cores":8,"core":{"rob_size":128,"trace":false}}}"#,
    )
    .unwrap();
    let b = json::parse(
        r#"{"cfg":{"core":{"trace":false,"rob_size":128},"num_cores":8},"workload":"dekker"}"#,
    )
    .unwrap();
    let key = |j: Json| hash::sha256_hex(j.canonicalize().to_string_compact().as_bytes());
    assert_eq!(key(a.clone()), key(b));
    // ...and any value change must move the hash.
    let c = json::parse(
        r#"{"workload":"dekker","cfg":{"num_cores":4,"core":{"rob_size":128,"trace":false}}}"#,
    )
    .unwrap();
    assert_ne!(key(a), key(c));
}

#[test]
fn job_keys_separate_every_dimension() {
    let params = WorkloadParams::small();
    let cfg = MachineConfig::paper_default();
    let base = job_key("dekker", &params, &cfg, BackendId::Sim);
    // Same inputs -> same key.
    assert_eq!(base, job_key("dekker", &params, &cfg, BackendId::Sim));
    // Workload, params and machine config each move the key.
    assert_ne!(base, job_key("msn", &params, &cfg, BackendId::Sim));
    assert_ne!(
        base,
        job_key("dekker", &params.level(5), &cfg, BackendId::Sim)
    );
    assert_ne!(
        base,
        job_key(
            "dekker",
            &params,
            &cfg.clone().with_fence(FenceConfig::TRADITIONAL),
            BackendId::Sim,
        )
    );
    assert_ne!(
        base,
        job_key("dekker", &params, &cfg.clone().with_rob(64), BackendId::Sim)
    );
    // The canonical description is itself in canonical (sorted) form.
    let canon = job_canonical_json("dekker", &params, &cfg, BackendId::Sim);
    assert_eq!(
        canon.to_string_compact(),
        canon.clone().canonicalize().to_string_compact()
    );
}

#[test]
fn cache_hit_miss_accounting_and_round_trip() {
    let dir = scratch_dir("hits");
    let exp = small_experiment();

    let mut cache = ResultCache::open(&dir).unwrap();
    let first = exp.run_with(RunOptions::new(2).cache(&mut cache));
    assert!(first.complete);
    assert_eq!(first.stats.executed, exp.job_count());
    assert_eq!(first.stats.cache_hits, 0);

    // A second run over a fresh handle answers everything from disk.
    let mut cache = ResultCache::open(&dir).unwrap();
    assert_eq!(cache.len(), exp.job_count());
    let second = exp.run_with(RunOptions::new(2).cache(&mut cache));
    assert!(second.complete);
    assert_eq!(second.stats.executed, 0);
    assert_eq!(second.stats.cache_hits, exp.job_count());

    // Cached rows are byte-identical to executed rows.
    let a = SweepResult::from_indexed("cache-test", exp.job_count(), first.rows).unwrap();
    let b = SweepResult::from_indexed("cache-test", exp.job_count(), second.rows).unwrap();
    assert_eq!(a.to_json_string(), b.to_json_string());
    // And both match an uncached parallel run.
    assert_eq!(a.to_json_string(), exp.run_parallel().to_json_string());
}

#[test]
fn truncated_cache_line_is_skipped_and_rerun() {
    let dir = scratch_dir("truncate");
    let exp = small_experiment();
    let mut cache = ResultCache::open(&dir).unwrap();
    exp.run_with(RunOptions::new(2).cache(&mut cache));
    drop(cache);

    // Chop the file mid-line, as a killed writer would.
    let path = dir.join("cache.jsonl");
    let bytes = std::fs::read(&path).unwrap();
    std::fs::write(&path, &bytes[..bytes.len() - 40]).unwrap();

    let mut cache = ResultCache::open(&dir).unwrap();
    assert_eq!(cache.skipped_lines(), 1, "exactly the torn line is lost");
    assert_eq!(cache.len(), exp.job_count() - 1);

    // The lost cell re-runs; everything else still hits.
    let outcome = exp.run_with(RunOptions::new(2).cache(&mut cache));
    assert!(outcome.complete);
    assert_eq!(outcome.stats.executed, 1);
    assert_eq!(outcome.stats.cache_hits, exp.job_count() - 1);
    assert_eq!(
        SweepResult::from_indexed("cache-test", exp.job_count(), outcome.rows)
            .unwrap()
            .to_json_string(),
        exp.run_parallel().to_json_string()
    );
}

#[test]
fn garbage_and_schema_mismatch_entries_are_skipped() {
    let dir = scratch_dir("garbage");
    // Seed the directory with junk a cache must survive: non-JSON, a
    // valid-JSON non-entry, and an entry from a future schema.
    std::fs::write(
        dir.join("junk.jsonl"),
        "not json at all\n{\"key\":\"abc\"}\n{\"key\":\"abc\",\"report\":{\"schema_version\":999}}\n\n",
    )
    .unwrap();
    let cache = ResultCache::open(&dir).unwrap();
    assert!(cache.is_empty());
    assert_eq!(cache.skipped_lines(), 3);

    // A poisoned directory still caches correctly.
    let exp = small_experiment();
    let mut cache = ResultCache::open(&dir).unwrap();
    let first = exp.run_with(RunOptions::new(2).cache(&mut cache));
    assert_eq!(first.stats.executed, exp.job_count());
    let mut cache = ResultCache::open(&dir).unwrap();
    let second = exp.run_with(RunOptions::new(2).cache(&mut cache));
    assert_eq!(second.stats.cache_hits, exp.job_count());
}

#[test]
fn litmus_keys_ignore_the_noop_workload_params() {
    // Litmus cells are fully parameterized by their registry name;
    // the builder ignores WorkloadParams, so neither scale nor level
    // may fork the key — while the machine config still must.
    let cfg = MachineConfig::paper_default();
    let a = job_key(
        "litmus/sb/7",
        &WorkloadParams::small(),
        &cfg,
        BackendId::Sim,
    );
    let b = job_key(
        "litmus/sb/7",
        &WorkloadParams::default(),
        &cfg,
        BackendId::Sim,
    );
    assert_eq!(a, b, "no-op params must not fork litmus cache keys");
    let c = job_key(
        "litmus/sb/8",
        &WorkloadParams::small(),
        &cfg,
        BackendId::Sim,
    );
    assert_ne!(a, c, "the seed (via the name) must key the cell");
    let d = job_key(
        "litmus/sb/7",
        &WorkloadParams::small(),
        &cfg.clone().with_fence(FenceConfig::TRADITIONAL),
        BackendId::Sim,
    );
    assert_ne!(a, d, "the machine config must still key the cell");

    // Table IV benchmarks keep keying on their build parameters.
    let e = job_key("dekker", &WorkloadParams::small(), &cfg, BackendId::Sim);
    let f = job_key("dekker", &WorkloadParams::default(), &cfg, BackendId::Sim);
    assert_ne!(e, f);
}

#[test]
fn backend_id_forks_the_cache_key() {
    // The same cell under different engines must occupy distinct
    // keys: a functional result can never answer (or poison) a
    // cycle-accurate query.
    let params = WorkloadParams::small();
    let cfg = MachineConfig::paper_default();
    let sim = job_key("dekker", &params, &cfg, BackendId::Sim);
    let fun = job_key("dekker", &params, &cfg, BackendId::Functional);
    let en = job_key("dekker", &params, &cfg, BackendId::Enumerative);
    assert_ne!(sim, fun);
    assert_ne!(sim, en);
    assert_ne!(fun, en);
    // The backend is part of the canonical description itself.
    let canon = job_canonical_json("dekker", &params, &cfg, BackendId::Functional);
    assert_eq!(
        canon.get("backend").and_then(Json::as_str),
        Some("functional")
    );
}

#[test]
fn sim_and_functional_cells_coexist_in_one_cache() {
    let dir = scratch_dir("backends");
    let exp = Experiment::new("backend-cache-test")
        .workloads(["dekker"], WorkloadParams::small())
        .fences(vec![FenceConfig::SFENCE])
        .axis(Axis::Backend(vec![BackendId::Sim, BackendId::Functional]));

    let mut cache = ResultCache::open(&dir).unwrap();
    let first = exp.run_with(RunOptions::new(2).cache(&mut cache));
    assert_eq!(first.stats.executed, 2, "one sim cell, one functional cell");

    // Both land in the cache under their own keys; a second run of
    // either backend alone hits without executing.
    let mut cache = ResultCache::open(&dir).unwrap();
    assert_eq!(cache.len(), 2);
    for backend in [BackendId::Sim, BackendId::Functional] {
        let one = Experiment::new("backend-cache-test")
            .workloads(["dekker"], WorkloadParams::small())
            .fences(vec![FenceConfig::SFENCE])
            .backend(backend);
        let out = one.run_with(RunOptions::new(1).cache(&mut cache));
        assert_eq!(out.stats.executed, 0, "{}: must hit", backend.name());
        assert_eq!(out.stats.cache_hits, 1);
        assert_eq!(out.rows[0].row.backend, backend.name());
        assert_eq!(
            out.rows[0].row.cycles.is_some(),
            backend == BackendId::Sim,
            "only the sim row carries cycles"
        );
    }
}

#[test]
fn old_schema_v2_entries_are_skipped_not_fatal() {
    let dir = scratch_dir("v2");
    // A realistic-looking v2 line (u64 cycles, no backend field) from
    // before the multi-backend schema bump: it must be skipped and
    // re-run, never parsed into a v3 report and never an error.
    std::fs::write(
        dir.join("old.jsonl"),
        concat!(
            r#"{"key":"deadbeef","report":{"schema_version":2,"exit":"completed","#,
            r#""cycles":123,"core_stats":[],"mem_stats":{},"scope_stats":[],"#,
            r#""watch_log":[],"traces":[],"mem":[],"regs":[]}}"#,
            "\n"
        ),
    )
    .unwrap();
    let cache = ResultCache::open(&dir).unwrap();
    assert!(cache.is_empty(), "v2 entries must not load");
    assert_eq!(cache.skipped_lines(), 1);

    // The poisoned directory still serves a normal run/hit cycle.
    let exp = small_experiment();
    let mut cache = ResultCache::open(&dir).unwrap();
    let first = exp.run_with(RunOptions::new(2).cache(&mut cache));
    assert_eq!(first.stats.executed, exp.job_count());
    let mut cache = ResultCache::open(&dir).unwrap();
    let second = exp.run_with(RunOptions::new(2).cache(&mut cache));
    assert_eq!(second.stats.cache_hits, exp.job_count());
    assert_eq!(second.stats.executed, 0);
}

#[test]
fn line_that_is_not_utf8_is_skipped_not_fatal() {
    let dir = scratch_dir("utf8");
    let exp = small_experiment();
    let mut cache = ResultCache::open(&dir).unwrap();
    exp.run_with(RunOptions::new(2).cache(&mut cache));
    drop(cache);

    // A stray line of invalid UTF-8 between two good entries, and one
    // inside an otherwise well-formed entry's string.
    let path = dir.join("cache.jsonl");
    let text = std::fs::read_to_string(&path).unwrap();
    let mut bytes = Vec::new();
    for (i, line) in text.lines().enumerate() {
        bytes.extend_from_slice(line.as_bytes());
        bytes.push(b'\n');
        if i == 0 {
            bytes.extend_from_slice(b"\xff\xfe not utf-8 \xc3\n");
            bytes.extend_from_slice(b"{\"key\":\"\xc3\x28\",\"report\":{}}\n");
        }
    }
    std::fs::write(&path, &bytes).unwrap();

    let mut cache = ResultCache::open(&dir).unwrap();
    assert_eq!(cache.skipped_lines(), 2);
    assert_eq!(cache.len(), exp.job_count(), "every good entry still loads");
    let outcome = exp.run_with(RunOptions::new(2).cache(&mut cache));
    assert_eq!(outcome.stats.executed, 0);
}

/// One real Small-scale cache line: `(key, report, line bytes)`.
fn real_cache_line() -> (String, sfence_harness::RunReport, Vec<u8>) {
    let dir = scratch_dir("real-line");
    let exp = Experiment::new("one-line")
        .workloads(["dekker"], WorkloadParams::small())
        .fences(vec![FenceConfig::SFENCE]);
    let mut cache = ResultCache::open(&dir).unwrap();
    assert_eq!(
        exp.run_with(RunOptions::new(1).cache(&mut cache))
            .stats
            .executed,
        1
    );
    let key = exp.job_keys().remove(0);
    let report = cache.get(&key).unwrap().clone();
    let mut line = std::fs::read(dir.join("cache.jsonl")).unwrap();
    assert_eq!(line.pop(), Some(b'\n'));
    assert!(!line.contains(&b'\n'), "one entry, one line");
    (key, report, line)
}

/// Write `lines` (one entry each) into a fresh cache directory and
/// open it.
fn open_lines(tag: &str, lines: &[Vec<u8>]) -> ResultCache {
    let dir = scratch_dir(tag);
    let mut bytes = Vec::new();
    for line in lines {
        bytes.extend_from_slice(line);
        bytes.push(b'\n');
    }
    std::fs::write(dir.join("lines.jsonl"), bytes).unwrap();
    ResultCache::open(&dir).unwrap()
}

#[test]
fn torn_prefixes_of_a_real_line_are_skipped_and_the_whole_line_round_trips() {
    let (key, report, line) = real_cache_line();
    assert!(!report.mem.is_empty() && !report.regs.is_empty());

    // The full line decodes to a report that re-serializes to the
    // very same bytes.
    let cache = open_lines("whole", std::slice::from_ref(&line));
    assert_eq!(cache.skipped_lines(), 0);
    let back = cache.get(&key).expect("the whole line loads");
    assert_eq!(back, &report);
    let again = Json::obj()
        .field("key", key.as_str())
        .field("report", back.to_json())
        .to_string_compact();
    assert_eq!(again.as_bytes(), &line[..]);

    // Every proper prefix — each byte offset near the structured head
    // and tail, a fine stride through the memory image between — is
    // a torn write: counted and skipped, never loaded.
    let n = line.len();
    let cuts: Vec<usize> = (1..n)
        .filter(|&cut| cut < 400 || cut > n - 400 || cut % 97 == 0)
        .collect();
    let prefixes: Vec<Vec<u8>> = cuts.iter().map(|&cut| line[..cut].to_vec()).collect();
    let cache = open_lines("torn", &prefixes);
    assert_eq!(cache.skipped_lines(), prefixes.len() as u64);
    assert!(cache.is_empty(), "no proper prefix may load");
}

#[test]
fn reordered_and_extended_entries_decode_to_the_same_report() {
    let (key, report, line) = real_cache_line();
    let entry = json::parse(std::str::from_utf8(&line).unwrap()).unwrap();
    let Some(Json::Obj(fields)) = entry.get("report").cloned() else {
        panic!("report is an object");
    };
    let with_report = |fields: Vec<(String, Json)>| {
        Json::obj()
            .field("key", key.as_str())
            .field("report", Json::Obj(fields))
            .to_string_compact()
            .into_bytes()
    };

    // Fields in reverse order, plus an unknown field and a duplicate
    // `mem` and `schema_version` after the originals (the first of
    // duplicates wins).
    let mut reversed = fields.clone();
    reversed.reverse();
    let mut extended = fields.clone();
    extended.insert(
        3,
        (
            "future_field".into(),
            json::parse(r#"{"a":[1.5,"x",null]}"#).unwrap(),
        ),
    );
    extended.push(("mem".into(), Json::Arr(vec![Json::Num(0.5)])));
    extended.push(("schema_version".into(), Json::UInt(999)));
    let cache = open_lines("variants", &[with_report(reversed)]);
    assert_eq!(cache.get(&key), Some(&report), "permuted field order");
    let cache = open_lines("variants", &[with_report(extended)]);
    assert_eq!(
        cache.get(&key),
        Some(&report),
        "unknown and duplicate fields"
    );

    // A future schema version is rejected wherever it sits — here
    // after the memory image.
    let mut late_version: Vec<(String, Json)> = fields
        .into_iter()
        .filter(|(k, _)| k != "schema_version")
        .collect();
    let mem_at = late_version.iter().position(|(k, _)| k == "mem").unwrap();
    late_version.insert(mem_at + 1, ("schema_version".into(), Json::UInt(999)));
    let cache = open_lines("late-version", &[with_report(late_version)]);
    assert!(cache.is_empty());
    assert_eq!(cache.skipped_lines(), 1);
}
