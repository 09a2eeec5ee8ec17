//! Content-addressed result caching: `(backend, workload params,
//! fence config, machine config) -> RunReport`, persisted on disk so
//! repeated sweeps only execute cells they have never seen.
//!
//! **Keys.** A job's key is the SHA-256 of the compact serialization
//! of its *canonical* JSON description — the executing backend's
//! [`BackendId`], workload name, build parameters and the complete
//! `MachineConfig` (which includes the fence config) with every
//! object's fields sorted. Field order therefore never changes a key;
//! any change to a value that could change the run's output does, and
//! cells produced by different engines (cycle-accurate vs functional)
//! can never collide. Every engine is deterministic, so a key names
//! exactly one possible `RunReport`.
//!
//! **Store layout.** A cache directory holds append-only JSONL files;
//! every `*.jsonl` file in the directory is read at open. Each line is
//! one entry: `{"key": "<hex>", "report": {...}}`. Writers append to
//! their own file (shard workers use `shard-<i>.jsonl`, the default
//! writer uses `cache.jsonl`), so concurrent processes never
//! interleave bytes within a line. Corrupt or truncated lines — the
//! tail a killed writer leaves behind, or bytes that are not UTF-8 —
//! and entries with a mismatched `schema_version` are counted and
//! skipped, never fatal: the cell simply re-runs and is re-appended.
//!
//! **Open.** Each file is read once as bytes and split on `\n`; each
//! line is decoded in one pass by [`RunReport::read_json`], which
//! reads the final memory image straight into a `Vec<i64>` instead of
//! building a `Json` tree for it. A line becomes an entry only once it
//! has been validated as a whole.

use crate::backend::BackendId;
use crate::hash::sha256_hex;
use crate::json::{self, Json, Reader};
use crate::session::RunReport;
use sfence_sim::MachineConfig;
use sfence_workloads::{Scale, ScopeMode, WorkloadParams};
use std::collections::HashMap;
use std::fs::{self, File, OpenOptions};
use std::io::{BufRead, BufReader, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// Monotonic per-process counter feeding [`unique_writer_name`], so
/// two caches opened by one process never share a writer file.
static WRITER_NONCE: AtomicU64 = AtomicU64::new(0);

/// An 8-hex-character token identifying this host, derived by hashing
/// the hostname. Two hosts sharing one cache directory (a network
/// filesystem under a distributed sweep) get different tokens. A host
/// with *no discoverable hostname* must not collapse onto a shared
/// constant — two such hosts could then collide on pid too (separate
/// pid namespaces hand out the same small pids) — so the anonymous
/// fallback salts the token with this process's start time instead.
/// Stable within a process either way.
pub fn host_token() -> String {
    static TOKEN: std::sync::OnceLock<String> = std::sync::OnceLock::new();
    TOKEN
        .get_or_init(|| {
            let name = fs::read_to_string("/proc/sys/kernel/hostname")
                .or_else(|_| fs::read_to_string("/etc/hostname"))
                .ok()
                .or_else(|| std::env::var("HOSTNAME").ok())
                .or_else(|| std::env::var("COMPUTERNAME").ok())
                .unwrap_or_default();
            let name = name.trim().to_string();
            if name.is_empty() {
                let nanos = std::time::SystemTime::now()
                    .duration_since(std::time::UNIX_EPOCH)
                    .map(|d| d.as_nanos())
                    .unwrap_or(0);
                sha256_hex(format!("anonymous-host-{nanos}").as_bytes())[..8].to_string()
            } else {
                sha256_hex(name.as_bytes())[..8].to_string()
            }
        })
        .clone()
}

/// A cache writer-file name no concurrent writer — same process,
/// another process, or another *host* — can produce:
/// `<prefix>-<host token>-<pid>-<nonce>.jsonl`. Hosts differ in the
/// token, processes on one host differ in the pid, and writers within
/// one process differ in the monotonic nonce. (Fixed names like
/// `shard-0.jsonl` collide as soon as two hosts run the same shard
/// layout against a shared directory.)
pub fn unique_writer_name(prefix: &str) -> String {
    format!(
        "{prefix}-{}-{}-{}.jsonl",
        host_token(),
        std::process::id(),
        WRITER_NONCE.fetch_add(1, Ordering::Relaxed)
    )
}

/// Canonical JSON description of one sweep cell. The machine config
/// string comes from `MachineConfig::canonical_json` (the one place
/// that enumerates every simulator knob) and is re-parsed here so the
/// whole document canonicalizes as a unit.
pub fn job_canonical_json(
    workload: &str,
    params: &WorkloadParams,
    cfg: &MachineConfig,
    backend: BackendId,
) -> Json {
    let cfg_json =
        json::parse(&cfg.canonical_json()).expect("MachineConfig::canonical_json emits valid JSON");
    // Litmus scenarios (`litmus/<family>/<seed>`) are fully
    // parameterized by their name and the builder ignores `params`;
    // keying on the no-op knobs would fork the cache (re-executing
    // byte-identical cells) whenever e.g. `--scale` changes.
    let params_json = if sfence_workloads::litmus::parse_name(workload).is_some() {
        Json::obj().field("by_name", true)
    } else {
        Json::obj()
            .field("level", params.level)
            .field(
                "scale",
                match params.scale {
                    Scale::Eval => "eval",
                    Scale::Small => "small",
                },
            )
            .field(
                "scope",
                match params.scope {
                    ScopeMode::Class => "class",
                    ScopeMode::Set => "set",
                },
            )
    };
    let mut doc = Json::obj()
        .field("backend", backend.name())
        .field("workload", workload)
        .field("params", params_json)
        .field("cfg", cfg_json);
    // Engine knobs that live outside the MachineConfig (the
    // enumerator's search bounds) must key the cell too — tuning
    // their defaults correctly invalidates previously cached cells.
    if let Some(engine_params) = backend.cache_params() {
        doc = doc.field("engine_params", engine_params);
    }
    doc.canonicalize()
}

/// Content-hash key of one sweep cell: SHA-256 over the canonical
/// description's compact serialization, as lowercase hex. The backend
/// id is part of the description, so sim and functional cells of the
/// same `(workload, cfg)` occupy distinct keys.
pub fn job_key(
    workload: &str,
    params: &WorkloadParams,
    cfg: &MachineConfig,
    backend: BackendId,
) -> String {
    let canonical = job_canonical_json(workload, params, cfg, backend).to_string_compact();
    sha256_hex(canonical.as_bytes())
}

/// An on-disk `key -> RunReport` map over a directory of append-only
/// JSONL files.
pub struct ResultCache {
    dir: PathBuf,
    writer_name: String,
    writer: Option<File>,
    entries: HashMap<String, RunReport>,
    /// Lines skipped at open: unparseable (truncated/corrupt) or a
    /// mismatched `schema_version`.
    skipped_lines: u64,
}

impl ResultCache {
    /// Open (creating the directory if needed) with the default
    /// writer file `cache.jsonl`.
    pub fn open(dir: impl AsRef<Path>) -> std::io::Result<ResultCache> {
        Self::open_with_writer(dir, "cache.jsonl")
    }

    /// Open with a guaranteed-fresh writer file
    /// ([`unique_writer_name`]), safe for any number of concurrent
    /// writers across any number of hosts sharing `dir`.
    pub fn open_unique(dir: impl AsRef<Path>, prefix: &str) -> std::io::Result<ResultCache> {
        Self::open_with_writer(dir, unique_writer_name(prefix))
    }

    /// Open with a caller-chosen writer file name — shard workers
    /// sharing one cache directory each append to their own file so
    /// concurrent writes never interleave.
    pub fn open_with_writer(
        dir: impl AsRef<Path>,
        writer_name: impl Into<String>,
    ) -> std::io::Result<ResultCache> {
        let dir = dir.as_ref().to_path_buf();
        fs::create_dir_all(&dir)?;
        let mut cache = ResultCache {
            dir,
            writer_name: writer_name.into(),
            writer: None,
            entries: HashMap::new(),
            skipped_lines: 0,
        };
        cache.load()?;
        Ok(cache)
    }

    fn load(&mut self) -> std::io::Result<()> {
        let mut files: Vec<PathBuf> = fs::read_dir(&self.dir)?
            .filter_map(|e| e.ok())
            .map(|e| e.path())
            .filter(|p| p.extension().map(|x| x == "jsonl").unwrap_or(false))
            .collect();
        files.sort();
        let mut line = Vec::new();
        for path in files {
            let mut reader = BufReader::new(File::open(&path)?);
            loop {
                line.clear();
                if reader.read_until(b'\n', &mut line)? == 0 {
                    break;
                }
                if is_blank(&line) {
                    continue;
                }
                match parse_entry(&line) {
                    Ok((key, report)) => {
                        self.entries.insert(key, report);
                    }
                    Err(_) => self.skipped_lines += 1,
                }
            }
        }
        Ok(())
    }

    pub fn len(&self) -> usize {
        self.entries.len()
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Lines skipped at open because they were corrupt, truncated, or
    /// carried a different schema version.
    pub fn skipped_lines(&self) -> u64 {
        self.skipped_lines
    }

    pub fn get(&self, key: &str) -> Option<&RunReport> {
        self.entries.get(key)
    }

    /// Append an entry to this cache's writer file and the in-memory
    /// map. Each entry is one line, written (and flushed) whole, so a
    /// kill mid-insert corrupts at most the final line of one file.
    pub fn insert(&mut self, key: &str, report: &RunReport) -> std::io::Result<()> {
        if self.writer.is_none() {
            self.writer = Some(
                OpenOptions::new()
                    .create(true)
                    .append(true)
                    .open(self.dir.join(&self.writer_name))?,
            );
        }
        let mut line = Json::obj()
            .field("key", key)
            .field("report", report.to_json())
            .to_string_compact();
        line.push('\n');
        // One write_all per entry: O_APPEND keeps whole lines intact
        // even if another process appends to the same file.
        let writer = self.writer.as_mut().unwrap();
        writer.write_all(line.as_bytes())?;
        writer.flush()?;
        self.entries.insert(key.to_string(), report.clone());
        Ok(())
    }
}

/// Whether a line (with or without its `\n`) is blank as `str::trim`
/// sees it; blank lines are neither entries nor skipped lines.
fn is_blank(line: &[u8]) -> bool {
    match line.iter().find(|b| !b.is_ascii_whitespace()) {
        None => true,
        // Every entry starts with `{`: no UTF-8 pass on the hot path.
        Some(b'{') => false,
        Some(_) => std::str::from_utf8(line).is_ok_and(|s| s.trim().is_empty()),
    }
}

/// Decode and fully validate one `{"key", "report"}` line in a single
/// pass, without building a `Json` tree for the report.
fn parse_entry(line: &[u8]) -> Result<(String, RunReport), String> {
    let mut r = Reader::new(line);
    let (mut key, mut report) = (None, None);
    r.fields(|r, field| {
        match field {
            "key" if key.is_none() => key = Some(r.str()?.into_owned()),
            // `RunReport::read_json` rejects mismatched schema_version.
            "report" if report.is_none() => report = Some(RunReport::read_json(r)?),
            _ => r.skip()?,
        }
        Ok(())
    })?;
    r.end()?;
    Ok((key.ok_or("missing key")?, report.ok_or("missing report")?))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writer_names_carry_host_pid_and_nonce() {
        let token = host_token();
        assert_eq!(token.len(), 8);
        assert!(token.chars().all(|c| c.is_ascii_hexdigit()));
        // The token is a pure function of the host.
        assert_eq!(token, host_token());

        let a = unique_writer_name("worker");
        let b = unique_writer_name("worker");
        assert_ne!(a, b, "the nonce must separate writers in one process");
        for name in [&a, &b] {
            let stem = name.strip_suffix(".jsonl").expect("jsonl suffix");
            let parts: Vec<&str> = stem.split('-').collect();
            assert_eq!(parts[0], "worker");
            assert_eq!(parts[1], token, "host token embedded in {name}");
            assert_eq!(
                parts[2],
                std::process::id().to_string(),
                "pid embedded in {name}"
            );
            assert!(parts[3].parse::<u64>().is_ok(), "nonce in {name}");
        }
    }

    #[test]
    fn names_for_different_hosts_differ() {
        // Simulate the second host by hashing a different hostname the
        // way host_token does: equal inputs are the only way to equal
        // tokens, so two hosts collide only on a hostname collision —
        // and then pid+nonce still separate the files.
        let here = host_token();
        let elsewhere = sha256_hex(b"some-other-host")[..8].to_string();
        assert_ne!(here, elsewhere);
    }
}
