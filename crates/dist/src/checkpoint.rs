//! Coordinator checkpointing: the daemon's whole scheduling state as
//! an atomic-rename JSONL snapshot, so a killed-and-restarted
//! coordinator resumes every in-flight campaign instead of
//! restarting the world.
//!
//! The state is small by design — campaign table, each campaign's
//! `JobQueue` (done rows + indices; leases are *not* persisted, they
//! reload as pending and get re-leased), and the fair-share served
//! counts. Workers keep their local result caches, so replaying a
//! cell that finished after the last checkpoint is a cache hit, not
//! lost compute.
//!
//! # File format
//!
//! One JSON object per line:
//!
//! ```text
//! {"type":"server","checkpoint_version":1,"schema_version":N,"next_campaign":N}
//! {"type":"campaign","id":N,"spec":{...},"priority":N,"served":N,"fingerprint":"...","job_count":N,"queue":{...}}
//! ...
//! {"type":"end","campaigns":K}
//! ```
//!
//! The trailing `end` line is the torn-write detector: a snapshot
//! whose campaign-line count doesn't match its end marker (or that
//! lacks the marker entirely) was interrupted mid-write and is
//! rejected.
//!
//! # Journal
//!
//! Rewriting the snapshot costs time proportional to every campaign
//! the daemon retains, so a `submit` ack does not wait for one.
//! Instead the new campaign is appended to `<path>.journal` — one
//! campaign line (same shape as above, nothing served, no rows yet),
//! fsynced — before the client hears its id. [`load`] replays the
//! journal on top of the snapshot, skipping ids the snapshot already
//! covers (`id < next_campaign`), so replay is idempotent; the
//! daemon's periodic snapshot then compacts it, emptying the journal
//! once the new snapshot is in place. Every line ends in a newline
//! and is written whole, so the only way to tear the journal is a
//! crash mid-append — before that submit was acked. [`load`] drops
//! such a torn tail (and reports it); damage anywhere else is
//! corruption and refuses to load.
//!
//! # Atomicity
//!
//! [`save`] writes `<path>.tmp`, fsyncs it, rotates the current
//! snapshot to `<path>.prev`, then renames the temp file into place.
//! A crash at any point leaves either the old snapshot, the old
//! snapshot plus a garbage `.tmp`, or the new snapshot — and [`load`]
//! falls back to `.prev` when the main file is torn, so the worst
//! outcome of a badly-timed kill is resuming from the previous
//! checkpoint interval. The journal is emptied only after the rename
//! (and a directory fsync), so an acked campaign is always in the
//! snapshot, the journal, or both.
//!
//! When [`load`] does fall back, the torn main file is quarantined to
//! `<path>.torn` right then (kept for post-mortem, replaced on the
//! next fallback). Leaving it in place would be a trap: the first
//! post-recovery [`save`] would rotate the torn file over `.prev` —
//! the only good snapshot — and a crash between its two renames
//! would then leave nothing loadable.

use crate::spec::ExperimentSpec;
use sfence_harness::json::{self, Json};
use std::fs;
use std::io::{BufWriter, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

/// Bumped when the snapshot layout changes incompatibly. Old
/// snapshots are rejected with a clear error rather than mis-read.
pub const CHECKPOINT_VERSION: u64 = 1;

/// One campaign's persisted state.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignSnapshot {
    pub id: u64,
    pub spec: ExperimentSpec,
    pub priority: u64,
    /// Fair-share cells served, so scheduling resumes deterministically.
    pub served: u64,
    /// The fingerprint the spec resolved to when submitted; the
    /// restoring binary must resolve to the same one or the done rows
    /// can't be trusted.
    pub fingerprint: String,
    pub job_count: u64,
    /// `JobQueue::to_json` output: done `(index, row)` pairs + leased
    /// indices (reloaded as pending).
    pub queue: Json,
}

/// Everything a coordinator needs to resume.
#[derive(Debug, Clone, PartialEq)]
pub struct Snapshot {
    pub schema_version: u64,
    pub next_campaign: u64,
    pub campaigns: Vec<CampaignSnapshot>,
}

/// A successfully loaded snapshot with its journal replayed, flagged
/// when it came from the `.prev` fallback instead of the main file.
#[derive(Debug)]
pub struct LoadedSnapshot {
    pub snapshot: Snapshot,
    pub fallback: bool,
    /// Campaigns the journal added on top of the snapshot.
    pub journal_replayed: usize,
    /// The journal ended in a partial record (a crash mid-append,
    /// necessarily before that submit was acked); it was dropped.
    pub journal_torn: bool,
}

fn prev_path(path: &Path) -> std::path::PathBuf {
    let mut name = path.as_os_str().to_os_string();
    name.push(".prev");
    std::path::PathBuf::from(name)
}

fn tmp_path(path: &Path) -> std::path::PathBuf {
    let mut name = path.as_os_str().to_os_string();
    name.push(".tmp");
    std::path::PathBuf::from(name)
}

/// Where submits are journaled between snapshots.
pub fn journal_path(path: &Path) -> PathBuf {
    let mut name = path.as_os_str().to_os_string();
    name.push(".journal");
    PathBuf::from(name)
}

fn torn_path(path: &Path) -> std::path::PathBuf {
    let mut name = path.as_os_str().to_os_string();
    name.push(".torn");
    std::path::PathBuf::from(name)
}

/// Move an unreadable main snapshot aside so a later [`save`] cannot
/// rotate it over the good `.prev`. Failure is an error, not a
/// shrug: proceeding with the torn file in place risks the only good
/// snapshot.
fn quarantine_torn(path: &Path) -> Result<(), String> {
    fs::rename(path, torn_path(path)).map_err(|e| {
        format!(
            "cannot quarantine torn checkpoint {} to {}: {e}",
            path.display(),
            torn_path(path).display()
        )
    })
}

impl CampaignSnapshot {
    /// The campaign's line in a snapshot or the journal (no newline).
    pub fn to_line(&self) -> String {
        Json::obj()
            .field("type", "campaign")
            .field("id", self.id)
            .field("spec", self.spec.to_json())
            .field("priority", self.priority)
            .field("served", self.served)
            .field("fingerprint", self.fingerprint.as_str())
            .field("job_count", self.job_count)
            .field("queue", self.queue.clone())
            .to_string_compact()
    }

    fn from_json(doc: &Json) -> Result<CampaignSnapshot, String> {
        let u64_field = |key: &str| -> Result<u64, String> {
            doc.get(key)
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("campaign: missing {key}"))
        };
        Ok(CampaignSnapshot {
            id: u64_field("id")?,
            spec: ExperimentSpec::from_json(doc.get("spec").ok_or("campaign: missing spec")?)?,
            priority: u64_field("priority")?,
            served: u64_field("served")?,
            fingerprint: doc
                .get("fingerprint")
                .and_then(Json::as_str)
                .ok_or("campaign: missing fingerprint")?
                .to_string(),
            job_count: u64_field("job_count")?,
            queue: doc.get("queue").cloned().ok_or("campaign: missing queue")?,
        })
    }
}

fn header_line(schema_version: u64, next_campaign: u64) -> String {
    Json::obj()
        .field("type", "server")
        .field("checkpoint_version", CHECKPOINT_VERSION)
        .field("schema_version", schema_version)
        .field("next_campaign", next_campaign)
        .to_string_compact()
}

fn end_line(campaigns: usize) -> String {
    Json::obj()
        .field("type", "end")
        .field("campaigns", campaigns)
        .to_string_compact()
}

impl Snapshot {
    #[cfg(test)]
    fn render(&self) -> String {
        let mut out = header_line(self.schema_version, self.next_campaign);
        out.push('\n');
        for c in &self.campaigns {
            out.push_str(&c.to_line());
            out.push('\n');
        }
        out.push_str(&end_line(self.campaigns.len()));
        out.push('\n');
        out
    }

    fn parse(text: &str) -> Result<Snapshot, String> {
        let mut lines = text.lines().filter(|l| !l.trim().is_empty());
        let header_line = lines.next().ok_or("snapshot is empty")?;
        let header = json::parse(header_line).map_err(|e| format!("bad header: {e}"))?;
        if header.get("type").and_then(Json::as_str) != Some("server") {
            return Err("first line is not a server header".into());
        }
        let version = header
            .get("checkpoint_version")
            .and_then(Json::as_u64)
            .ok_or("header: missing checkpoint_version")?;
        if version != CHECKPOINT_VERSION {
            return Err(format!(
                "checkpoint version {version} (this binary reads {CHECKPOINT_VERSION})"
            ));
        }
        let schema_version = header
            .get("schema_version")
            .and_then(Json::as_u64)
            .ok_or("header: missing schema_version")?;
        let next_campaign = header
            .get("next_campaign")
            .and_then(Json::as_u64)
            .ok_or("header: missing next_campaign")?;
        let mut campaigns = Vec::new();
        let mut ended = false;
        for line in lines {
            if ended {
                return Err("content after the end marker".into());
            }
            let doc = json::parse(line).map_err(|e| format!("bad line: {e}"))?;
            match doc.get("type").and_then(Json::as_str) {
                Some("campaign") => campaigns.push(CampaignSnapshot::from_json(&doc)?),
                Some("end") => {
                    let count = doc
                        .get("campaigns")
                        .and_then(Json::as_u64)
                        .ok_or("end marker: missing campaign count")?;
                    if count as usize != campaigns.len() {
                        return Err(format!(
                            "end marker says {count} campaigns, found {}",
                            campaigns.len()
                        ));
                    }
                    ended = true;
                }
                other => return Err(format!("unexpected line type {other:?}")),
            }
        }
        if !ended {
            return Err("snapshot has no end marker (torn write)".into());
        }
        Ok(Snapshot {
            schema_version,
            next_campaign,
            campaigns,
        })
    }
}

/// Write `snapshot` to `path` atomically: temp file + fsync, rotate
/// the old snapshot to `.prev`, rename into place.
pub fn save(path: &Path, snapshot: &Snapshot) -> Result<(), String> {
    let lines = snapshot.campaigns.iter().map(|c| Ok(c.to_line()));
    save_lines(path, snapshot.schema_version, snapshot.next_campaign, lines).map(|_| ())
}

/// Where one campaign line sits in a snapshot file (newline
/// excluded).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LineSpan {
    pub offset: u64,
    pub len: u64,
}

/// [`save`] from campaign lines ([`CampaignSnapshot::to_line`])
/// produced one at a time — a daemon copies a finished campaign's
/// line rather than re-serializing its rows — returning where each
/// landed in the new snapshot. A line source failing aborts the save
/// before anything is renamed.
pub fn save_lines<L: AsRef<str>>(
    path: &Path,
    schema_version: u64,
    next_campaign: u64,
    lines: impl Iterator<Item = Result<L, String>>,
) -> Result<Vec<LineSpan>, String> {
    let tmp = tmp_path(path);
    let mut spans = Vec::new();
    {
        let file = fs::File::create(&tmp).map_err(|e| format!("create {}: {e}", tmp.display()))?;
        let mut out = BufWriter::new(file);
        let mut offset = 0u64;
        let mut write = |line: &str| -> Result<LineSpan, String> {
            out.write_all(line.as_bytes())
                .and_then(|()| out.write_all(b"\n"))
                .map_err(|e| format!("write {}: {e}", tmp.display()))?;
            let span = LineSpan {
                offset,
                len: line.len() as u64,
            };
            offset += span.len + 1;
            Ok(span)
        };
        write(&header_line(schema_version, next_campaign))?;
        for line in lines {
            spans.push(write(line?.as_ref())?);
        }
        write(&end_line(spans.len()))?;
        let file = out
            .into_inner()
            .map_err(|e| format!("write {}: {e}", tmp.display()))?;
        file.sync_all()
            .map_err(|e| format!("sync {}: {e}", tmp.display()))?;
    }
    let rotated = path.exists();
    if rotated {
        fs::rename(path, prev_path(path)).map_err(|e| format!("rotate {}: {e}", path.display()))?;
    }
    if let Err(e) = fs::rename(&tmp, path) {
        // Put the old snapshot back: a caller that failed to save
        // still finds its previous snapshot where it left it.
        if rotated {
            let _ = fs::rename(prev_path(path), path);
        }
        return Err(format!("rename {}: {e}", tmp.display()));
    }
    // Make the renames durable before anyone empties the journal on
    // the strength of this snapshot.
    sync_parent(path);
    Ok(spans)
}

/// Make a create or rename in `path`'s directory durable. Best effort:
/// not every platform can open a directory for syncing.
fn sync_parent(path: &Path) {
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        if let Ok(dir) = fs::File::open(dir) {
            let _ = dir.sync_all();
        }
    }
}

/// Read back one line [`save_lines`] wrote, from an open snapshot.
pub fn read_line(file: &mut fs::File, span: LineSpan) -> Result<String, String> {
    let mut buf = vec![0u8; span.len as usize];
    file.seek(SeekFrom::Start(span.offset))
        .and_then(|_| file.read_exact(&mut buf))
        .map_err(|e| format!("read snapshot line: {e}"))?;
    String::from_utf8(buf).map_err(|e| format!("snapshot line is not UTF-8: {e}"))
}

/// The append-only submit journal: one fsynced campaign line per
/// acked submit since the last snapshot.
#[derive(Debug)]
pub struct Journal {
    file: fs::File,
    path: PathBuf,
    /// Bytes of whole records; a failed append truncates back here
    /// so a partial line never precedes the next record.
    len: u64,
}

impl Journal {
    /// Open (creating if needed) the journal of the snapshot at
    /// `path` for appending.
    pub fn open(path: &Path) -> Result<Journal, String> {
        let path = journal_path(path);
        let file = fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)
            .map_err(|e| format!("open {}: {e}", path.display()))?;
        let len = file
            .metadata()
            .map_err(|e| format!("stat {}: {e}", path.display()))?
            .len();
        sync_parent(&path);
        Ok(Journal { file, path, len })
    }

    /// Append one campaign record and fsync it. Once this returns
    /// `Ok`, a restarted daemon knows the campaign.
    pub fn append(&mut self, campaign: &CampaignSnapshot) -> Result<(), String> {
        let mut line = campaign.to_line();
        line.push('\n');
        let written = self
            .file
            .write_all(line.as_bytes())
            .and_then(|()| self.file.sync_data());
        match written {
            Ok(()) => {
                self.len += line.len() as u64;
                Ok(())
            }
            Err(e) => {
                let _ = self.file.set_len(self.len);
                Err(format!("append {}: {e}", self.path.display()))
            }
        }
    }

    /// Forget every record: the snapshot just saved covers them.
    pub fn clear(&mut self) -> Result<(), String> {
        self.file
            .set_len(0)
            .map_err(|e| format!("truncate {}: {e}", self.path.display()))?;
        self.len = 0;
        Ok(())
    }

    /// Size of the journal's whole records, in bytes.
    pub fn len(&self) -> u64 {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

/// The journal's records, plus whether a torn tail was dropped.
/// `Ok(None)` when there is no journal file.
fn read_journal(path: &Path) -> Result<Option<(Vec<CampaignSnapshot>, bool)>, String> {
    let path = journal_path(path);
    let text = match fs::read_to_string(&path) {
        Ok(text) => text,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(format!("read {}: {e}", path.display())),
    };
    let mut records = Vec::new();
    let mut rest = text.as_str();
    while !rest.is_empty() {
        let Some(end) = rest.find('\n') else {
            // No newline: the append that wrote this never finished.
            return Ok(Some((records, true)));
        };
        let line = &rest[..end];
        rest = &rest[end + 1..];
        let parsed = json::parse(line)
            .map_err(|e| format!("bad JSON: {e}"))
            .and_then(|doc| match doc.get("type").and_then(Json::as_str) {
                Some("campaign") => CampaignSnapshot::from_json(&doc),
                other => Err(format!("unexpected record type {other:?}")),
            });
        match parsed {
            Ok(record) => records.push(record),
            Err(_) if rest.is_empty() => return Ok(Some((records, true))),
            Err(e) => {
                return Err(format!(
                    "journal {} is corrupt before its tail (record {}): {e}",
                    path.display(),
                    records.len() + 1
                ))
            }
        }
    }
    Ok(Some((records, false)))
}

/// Load the snapshot at `path`, falling back to `<path>.prev` if the
/// main file is torn or unreadable — in which case the torn main is
/// quarantined to `<path>.torn` so a subsequent [`save`] cannot
/// rotate it over the good `.prev`. `Ok(None)` means no snapshot
/// exists at all (a fresh daemon). `Err` means snapshots exist but
/// none is readable — the operator must intervene rather than
/// silently restart the world.
pub fn load(path: &Path) -> Result<Option<LoadedSnapshot>, String> {
    let loaded = load_snapshot(path)?;
    let Some((records, torn)) = read_journal(path)? else {
        return Ok(loaded);
    };
    // A journal with no snapshot under it belongs to a daemon that
    // was killed before its first snapshot: replay onto an empty one.
    let mut loaded = loaded.unwrap_or(LoadedSnapshot {
        snapshot: Snapshot {
            schema_version: sfence_harness::SCHEMA_VERSION,
            next_campaign: 1,
            campaigns: Vec::new(),
        },
        fallback: false,
        journal_replayed: 0,
        journal_torn: false,
    });
    loaded.journal_torn = torn;
    for record in records {
        // Ids below `next_campaign` are already in the snapshot (or
        // were evicted after it was taken).
        if record.id >= loaded.snapshot.next_campaign {
            loaded.snapshot.next_campaign = record.id + 1;
            loaded.snapshot.campaigns.push(record);
            loaded.journal_replayed += 1;
        }
    }
    Ok(Some(loaded))
}

fn load_snapshot(path: &Path) -> Result<Option<LoadedSnapshot>, String> {
    let loaded = |snapshot, fallback| {
        Some(LoadedSnapshot {
            snapshot,
            fallback,
            journal_replayed: 0,
            journal_torn: false,
        })
    };
    let main = read_snapshot(path);
    match main {
        Some(Ok(snapshot)) => Ok(loaded(snapshot, false)),
        Some(Err(main_err)) => match read_snapshot(&prev_path(path)) {
            Some(Ok(snapshot)) => {
                quarantine_torn(path)?;
                Ok(loaded(snapshot, true))
            }
            Some(Err(prev_err)) => Err(format!(
                "checkpoint {} unreadable ({main_err}); fallback {} also unreadable ({prev_err})",
                path.display(),
                prev_path(path).display()
            )),
            None => Err(format!(
                "checkpoint {} unreadable ({main_err}) and no fallback exists",
                path.display()
            )),
        },
        None => match read_snapshot(&prev_path(path)) {
            Some(Ok(snapshot)) => Ok(loaded(snapshot, true)),
            Some(Err(prev_err)) => Err(format!(
                "no checkpoint at {} and fallback {} is unreadable ({prev_err})",
                path.display(),
                prev_path(path).display()
            )),
            None => Ok(None),
        },
    }
}

/// `None` = file absent; `Some(Err)` = present but unreadable/torn.
fn read_snapshot(path: &Path) -> Option<Result<Snapshot, String>> {
    match fs::read_to_string(path) {
        Ok(text) => Some(Snapshot::parse(&text)),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => None,
        Err(e) => Some(Err(format!("read {}: {e}", path.display()))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snapshot(next: u64, ids: &[u64]) -> Snapshot {
        Snapshot {
            schema_version: 4,
            next_campaign: next,
            campaigns: ids
                .iter()
                .map(|&id| CampaignSnapshot {
                    id,
                    spec: ExperimentSpec::new("smoke"),
                    priority: id,
                    served: id * 10,
                    fingerprint: format!("fp-{id}"),
                    job_count: 8,
                    queue: Json::obj()
                        .field("jobs", 8u64)
                        .field("done", Json::Arr(vec![]))
                        .field("leased", Json::Arr(vec![])),
                })
                .collect(),
        }
    }

    fn tmp_dir(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("sfence-ckpt-{name}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn snapshots_round_trip() {
        let snap = snapshot(5, &[1, 3]);
        let parsed = Snapshot::parse(&snap.render()).unwrap();
        assert_eq!(parsed, snap);
    }

    #[test]
    fn save_load_and_prev_rotation() {
        let dir = tmp_dir("rotate");
        let path = dir.join("ckpt.jsonl");
        let s1 = snapshot(2, &[1]);
        let s2 = snapshot(3, &[1, 2]);
        save(&path, &s1).unwrap();
        save(&path, &s2).unwrap();
        let loaded = load(&path).unwrap().unwrap();
        assert!(!loaded.fallback);
        assert_eq!(loaded.snapshot, s2);
        // s1 rotated to .prev intact.
        let prev = read_snapshot(&prev_path(&path)).unwrap().unwrap();
        assert_eq!(prev, s1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn saved_lines_can_be_read_back_by_span() {
        let dir = tmp_dir("spans");
        let path = dir.join("ckpt.jsonl");
        let snap = snapshot(4, &[1, 2, 3]);
        let lines: Vec<String> = snap.campaigns.iter().map(|c| c.to_line()).collect();
        let spans = save_lines(&path, 4, 4, lines.iter().map(Ok)).unwrap();
        assert_eq!(load(&path).unwrap().unwrap().snapshot, snap);
        let mut file = fs::File::open(&path).unwrap();
        for (line, span) in lines.iter().zip(spans).rev() {
            assert_eq!(&read_line(&mut file, span).unwrap(), line);
        }
        // A failing line source aborts before the rename.
        let failing = [Ok("x".to_string()), Err("gone".to_string())];
        assert_eq!(
            save_lines(&path, 4, 9, failing.into_iter()).unwrap_err(),
            "gone"
        );
        assert_eq!(load(&path).unwrap().unwrap().snapshot, snap);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_main_snapshot_falls_back_to_prev() {
        let dir = tmp_dir("torn");
        let path = dir.join("ckpt.jsonl");
        let s1 = snapshot(2, &[1]);
        let s2 = snapshot(3, &[1, 2]);
        save(&path, &s1).unwrap();
        save(&path, &s2).unwrap();
        // Tear the main file: drop its end marker.
        let text = fs::read_to_string(&path).unwrap();
        let torn: String = text.lines().take(2).map(|l| format!("{l}\n")).collect();
        fs::write(&path, torn).unwrap();
        let loaded = load(&path).unwrap().unwrap();
        assert!(loaded.fallback, "fell back to .prev");
        assert_eq!(loaded.snapshot, s1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn fallback_quarantines_torn_main_so_the_next_save_keeps_prev_good() {
        let dir = tmp_dir("quarantine");
        let path = dir.join("ckpt.jsonl");
        let s1 = snapshot(2, &[1]);
        let s2 = snapshot(3, &[1, 2]);
        let s3 = snapshot(4, &[1, 2, 3]);
        save(&path, &s1).unwrap();
        save(&path, &s2).unwrap();
        // Tear the main file, then load: the fallback must move the
        // torn main aside...
        let torn: String = fs::read_to_string(&path)
            .unwrap()
            .lines()
            .take(2)
            .map(|l| format!("{l}\n"))
            .collect();
        fs::write(&path, &torn).unwrap();
        let loaded = load(&path).unwrap().unwrap();
        assert!(loaded.fallback);
        assert_eq!(loaded.snapshot, s1);
        assert!(!path.exists(), "torn main moved out of the rotation path");
        assert_eq!(fs::read_to_string(torn_path(&path)).unwrap(), torn);
        // ...so the first post-recovery save does not rotate garbage
        // over the only good snapshot: .prev still parses (it keeps
        // s1; rotation was skipped because main was quarantined).
        save(&path, &s3).unwrap();
        let prev = read_snapshot(&prev_path(&path)).unwrap().unwrap();
        assert_eq!(prev, s1);
        let loaded = load(&path).unwrap().unwrap();
        assert!(!loaded.fallback);
        assert_eq!(loaded.snapshot, s3);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn both_snapshots_torn_is_an_error_not_a_fresh_start() {
        let dir = tmp_dir("both-torn");
        let path = dir.join("ckpt.jsonl");
        save(&path, &snapshot(2, &[1])).unwrap();
        save(&path, &snapshot(3, &[1, 2])).unwrap();
        fs::write(&path, "garbage\n").unwrap();
        fs::write(prev_path(&path), "also garbage\n").unwrap();
        assert!(load(&path).is_err());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_snapshot_is_a_fresh_start() {
        let dir = tmp_dir("fresh");
        assert!(load(&dir.join("ckpt.jsonl")).unwrap().is_none());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn end_marker_count_mismatch_is_torn() {
        let snap = snapshot(3, &[1, 2]);
        let mut text: Vec<String> = snap.render().lines().map(str::to_string).collect();
        text.remove(1); // drop one campaign line, keep the end marker
        let joined = text.join("\n");
        let err = Snapshot::parse(&joined).unwrap_err();
        assert!(err.contains("end marker says"), "{err}");
    }

    fn record(id: u64) -> CampaignSnapshot {
        snapshot(id + 1, &[id]).campaigns.remove(0)
    }

    #[test]
    fn journal_replays_on_top_of_the_snapshot_idempotently() {
        let dir = tmp_dir("journal");
        let path = dir.join("ckpt.jsonl");
        save(&path, &snapshot(3, &[1, 2])).unwrap();
        let mut journal = Journal::open(&path).unwrap();
        // c2 is already in the snapshot (a crash between a compaction
        // and its journal clear): replay must skip it.
        for id in [2, 3, 4] {
            journal.append(&record(id)).unwrap();
        }
        let loaded = load(&path).unwrap().unwrap();
        assert!(!loaded.journal_torn);
        assert_eq!(loaded.journal_replayed, 2);
        assert_eq!(loaded.snapshot.next_campaign, 5);
        let ids: Vec<u64> = loaded.snapshot.campaigns.iter().map(|c| c.id).collect();
        assert_eq!(ids, [1, 2, 3, 4]);
        assert_eq!(loaded.snapshot.campaigns[3], record(4));
        // Compaction: a snapshot covering everything, then clear.
        save(&path, &loaded.snapshot).unwrap();
        journal.clear().unwrap();
        assert!(journal.is_empty());
        let again = load(&path).unwrap().unwrap();
        assert_eq!(again.journal_replayed, 0);
        assert_eq!(again.snapshot, loaded.snapshot);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_journal_tail_is_detected_and_dropped() {
        let dir = tmp_dir("journal-torn");
        let path = dir.join("ckpt.jsonl");
        save(&path, &snapshot(2, &[1])).unwrap();
        let mut journal = Journal::open(&path).unwrap();
        journal.append(&record(2)).unwrap();
        let whole = journal.len() as usize;
        journal.append(&record(3)).unwrap();
        // Cut the last record short: the append a crash interrupted.
        let text = fs::read_to_string(journal_path(&path)).unwrap();
        for cut in [whole + 1, whole + 40, text.len() - 1] {
            fs::write(journal_path(&path), &text[..cut]).unwrap();
            let loaded = load(&path).unwrap().unwrap();
            assert!(loaded.journal_torn, "cut at {cut}");
            let ids: Vec<u64> = loaded.snapshot.campaigns.iter().map(|c| c.id).collect();
            assert_eq!(ids, [1, 2], "cut at {cut}");
            assert_eq!(loaded.snapshot.next_campaign, 3);
        }
        // Damage before the tail is corruption, not a torn append.
        let mut damaged = text.clone();
        damaged.replace_range(2..6, "!!!!");
        fs::write(journal_path(&path), damaged).unwrap();
        let err = load(&path).unwrap_err();
        assert!(err.contains("corrupt"), "{err}");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn journal_without_a_snapshot_replays_onto_an_empty_one() {
        let dir = tmp_dir("journal-only");
        let path = dir.join("ckpt.jsonl");
        Journal::open(&path).unwrap().append(&record(1)).unwrap();
        let loaded = load(&path).unwrap().unwrap();
        assert_eq!(loaded.snapshot.next_campaign, 2);
        assert_eq!(loaded.snapshot.campaigns, vec![record(1)]);
        let _ = fs::remove_dir_all(&dir);
    }
}
