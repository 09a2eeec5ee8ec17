//! The long-lived sweep service: one daemon, many concurrent
//! campaigns, many clients.
//!
//! Where `coordinator::serve` runs one experiment and exits, the
//! server keeps a *campaign table*: every `submit` registers a new
//! campaign (spec + priority weight + its own [`JobQueue`]), workers
//! lease cells across all running campaigns through the
//! [`crate::scheduler::FairShare`] scheduler, and `fetch` clients
//! poll campaigns by id and stream the merged rows once complete.
//! Three invariants hold throughout:
//!
//! - **Byte-identical merges.** Each campaign's rows are completed
//!   into its own queue and merged with
//!   `SweepResult::from_indexed`, exactly like a single-process
//!   `run_parallel()` — interleaving with other campaigns cannot
//!   perturb the output.
//! - **Kill-safe.** With `--checkpoint`, the campaign table (specs,
//!   priorities, fair-share accounting, done rows) is snapshotted to
//!   an atomic-rename JSONL file ([`crate::checkpoint`]); a restarted
//!   daemon resumes every in-flight campaign under the *same ids*.
//!   A submit is acked only after its campaign is fsynced to the
//!   checkpoint's journal — one record, whatever the daemon retains —
//!   and a submit whose record cannot be written is rejected, so a
//!   campaign the client knows about is never lost. Completed
//!   campaigns are retained until `retain_fetched_ms` after their rows
//!   were first fetched (never-fetched campaigns are kept), bounding
//!   a persistent daemon's memory and checkpoint growth.
//! - **Authenticated.** With a shared token configured, every
//!   opening message (`hello`, `submit`, `fetch`, `status_request`)
//!   must carry it; the comparison is constant-time
//!   ([`token_matches`]) so the token can't be guessed byte by byte
//!   from timing.
//!
//! The daemon is event-driven: the accept loop blocks in `accept`, a
//! worker `request` with nothing pending parks on a condition
//! variable until a submit, a released or expired lease, or shutdown
//! makes it answerable, and housekeeping (lease expiry, retention,
//! periodic snapshots, metrics history) runs on its own thread,
//! sleeping until its next deadline. No timer sits between a submit
//! and the lease that serves it.
//!
//! A campaign's fixed cost does not grow with the campaigns served
//! before it: a completed campaign collapses to its checkpoint line
//! (rendered once — it is immutable from then on) and leaves the
//! scheduler, so leasing, acking and status rendering stay
//! proportional to the *running* campaigns plus one line per retained
//! one.

use crate::checkpoint::{self, CampaignSnapshot, Journal, LineSpan};
use crate::protocol::{
    write_msg, write_status, CampaignState, FrameError, FrameReader, Msg, PROTOCOL_VERSION,
    RESULT_CHUNK_ROWS,
};
use crate::scheduler::FairShare;
use crate::spec::{ExperimentSpec, Registry};
use sfence_harness::experiment::SweepRow;
use sfence_harness::json::{self, Json};
use sfence_harness::{Experiment, IndexedRow, JobQueue, SCHEMA_VERSION};
use sfence_obs::log::{
    EventLog, LogLevel, RotatingWriter, DEFAULT_LOG_MAX_BYTES, DEFAULT_LOG_MAX_FILES,
};
use sfence_obs::{HistogramSnapshot, Metric, MetricValue, SparseHistogram};
use std::collections::{BTreeMap, VecDeque};
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// A worker whose per-cell p99 exceeds this multiple of the fleet's
/// median per-cell latency is flagged as a straggler in the `status`
/// frame (`worker_straggler` gauge).
pub const STRAGGLER_FACTOR: f64 = 4.0;

/// Minimum per-worker sample count before straggler flagging kicks
/// in — a worker's first lease or two is warmup, not evidence.
pub const STRAGGLER_MIN_SAMPLES: u64 = 8;

/// Longest a worker `request` stays parked waiting for a lease before
/// the server answers `wait {ms: 0}`. Well under any worker's silence
/// window (the shortest in use is 5 s), so a parked worker never
/// mistakes the park for a dead coordinator.
pub const PARK_MS: u64 = 1000;

/// How often a connection blocked in a read re-checks the stop flag
/// and its handshake deadline. Reads return the moment a frame
/// arrives; this only bounds how long an *idle* connection takes to
/// notice shutdown.
const READ_TICK_MS: u64 = 50;

/// How often housekeeping polls [`ServerOpts::shutdown`] — an
/// external flag nobody can notify on.
const SHUTDOWN_POLL_MS: u64 = 50;

/// Longest housekeeping sleeps when nothing is due sooner.
const IDLE_TICK_MS: u64 = 1000;

/// How long a one-shot server keeps answering `done` to workers that
/// connect after it returned (see [`answer_late_workers`]).
const LATE_WORKER_GRACE_MS: u64 = 10_000;

/// How long a connection given a final frame may take to close its
/// end before the server drops it.
const LINGER: Duration = Duration::from_secs(1);

/// Tunables of one [`run_server`] call.
#[derive(Debug, Clone)]
pub struct ServerOpts {
    /// Cells per lease when the worker doesn't ask for a batch size
    /// (`request.batch == 0`).
    pub default_lease: usize,
    /// Upper bound on `--lease-batch`: a worker may ask for at most
    /// this many cells per frame.
    pub max_lease: usize,
    /// How long a silent (non-heartbeating) worker keeps its leases.
    pub lease_ttl_ms: u64,
    /// Suppress per-connection progress lines on stderr.
    pub quiet: bool,
    /// Shared auth token. `None` = open daemon (loopback testing);
    /// `Some` = every opening message must present the same token.
    pub token: Option<String>,
    /// Snapshot file for kill/restart resume. `None` disables
    /// checkpointing.
    pub checkpoint: Option<PathBuf>,
    /// Minimum interval between periodic snapshots. 0 = rewrite the
    /// snapshot after every mutation (slow, but the CI kill-test
    /// wants zero replay). Submits are durable through the journal
    /// either way.
    pub checkpoint_every_ms: u64,
    /// Deadline for a connection's *opening* message. A peer that
    /// connects and says nothing (port scanner, half-open TCP) is
    /// dropped after this long instead of pinning a handler thread
    /// for the daemon's lifetime. 0 = wait forever.
    pub handshake_timeout_ms: u64,
    /// Retention for completed campaigns: evict a campaign (rows and
    /// all) this long after its merged rows were first successfully
    /// fetched, so a persistent daemon's memory and checkpoint don't
    /// grow without bound. Never-fetched campaigns are kept — a
    /// client that knows the id can always come back for it. 0 =
    /// keep everything forever.
    pub retain_fetched_ms: u64,
    /// One-shot mode: exit once every campaign is complete (and at
    /// least one exists). The daemon CLI leaves this false and runs
    /// until killed.
    pub exit_when_done: bool,
    /// Externally-set kill switch (tests, `sfence-sweep --workers`'s
    /// all-workers-died detector).
    pub shutdown: Option<Arc<AtomicBool>>,
    /// Event logger for lifecycle events (stderr + optional JSONL
    /// file + flight recorder). `None` = the server builds a
    /// stderr-only logger whose verbosity follows `quiet`.
    pub log: Option<Arc<EventLog>>,
    /// Append a `MetricsReport` snapshot to this rotated JSONL file
    /// every `metrics_interval_ms`. `None` disables the history.
    pub metrics_log: Option<PathBuf>,
    /// Interval between metrics-history snapshots.
    pub metrics_interval_ms: u64,
    /// Rotation threshold for the metrics history file.
    pub metrics_max_bytes: u64,
}

impl Default for ServerOpts {
    fn default() -> ServerOpts {
        ServerOpts {
            default_lease: 4,
            max_lease: 1024,
            lease_ttl_ms: 30_000,
            quiet: false,
            token: None,
            checkpoint: None,
            checkpoint_every_ms: 1000,
            handshake_timeout_ms: 10_000,
            retain_fetched_ms: 600_000,
            exit_when_done: false,
            shutdown: None,
            log: None,
            metrics_log: None,
            metrics_interval_ms: 10_000,
            metrics_max_bytes: DEFAULT_LOG_MAX_BYTES,
        }
    }
}

/// One completed-or-not campaign in the [`ServerOutcome`].
#[derive(Debug)]
pub struct FinishedCampaign {
    pub id: u64,
    pub experiment: String,
    pub job_count: usize,
    pub done: usize,
    pub complete: bool,
    /// Every job's row, index-tagged — present only when the campaign
    /// is complete and no client fetched it (rows a client already
    /// collected are not copied out again).
    pub rows: Vec<IndexedRow>,
}

/// What the server did over its lifetime, for the one-shot wrapper
/// and tests.
#[derive(Debug)]
pub struct ServerOutcome {
    pub workers: u64,
    pub executed: u64,
    pub cache_hits: u64,
    pub released: u64,
    pub rejected: u64,
    pub campaigns: Vec<FinishedCampaign>,
    /// True when the shutdown flag (not campaign completion) ended
    /// the run.
    pub aborted: bool,
}

/// Constant-time token check. The fold touches every byte of the
/// longer input regardless of where the first mismatch sits, so
/// response timing leaks nothing about the prefix a guess got right.
pub fn token_matches(expected: &str, presented: Option<&str>) -> bool {
    let presented = presented.unwrap_or("");
    let a = expected.as_bytes();
    let b = presented.as_bytes();
    let len = a.len().max(b.len());
    let mut diff = (a.len() ^ b.len()) as u8;
    for i in 0..len {
        let x = a.get(i).copied().unwrap_or(0);
        let y = b.get(i).copied().unwrap_or(0);
        diff |= x ^ y;
    }
    diff == 0
}

/// A running campaign's working state. The [`Experiment`] itself is
/// *not* stored — workers resolve specs themselves; the server only
/// needs job counts and fingerprints.
struct Live {
    spec: ExperimentSpec,
    /// `spec.to_json()`, pre-rendered once for lease frames.
    spec_json: Json,
    fingerprint: String,
    queue: JobQueue<SweepRow>,
}

enum Body {
    Running(Box<Live>),
    /// A finished campaign is immutable, so it is kept as nothing but
    /// its checkpoint line — spec, fingerprint and every row — which
    /// snapshots copy verbatim and fetches parse back into rows.
    Complete(Arc<str>),
    /// A finished campaign whose line is in the current snapshot file:
    /// once a snapshot holds it, memory keeps only where. Snapshots
    /// copy it from the old file to the new one; fetches read it back.
    Spilled(LineSpan),
}

/// A campaign's line as a snapshot captures it.
enum Captured {
    Text(Arc<str>),
    OnDisk(LineSpan),
}

struct Campaign {
    id: u64,
    experiment: String,
    priority: u64,
    job_count: usize,
    /// Server-clock ms when the campaign was registered (or restored).
    started_ms: u64,
    /// Server-clock ms of the first successful *complete* fetch —
    /// the retention clock. Not persisted: a restarted daemon starts
    /// the clock afresh, which only ever keeps campaigns longer.
    fetched_at_ms: Option<u64>,
    /// This campaign's `lease_grant_ms` / `cell_wall_ms` series,
    /// kept beside it (and dropped with it) in the sparse form.
    lease_grant: SparseHistogram,
    cell_wall: SparseHistogram,
    body: Body,
}

impl Campaign {
    fn new(
        id: u64,
        spec: ExperimentSpec,
        fingerprint: String,
        job_count: usize,
        priority: u64,
        now: u64,
    ) -> Campaign {
        Campaign {
            id,
            experiment: spec.experiment.clone(),
            priority,
            job_count,
            started_ms: now,
            fetched_at_ms: None,
            lease_grant: SparseHistogram::default(),
            cell_wall: SparseHistogram::default(),
            body: Body::Running(Box::new(Live {
                spec_json: spec.to_json(),
                spec,
                fingerprint,
                queue: JobQueue::new(job_count),
            })),
        }
    }

    fn public_id(&self) -> String {
        format!("c{}", self.id)
    }

    fn live(&self) -> Option<&Live> {
        match &self.body {
            Body::Running(live) => Some(live),
            Body::Complete(_) | Body::Spilled(_) => None,
        }
    }

    fn is_complete(&self) -> bool {
        !matches!(self.body, Body::Running(_))
    }

    fn done(&self) -> usize {
        self.live().map_or(self.job_count, |l| l.queue.done())
    }

    fn pending(&self) -> usize {
        self.live().map_or(0, |l| l.queue.pending())
    }

    fn leased(&self) -> usize {
        self.live().map_or(0, |l| l.queue.leased())
    }

    /// The campaign's checkpoint line: the kept one once complete,
    /// rendered from the live queue before that.
    fn capture(&self, served: u64) -> Captured {
        match &self.body {
            Body::Running(live) => Captured::Text(live_line(self, live, served).into()),
            Body::Complete(line) => Captured::Text(Arc::clone(line)),
            Body::Spilled(span) => Captured::OnDisk(*span),
        }
    }

    /// Collapse a running campaign whose queue just filled into its
    /// line. `served` is final: a complete campaign is never leased.
    fn seal(&mut self, served: u64) {
        if let Body::Running(live) = &self.body {
            if live.queue.is_complete() {
                self.body = Body::Complete(live_line(self, live, served).into());
            }
        }
    }
}

fn live_line(c: &Campaign, live: &Live, served: u64) -> String {
    CampaignSnapshot {
        id: c.id,
        spec: live.spec.clone(),
        priority: c.priority,
        served,
        fingerprint: live.fingerprint.clone(),
        job_count: c.job_count as u64,
        queue: live.queue.to_json(SweepRow::to_json),
    }
    .to_line()
}

/// The rows of a complete campaign's checkpoint line, in job order.
fn line_rows(line: &str) -> Result<Vec<IndexedRow>, String> {
    let doc = json::parse(line).map_err(|e| format!("campaign line: {e}"))?;
    let queue = doc.get("queue").ok_or("campaign line: missing queue")?;
    Ok(JobQueue::from_json(queue, SweepRow::from_json)?
        .into_payloads()?
        .into_iter()
        .enumerate()
        .map(|(index, row)| IndexedRow { index, row })
        .collect())
}

/// Per-worker accounting behind the `status` frame.
#[derive(Debug, Default, Clone, Copy)]
struct WorkerStat {
    jobs: u64,
    executed: u64,
    cache_hits: u64,
}

/// Shared mutable state between the accept loop, housekeeping and
/// the per-connection handler threads.
struct Shared {
    next_campaign: u64,
    campaigns: BTreeMap<u64, Campaign>,
    /// Running campaigns only: a campaign leaves it on completion.
    scheduler: FairShare,
    workers: u64,
    executed: u64,
    cache_hits: u64,
    released: u64,
    rejected: u64,
    worker_stats: BTreeMap<String, WorkerStat>,
    /// Long-lived latency histograms (lease grant, per-cell wall
    /// time, frame handling, checkpoint saves), spliced into every
    /// `status` snapshot via [`sfence_obs::Registry::absorb`].
    hist: sfence_obs::Registry,
    /// Worker requests parked right now, waiting for a lease.
    parked: u64,
    /// `(first fetch ms, id)` of fetched complete campaigns, in fetch
    /// order — which is retention-expiry order.
    fetched: VecDeque<(u64, u64)>,
    /// Set on any mutation the checkpoint must capture; cleared when
    /// a snapshot captures the state.
    dirty: bool,
    last_checkpoint_ms: u64,
}

impl Shared {
    fn new() -> Shared {
        Shared {
            next_campaign: 1,
            campaigns: BTreeMap::new(),
            scheduler: FairShare::new(),
            workers: 0,
            executed: 0,
            cache_hits: 0,
            released: 0,
            rejected: 0,
            worker_stats: BTreeMap::new(),
            hist: sfence_obs::Registry::new(),
            parked: 0,
            fetched: VecDeque::new(),
            dirty: false,
            last_checkpoint_ms: 0,
        }
    }

    fn running(&mut self) -> impl Iterator<Item = &mut JobQueue<SweepRow>> {
        self.campaigns
            .values_mut()
            .filter_map(|c| match &mut c.body {
                Body::Running(live) => Some(&mut live.queue),
                Body::Complete(_) | Body::Spilled(_) => None,
            })
    }

    /// Expire stale leases across every running campaign's queue.
    fn expire_all(&mut self, now_ms: u64) -> usize {
        let expired: usize = self.running().map(|q| q.expire(now_ms)).sum();
        self.released += expired as u64;
        if expired > 0 {
            self.dirty = true;
        }
        expired
    }

    /// Release every lease `worker_key` holds, across all campaigns.
    fn release_worker(&mut self, worker_key: &str) -> usize {
        let released: usize = self.running().map(|q| q.release(worker_key)).sum();
        self.released += released as u64;
        if released > 0 {
            self.dirty = true;
        }
        released
    }

    fn all_complete(&self) -> bool {
        !self.campaigns.is_empty() && self.campaigns.values().all(Campaign::is_complete)
    }

    fn any_leased(&self) -> bool {
        self.campaigns.values().any(|c| c.leased() > 0)
    }

    /// Evict completed campaigns whose rows were first fetched more
    /// than `retain_ms` ago (0 = never evict), returning their ids.
    /// Eviction (which drops the campaign's status series with it)
    /// marks the state dirty so the next snapshot drops it from the
    /// checkpoint too.
    fn evict_fetched(&mut self, now_ms: u64, retain_ms: u64) -> Vec<u64> {
        let mut evicted = Vec::new();
        if retain_ms == 0 {
            return evicted;
        }
        while let Some(&(at, id)) = self.fetched.front() {
            if now_ms.saturating_sub(at) < retain_ms {
                break;
            }
            self.fetched.pop_front();
            if self.campaigns.remove(&id).is_some() {
                self.dirty = true;
                evicted.push(id);
            }
        }
        evicted
    }

    /// When the next retention eviction falls due, if any.
    fn next_eviction_ms(&self, retain_ms: u64) -> Option<u64> {
        (retain_ms > 0)
            .then(|| {
                self.fetched
                    .front()
                    .map(|&(at, _)| at.saturating_add(retain_ms))
            })
            .flatten()
    }

    fn insert(&mut self, campaign: Campaign) {
        let id = campaign.id;
        if !campaign.is_complete() {
            self.scheduler.add(id, campaign.priority);
        }
        self.campaigns.insert(id, campaign);
        self.dirty = true;
    }
}

/// The per-campaign status families, in name order: ten series per
/// retained campaign, the bulk of a busy daemon's report.
const CAMPAIGN_SERIES: [&str; 10] = [
    "campaign_cells_per_sec",
    "campaign_complete",
    "campaign_done",
    "campaign_info",
    "campaign_leased",
    "campaign_pending",
    "campaign_priority",
    "campaign_total",
    "cell_wall_ms",
    "lease_grant_ms",
];

fn rate(cells: u64, ms: u64) -> f64 {
    let secs = ms as f64 / 1000.0;
    if secs > 0.0 {
        cells as f64 / secs
    } else {
        0.0
    }
}

/// One campaign's series of `family` (`None` for a histogram it has
/// not observed into yet).
fn campaign_series(family: &str, id: &str, c: &Campaign, elapsed_ms: u64) -> Option<Metric> {
    let gauge = |v: f64| Some(MetricValue::Gauge(v));
    let hist = |h: &SparseHistogram| {
        (h.count() > 0).then(|| MetricValue::Histogram(Box::new(h.snapshot())))
    };
    let value = match family {
        "campaign_cells_per_sec" => gauge(rate(
            c.done() as u64,
            elapsed_ms.saturating_sub(c.started_ms),
        )),
        "campaign_complete" => gauge(if c.is_complete() { 1.0 } else { 0.0 }),
        "campaign_done" => gauge(c.done() as f64),
        "campaign_info" => gauge(1.0),
        "campaign_leased" => gauge(c.leased() as f64),
        "campaign_pending" => gauge(c.pending() as f64),
        "campaign_priority" => gauge(c.priority as f64),
        "campaign_total" => gauge(c.job_count as f64),
        "cell_wall_ms" => hist(&c.cell_wall),
        "lease_grant_ms" => hist(&c.lease_grant),
        other => unreachable!("unknown campaign series {other}"),
    }?;
    let mut labels = vec![("campaign".to_string(), id.to_string())];
    if family == "campaign_info" {
        labels.push(("experiment".to_string(), c.experiment.clone()));
    }
    Some(Metric {
        name: family.to_string(),
        labels,
        value,
    })
}

/// Merge two metric streams, each sorted by `(name, labels)`.
fn merge_sorted(
    a: impl Iterator<Item = Metric>,
    b: impl Iterator<Item = Metric>,
) -> impl Iterator<Item = Metric> {
    let (mut a, mut b) = (a.peekable(), b.peekable());
    std::iter::from_fn(move || match (a.peek(), b.peek()) {
        (Some(x), Some(y)) if (&y.name, &y.labels) < (&x.name, &x.labels) => b.next(),
        (Some(_), _) => a.next(),
        (None, _) => b.next(),
    })
}

/// The live service snapshot a `status_request` probe gets back (and
/// the metrics history records), as report JSON text. The aggregate
/// series keep their v2 names (dashboards and CI grep them); v3 adds
/// per-campaign series labeled by campaign id, latency histograms
/// (`*_ms` series with p50/p95/p99 buckets), and `worker_straggler`
/// flags.
///
/// The fleet-wide series go through a registry; the per-campaign
/// ones are generated straight from the campaign table in export
/// order and merged in, so the report is rendered without ever
/// holding a second copy of every campaign's series.
fn status_text(s: &Shared, elapsed_ms: u64) -> String {
    let mut reg = sfence_obs::Registry::new();
    let (mut jobs, mut done, mut pending, mut leased) = (0, 0, 0, 0);
    for c in s.campaigns.values() {
        jobs += c.job_count;
        done += c.done();
        pending += c.pending();
        leased += c.leased();
    }
    reg.gauge("queue_jobs_total", &[], jobs as f64);
    reg.gauge("queue_done", &[], done as f64);
    reg.gauge("queue_pending", &[], pending as f64);
    reg.gauge("queue_active_leases", &[], leased as f64);
    reg.gauge("uptime_ms", &[], elapsed_ms as f64);
    reg.gauge("cells_per_sec", &[], rate(done as u64, elapsed_ms));
    let completed = s.campaigns.values().filter(|c| c.is_complete()).count();
    reg.gauge(
        "campaigns_active",
        &[],
        (s.campaigns.len() - completed) as f64,
    );
    reg.gauge("campaigns_completed", &[], completed as f64);
    reg.gauge("campaigns_known", &[], s.campaigns.len() as f64);
    reg.gauge("requests_parked", &[], s.parked as f64);
    reg.counter("workers_connected", &[], s.workers);
    reg.counter("cells_executed", &[], s.executed);
    reg.counter("cache_hits", &[], s.cache_hits);
    reg.counter("leases_released", &[], s.released);
    reg.counter("connections_rejected", &[], s.rejected);
    for (key, stat) in &s.worker_stats {
        let labels = [("worker", key.as_str())];
        reg.counter("worker_jobs", &labels, stat.jobs);
        reg.counter("worker_executed", &labels, stat.executed);
        reg.counter("worker_cache_hits", &labels, stat.cache_hits);
        reg.gauge("worker_cells_per_sec", &labels, rate(stat.jobs, elapsed_ms));
    }
    // Latency histograms accumulated since startup, plus straggler
    // flags derived from them: a worker whose per-cell p99 exceeds
    // STRAGGLER_FACTOR × the fleet's median per-cell p50 is flagged.
    reg.absorb(&s.hist);
    let worker_cells = |key: &str| -> Option<HistogramSnapshot> {
        s.hist.histogram_value("cell_wall_ms", &[("worker", key)])
    };
    let mut fleet_p50s: Vec<f64> = s
        .worker_stats
        .keys()
        .filter_map(|key| worker_cells(key))
        .filter(|h| h.count > 0)
        .map(|h| h.p50())
        .collect();
    fleet_p50s.sort_by(|a, b| a.total_cmp(b));
    let fleet_median = if fleet_p50s.is_empty() {
        0.0
    } else {
        fleet_p50s[fleet_p50s.len() / 2]
    };
    for key in s.worker_stats.keys() {
        let Some(h) = worker_cells(key) else {
            continue;
        };
        let straggler = h.count >= STRAGGLER_MIN_SAMPLES
            && fleet_median > 0.0
            && h.p99() > STRAGGLER_FACTOR * fleet_median;
        reg.gauge(
            "worker_straggler",
            &[("worker", key.as_str())],
            if straggler { 1.0 } else { 0.0 },
        );
    }
    let fleet = reg.into_snapshot("coordinator").metrics;
    // Label values order as strings ("c10" < "c9"), like the registry.
    let mut ids: Vec<(String, &Campaign)> =
        s.campaigns.values().map(|c| (c.public_id(), c)).collect();
    ids.sort_unstable_by(|a, b| a.0.cmp(&b.0));
    let per_campaign = CAMPAIGN_SERIES.iter().flat_map(|family| {
        ids.iter()
            .filter_map(move |(id, c)| campaign_series(family, id, c, elapsed_ms))
    });
    sfence_obs::metrics::report_json_text(
        "coordinator",
        merge_sorted(fleet.into_iter(), per_campaign),
    )
}

/// Everything the daemon's threads share.
struct Service<'a> {
    state: Mutex<Shared>,
    /// Signalled whenever a parked `request` may now be answerable:
    /// a submit, a released or expired lease, stop.
    leasable: Condvar,
    /// Signalled when housekeeping has something due sooner than its
    /// sleep (a checkpoint that fell due, stop).
    housekeeping: Condvar,
    stop: AtomicBool,
    /// Serializes every write to the checkpoint files: journal
    /// appends and snapshot compactions. Lock order: `persist`, then
    /// `state`.
    persist: Mutex<Option<Journal>>,
    opts: &'a ServerOpts,
    registry: Option<Registry>,
    log: &'a EventLog,
    start: Instant,
    /// Where a throwaway connection wakes the blocking accept loop.
    wake_addr: Option<SocketAddr>,
}

/// Why every lock below may be taken with `expect`: a handler that
/// panicked mid-update leaves no state worth serving from.
const POISONED: &str = "daemon lock poisoned by a panicked thread";

impl Service<'_> {
    fn now_ms(&self) -> u64 {
        self.start.elapsed().as_millis() as u64
    }

    fn lock(&self) -> MutexGuard<'_, Shared> {
        self.state.lock().expect(POISONED)
    }

    fn stopping(&self) -> bool {
        self.stop.load(Ordering::SeqCst)
    }

    /// Stop the daemon: every parked request answers `done`,
    /// housekeeping returns, and the accept loop is woken out of its
    /// blocking `accept`. The flag is raised under the state lock so
    /// no thread can check it and then miss the notification.
    fn shutdown(&self) {
        if self.stop.swap(true, Ordering::SeqCst) {
            return;
        }
        drop(self.lock());
        self.leasable.notify_all();
        self.housekeeping.notify_all();
        if let Some(addr) = self.wake_addr {
            if let Err(e) = TcpStream::connect_timeout(&addr, LINGER) {
                self.log
                    .error("accept_wake_fail", &[("err", &e.to_string())]);
            }
        }
    }

    /// Snapshot the whole table and empty the journal it covers.
    /// No-op when checkpointing is off. The snapshot is captured under
    /// the state lock (a finished campaign's line is shared, or just
    /// located, not copied) and written outside it; afterwards every
    /// finished campaign it holds is spilled to the file.
    fn checkpoint(&self) -> Result<(), String> {
        let Some(path) = &self.opts.checkpoint else {
            return Ok(());
        };
        let mut journal = self.persist.lock().expect(POISONED);
        let t0 = Instant::now();
        let (next_campaign, captured) = {
            let mut s = self.lock();
            s.dirty = false;
            let s = &*s;
            let captured: Vec<(u64, bool, Captured)> = s
                .campaigns
                .values()
                .map(|c| (c.id, c.is_complete(), c.capture(s.scheduler.served(c.id))))
                .collect();
            (s.next_campaign, captured)
        };
        // Spilled lines are copied out of the snapshot being replaced.
        let mut old: Option<std::fs::File> = None;
        let lines = captured.iter().map(|(_, _, line)| match line {
            Captured::Text(text) => Ok(std::borrow::Cow::Borrowed(&**text)),
            Captured::OnDisk(span) => {
                if old.is_none() {
                    let file = std::fs::File::open(path)
                        .map_err(|e| format!("reopen {}: {e}", path.display()))?;
                    old = Some(file);
                }
                checkpoint::read_line(old.as_mut().expect("opened above"), *span)
                    .map(std::borrow::Cow::Owned)
            }
        });
        let saved = checkpoint::save_lines(path, SCHEMA_VERSION, next_campaign, lines);
        let cleared = saved.as_ref().map_err(String::clone).and_then(|_| {
            if journal.is_none() && checkpoint::journal_path(path).exists() {
                *journal = Some(Journal::open(path)?);
            }
            match journal.as_mut() {
                Some(j) if !j.is_empty() => j.clear(),
                _ => Ok(()),
            }
        });
        let now = self.now_ms();
        let mut s = self.lock();
        match saved {
            Ok(spans) => {
                for ((id, complete, _), span) in captured.iter().zip(spans) {
                    if let (true, Some(c)) = (*complete, s.campaigns.get_mut(id)) {
                        c.body = Body::Spilled(span);
                    }
                }
                s.hist.observe(
                    "checkpoint_save_ms",
                    &[],
                    t0.elapsed().as_secs_f64() * 1000.0,
                );
                s.last_checkpoint_ms = now;
            }
            Err(_) => s.dirty = true,
        }
        cleared
    }

    /// A finished campaign's line, read back from the snapshot when
    /// it was spilled there. `None` when the campaign is unknown or
    /// still running.
    fn complete_line(&self, id: u64) -> Option<Result<Arc<str>, String>> {
        // Holding `persist` keeps a compaction from replacing the file
        // between looking the span up and reading it.
        let _files = self.persist.lock().expect(POISONED);
        let span = match &self.lock().campaigns.get(&id)?.body {
            Body::Running(_) => return None,
            Body::Complete(line) => return Some(Ok(Arc::clone(line))),
            Body::Spilled(span) => *span,
        };
        let path = self.opts.checkpoint.as_ref()?;
        Some(
            std::fs::File::open(path)
                .map_err(|e| format!("reopen {}: {e}", path.display()))
                .and_then(|mut file| checkpoint::read_line(&mut file, span))
                .map(Arc::from),
        )
    }

    /// After a mutation: snapshot right away in checkpoint-every-
    /// mutation mode, otherwise nudge housekeeping if the interval has
    /// already run out. A failed snapshot must not kill live
    /// campaigns; the operator sees the complaint and the next one
    /// retries.
    fn after_mutation(&self) {
        if self.opts.checkpoint.is_none() {
            return;
        }
        if self.opts.checkpoint_every_ms == 0 {
            if let Err(e) = self.checkpoint() {
                self.log.error("checkpoint_fail", &[("err", &e)]);
            }
        } else {
            let s = self.lock();
            if s.dirty
                && self.now_ms().saturating_sub(s.last_checkpoint_ms)
                    >= self.opts.checkpoint_every_ms
            {
                self.housekeeping.notify_all();
            }
        }
    }

    /// Register a campaign, durably: its journal record is fsynced
    /// before it enters the table, so the id handed back is one a
    /// restart cannot forget. The write is one record whatever the
    /// daemon retains.
    fn submit(
        &self,
        spec: ExperimentSpec,
        fingerprint: String,
        job_count: usize,
        priority: u64,
    ) -> Result<u64, String> {
        let mut journal = self.persist.lock().expect(POISONED);
        // Only submits (holding `persist`) advance the id counter.
        let id = self.lock().next_campaign;
        if let Some(path) = &self.opts.checkpoint {
            let t0 = Instant::now();
            if journal.is_none() {
                *journal = Some(Journal::open(path)?);
            }
            let record = CampaignSnapshot {
                id,
                spec: spec.clone(),
                priority,
                served: 0,
                fingerprint: fingerprint.clone(),
                job_count: job_count as u64,
                queue: JobQueue::<SweepRow>::new(job_count).to_json(SweepRow::to_json),
            };
            journal.as_mut().expect("opened above").append(&record)?;
            self.lock().hist.observe(
                "journal_append_ms",
                &[],
                t0.elapsed().as_secs_f64() * 1000.0,
            );
        }
        let mut campaign = Campaign::new(id, spec, fingerprint, job_count, priority, self.now_ms());
        campaign.seal(0);
        {
            let mut s = self.lock();
            s.next_campaign = id + 1;
            s.insert(campaign);
        }
        self.leasable.notify_all();
        drop(journal);
        self.after_mutation();
        Ok(id)
    }

    /// Answer a worker's `request`: a lease as soon as one exists —
    /// parking until a submit, a released or expired lease makes one
    /// — `done` once stopping (or, one-shot, once everything is
    /// complete), or `wait {ms: 0}` when the park bound runs out.
    /// Returns the reply and how long the request was parked.
    fn lease_or_park(&self, worker_key: &str, want: usize, frame_t0: Instant) -> (Msg, Duration) {
        let deadline = frame_t0 + Duration::from_millis(PARK_MS);
        let mut parked = Duration::ZERO;
        // Grant latency counts the scheduler + queue pass that found
        // the work, not the park before it.
        let mut pass_t0 = frame_t0;
        let mut s = self.lock();
        loop {
            if self.stopping() || (self.opts.exit_when_done && s.all_complete()) {
                return (Msg::Done, parked);
            }
            if let Some(lease) = self.try_lease(&mut s, worker_key, want, pass_t0) {
                return (lease, parked);
            }
            let now = Instant::now();
            if now >= deadline {
                return (Msg::Wait { ms: 0 }, parked);
            }
            s.parked += 1;
            s = self
                .leasable
                .wait_timeout(s, deadline - now)
                .expect(POISONED)
                .0;
            s.parked -= 1;
            pass_t0 = Instant::now();
            parked += pass_t0 - now;
        }
    }

    /// Fair-share pick among campaigns with pending cells; the whole
    /// batch comes from one campaign so the lease frame carries one
    /// spec.
    fn try_lease(&self, s: &mut Shared, worker_key: &str, want: usize, t0: Instant) -> Option<Msg> {
        let picked = {
            let campaigns = &s.campaigns;
            s.scheduler
                .pick(|id| campaigns.get(&id).is_some_and(|c| c.pending() > 0))
        }?;
        let now = self.now_ms();
        let c = s
            .campaigns
            .get_mut(&picked)
            .expect("picked campaign exists");
        let cid = c.public_id();
        let Body::Running(live) = &mut c.body else {
            unreachable!("the scheduler holds running campaigns only");
        };
        let jobs = live
            .queue
            .lease(worker_key, want, now, self.opts.lease_ttl_ms);
        let msg = Msg::Lease {
            campaign: cid.clone(),
            spec: live.spec_json.clone(),
            fingerprint: live.fingerprint.clone(),
            job_count: c.job_count as u64,
            jobs: jobs.clone(),
        };
        s.scheduler.charge(picked, jobs.len() as u64);
        s.dirty = true;
        let grant_ms = t0.elapsed().as_secs_f64() * 1000.0;
        c.lease_grant.observe(grant_ms);
        s.hist
            .observe("lease_grant_ms", &[("worker", worker_key)], grant_ms);
        self.log
            .debug("lease", &[("worker", worker_key), ("campaign", &cid)]);
        Some(msg)
    }

    /// Housekeeping: lease expiry, retention eviction, periodic
    /// snapshots and the metrics history, each run when due; between
    /// deadlines the thread sleeps on its condition variable. Returns
    /// once the daemon stops.
    fn housekeep(&self, mut metrics_writer: Option<RotatingWriter>) {
        let opts = self.opts;
        let mut last_metrics_ms: Option<u64> = None;
        loop {
            let now = self.now_ms();
            let (checkpoint_due, metrics_line) = {
                let mut s = self.lock();
                let externally_stopped =
                    matches!(&opts.shutdown, Some(flag) if flag.load(Ordering::SeqCst));
                if externally_stopped || (opts.exit_when_done && s.all_complete()) {
                    drop(s);
                    self.shutdown();
                    return;
                }
                let expired = s.expire_all(now);
                if expired > 0 {
                    self.log
                        .info("re_lease", &[("count", &expired.to_string())]);
                    self.leasable.notify_all();
                }
                for id in s.evict_fetched(now, opts.retain_fetched_ms) {
                    self.log.info("evict", &[("campaign", &format!("c{id}"))]);
                }
                let checkpoint_due = opts.checkpoint.is_some()
                    && s.dirty
                    && now.saturating_sub(s.last_checkpoint_ms) >= opts.checkpoint_every_ms;
                let metrics_due = metrics_writer.is_some()
                    && last_metrics_ms
                        .is_none_or(|at| now.saturating_sub(at) >= opts.metrics_interval_ms.max(1));
                let metrics_line = metrics_due.then(|| {
                    last_metrics_ms = Some(now);
                    status_text(&s, now)
                });
                (checkpoint_due, metrics_line)
            };
            if checkpoint_due {
                match self.checkpoint() {
                    Ok(()) => self.log.debug("checkpoint", &[]),
                    Err(e) => self.log.error("checkpoint_fail", &[("err", &e)]),
                }
            }
            if let (Some(w), Some(line)) = (metrics_writer.as_mut(), metrics_line) {
                if let Err(e) = w.append_line(&line) {
                    self.log
                        .error("metrics_log_fail", &[("err", &e.to_string())]);
                    metrics_writer = None;
                }
            }
            let s = self.lock();
            if self.stopping() {
                return;
            }
            let timeout = self.next_wake_in(&s, last_metrics_ms, metrics_writer.is_some());
            drop(self.housekeeping.wait_timeout(s, timeout).expect(POISONED));
        }
    }

    /// How long housekeeping may sleep before something falls due.
    fn next_wake_in(&self, s: &Shared, last_metrics_ms: Option<u64>, metrics: bool) -> Duration {
        let opts = self.opts;
        let now = self.now_ms();
        let mut due = now + IDLE_TICK_MS;
        if opts.shutdown.is_some() {
            due = due.min(now + SHUTDOWN_POLL_MS);
        }
        if s.any_leased() {
            due = due.min(now + (opts.lease_ttl_ms / 4).clamp(5, IDLE_TICK_MS));
        }
        if opts.checkpoint.is_some() && s.dirty {
            due = due.min(s.last_checkpoint_ms + opts.checkpoint_every_ms);
        }
        if let (true, Some(at)) = (metrics, last_metrics_ms) {
            due = due.min(at + opts.metrics_interval_ms.max(1));
        }
        if let Some(at) = s.next_eviction_ms(opts.retain_fetched_ms) {
            due = due.min(at);
        }
        Duration::from_millis(due.saturating_sub(now).max(1))
    }
}

/// Restore the campaign table from the checkpoint (snapshot plus
/// journal), insisting every campaign still resolves to the
/// fingerprint it was submitted under.
fn restore(
    s: &mut Shared,
    path: &std::path::Path,
    registry: Option<Registry>,
    log: &EventLog,
) -> Result<bool, String> {
    let Some(loaded) = checkpoint::load(path)? else {
        return Ok(false);
    };
    if loaded.fallback {
        log.warn(
            "checkpoint_torn_fallback",
            &[("prev", &format!("{}.prev", path.display()))],
        );
    }
    if loaded.journal_torn {
        log.warn(
            "journal_torn_tail",
            &[(
                "journal",
                &checkpoint::journal_path(path).display().to_string(),
            )],
        );
    }
    let snap = loaded.snapshot;
    if snap.schema_version != SCHEMA_VERSION {
        return Err(format!(
            "checkpoint was written at schema {} but this binary speaks {SCHEMA_VERSION}",
            snap.schema_version
        ));
    }
    s.next_campaign = snap.next_campaign;
    for c in snap.campaigns {
        // Re-resolve the spec and insist the fingerprint matches:
        // done rows from a drifted binary cannot be merged with rows
        // this one would produce.
        if let Some(registry) = registry {
            let experiment = c
                .spec
                .resolve(registry)
                .map_err(|e| format!("checkpoint campaign c{}: {e}", c.id))?;
            let fp = experiment.fingerprint();
            if fp != c.fingerprint || experiment.job_count() as u64 != c.job_count {
                return Err(format!(
                    "checkpoint campaign c{} ({:?}) was fingerprint {} but this \
                     binary resolves it to {fp}: refusing to merge drifted rows",
                    c.id, c.spec.experiment, c.fingerprint
                ));
            }
        }
        let queue = JobQueue::from_json(&c.queue, SweepRow::from_json)
            .map_err(|e| format!("checkpoint campaign c{}: {e}", c.id))?;
        if queue.len() as u64 != c.job_count {
            return Err(format!(
                "checkpoint campaign c{}: queue has {} jobs, campaign says {}",
                c.id,
                queue.len(),
                c.job_count
            ));
        }
        log.info(
            "resume",
            &[
                ("campaign", &format!("c{}", c.id)),
                ("experiment", &c.spec.experiment),
                ("done", &queue.done().to_string()),
                ("total", &queue.len().to_string()),
            ],
        );
        let priority = c.priority.max(1);
        let mut campaign = Campaign::new(
            c.id,
            c.spec,
            c.fingerprint,
            c.job_count as usize,
            priority,
            0,
        );
        if let Body::Running(live) = &mut campaign.body {
            live.queue = queue;
        }
        campaign.seal(c.served);
        if !campaign.is_complete() {
            s.scheduler.restore(c.id, priority, c.served);
        }
        s.campaigns.insert(c.id, campaign);
    }
    // Fold a replayed journal into a fresh snapshot before serving.
    Ok(loaded.journal_replayed > 0 || loaded.journal_torn)
}

/// Where to connect to reach `listener` from this host.
fn wake_addr(listener: &TcpListener) -> Option<SocketAddr> {
    let mut addr = listener.local_addr().ok()?;
    if addr.ip().is_unspecified() {
        addr.set_ip(match addr.ip() {
            IpAddr::V4(_) => IpAddr::V4(Ipv4Addr::LOCALHOST),
            IpAddr::V6(_) => IpAddr::V6(Ipv6Addr::LOCALHOST),
        });
    }
    Some(addr)
}

/// Run the service on `listener` until the shutdown flag flips (or,
/// with `exit_when_done`, until every campaign completes).
///
/// `registry` resolves remotely-submitted experiment names; a server
/// embedded by the one-shot wrapper passes `None` and rejects
/// `submit`. `initial` seeds the campaign table (one-shot mode, or
/// pre-registered campaigns in tests); campaigns restored from the
/// checkpoint come first and keep their original ids.
///
/// Every connection accepted or still pending when the service stops
/// is handed `done` before this returns; a one-shot server also
/// answers workers that connect shortly *after* it returned.
pub fn run_server(
    listener: &TcpListener,
    registry: Option<Registry>,
    initial: Vec<(ExperimentSpec, Experiment, u64)>,
    opts: &ServerOpts,
) -> Result<ServerOutcome, String> {
    listener
        .set_nonblocking(false)
        .map_err(|e| format!("set_nonblocking: {e}"))?;
    let start = Instant::now();

    // Telemetry: the caller's logger, or a stderr-only one whose
    // verbosity follows `quiet` (preserving the pre-logger behavior
    // of the ad-hoc eprintln sites this replaced).
    let log: Arc<EventLog> = opts.log.clone().unwrap_or_else(|| {
        Arc::new(EventLog::to_stderr(
            "dist",
            if opts.quiet {
                None
            } else {
                Some(LogLevel::Info)
            },
        ))
    });

    let mut shared = Shared::new();

    let mut snapshot_now = false;
    if let Some(path) = &opts.checkpoint {
        snapshot_now = restore(&mut shared, path, registry, &log)?;
    }
    for (spec, experiment, priority) in initial {
        let id = shared.next_campaign;
        shared.next_campaign += 1;
        let mut campaign = Campaign::new(
            id,
            spec,
            experiment.fingerprint(),
            experiment.job_count(),
            priority.max(1),
            0,
        );
        campaign.seal(0);
        shared.insert(campaign);
        snapshot_now = true;
    }

    // Metrics history: a rotated JSONL time-series of status
    // snapshots. Like the initial checkpoint, a daemon told to record
    // history but unable to open the file fails fast.
    let metrics_writer = match &opts.metrics_log {
        Some(path) => Some(
            RotatingWriter::open(path, opts.metrics_max_bytes, DEFAULT_LOG_MAX_FILES)
                .map_err(|e| format!("metrics log {}: {e}", path.display()))?,
        ),
        None => None,
    };

    let svc = Service {
        state: Mutex::new(shared),
        leasable: Condvar::new(),
        housekeeping: Condvar::new(),
        stop: AtomicBool::new(false),
        persist: Mutex::new(None),
        opts,
        registry,
        log: &log,
        start,
        wake_addr: wake_addr(listener),
    };
    // Campaigns the daemon starts with (and a replayed journal) are
    // part of the resume contract from second zero: a daemon told to
    // checkpoint but unable to write its file fails fast instead of
    // running with an unsatisfiable resume promise.
    if snapshot_now {
        svc.checkpoint()
            .map_err(|e| format!("initial checkpoint: {e}"))?;
    }

    std::thread::scope(|scope| {
        let svc = &svc;
        scope.spawn(move || {
            let mut conn_id: u64 = 0;
            for stream in listener.incoming() {
                let stream = match stream {
                    Ok(stream) => stream,
                    // Transient accept failures (a connection reset
                    // while queued, a momentary fd shortage) must not
                    // kill the service — nor spin it.
                    Err(_) if !svc.stopping() => {
                        std::thread::sleep(Duration::from_millis(10));
                        continue;
                    }
                    Err(_) => break,
                };
                if svc.stopping() {
                    // The wake-up connection, or a client racing the
                    // stop: either way it hears `done`.
                    answer_done(stream);
                    break;
                }
                conn_id += 1;
                let id = conn_id;
                if let Ok(peer) = stream.peer_addr() {
                    svc.log.debug(
                        "conn_open",
                        &[("conn", &id.to_string()), ("peer", &peer.to_string())],
                    );
                }
                scope.spawn(move || handle_conn(stream, id, svc));
            }
        });
        svc.housekeep(metrics_writer);
        // Scope exit joins the accept loop and every handler thread;
        // each handler hands its peer `done` once it sees the stop.
    });

    // Final snapshot: a clean shutdown resumes with zero replay.
    if svc.lock().dirty {
        if let Err(e) = svc.checkpoint() {
            log.error("checkpoint_fail", &[("phase", "final"), ("err", &e)]);
        }
    }

    // Clients that raced the shutdown sit un-accepted in the listen
    // backlog; hand each a `done` so they exit cleanly.
    if listener.set_nonblocking(true).is_ok() {
        while let Ok((stream, _)) = listener.accept() {
            answer_done(stream);
        }
    }
    let aborted = !svc.lock().all_complete();
    if opts.exit_when_done && !aborted {
        answer_late_workers(listener, Arc::clone(&log));
    }
    let ids: Vec<u64> = svc.lock().campaigns.keys().copied().collect();
    let mut campaigns = Vec::with_capacity(ids.len());
    for id in ids {
        // Rows a client already fetched are not copied out again.
        let unfetched = svc.lock().campaigns[&id].fetched_at_ms.is_none();
        let line = if unfetched {
            svc.complete_line(id)
        } else {
            None
        };
        let rows = match line {
            Some(line) => line_rows(&line?)?,
            None => Vec::new(),
        };
        let s = svc.lock();
        let c = &s.campaigns[&id];
        campaigns.push(FinishedCampaign {
            id,
            experiment: c.experiment.clone(),
            job_count: c.job_count,
            done: c.done(),
            complete: c.is_complete(),
            rows,
        });
    }
    let s = svc.state.into_inner().expect(POISONED);
    Ok(ServerOutcome {
        workers: s.workers,
        executed: s.executed,
        cache_hits: s.cache_hits,
        released: s.released,
        rejected: s.rejected,
        campaigns,
        aborted,
    })
}

/// Tell a connection the service is over: `done`, then linger until
/// the peer closes so the frame is not reset away.
fn answer_done(stream: TcpStream) {
    let _ = stream.set_nonblocking(false);
    let _ = stream.set_read_timeout(Some(Duration::from_millis(READ_TICK_MS)));
    let Ok(mut writer) = stream.try_clone() else {
        return;
    };
    let mut reader = FrameReader::new(stream);
    send_done(&mut writer, &mut reader);
}

/// A one-shot server's workers are spawned next to it and may connect
/// only after the campaign already finished — an all-cache-hit
/// campaign can complete before a slow worker process even starts.
/// The caller still owns the listener, so such a worker would sit in
/// the backlog until its silence budget runs out. A detached thread
/// keeps answering `done` on a duplicate of the socket until no one
/// has connected for [`LATE_WORKER_GRACE_MS`]. It is detached on
/// purpose — it must outlive this call — and owns everything it
/// touches; a connection it cannot answer is simply dropped.
fn answer_late_workers(listener: &TcpListener, log: Arc<EventLog>) {
    let Ok(dup) = listener.try_clone() else {
        return;
    };
    std::thread::spawn(move || {
        let mut quiet_since = Instant::now();
        while quiet_since.elapsed() < Duration::from_millis(LATE_WORKER_GRACE_MS) {
            match dup.accept() {
                Ok((stream, _)) => {
                    log.debug("late_worker_done", &[]);
                    answer_done(stream);
                    quiet_since = Instant::now();
                }
                Err(_) => std::thread::sleep(Duration::from_millis(READ_TICK_MS)),
            }
        }
    });
}

/// Half-close after a final frame and linger until the peer closes.
/// See `coordinator::close_gracefully` for why a plain drop can RST
/// away the buffered reply.
fn close_gracefully(writer: &TcpStream, reader: &mut FrameReader<TcpStream>) {
    let _ = writer.shutdown(std::net::Shutdown::Write);
    let deadline = Instant::now() + LINGER;
    while Instant::now() < deadline {
        match reader.next_msg() {
            Ok(_) => {}
            Err(_) => break,
        }
    }
}

fn send_done(writer: &mut TcpStream, reader: &mut FrameReader<TcpStream>) {
    if write_msg(writer, &Msg::Done).is_ok() {
        close_gracefully(writer, reader);
    }
}

fn disconnect_reason(e: FrameError) -> Option<String> {
    match e {
        FrameError::Eof => None,
        other => Some(other.to_string()),
    }
}

enum ReadStop {
    Shutdown,
    Dead(FrameError),
    /// The deadline passed with no frame received (only possible
    /// through [`read_msg_within`] with a deadline).
    TimedOut,
}

/// Wait for a frame until `deadline` (`None` = until a frame, EOF, or
/// shutdown).
fn read_msg_within(
    reader: &mut FrameReader<TcpStream>,
    stop: &AtomicBool,
    deadline: Option<Instant>,
) -> Result<Msg, ReadStop> {
    loop {
        match reader.next_msg() {
            Ok(Some(msg)) => return Ok(msg),
            Ok(None) => {
                if stop.load(Ordering::SeqCst) {
                    return Err(ReadStop::Shutdown);
                }
                if deadline.is_some_and(|d| Instant::now() >= d) {
                    return Err(ReadStop::TimedOut);
                }
            }
            Err(e) => return Err(ReadStop::Dead(e)),
        }
    }
}

fn handle_conn(stream: TcpStream, conn_id: u64, svc: &Service) {
    let (opts, log) = (svc.opts, svc.log);
    let _ = stream.set_nodelay(true);
    if stream
        .set_read_timeout(Some(Duration::from_millis(READ_TICK_MS)))
        .is_err()
    {
        return;
    }
    let mut writer = match stream.try_clone() {
        Ok(w) => w,
        Err(_) => return,
    };
    let mut reader = FrameReader::new(stream);

    // Reject a connection at its opening message: count it, tell the
    // peer why, close. `event` distinguishes auth failures
    // ("auth_reject") from every other refusal ("reject") in the
    // structured log; the peer sees only the reason string we choose
    // to send, so a probing client can't learn more from the wire.
    let reject = |writer: &mut TcpStream,
                  reader: &mut FrameReader<TcpStream>,
                  reason: String,
                  event: &str,
                  why: &str| {
        svc.lock().rejected += 1;
        log.warn(event, &[("conn", &conn_id.to_string()), ("why", why)]);
        if write_msg(writer, &Msg::Reject { reason }).is_ok() {
            close_gracefully(writer, reader);
        }
    };
    let auth_ok = |token: &Option<String>| match &opts.token {
        None => true,
        Some(expected) => token_matches(expected, token.as_deref()),
    };

    // The opening message must arrive promptly: a peer that connects
    // and sends nothing (port scanner, half-open TCP) must not pin
    // this handler thread for the daemon's lifetime.
    let handshake_deadline = (opts.handshake_timeout_ms > 0)
        .then(|| Instant::now() + Duration::from_millis(opts.handshake_timeout_ms));
    let first = match read_msg_within(&mut reader, &svc.stop, handshake_deadline) {
        Ok(msg) => msg,
        Err(ReadStop::Shutdown) => {
            send_done(&mut writer, &mut reader);
            return;
        }
        Err(ReadStop::TimedOut) => {
            svc.lock().rejected += 1;
            log.warn(
                "handshake_drop",
                &[
                    ("conn", &conn_id.to_string()),
                    ("timeout_ms", &opts.handshake_timeout_ms.to_string()),
                ],
            );
            return;
        }
        Err(ReadStop::Dead(e)) => {
            if let Some(why) = disconnect_reason(e) {
                svc.lock().rejected += 1;
                log.warn(
                    "conn_drop",
                    &[("conn", &conn_id.to_string()), ("why", &why)],
                );
            }
            return;
        }
    };

    let token = match &first {
        Msg::Hello { token, .. }
        | Msg::Submit { token, .. }
        | Msg::Fetch { token, .. }
        | Msg::StatusRequest { token }
        | Msg::DumpRequest { token } => token,
        other => {
            let reason =
                format!("expected hello/submit/fetch/status_request/debug_dump, got {other:?}");
            reject(
                &mut writer,
                &mut reader,
                reason,
                "reject",
                "bad opening message",
            );
            return;
        }
    };
    if !auth_ok(token) {
        reject(
            &mut writer,
            &mut reader,
            "bad token".into(),
            "auth_reject",
            "bad token",
        );
        return;
    }

    match first {
        // --- Worker flow -----------------------------------------
        Msg::Hello {
            schema_version,
            protocol_version,
            worker,
            ..
        } => {
            if schema_version != SCHEMA_VERSION || protocol_version != PROTOCOL_VERSION {
                reject(
                    &mut writer,
                    &mut reader,
                    format!(
                        "version mismatch: worker speaks schema {schema_version} / protocol \
                         {protocol_version}, coordinator speaks schema {SCHEMA_VERSION} / \
                         protocol {PROTOCOL_VERSION}"
                    ),
                    "reject",
                    "version mismatch",
                );
                return;
            }
            let worker_key = format!("{worker}#{conn_id}");
            if write_msg(
                &mut writer,
                &Msg::Welcome {
                    lease_ttl_ms: opts.lease_ttl_ms,
                },
            )
            .is_err()
            {
                return;
            }
            svc.lock().workers += 1;
            log.info("worker_ready", &[("worker", &worker_key)]);
            worker_loop(&worker_key, &mut writer, &mut reader, svc);
        }

        // --- Submit flow -----------------------------------------
        Msg::Submit { spec, priority, .. } => {
            let Some(registry) = svc.registry else {
                reject(
                    &mut writer,
                    &mut reader,
                    "this coordinator runs a single fixed campaign and does not accept \
                     submissions"
                        .into(),
                    "reject",
                    "submit to one-shot coordinator",
                );
                return;
            };
            let resolved = ExperimentSpec::from_json(&spec)
                .and_then(|spec| spec.resolve(registry).map(|experiment| (spec, experiment)));
            let (spec, experiment) = match resolved {
                Ok(pair) => pair,
                Err(e) => {
                    reject(&mut writer, &mut reader, e.clone(), "reject", &e);
                    return;
                }
            };
            let fingerprint = experiment.fingerprint();
            let job_count = experiment.job_count();
            let priority = priority.max(1);
            let name = spec.experiment.clone();
            // Never ack an id a restart would forget: a campaign whose
            // journal record cannot be written is rejected instead.
            let reply = match svc.submit(spec, fingerprint.clone(), job_count, priority) {
                Ok(id) => {
                    log.info(
                        "submit",
                        &[
                            ("campaign", &format!("c{id}")),
                            ("experiment", &name),
                            ("jobs", &job_count.to_string()),
                            ("priority", &priority.to_string()),
                        ],
                    );
                    Msg::Submitted {
                        campaign: format!("c{id}"),
                        job_count: job_count as u64,
                        fingerprint,
                    }
                }
                Err(e) => {
                    svc.lock().rejected += 1;
                    log.error(
                        "submit_reject",
                        &[("conn", &conn_id.to_string()), ("err", &e)],
                    );
                    Msg::Reject {
                        reason: format!("coordinator cannot persist the campaign: {e}"),
                    }
                }
            };
            if write_msg(&mut writer, &reply).is_ok() {
                close_gracefully(&writer, &mut reader);
            }
        }

        // --- Fetch flow ------------------------------------------
        Msg::Fetch { campaign, .. } => {
            let parsed_id = campaign
                .strip_prefix('c')
                .and_then(|rest| rest.parse::<u64>().ok());
            // Look up under the lock; parse and send outside it:
            // result chunks for a big campaign are many frames and
            // must not stall the lease path.
            enum Fetched {
                Unknown,
                Running { done: u64, total: u64 },
                Complete { line: Option<Arc<str>>, total: u64 },
            }
            let fetched = {
                let s = svc.lock();
                match parsed_id.and_then(|id| s.campaigns.get(&id)) {
                    None => Fetched::Unknown,
                    Some(c) => match &c.body {
                        Body::Running(live) => Fetched::Running {
                            done: live.queue.done() as u64,
                            total: c.job_count as u64,
                        },
                        Body::Complete(line) => Fetched::Complete {
                            line: Some(Arc::clone(line)),
                            total: c.job_count as u64,
                        },
                        Body::Spilled(_) => Fetched::Complete {
                            line: None,
                            total: c.job_count as u64,
                        },
                    },
                }
            };
            let was_complete = matches!(fetched, Fetched::Complete { .. });
            let ok = match fetched {
                Fetched::Unknown => {
                    reject(
                        &mut writer,
                        &mut reader,
                        format!("unknown campaign {campaign:?}"),
                        "reject",
                        "unknown campaign",
                    );
                    return;
                }
                Fetched::Running { done, total } => write_msg(
                    &mut writer,
                    &Msg::CampaignStatus {
                        campaign,
                        state: CampaignState::Running,
                        done,
                        total,
                    },
                )
                .is_ok(),
                Fetched::Complete { line, total } => {
                    let id = parsed_id.expect("complete implies a parsed id");
                    let line = match line.map(Ok).or_else(|| svc.complete_line(id)) {
                        Some(Ok(line)) => line,
                        Some(Err(e)) => {
                            log.error("fetch_fail", &[("campaign", &campaign), ("err", &e)]);
                            return;
                        }
                        // Evicted between the two looks.
                        None => return,
                    };
                    let rows = match line_rows(&line) {
                        Ok(rows) => rows,
                        Err(e) => {
                            log.error("fetch_fail", &[("campaign", &campaign), ("err", &e)]);
                            return;
                        }
                    };
                    let mut ok = true;
                    for chunk in rows.chunks(RESULT_CHUNK_ROWS) {
                        ok = write_msg(
                            &mut writer,
                            &Msg::Result {
                                campaign: campaign.clone(),
                                rows: chunk.to_vec(),
                                executed: 0,
                                cache_hits: 0,
                                wall_ms: 0.0,
                            },
                        )
                        .is_ok();
                        if !ok {
                            break;
                        }
                    }
                    ok && write_msg(
                        &mut writer,
                        &Msg::CampaignStatus {
                            campaign,
                            state: CampaignState::Complete,
                            done: total,
                            total,
                        },
                    )
                    .is_ok()
                }
            };
            if ok {
                // The rows were delivered: start the retention clock
                // (first successful fetch only).
                if was_complete {
                    let now = svc.now_ms();
                    let mut s = svc.lock();
                    let id = parsed_id.expect("complete implies a parsed id");
                    if let Some(c) = s.campaigns.get_mut(&id) {
                        if c.fetched_at_ms.is_none() {
                            c.fetched_at_ms = Some(now);
                            s.fetched.push_back((now, id));
                            svc.housekeeping.notify_all();
                        }
                    }
                }
                close_gracefully(&writer, &mut reader);
            }
        }

        // --- Probe flow ------------------------------------------
        Msg::StatusRequest { .. } => {
            let report = status_text(&svc.lock(), svc.now_ms());
            log.debug("status_probe", &[("conn", &conn_id.to_string())]);
            if write_status(&mut writer, &report).is_ok() {
                close_gracefully(&writer, &mut reader);
            }
        }

        // --- Flight-recorder dump --------------------------------
        Msg::DumpRequest { .. } => {
            let (events, dropped) = log.recent_with_dropped();
            log.debug(
                "dump_probe",
                &[
                    ("conn", &conn_id.to_string()),
                    ("events", &events.len().to_string()),
                ],
            );
            let reply = Msg::DumpReply {
                events: Json::Arr(events.iter().map(|e| e.to_json()).collect()),
                dropped,
            };
            if write_msg(&mut writer, &reply).is_ok() {
                close_gracefully(&writer, &mut reader);
            }
        }

        _ => unreachable!("opening messages are screened above"),
    }
}

/// The post-handshake worker conversation: requests become leases
/// picked by the fair-share scheduler (parking until one exists),
/// results land in their campaign's queue, heartbeats extend leases
/// across every campaign.
fn worker_loop(
    worker_key: &str,
    writer: &mut TcpStream,
    reader: &mut FrameReader<TcpStream>,
    svc: &Service,
) {
    let (opts, log) = (svc.opts, svc.log);
    // Per-connection cleanup: drop the worker's leases back into the
    // pool (no-op if it held none) and account the disconnect.
    let finish = |torn: Option<String>| {
        let mut s = svc.lock();
        let released = s.release_worker(worker_key);
        if torn.is_some() {
            s.rejected += 1;
        }
        drop(s);
        if released > 0 {
            svc.leasable.notify_all();
        }
        match torn {
            Some(why) => log.warn(
                "worker_drop",
                &[
                    ("worker", worker_key),
                    ("why", &why),
                    ("released", &released.to_string()),
                ],
            ),
            None if released > 0 => log.info(
                "worker_drop",
                &[("worker", worker_key), ("released", &released.to_string())],
            ),
            None => {}
        }
    };

    loop {
        let msg = match read_msg_within(reader, &svc.stop, None) {
            Ok(msg) => msg,
            Err(ReadStop::Shutdown) => {
                send_done(writer, reader);
                finish(None);
                return;
            }
            // Unreachable without a deadline; drop defensively.
            Err(ReadStop::TimedOut) => {
                finish(None);
                return;
            }
            Err(ReadStop::Dead(e)) => {
                finish(disconnect_reason(e));
                return;
            }
        };
        let frame_t0 = Instant::now();
        let mut frame_kind: Option<&'static str> = None;
        let mut parked = Duration::ZERO;
        let reply = match msg {
            Msg::Request { batch } => {
                frame_kind = Some("request");
                let want = if batch == 0 {
                    opts.default_lease
                } else {
                    (batch as usize).min(opts.max_lease)
                }
                .max(1);
                let (reply, waited) = svc.lease_or_park(worker_key, want, frame_t0);
                parked = waited;
                Some(reply)
            }
            Msg::Result {
                campaign,
                rows,
                executed,
                cache_hits,
                wall_ms,
            } => {
                frame_kind = Some("result");
                match record_result(
                    svc, worker_key, &campaign, rows, executed, cache_hits, wall_ms,
                ) {
                    Ok(()) => None,
                    Err(why) => {
                        finish(Some(why));
                        return;
                    }
                }
            }
            Msg::Heartbeat => {
                let now = svc.now_ms();
                let ttl = opts.lease_ttl_ms;
                for queue in svc.lock().running() {
                    queue.heartbeat(worker_key, now, ttl);
                }
                None
            }
            // A worker that cannot run a leased campaign (unknown
            // experiment, drifted fingerprint) bows out; its leases
            // re-queue for a worker that can.
            Msg::Abort { reason } => {
                finish(Some(format!("worker aborted: {reason}")));
                return;
            }
            other => {
                finish(Some(format!("unexpected message in lease loop: {other:?}")));
                return;
            }
        };
        // Coordinator-side handling cost of the frame (lock waits,
        // queue mutation), labeled by frame kind. Parked time is
        // waiting for work, not handling, and is recorded apart.
        if let Some(kind) = frame_kind {
            let mut s = svc.lock();
            s.hist.observe(
                "frame_handle_ms",
                &[("frame", kind)],
                (frame_t0.elapsed() - parked).as_secs_f64() * 1000.0,
            );
            if !parked.is_zero() {
                s.hist
                    .observe("request_park_ms", &[], parked.as_secs_f64() * 1000.0);
            }
        }
        if let Some(reply) = reply {
            let done = reply == Msg::Done;
            if write_msg(writer, &reply).is_err() {
                finish(None);
                return;
            }
            if done {
                close_gracefully(writer, reader);
                finish(None);
                return;
            }
        }
    }
}

/// Land one `result` frame's rows in their campaign. An unknown
/// campaign or an out-of-range row is a protocol violation (`Err`:
/// the caller drops the worker). Rows for an already-complete
/// campaign — a re-leased cell coming back twice — are dropped:
/// deterministic engines make the copies identical.
#[allow(clippy::too_many_arguments)]
fn record_result(
    svc: &Service,
    worker_key: &str,
    campaign: &str,
    rows: Vec<IndexedRow>,
    executed: u64,
    cache_hits: u64,
    wall_ms: f64,
) -> Result<(), String> {
    let parsed_id = campaign
        .strip_prefix('c')
        .and_then(|rest| rest.parse::<u64>().ok());
    let mut s = svc.lock();
    let Some(id) = parsed_id.filter(|id| s.campaigns.contains_key(id)) else {
        return Err(format!("result for unknown campaign {campaign:?}"));
    };
    let rows_n = rows.len();
    let stat = s.worker_stats.entry(worker_key.to_string()).or_default();
    stat.jobs += rows_n as u64;
    stat.executed += executed;
    stat.cache_hits += cache_hits;
    let served = s.scheduler.served(id);
    let c = s.campaigns.get_mut(&id).expect("checked above");
    let job_count = c.job_count;
    let newly_complete = match &mut c.body {
        Body::Running(live) => {
            for row in rows {
                // Ok(false): a re-leased job came back twice — the
                // duplicate is just dropped.
                live.queue.complete(row.index, row.row)?;
            }
            live.queue.is_complete()
        }
        Body::Complete(_) | Body::Spilled(_) => {
            if let Some(row) = rows.iter().find(|r| r.index >= job_count) {
                return Err(format!(
                    "job index {} out of range ({job_count} jobs)",
                    row.index
                ));
            }
            false
        }
    };
    // Per-cell wall time, worker-measured: spread the batch's wall
    // clock evenly over its cells so the histograms weight by cell,
    // not by batch.
    let per_cell = (wall_ms > 0.0 && rows_n > 0).then(|| wall_ms / rows_n as f64);
    if let Some(per_cell) = per_cell {
        for _ in 0..rows_n {
            c.cell_wall.observe(per_cell);
        }
    }
    if newly_complete {
        c.seal(served);
        s.scheduler.remove(id);
    }
    if let Some(per_cell) = per_cell {
        for _ in 0..rows_n {
            s.hist
                .observe("cell_wall_ms", &[("worker", worker_key)], per_cell);
        }
    }
    let id_str = format!("c{id}");
    s.executed += executed;
    s.cache_hits += cache_hits;
    s.dirty = true;
    let finished = svc.opts.exit_when_done && s.all_complete();
    drop(s);
    if newly_complete {
        svc.log.info(
            "complete",
            &[
                ("campaign", &id_str),
                ("done", &job_count.to_string()),
                ("total", &job_count.to_string()),
            ],
        );
    }
    svc.after_mutation();
    if finished {
        svc.shutdown();
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn token_comparison_accepts_only_the_exact_token() {
        assert!(token_matches("secret", Some("secret")));
        assert!(!token_matches("secret", Some("secret2")));
        assert!(!token_matches("secret", Some("secre")));
        assert!(!token_matches("secret", Some("")));
        assert!(!token_matches("secret", None));
        assert!(token_matches("", Some("")));
        assert!(
            token_matches("", None),
            "no token presented matches the empty token"
        );
    }

    #[test]
    fn status_report_is_in_export_order_and_renders_like_a_registry() {
        let mut s = Shared::new();
        for id in [1, 2, 9, 10, 11] {
            let spec = ExperimentSpec::new(if id % 2 == 0 { "tiny" } else { "smoke" });
            let mut c = Campaign::new(id, spec, format!("fp{id}"), 3, id, 0);
            if id != 2 {
                c.lease_grant.observe(0.5 * id as f64);
            }
            if id == 10 {
                c.cell_wall.observe(4.0);
                if let Body::Running(live) = &mut c.body {
                    live.queue.lease("w#1", 1, 0, 1000);
                }
            }
            s.insert(c);
        }
        s.hist.observe("lease_grant_ms", &[("worker", "w#1")], 0.25);
        s.hist.observe("cell_wall_ms", &[("worker", "w#1")], 4.0);
        s.worker_stats.insert("w#1".into(), WorkerStat::default());
        let text = status_text(&s, 1000);
        let report = sfence_obs::MetricsReport::from_json_reader(text.as_bytes()).unwrap();
        let keys: Vec<_> = report
            .metrics
            .iter()
            .map(|m| (&m.name, &m.labels))
            .collect();
        assert!(keys.windows(2).all(|w| w[0] < w[1]), "strictly sorted");
        assert_eq!(report.to_json().to_string_compact(), text);
        assert_eq!(
            report.label_values("campaign"),
            ["c1", "c10", "c11", "c2", "c9"]
        );
        // Histograms appear once observed, next to the worker series.
        assert!(report
            .get("lease_grant_ms", &[("campaign", "c2")])
            .is_none());
        assert!(report
            .get("lease_grant_ms", &[("campaign", "c9")])
            .is_some());
        assert!(report.get("lease_grant_ms", &[("worker", "w#1")]).is_some());
        assert!(report.get("cell_wall_ms", &[("campaign", "c10")]).is_some());
        assert!(report
            .get(
                "campaign_info",
                &[("campaign", "c10"), ("experiment", "tiny")]
            )
            .is_some());
        match report
            .get("campaign_leased", &[("campaign", "c10")])
            .map(|m| &m.value)
        {
            Some(MetricValue::Gauge(g)) => assert_eq!(*g, 1.0),
            other => panic!("campaign_leased: {other:?}"),
        }
    }

    #[test]
    fn campaign_series_families_are_listed_in_name_order() {
        assert!(CAMPAIGN_SERIES.windows(2).all(|w| w[0] < w[1]));
    }
}
