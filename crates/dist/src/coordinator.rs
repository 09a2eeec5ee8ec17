//! The one-shot coordinator: serve a single experiment until every
//! job has a row, then return the merged rows.
//!
//! Since protocol v3 this is a thin wrapper over the multi-campaign
//! [`crate::server`]: [`serve`] seeds the campaign table with exactly
//! one campaign, runs the server with `exit_when_done`, and unwraps
//! that campaign's rows. `sfence-sweep --workers` and
//! `sfence-dist serve --experiment` keep their old shape — one
//! process, one campaign, exit at completion — while the daemon mode
//! (`sfence-dist serve` without `--experiment`) exposes the full
//! service.
//!
//! Completed rows are merged exactly like process-level shards:
//! `SweepResult::from_indexed` over every `IndexedRow`, which rejects
//! missing or duplicated indices — the final store/JSON output is
//! byte-identical to a single-process `run_parallel()` no matter how
//! many workers ran, died, or were re-leased.

use crate::server::{run_server, ServerOpts};
use crate::spec::ExperimentSpec;
use sfence_harness::{Experiment, IndexedRow};
use std::net::TcpListener;
use std::sync::atomic::AtomicBool;

/// Tunables of one [`serve`] call.
#[derive(Debug, Clone)]
pub struct CoordinatorOpts {
    /// Jobs handed out per lease (when the worker doesn't ask for a
    /// specific batch).
    pub lease_size: usize,
    /// How long a silent (non-heartbeating) worker keeps its leases.
    pub lease_ttl_ms: u64,
    /// Suppress per-connection progress lines on stderr.
    pub quiet: bool,
    /// Shared auth token; workers and probes must present it.
    pub token: Option<String>,
    /// Externally-set kill switch: when it flips true the campaign
    /// stops waiting for workers and [`serve`] errors out instead of
    /// blocking forever. `sfence-sweep --workers` sets it when every
    /// spawned worker process has exited; a coordinator serving
    /// remote workers leaves it `None` and waits indefinitely.
    pub abort: Option<std::sync::Arc<AtomicBool>>,
}

impl Default for CoordinatorOpts {
    fn default() -> CoordinatorOpts {
        CoordinatorOpts {
            lease_size: 4,
            lease_ttl_ms: 30_000,
            quiet: false,
            token: None,
            abort: None,
        }
    }
}

/// What one campaign produced, beyond the rows themselves.
#[derive(Debug)]
pub struct DistSummary {
    /// Every job's row, tagged with its global index — feed to
    /// [`sfence_harness::SweepResult::from_indexed`].
    pub rows: Vec<IndexedRow>,
    /// Workers that completed the handshake.
    pub workers: u64,
    /// Cells actually executed across all workers (cache misses).
    pub executed: u64,
    /// Cells answered from worker-local caches.
    pub cache_hits: u64,
    /// Leases returned to the pool by worker death or expiry.
    pub released: u64,
    /// Connections dropped for torn frames, failed handshakes, or
    /// protocol violations.
    pub rejected: u64,
}

impl DistSummary {
    /// The one-line stderr rendering shared by `sfence-dist serve`
    /// and `sfence-sweep --workers` (CI greps it — keep one
    /// implementation).
    pub fn summary_line(&self) -> String {
        format!(
            "dist: workers={} cache_hits={} executed={} released={} rejected={}",
            self.workers, self.cache_hits, self.executed, self.released, self.rejected
        )
    }
}

/// Run one distributed campaign: serve `experiment` (described to
/// workers as `spec`) on `listener` until every job has a row, then
/// return the merged rows. Workers may connect, die, and reconnect
/// freely throughout.
pub fn serve(
    listener: &TcpListener,
    experiment: &Experiment,
    spec: &ExperimentSpec,
    opts: &CoordinatorOpts,
) -> Result<DistSummary, String> {
    let server_opts = ServerOpts {
        default_lease: opts.lease_size,
        lease_ttl_ms: opts.lease_ttl_ms,
        quiet: opts.quiet,
        token: opts.token.clone(),
        exit_when_done: true,
        shutdown: opts.abort.clone(),
        ..ServerOpts::default()
    };
    // No registry: a one-shot coordinator rejects remote `submit`s —
    // its single campaign is fixed at launch.
    let outcome = run_server(
        listener,
        None,
        vec![(spec.clone(), experiment.clone(), 1)],
        &server_opts,
    )?;
    let campaign = outcome
        .campaigns
        .into_iter()
        .next()
        .ok_or("server returned no campaign")?;
    if outcome.aborted || !campaign.complete {
        return Err(format!(
            "campaign aborted with {}/{} jobs complete",
            campaign.done, campaign.job_count
        ));
    }
    Ok(DistSummary {
        rows: campaign.rows,
        workers: outcome.workers,
        executed: outcome.executed,
        cache_hits: outcome.cache_hits,
        released: outcome.released,
        rejected: outcome.rejected,
    })
}
