//! `service-campaigns`: an in-process sweep daemon (`run_server` with
//! the daemon CLI's default options plus a token and a checkpoint in
//! a scratch directory) and one in-process worker (`threads: 1`) over
//! loopback. One client keeps a single campaign in flight (closed
//! loop), mixing `litmus` on the functional backend with `smoke` on
//! sim in a seeded order, and polls with `sfence_dist::poll` every
//! [`POLL_MS`]. A sample is one campaign, from the start of `submit`
//! until `poll` returns its complete rows; the rows must be
//! byte-identical to an in-process `run_parallel()` reference.

use crate::trace::Tracer;
use crate::{timed_passes, timed_setup, Ops, Opts, Outcome};
use sfence_bench::experiment_by_name;
use sfence_dist::{
    fetch_status, poll, run_server, submit, work, ClientOpts, ExperimentSpec, Poll, ServerOpts,
    WorkerOpts, WorkerSummary,
};
use sfence_harness::{BackendId, Json, SweepResult};
use sfence_obs::{HistogramSnapshot, MetricValue, MetricsReport};
use sfence_workloads::support::Prng;
use std::collections::BTreeMap;
use std::net::TcpListener;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Client poll cadence while a campaign runs.
pub const POLL_MS: u64 = 5;
/// Set-ups per run; the median is reported.
const SETUP_REPS: usize = 3;
/// The campaign mix: each block of this many campaigns holds
/// [`LITMUS_PER_BLOCK`] litmus campaigns, the rest smoke, in an order
/// the seed shuffles.
const BLOCK: usize = 10;
const LITMUS_PER_BLOCK: usize = 7;

/// One campaign kind: what is submitted and the rows it must return.
pub struct Kind {
    pub name: &'static str,
    pub spec: ExperimentSpec,
    pub experiment: String,
    pub job_count: usize,
    pub reference: String,
}

fn kinds() -> Result<Vec<Kind>, String> {
    let specs = [
        (
            "litmus",
            ExperimentSpec::new("litmus").backend(Some(BackendId::Functional)),
        ),
        ("smoke", ExperimentSpec::new("smoke")),
    ];
    specs
        .into_iter()
        .map(|(name, spec)| {
            let experiment = spec.resolve(experiment_by_name)?;
            Ok(Kind {
                name,
                reference: experiment.run_parallel().to_json_string(),
                experiment: experiment.name.clone(),
                job_count: experiment.job_count(),
                spec,
            })
        })
        .collect()
}

/// The daemon and its worker, each on its own thread.
pub struct Service {
    pub addr: String,
    pub client: ClientOpts,
    stop: Arc<AtomicBool>,
    server: Option<JoinHandle<Result<(), String>>>,
    worker: Option<JoinHandle<Result<WorkerSummary, String>>>,
    dir: PathBuf,
}

impl Service {
    pub fn start(dir: PathBuf) -> Result<Service, String> {
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        let listener =
            TcpListener::bind("127.0.0.1:0").map_err(|e| format!("bind loopback: {e}"))?;
        let addr = listener
            .local_addr()
            .map_err(|e| format!("local_addr: {e}"))?
            .to_string();
        let token = format!("perfsuite-{}", std::process::id());
        let stop = Arc::new(AtomicBool::new(false));
        let server_opts = ServerOpts {
            quiet: true,
            token: Some(token.clone()),
            checkpoint: Some(dir.join("checkpoint.jsonl")),
            shutdown: Some(Arc::clone(&stop)),
            ..ServerOpts::default()
        };
        let server = std::thread::spawn(move || {
            run_server(
                &listener,
                Some(experiment_by_name),
                Vec::new(),
                &server_opts,
            )
            .map(|_| ())
        });
        let worker_opts = WorkerOpts {
            threads: 1,
            quiet: true,
            token: Some(token.clone()),
            name: Some("perfsuite-worker".into()),
            ..WorkerOpts::default()
        };
        let worker_addr = addr.clone();
        let worker =
            std::thread::spawn(move || work(&worker_addr, experiment_by_name, &worker_opts));
        Ok(Service {
            addr,
            client: ClientOpts {
                token: Some(token),
                ..ClientOpts::default()
            },
            stop,
            server: Some(server),
            worker: Some(worker),
            dir,
        })
    }

    /// Stop the daemon, wait for both threads, and return the
    /// worker's accounting.
    pub fn stop(mut self) -> Result<WorkerSummary, String> {
        self.stop.store(true, Ordering::SeqCst);
        let server = self.server.take().expect("server thread").join();
        let worker = self.worker.take().expect("worker thread").join();
        server.map_err(|_| "daemon thread panicked".to_string())??;
        worker.map_err(|_| "worker thread panicked".to_string())?
    }
}

impl Drop for Service {
    fn drop(&mut self) {
        // An early return must still stop and join both threads.
        self.stop.store(true, Ordering::SeqCst);
        if let Some(h) = self.server.take() {
            let _ = h.join();
        }
        if let Some(h) = self.worker.take() {
            let _ = h.join();
        }
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// One campaign's outcome.
pub struct Campaign {
    pub kind: usize,
    pub latency_ms: f64,
    pub rows: Result<String, String>,
}

/// Submit `kind` and poll until its rows are complete.
pub fn campaign(svc: &Service, kinds: &[Kind], kind: usize, t: &mut Tracer) -> Campaign {
    let k = &kinds[kind];
    let t0 = Instant::now();
    let rows = (|| {
        let ticket = t.span("dist.submit", |_| {
            submit(&svc.addr, &k.spec, 1, &svc.client)
        })?;
        loop {
            match t.span("dist.poll", |_| {
                poll(&svc.addr, &ticket.campaign, &svc.client)
            })? {
                Poll::Complete { rows, .. } => {
                    let result = SweepResult::from_indexed(&k.experiment, k.job_count, rows)?;
                    return Ok(result.to_json_string());
                }
                Poll::Running { .. } => t.span("dist.poll_wait", |_| {
                    std::thread::sleep(Duration::from_millis(POLL_MS))
                }),
            }
        }
    })();
    Campaign {
        kind,
        latency_ms: t0.elapsed().as_secs_f64() * 1000.0,
        rows,
    }
}

/// The seeded campaign order: blocks of a fixed mix, each shuffled.
pub fn mix(seed: u64, n: usize) -> Vec<usize> {
    let mut rng = Prng::seed_from_u64(seed);
    let mut order = Vec::with_capacity(n + BLOCK);
    while order.len() < n {
        let mut block: Vec<usize> = (0..BLOCK)
            .map(|i| (i >= LITMUS_PER_BLOCK) as usize)
            .collect();
        for i in (1..BLOCK).rev() {
            block.swap(i, rng.gen_range(0..i + 1));
        }
        order.extend(block);
    }
    order.truncate(n);
    order
}

/// Median over every series of `name` not split by campaign (the
/// daemon records some histograms once per campaign and once per
/// worker; the worker series alone count each observation once).
fn hist(report: &MetricsReport, name: &str) -> HistogramSnapshot {
    let mut merged = HistogramSnapshot::default();
    for m in report.metrics.iter().filter(|m| m.name == name) {
        if m.labels.iter().any(|(k, _)| k == "campaign") {
            continue;
        }
        if let MetricValue::Histogram(h) = &m.value {
            merged.merge(h);
        }
    }
    merged
}

pub fn run(opts: &Opts) -> Result<Outcome, String> {
    let dir = crate::out_dir().join(format!("service-{}", std::process::id()));
    let mut warm_ms = Vec::new();
    let mut ops = Ops::default();
    let mut rep = 0;
    // Each set-up starts a fresh daemon; the one it replaces is
    // stopped when dropped, after the set-up clock stops.
    let ((kinds, svc), setup_s) = timed_setup(SETUP_REPS, || {
        rep += 1;
        let kinds = kinds()?;
        let svc = Service::start(dir.join(rep.to_string()))?;
        // Warm-up: one campaign of each kind, checked like the rest.
        let mut off = Tracer::new(false);
        for (k, kind) in kinds.iter().enumerate() {
            let c = campaign(&svc, &kinds, k, &mut off);
            ops.check(c.rows.as_ref() == Ok(&kind.reference), || {
                format!(
                    "warm-up {} campaign: rows differ from run_parallel()",
                    kind.name
                )
            });
            warm_ms.push(c.latency_ms);
        }
        Ok((kinds, svc))
    })?;

    // Enough order for any run length: a campaign takes at least one
    // poll round trip.
    let order = mix(opts.seed, 1 + (opts.seconds * 1000.0) as usize);
    let mut next = 0usize;
    let mut latencies: Vec<Vec<f64>> = vec![Vec::new(); kinds.len()];
    let mut all_ms: Vec<f64> = warm_ms[warm_ms.len() - kinds.len()..].to_vec();
    let (passes, pass_ops) = timed_passes(
        opts,
        |t| {
            let kind = order[next % order.len()];
            next += 1;
            campaign(&svc, &kinds, kind, t)
        },
        |c| {
            let mut ops = Ops::default();
            let k = &kinds[c.kind];
            match &c.rows {
                Ok(rows) => ops.check(*rows == k.reference, || {
                    format!("{} campaign: rows differ from run_parallel()", k.name)
                }),
                Err(e) => ops.check(false, || format!("{} campaign: {e}", k.name)),
            }
            latencies[c.kind].push(c.latency_ms);
            all_ms.push(c.latency_ms);
            ops
        },
    );

    let status = fetch_status(
        &svc.addr,
        Duration::from_secs(5),
        svc.client.token.as_deref(),
    );
    let summary = svc.stop()?;
    let _ = std::fs::remove_dir_all(&dir);
    ops.absorb(pass_ops);
    let mut layer = BTreeMap::new();
    if opts.trace {
        let status = status?;
        let tr = &passes.tracer;
        let campaigns = passes.traced_ms.len().max(1) as f64;
        let served = all_ms.len() as f64;
        let cell_wall = hist(&status, "cell_wall_ms");
        layer.insert(
            "dist.submit_ms",
            tr.total_ns("dist.submit") as f64 / campaigns / 1e6,
        );
        layer.insert(
            "dist.poll_ms",
            tr.total_ns("dist.poll") as f64 / tr.count("dist.poll").max(1) as f64 / 1e6,
        );
        layer.insert(
            "dist.polls_per_campaign",
            tr.count("dist.poll") as f64 / campaigns,
        );
        layer.insert(
            "dist.lease_grant_ms.p50",
            hist(&status, "lease_grant_ms").p50(),
        );
        layer.insert("dist.cell_wall_ms.p50", cell_wall.p50());
        layer.insert(
            "dist.frame_handle_ms.p50",
            hist(&status, "frame_handle_ms").p50(),
        );
        layer.insert(
            "dist.checkpoint_save_ms.p50",
            hist(&status, "checkpoint_save_ms").p50(),
        );
        layer.insert(
            "dist.busy_frac",
            cell_wall.sum / all_ms.iter().sum::<f64>().max(1e-9),
        );
        layer.insert("dist.cells_executed", summary.executed as f64 / served);
    }
    let mut per_kind = Json::obj();
    for (k, ms) in kinds.iter().zip(&latencies) {
        per_kind = per_kind.field(k.name, crate::samples_json(ms));
    }
    let detail = Json::obj()
        .field("poll_ms", POLL_MS)
        .field(
            "mix",
            format!(
                "{LITMUS_PER_BLOCK} litmus (functional) : {} smoke (sim) per {BLOCK}",
                BLOCK - LITMUS_PER_BLOCK
            ),
        )
        .field("campaign_ms", crate::samples_json(&passes.untraced_ms))
        .field("per_kind_ms", per_kind)
        .field("worker_jobs", summary.jobs)
        .field("worker_executed", summary.executed);
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

    #[test]
    fn the_mix_is_seeded_and_balanced() {
        let a = mix(1, 40);
        assert_eq!(a, mix(1, 40));
        assert_ne!(a, mix(2, 40));
        for block in a.chunks(BLOCK) {
            assert_eq!(block.iter().filter(|&&k| k == 0).count(), LITMUS_PER_BLOCK);
        }
    }
}
