//! Loopback integration tests of the coordinator/worker protocol: a
//! multi-worker campaign merges byte-identical to a single-process
//! `run_parallel()`, survives workers being killed or going silent
//! mid-campaign (leases re-issued), rejects mismatched binaries at
//! the handshake, and answers a warm re-run entirely from
//! worker-local caches.

use sfence_dist::protocol::{write_msg, FrameReader, Msg, PROTOCOL_VERSION};
use sfence_dist::{serve, work, CoordinatorOpts, ExperimentSpec, WorkerOpts};
use sfence_harness::{Axis, BackendId, Experiment, SweepResult, SCHEMA_VERSION};
use sfence_sim::FenceConfig;
use sfence_workloads::{Scale, WorkloadParams};
use std::net::{TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

/// The test registry: what `sfence_bench::experiment_by_name` is to
/// the real binaries. Built on the functional backend so a whole
/// campaign runs in milliseconds.
fn registry(name: &str) -> Option<Experiment> {
    match name {
        "tiny" => Some(
            Experiment::new("tiny")
                .workloads(["dekker", "msn"], WorkloadParams::small())
                .fences(vec![FenceConfig::TRADITIONAL, FenceConfig::SFENCE])
                .axis(Axis::Level(vec![1, 2]))
                .backend(BackendId::Functional),
        ),
        // Zero jobs: complete the instant it starts.
        "empty" => Some(Experiment::new("empty")),
        _ => None,
    }
}

/// A drifted build: resolves the same name to a different job list
/// (eval scale instead of small), so its fingerprint disagrees.
fn drifted_registry(name: &str) -> Option<Experiment> {
    registry(name).map(|e| e.scale(Scale::Eval))
}

fn scratch_dir(tag: &str) -> PathBuf {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "sfence-dist-test-{}-{}-{}",
        std::process::id(),
        tag,
        COUNTER.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn test_coordinator_opts() -> CoordinatorOpts {
    CoordinatorOpts {
        lease_size: 2,
        lease_ttl_ms: 10_000,
        quiet: true,
        token: None,
        abort: None,
    }
}

fn test_worker_opts(name: &str) -> WorkerOpts {
    WorkerOpts {
        threads: 1,
        heartbeat_ms: 50,
        name: Some(name.to_string()),
        read_timeout_ms: 20,
        max_idle_windows: 500, // 10s of silence before giving up
        quiet: true,
        ..WorkerOpts::default()
    }
}

/// Run one campaign with the given already-connected-or-late workers
/// and return `(merged json, summary)`.
fn campaign(
    experiment: &Experiment,
    opts: &CoordinatorOpts,
    workers: &[WorkerOpts],
    cache_dirs: &[Option<PathBuf>],
) -> (String, sfence_dist::DistSummary) {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let spec = ExperimentSpec::new(&experiment.name);
    let mut summary = std::thread::scope(|s| {
        let coord = s.spawn(|| serve(&listener, experiment, &spec, opts));
        let handles: Vec<_> = workers
            .iter()
            .zip(cache_dirs)
            .map(|(w, dir)| {
                let mut w = w.clone();
                w.cache_dir = dir.clone();
                let addr = addr.clone();
                s.spawn(move || work(&addr, registry, &w))
            })
            .collect();
        let summary = coord.join().unwrap().expect("campaign completes");
        for h in handles {
            h.join().unwrap().expect("worker exits cleanly");
        }
        summary
    });
    let rows = std::mem::take(&mut summary.rows);
    let result = SweepResult::from_indexed(&experiment.name, experiment.job_count(), rows)
        .expect("merge covers every job exactly once");
    (result.to_json_string(), summary)
}

#[test]
fn two_workers_merge_byte_identical_to_single_process() {
    let experiment = registry("tiny").unwrap();
    let expected = experiment.run_parallel().to_json_string();
    let (json, summary) = campaign(
        &experiment,
        &test_coordinator_opts(),
        &[test_worker_opts("w0"), test_worker_opts("w1")],
        &[None, None],
    );
    assert_eq!(json, expected);
    assert_eq!(summary.workers, 2);
    assert_eq!(summary.executed, experiment.job_count() as u64);
    assert_eq!(summary.rejected, 0);
}

/// A client that completes the v3 handshake, takes one lease, and
/// then either drops the connection (a killed worker) or goes silent
/// while keeping it open (a hung worker). Returns the leased indices
/// and, for the hung case, the stream that must be kept alive by the
/// caller.
fn take_lease_and_stop(addr: &str, hang: bool) -> (Vec<usize>, Option<TcpStream>) {
    let stream = TcpStream::connect(addr).unwrap();
    let mut writer = stream.try_clone().unwrap();
    let mut reader = FrameReader::new(stream.try_clone().unwrap());
    let mut next = || reader.next_msg().unwrap().expect("reply");
    write_msg(
        &mut writer,
        &Msg::Hello {
            schema_version: SCHEMA_VERSION,
            protocol_version: PROTOCOL_VERSION,
            worker: "doomed".into(),
            token: None,
        },
    )
    .unwrap();
    match next() {
        Msg::Welcome { .. } => {}
        other => panic!("expected welcome, got {other:?}"),
    }
    write_msg(&mut writer, &Msg::Request { batch: 0 }).unwrap();
    let jobs = match next() {
        Msg::Lease { jobs, .. } => jobs,
        other => panic!("expected lease, got {other:?}"),
    };
    assert!(!jobs.is_empty());
    (jobs, hang.then_some(stream))
}

#[test]
fn killed_worker_mid_campaign_re_leases_and_merge_is_identical() {
    let experiment = registry("tiny").unwrap();
    let expected = experiment.run_parallel().to_json_string();
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let spec = ExperimentSpec::new("tiny");
    let opts = test_coordinator_opts();

    let summary = std::thread::scope(|s| {
        let coord = s.spawn(|| serve(&listener, &experiment, &spec, &opts));
        // The doomed worker handshakes, takes a lease of 2 jobs, and
        // is "killed": its connection drops with the lease
        // outstanding.
        let (doomed_jobs, _) = take_lease_and_stop(&addr, false);
        assert_eq!(doomed_jobs.len(), 2);
        // A healthy worker then completes the whole campaign,
        // including the re-leased jobs.
        let w = s.spawn({
            let addr = addr.clone();
            move || work(&addr, registry, &test_worker_opts("survivor"))
        });
        let summary = coord.join().unwrap().expect("campaign completes");
        let ws = w.join().unwrap().expect("survivor exits cleanly");
        assert_eq!(ws.jobs, experiment.job_count() as u64);
        summary
    });
    assert_eq!(summary.released, 2, "the dead worker's lease re-queued");
    let result =
        SweepResult::from_indexed(&experiment.name, experiment.job_count(), summary.rows).unwrap();
    assert_eq!(result.to_json_string(), expected);
}

#[test]
fn hung_worker_lease_expires_and_re_leases() {
    let experiment = registry("tiny").unwrap();
    let expected = experiment.run_parallel().to_json_string();
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let spec = ExperimentSpec::new("tiny");
    let opts = CoordinatorOpts {
        lease_ttl_ms: 150, // hung leases expire quickly under test
        ..test_coordinator_opts()
    };

    let summary = std::thread::scope(|s| {
        let coord = s.spawn(|| serve(&listener, &experiment, &spec, &opts));
        // The hung worker keeps its socket open but never heartbeats
        // and never returns rows.
        let (hung_jobs, hung_stream) = take_lease_and_stop(&addr, true);
        assert_eq!(hung_jobs.len(), 2);
        let w = s.spawn({
            let addr = addr.clone();
            move || work(&addr, registry, &test_worker_opts("survivor"))
        });
        let summary = coord.join().unwrap().expect("campaign completes");
        w.join().unwrap().expect("survivor exits cleanly");
        drop(hung_stream);
        summary
    });
    assert!(
        summary.released >= 2,
        "the hung worker's lease must expire and re-queue (released {})",
        summary.released
    );
    let result =
        SweepResult::from_indexed(&experiment.name, experiment.job_count(), summary.rows).unwrap();
    assert_eq!(result.to_json_string(), expected);
}

#[test]
fn warm_cache_rerun_executes_zero_cells_on_every_worker() {
    let experiment = registry("tiny").unwrap();
    let expected = experiment.run_parallel().to_json_string();
    let cache_a = scratch_dir("cache-a");
    let cache_b = scratch_dir("cache-b");

    // Cold pass: two workers with separate local caches split the
    // campaign between them.
    let (json, summary) = campaign(
        &experiment,
        &test_coordinator_opts(),
        &[test_worker_opts("w0"), test_worker_opts("w1")],
        &[Some(cache_a.clone()), Some(cache_b.clone())],
    );
    assert_eq!(json, expected);
    assert_eq!(summary.executed, experiment.job_count() as u64);

    // Warm pass: both workers share the union cache (every cell is in
    // one of the two directories — merge them into one dir the way a
    // shared network mount would look).
    for entry in std::fs::read_dir(&cache_b).unwrap() {
        let path = entry.unwrap().path();
        std::fs::copy(&path, cache_a.join(path.file_name().unwrap())).unwrap();
    }
    let (json, summary) = campaign(
        &experiment,
        &test_coordinator_opts(),
        &[test_worker_opts("w0"), test_worker_opts("w1")],
        &[Some(cache_a.clone()), Some(cache_a.clone())],
    );
    assert_eq!(json, expected, "cached rows byte-identical");
    assert_eq!(summary.executed, 0, "no worker executed any cell");
    assert_eq!(summary.cache_hits, experiment.job_count() as u64);

    let _ = std::fs::remove_dir_all(&cache_a);
    let _ = std::fs::remove_dir_all(&cache_b);
}

#[test]
fn drifted_binary_aborts_at_first_lease_and_campaign_still_completes() {
    let experiment = registry("tiny").unwrap();
    let expected = experiment.run_parallel().to_json_string();
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let spec = ExperimentSpec::new("tiny");
    let opts = test_coordinator_opts();

    let summary = std::thread::scope(|s| {
        let coord = s.spawn(|| serve(&listener, &experiment, &spec, &opts));
        // The drifted worker resolves "tiny" to a different job list.
        // Under v3 the spec rides on each lease, so the mismatch is
        // caught at its first lease: it aborts, its lease re-queues,
        // and it must not return a single row.
        let drifted = {
            let addr = addr.clone();
            s.spawn(move || work(&addr, drifted_registry, &test_worker_opts("drifted")))
        };
        let err = drifted.join().unwrap().expect_err("drifted build refused");
        assert!(
            err.contains("fingerprint mismatch"),
            "unexpected error: {err}"
        );
        let w = s.spawn({
            let addr = addr.clone();
            move || work(&addr, registry, &test_worker_opts("healthy"))
        });
        let summary = coord.join().unwrap().expect("campaign completes");
        w.join().unwrap().expect("healthy worker exits cleanly");
        summary
    });
    assert!(summary.rejected >= 1, "the aborting worker is accounted");
    assert!(
        summary.released >= 2,
        "the drifted worker's lease re-queued (released {})",
        summary.released
    );
    let result =
        SweepResult::from_indexed(&experiment.name, experiment.job_count(), summary.rows).unwrap();
    assert_eq!(result.to_json_string(), expected);
}

#[test]
fn worker_racing_the_finish_line_is_told_done_not_left_hanging() {
    // A worker whose connection is still sitting un-accepted in the
    // listen backlog when the campaign completes must be handed
    // `done` by the shutdown drain and treat it as a clean no-work
    // exit — not hang out its idle budget waiting for a handshake
    // nobody will serve. A zero-job experiment makes the race
    // deterministic: the accept loop observes completion on its very
    // first iteration and never accepts anyone.
    let experiment = registry("empty").unwrap();
    assert_eq!(experiment.job_count(), 0);
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let spec = ExperimentSpec::new("empty");
    let opts = test_coordinator_opts();

    std::thread::scope(|s| {
        let racer = s.spawn({
            let addr = addr.clone();
            move || {
                let mut w = test_worker_opts("racer");
                w.max_idle_windows = 250; // fail the test fast if hung
                work(&addr, registry, &w)
            }
        });
        // Give the racer time to connect and send its hello before
        // the (instantly-complete) campaign starts.
        std::thread::sleep(std::time::Duration::from_millis(200));
        let summary = s
            .spawn(|| serve(&listener, &experiment, &spec, &opts))
            .join()
            .unwrap()
            .expect("empty campaign completes");
        assert!(summary.rows.is_empty());
        let ws = racer.join().unwrap().expect("racer exits cleanly");
        assert_eq!(ws.jobs, 0);
    });
}

#[test]
fn version_mismatch_is_rejected_with_a_reason() {
    let experiment = registry("tiny").unwrap();
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let spec = ExperimentSpec::new("tiny");
    let opts = test_coordinator_opts();

    std::thread::scope(|s| {
        let coord = s.spawn(|| serve(&listener, &experiment, &spec, &opts));
        // A client from a different protocol generation.
        let stream = TcpStream::connect(&addr).unwrap();
        let mut writer = stream.try_clone().unwrap();
        let mut reader = FrameReader::new(stream);
        write_msg(
            &mut writer,
            &Msg::Hello {
                schema_version: SCHEMA_VERSION,
                protocol_version: PROTOCOL_VERSION + 1,
                worker: "time-traveler".into(),
                token: None,
            },
        )
        .unwrap();
        match reader.next_msg().unwrap().expect("a reply") {
            Msg::Reject { reason } => assert!(reason.contains("version mismatch")),
            other => panic!("expected reject, got {other:?}"),
        }
        // A healthy worker still completes the campaign.
        let w = s.spawn({
            let addr = addr.clone();
            move || work(&addr, registry, &test_worker_opts("healthy"))
        });
        coord.join().unwrap().expect("campaign completes");
        w.join().unwrap().expect("healthy worker exits cleanly");
    });
}

#[test]
fn status_probe_reports_live_queue_state_mid_campaign() {
    let experiment = registry("tiny").unwrap();
    let expected = experiment.run_parallel().to_json_string();
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let spec = ExperimentSpec::new("tiny");
    let opts = test_coordinator_opts();
    let jobs = experiment.job_count();

    let summary = std::thread::scope(|s| {
        let coord = s.spawn(|| serve(&listener, &experiment, &spec, &opts));
        // Freeze the campaign mid-flight: a hung worker holds a lease
        // of 2 jobs, so the probe observes a genuinely live queue.
        let (held, hung_stream) = take_lease_and_stop(&addr, true);
        assert_eq!(held.len(), 2);

        let report = sfence_dist::fetch_status(&addr, std::time::Duration::from_secs(5), None)
            .expect("status probe answered");
        assert_eq!(report.produced_by, "coordinator");
        let gauge = |name: &str| match report.get(name, &[]) {
            Some(m) => match m.value {
                sfence_obs::MetricValue::Gauge(v) => v,
                ref other => panic!("{name}: expected gauge, got {other:?}"),
            },
            None => panic!("{name} missing from the status frame"),
        };
        assert_eq!(gauge("queue_jobs_total") as usize, jobs);
        assert_eq!(gauge("queue_active_leases") as usize, 2);
        assert_eq!(gauge("queue_done") as usize, 0);
        assert_eq!(gauge("queue_pending") as usize, jobs - 2);
        // The wire payload round-trips through the metrics schema.
        let back = sfence_obs::MetricsReport::from_json(&report.to_json()).unwrap();
        assert_eq!(back.metrics.len(), report.metrics.len());

        // Release the hung lease and let a real worker finish.
        drop(hung_stream);
        let w = s.spawn({
            let addr = addr.clone();
            move || work(&addr, registry, &test_worker_opts("finisher"))
        });
        let summary = coord.join().unwrap().expect("campaign completes");
        w.join().unwrap().expect("finisher exits cleanly");
        summary
    });
    let result = SweepResult::from_indexed(&experiment.name, jobs, summary.rows).unwrap();
    assert_eq!(result.to_json_string(), expected);
}
