//! Integration tests of the event-driven daemon, with every
//! interleaving forced through a status probe, a server counter or a
//! file's contents rather than by sleeping: a parked worker request is
//! woken by a submit, a submit's durable write is one journal record
//! however many campaigns the daemon retains, a kill between a
//! journal append and the next snapshot loses no acked campaign (a
//! torn journal tail included), and the worker's idle exit and
//! bounded campaign cache behave.

use sfence_dist::checkpoint::journal_path;
use sfence_dist::protocol::{write_msg, FrameReader, Msg, PROTOCOL_VERSION};
use sfence_dist::worker::CAMPAIGN_CACHE;
use sfence_dist::{client, fetch_status, run_server, work, ExperimentSpec, ServerOpts, WorkerOpts};
use sfence_harness::{Axis, BackendId, Experiment, RunOptions, SCHEMA_VERSION};
use sfence_obs::log::EventLog;
use sfence_obs::{MetricValue, MetricsReport};
use sfence_sim::FenceConfig;
use sfence_workloads::WorkloadParams;
use std::net::{TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn registry(name: &str) -> Option<Experiment> {
    match name {
        "tiny" => Some(
            Experiment::new("tiny")
                .workloads(["dekker", "msn"], WorkloadParams::small())
                .fences(vec![FenceConfig::TRADITIONAL, FenceConfig::SFENCE])
                .axis(Axis::Level(vec![1, 2]))
                .backend(BackendId::Functional),
        ),
        _ => None,
    }
}

fn scratch_dir(tag: &str) -> PathBuf {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "sfence-event-test-{}-{}-{}",
        std::process::id(),
        tag,
        COUNTER.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn test_server_opts() -> ServerOpts {
    ServerOpts {
        default_lease: 2,
        lease_ttl_ms: 10_000,
        quiet: true,
        ..ServerOpts::default()
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

fn wait_opts() -> client::WaitOpts {
    client::WaitOpts {
        poll_ms: 20,
        retries: 100,
        retry_base_ms: 20,
        retry_cap_ms: 200,
        ..Default::default()
    }
}

fn gauge(report: &MetricsReport, name: &str) -> f64 {
    match report.get(name, &[]).map(|m| &m.value) {
        Some(MetricValue::Gauge(g)) => *g,
        other => panic!("{name}: expected a gauge, got {other:?}"),
    }
}

fn histogram_count(report: &MetricsReport, name: &str) -> u64 {
    match report.get(name, &[]).map(|m| &m.value) {
        Some(MetricValue::Histogram(h)) => h.count,
        None => 0,
        other => panic!("{name}: expected a histogram, got {other:?}"),
    }
}

/// Handshake a hand-rolled worker connection.
fn hello(addr: &str, name: &str) -> (TcpStream, FrameReader<TcpStream>) {
    let stream = TcpStream::connect(addr).unwrap();
    let mut writer = stream.try_clone().unwrap();
    let mut reader = FrameReader::new(stream);
    write_msg(
        &mut writer,
        &Msg::Hello {
            schema_version: SCHEMA_VERSION,
            protocol_version: PROTOCOL_VERSION,
            worker: name.into(),
            token: None,
        },
    )
    .unwrap();
    match reader.next_msg().unwrap().unwrap() {
        Msg::Welcome { .. } => {}
        other => panic!("expected welcome, got {other:?}"),
    }
    (writer, reader)
}

/// Probe until `ready` holds for the daemon's status report. Each
/// probe is a round trip; the deadline only turns a hang into a
/// failure.
fn probe_until(addr: &str, what: &str, ready: impl Fn(&MetricsReport) -> bool) -> MetricsReport {
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let report = fetch_status(addr, Duration::from_secs(5), None).unwrap();
        if ready(&report) {
            return report;
        }
        assert!(Instant::now() < deadline, "never observed: {what}");
    }
}

#[test]
fn a_submit_wakes_a_parked_worker_with_no_wait_frame_in_between() {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let shutdown = Arc::new(AtomicBool::new(false));
    let opts = ServerOpts {
        shutdown: Some(Arc::clone(&shutdown)),
        ..test_server_opts()
    };
    std::thread::scope(|s| {
        let server = s.spawn(|| run_server(&listener, Some(registry), Vec::new(), &opts));
        // Nothing is pending: the request parks on the daemon.
        let (mut writer, mut reader) = hello(&addr, "sleeper");
        write_msg(&mut writer, &Msg::Request { batch: 0 }).unwrap();
        probe_until(&addr, "the request parked", |r| {
            gauge(r, "requests_parked") == 1.0
        });
        // The submit is what answers it: the very next frame is the
        // lease, not a `wait` the worker would have to retry after.
        let ticket =
            client::submit(&addr, &ExperimentSpec::new("tiny"), 1, &wait_opts().client).unwrap();
        match reader.next_msg().unwrap().unwrap() {
            Msg::Lease { campaign, jobs, .. } => {
                assert_eq!(campaign, ticket.campaign);
                assert_eq!(jobs.len(), 2);
            }
            other => panic!("expected a lease straight after the submit, got {other:?}"),
        }
        let report = probe_until(&addr, "the park ended", |r| {
            gauge(r, "requests_parked") == 0.0
        });
        assert_eq!(histogram_count(&report, "request_park_ms"), 1);
        shutdown.store(true, Ordering::SeqCst);
        // The stop reaches the idle connection: it is told `done`.
        loop {
            match reader.next_msg() {
                Ok(Some(Msg::Done)) => break,
                Ok(None) => continue,
                other => panic!("expected done, got {other:?}"),
            }
        }
        server.join().unwrap().expect("server exits");
    });
}

fn journal_lines(ckpt: &Path) -> Vec<String> {
    std::fs::read_to_string(journal_path(ckpt))
        .unwrap_or_default()
        .lines()
        .map(str::to_string)
        .collect()
}

#[test]
fn one_submit_writes_one_journal_record_however_many_campaigns_are_retained() {
    let dir = scratch_dir("o1-ack");
    let ckpt = dir.join("ckpt.jsonl");
    let completed = 5;
    // No periodic snapshot during the test: only acks write.
    let opts = |shutdown: &Arc<AtomicBool>| ServerOpts {
        checkpoint: Some(ckpt.clone()),
        checkpoint_every_ms: 3_600_000,
        shutdown: Some(Arc::clone(shutdown)),
        ..test_server_opts()
    };

    // Phase 1: complete and fetch `completed` campaigns; the clean
    // shutdown's snapshot then holds every one of them.
    {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let shutdown = Arc::new(AtomicBool::new(false));
        let opts = opts(&shutdown);
        std::thread::scope(|s| {
            let server = s.spawn(|| run_server(&listener, Some(registry), Vec::new(), &opts));
            let worker = {
                let addr = addr.clone();
                s.spawn(move || work(&addr, registry, &test_worker_opts("w")))
            };
            let wait = wait_opts();
            for _ in 0..completed {
                let t =
                    client::submit(&addr, &ExperimentSpec::new("tiny"), 1, &wait.client).unwrap();
                client::wait_for_campaign(&addr, &t.campaign, &wait, |_, _| {}).unwrap();
            }
            assert_eq!(journal_lines(&ckpt).len(), completed, "one record per ack");
            shutdown.store(true, Ordering::SeqCst);
            server.join().unwrap().expect("server exits");
            worker.join().unwrap().expect("worker exits");
        });
    }
    let snapshot = std::fs::read(&ckpt).unwrap();
    let campaign_lines = |bytes: &[u8]| {
        String::from_utf8_lossy(bytes)
            .lines()
            .filter(|l| l.contains(r#""type":"campaign""#))
            .count()
    };
    assert_eq!(campaign_lines(&snapshot), completed);
    assert!(
        journal_lines(&ckpt).is_empty(),
        "the snapshot compacted the journal"
    );

    // Phase 2: a restarted daemon retaining them all acks one more
    // submit with a single journal record and no snapshot rewrite.
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let shutdown = Arc::new(AtomicBool::new(false));
    let opts = opts(&shutdown);
    std::thread::scope(|s| {
        let server = s.spawn(|| run_server(&listener, Some(registry), Vec::new(), &opts));
        let before = probe_until(&addr, "the restored table", |r| {
            gauge(r, "campaigns_known") == completed as f64
        });
        assert_eq!(histogram_count(&before, "checkpoint_save_ms"), 0);
        let t =
            client::submit(&addr, &ExperimentSpec::new("tiny"), 1, &wait_opts().client).unwrap();
        assert_eq!(t.campaign, format!("c{}", completed + 1));
        let journal = journal_lines(&ckpt);
        assert_eq!(journal.len(), 1, "exactly one record for the ack");
        assert!(journal[0].contains(&format!(r#""id":{}"#, completed + 1)));
        assert_eq!(
            std::fs::read(&ckpt).unwrap(),
            snapshot,
            "snapshot untouched"
        );
        let after = fetch_status(&addr, Duration::from_secs(5), None).unwrap();
        assert_eq!(histogram_count(&after, "checkpoint_save_ms"), 0);
        assert_eq!(histogram_count(&after, "journal_append_ms"), 1);
        shutdown.store(true, Ordering::SeqCst);
        server.join().unwrap().expect("server exits");
    });
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_kill_between_journal_append_and_snapshot_recovers_every_acked_id() {
    let dir = scratch_dir("kill-journal");
    let ckpt = dir.join("ckpt.jsonl");
    let crash = dir.join("crash");
    std::fs::create_dir_all(&crash).unwrap();
    let crash_ckpt = crash.join("ckpt.jsonl");
    let wait = wait_opts();

    // Phase 1: three acked submits, no snapshot since. Whatever a
    // kill -9 would leave is already on disk — acks follow the fsync —
    // so a copy of the files taken now is the crash image.
    {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let shutdown = Arc::new(AtomicBool::new(false));
        let opts = ServerOpts {
            checkpoint: Some(ckpt.clone()),
            checkpoint_every_ms: 3_600_000,
            shutdown: Some(Arc::clone(&shutdown)),
            ..test_server_opts()
        };
        std::thread::scope(|s| {
            let server = s.spawn(|| run_server(&listener, Some(registry), Vec::new(), &opts));
            for expected in ["c1", "c2", "c3"] {
                let t =
                    client::submit(&addr, &ExperimentSpec::new("tiny"), 1, &wait.client).unwrap();
                assert_eq!(t.campaign, expected);
            }
            assert!(
                !ckpt.exists(),
                "no snapshot yet: the journal alone holds the acks"
            );
            std::fs::copy(journal_path(&ckpt), journal_path(&crash_ckpt)).unwrap();
            shutdown.store(true, Ordering::SeqCst);
            server.join().unwrap().expect("server exits");
        });
    }
    // The crash also tore a fourth append that was never acked.
    let mut journal = std::fs::read_to_string(journal_path(&crash_ckpt)).unwrap();
    let first = journal.lines().next().unwrap().to_string();
    journal.push_str(&first[..first.len() / 2]);
    std::fs::write(journal_path(&crash_ckpt), journal).unwrap();

    // Phase 2: the restarted daemon knows every acked id, reports
    // the torn tail, and numbers the next submit after them.
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let shutdown = Arc::new(AtomicBool::new(false));
    let log = Arc::new(EventLog::to_stderr("dist", None));
    let opts = ServerOpts {
        checkpoint: Some(crash_ckpt.clone()),
        checkpoint_every_ms: 3_600_000,
        shutdown: Some(Arc::clone(&shutdown)),
        log: Some(Arc::clone(&log)),
        ..test_server_opts()
    };
    std::thread::scope(|s| {
        let server = s.spawn(|| run_server(&listener, Some(registry), Vec::new(), &opts));
        for id in ["c1", "c2", "c3"] {
            match client::poll(&addr, id, &wait.client).unwrap() {
                client::Poll::Running { done: 0, total: 8 } => {}
                other => panic!("{id}: {other:?}"),
            }
        }
        let t = client::submit(&addr, &ExperimentSpec::new("tiny"), 1, &wait.client).unwrap();
        assert_eq!(t.campaign, "c4");
        let (events, _) = log.recent_with_dropped();
        let kinds: Vec<&str> = events.iter().map(|e| e.event.as_str()).collect();
        assert!(kinds.contains(&"journal_torn_tail"), "{kinds:?}");
        assert_eq!(kinds.iter().filter(|&&k| k == "resume").count(), 3);
        // The replayed journal was folded into a snapshot at startup.
        let snapshot = std::fs::read_to_string(&crash_ckpt).unwrap();
        assert_eq!(snapshot.matches(r#""type":"campaign""#).count(), 3);
        assert_eq!(journal_lines(&crash_ckpt).len(), 1, "only c4 since");
        shutdown.store(true, Ordering::SeqCst);
        let outcome = server.join().unwrap().expect("server exits");
        let ids: Vec<u64> = outcome.campaigns.iter().map(|c| c.id).collect();
        assert_eq!(ids, [1, 2, 3, 4]);
    });
    let _ = std::fs::remove_dir_all(&dir);
}

/// A hand-rolled coordinator for worker-side tests: handshakes one
/// worker, then answers each request with `reply(n)` for the n-th
/// request until that returns `None`, then says `done`. Returns every
/// result frame's rows, in order.
fn scripted_coordinator(
    listener: TcpListener,
    mut reply: impl FnMut(usize) -> Option<Msg> + Send + 'static,
) -> std::thread::JoinHandle<Vec<Vec<sfence_harness::IndexedRow>>> {
    std::thread::spawn(move || {
        let (stream, _) = listener.accept().unwrap();
        let mut writer = stream.try_clone().unwrap();
        let mut reader = FrameReader::new(stream);
        match reader.next_msg().unwrap().unwrap() {
            Msg::Hello { .. } => {}
            other => panic!("expected hello, got {other:?}"),
        }
        write_msg(
            &mut writer,
            &Msg::Welcome {
                lease_ttl_ms: 10_000,
            },
        )
        .unwrap();
        let mut results = Vec::new();
        let mut requests = 0;
        loop {
            match reader.next_msg() {
                Ok(Some(Msg::Request { .. })) => {
                    let next = reply(requests);
                    requests += 1;
                    let done = next.is_none();
                    write_msg(&mut writer, &next.unwrap_or(Msg::Done)).unwrap();
                    if done {
                        return results;
                    }
                }
                Ok(Some(Msg::Result { rows, .. })) => results.push(rows),
                Ok(Some(Msg::Heartbeat)) | Ok(None) => {}
                // The worker left (idle exit): nothing more to serve.
                Err(_) => return results,
                Ok(Some(other)) => panic!("unexpected {other:?}"),
            }
        }
    })
}

#[test]
fn idle_exit_counts_wall_clock_even_when_every_wait_is_zero() {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    // A current daemon answers an expired park with `wait {ms: 0}`;
    // summing naps would never reach the idle budget.
    let coordinator = scripted_coordinator(listener, |_| Some(Msg::Wait { ms: 0 }));
    let opts = WorkerOpts {
        idle_exit_ms: 200,
        ..test_worker_opts("idler")
    };
    let t0 = Instant::now();
    let summary = work(&addr, registry, &opts).expect("idle exit is a clean exit");
    assert!(t0.elapsed() >= Duration::from_millis(200));
    assert_eq!(summary.jobs, 0);
    assert!(coordinator.join().unwrap().is_empty());
}

#[test]
fn an_evicted_campaign_is_re_resolved_from_its_lease_frame() {
    let tiny = registry("tiny").unwrap();
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    // Leases of c1..c(CACHE+1) evict c1 from the worker's cache; the
    // newest campaign stays cached, and c1 comes back once more.
    let mut order: Vec<usize> = (1..=CAMPAIGN_CACHE + 1).collect();
    order.extend([CAMPAIGN_CACHE + 1, 1]);
    let leases = order.clone();
    let (fingerprint, job_count) = (tiny.fingerprint(), tiny.job_count() as u64);
    let coordinator = scripted_coordinator(listener, move |n| {
        leases.get(n).map(|&id| Msg::Lease {
            campaign: format!("c{id}"),
            spec: ExperimentSpec::new("tiny").to_json(),
            fingerprint: fingerprint.clone(),
            job_count,
            jobs: vec![n % 8],
        })
    });
    let log = Arc::new(EventLog::to_stderr("worker", None));
    let opts = WorkerOpts {
        log: Some(Arc::clone(&log)),
        ..test_worker_opts("forgetful")
    };
    let summary = work(&addr, registry, &opts).unwrap();
    assert_eq!(summary.jobs, order.len() as u64);
    let results = coordinator.join().unwrap();
    for (n, rows) in results.iter().enumerate() {
        let expect = tiny.run_with(RunOptions::new(1).jobs(vec![n % 8])).rows;
        assert_eq!(
            rows[0].to_json().to_string_compact(),
            expect[0].to_json().to_string_compact(),
            "lease {n}"
        );
    }
    let (events, _) = log.recent_with_dropped();
    let resolves = |campaign: &str| {
        events
            .iter()
            .filter(|e| e.event == "campaign_resolve")
            .filter(|e| {
                e.fields
                    .iter()
                    .any(|(k, v)| k == "campaign" && v == campaign)
            })
            .count()
    };
    assert_eq!(resolves("c1"), 2, "evicted, then resolved again");
    assert_eq!(
        resolves(&format!("c{}", CAMPAIGN_CACHE + 1)),
        1,
        "still cached"
    );
}

#[test]
fn a_finished_worker_exits_without_waiting_out_a_heartbeat() {
    let tiny = registry("tiny").unwrap();
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let (fingerprint, job_count) = (tiny.fingerprint(), tiny.job_count() as u64);
    let coordinator = scripted_coordinator(listener, move |n| {
        (n == 0).then(|| Msg::Lease {
            campaign: "c1".into(),
            spec: ExperimentSpec::new("tiny").to_json(),
            fingerprint: fingerprint.clone(),
            job_count,
            jobs: vec![0],
        })
    });
    // Beats every 3.3 s (a third of the scripted 10 s lease TTL): a
    // worker that slept out its heartbeat interval before exiting
    // would take that long to return.
    let opts = WorkerOpts {
        heartbeat_ms: 10_000,
        ..test_worker_opts("prompt")
    };
    let t0 = Instant::now();
    let summary = work(&addr, registry, &opts).unwrap();
    assert!(
        t0.elapsed() < Duration::from_secs(2),
        "worker took {:?} to leave after `done`",
        t0.elapsed()
    );
    assert_eq!(summary.jobs, 1);
    assert_eq!(coordinator.join().unwrap().len(), 1);
}
