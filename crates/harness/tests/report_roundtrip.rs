//! `RunReport` JSON round-trip: serialize → decode the text must
//! reproduce the exact report, including watch log, traces and the
//! final memory image.

use sfence_harness::json::{self, Reader};
use sfence_harness::{RunReport, Session};
use sfence_isa::ir::{c, ld, IrProgram};
use sfence_isa::CompileOpts;
use sfence_sim::FenceConfig;

/// Decode a whole report document from its text.
fn decode(text: &str) -> RunReport {
    let mut r = Reader::new(text.as_bytes());
    let report = RunReport::read_json(&mut r).expect("report deserializes");
    r.end().expect("nothing after the report");
    report
}

fn sample_report() -> RunReport {
    let mut p = IrProgram::new();
    let data = p.shared_line("data");
    let flag = p.shared_line("flag");
    let got = p.global_line("got");
    let cls = p.class("Mailbox");
    p.method(cls, "send", &[], move |b| {
        b.store(data.cell(), c(7));
        b.fence_class();
        b.store(flag.cell(), c(1));
    });
    p.thread(move |b| {
        b.call("Mailbox::send", &[]);
        b.halt();
    });
    p.thread(move |b| {
        b.spin_until(ld(flag.cell()).eq(c(1)));
        b.fence();
        b.store(got.cell(), ld(data.cell()));
        b.halt();
    });
    let prog = p.compile(&CompileOpts::default()).unwrap();
    Session::for_program(&prog)
        .cores(2)
        .max_cycles(5_000_000)
        .fence(FenceConfig::SFENCE)
        .trace()
        .watch_var("data")
        .watch_var("flag")
        .run()
}

#[test]
fn run_report_round_trips_through_json() {
    let report = sample_report();
    // The run must have produced something interesting to round-trip.
    assert!(report.completed());
    assert!(!report.watch_log.is_empty(), "watched writes recorded");
    assert!(
        report.traces.iter().any(|t| !t.is_empty()),
        "traces recorded"
    );
    assert!(
        report.regs.iter().any(|core| core.iter().any(|&r| r != 0)),
        "register snapshot recorded"
    );

    let text = report.to_json().to_string_pretty();
    let back = decode(&text);
    assert_eq!(back, report);
    // Fixed point: serializing again yields identical bytes.
    assert_eq!(back.to_json().to_string_pretty(), text);
}

#[test]
fn compact_and_pretty_agree() {
    let report = sample_report();
    let compact = json::parse(&report.to_json().to_string_compact()).unwrap();
    let pretty = json::parse(&report.to_json().to_string_pretty()).unwrap();
    assert_eq!(compact, pretty);
}

/// Reports from the untimed engines round-trip too: absent cycle
/// fields stay absent, the backend tag survives, and enumerative
/// reports carry their SC state set through JSON unchanged.
#[test]
fn functional_and_enumerative_reports_round_trip() {
    use sfence_harness::{EnumerativeBackend, FunctionalBackend};

    let mut p = IrProgram::new();
    let data = p.shared_line("data");
    let flag = p.shared_line("flag");
    let od = p.observer("data");
    p.thread(move |b| {
        b.store(data.cell(), c(9));
        b.fence();
        b.store(flag.cell(), c(1));
        b.halt();
    });
    p.thread(move |b| {
        b.spin_until(ld(flag.cell()).eq(c(1)));
        b.fence();
        b.store(od.cell(), ld(data.cell()));
        b.halt();
    });
    let prog = p.compile(&CompileOpts::default()).unwrap();

    let functional = Session::for_program(&prog)
        .cores(2)
        .backend(&FunctionalBackend)
        .run();
    assert_eq!(functional.cycles, None);
    let enumerative = Session::for_program(&prog)
        .cores(2)
        .backend(&EnumerativeBackend::default())
        .run();
    assert_eq!(enumerative.sc_states.as_deref(), Some(&[vec![9]][..]));

    for report in [functional, enumerative] {
        let text = report.to_json().to_string_pretty();
        let back = decode(&text);
        assert_eq!(back, report);
        assert_eq!(back.to_json().to_string_pretty(), text);
    }
}
