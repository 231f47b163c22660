//! E20 and E23: the hot-path overhead gates.
//!
//! Two things ride the hot logging path beyond the paper's algorithm, and
//! each must keep the paper's economics intact — add **less than 1%** to
//! the Fig. 3-style SDET cost:
//!
//! * **E20, telemetry.** Every logged event pays one histogram observation
//!   of the reservation wait (`observe_reserve_wait`). It pays no event
//!   counter: the commit add of Fig. 2 counts the event in its buffer
//!   slot's commit word, and `events_logged` is tallied once per retired
//!   buffer.
//! * **E23, adaptive sampling.** After the mask check every admitted event
//!   asks [`SampleGate::admit`]. At the default rate of 1 — the state every
//!   tracer sits in until a detector actually fires — that must be one
//!   relaxed load and a compare, or the control plane would tax exactly the
//!   healthy steady state it exists to protect.
//!
//! Method (measured + modelled, like E1), the same for both:
//!
//! 1. *Measure* the added per-event work in isolation on this host
//!    (floor-subtracted), and the full per-event logging cost (E2's fit,
//!    which already *includes* the addition since it is compiled in). Their
//!    ratio is the addition's share of the event cost.
//! 2. *Model* the SDET run on the virtual-time multiprocessor twice with
//!    paper-anchored costs: per-event cost as shipped vs. per-event cost
//!    with that share stripped out. (Paper-anchored, not self-calibrated,
//!    for the same reason as E1's shape test: a debug build would inflate
//!    the absolute numbers but the *share* transfers.)
//! 3. Gate on the added busy-work fraction.

use crate::event_cost;
use crate::sdet_fig3::{busy, run_point};
use crate::util::time_per_call;
use ktrace_analysis::table::{Align, TextTable};
use ktrace_core::SampleGate;
use ktrace_format::MajorId;
use ktrace_telemetry::{ReserveTally, Telemetry};
use ktrace_vsim::{CostParams, Scheme};
use std::fmt::Write as _;

/// The gate: a hot-path addition may add at most this fraction of SDET
/// busy work.
pub const MAX_OVERHEAD: f64 = 0.01;

/// What one gate calls the thing it measures.
#[derive(Debug, Clone, Copy)]
struct Subject {
    /// The `experiment` value of the JSON artifact.
    experiment: &'static str,
    /// First line of the report.
    heading: &'static str,
    /// Row label of the isolated measurement.
    added: &'static str,
    /// The addition, as the other rows and the verdict line name it.
    noun: &'static str,
}

const TELEMETRY: Subject = Subject {
    experiment: "E20 telemetry overhead gate",
    heading: "Telemetry self-metrics overhead",
    added: "per-event telemetry work added",
    noun: "telemetry",
};

const SAMPLING: Subject = Subject {
    experiment: "E23 adaptive-sampling overhead gate",
    heading: "Adaptive sampling-gate overhead",
    added: "per-event admit() cost at rate 1",
    noun: "sampling gate",
};

/// Everything a gate measured and decided, for the report and the
/// `BENCH_telemetry.json` / `BENCH_adapt.json` artifact.
#[derive(Debug, Clone)]
pub struct GateResult {
    subject: Subject,
    /// Measured cost (ns) of the per-event work the addition puts on the
    /// hot path, in isolation.
    pub added_ns: f64,
    /// Measured full per-event logging cost (ns), addition included.
    pub event_ns: f64,
    /// The addition's share of the per-event cost.
    pub added_fraction: f64,
    /// Modelled CPUs of the SDET point.
    pub ncpus: usize,
    /// Modelled SDET busy work (ns) with the addition compiled in.
    pub busy_with: f64,
    /// Modelled SDET busy work (ns) with its share stripped.
    pub busy_without: f64,
    /// Modelled throughput (scripts/hour) with the addition.
    pub throughput_with: f64,
    /// Modelled throughput (scripts/hour) without it.
    pub throughput_without: f64,
    /// Added busy-work fraction: `(with - without) / without`.
    pub overhead: f64,
    /// The gate threshold ([`MAX_OVERHEAD`]).
    pub threshold: f64,
    /// Did the gate pass?
    pub pass: bool,
}

fn iters(fast: bool) -> u64 {
    if fast {
        200_000
    } else {
        2_000_000
    }
}

/// E20: measures what telemetry adds to a successfully logged event — the
/// reservation-wait observation. The wait value alternates zero and
/// nonzero, which is pessimistic: real uncontended reservations observe
/// zero, the cheaper branch.
pub fn measure_telemetry(fast: bool) -> GateResult {
    let tel = Telemetry::new(1);
    let mut i = 0u64;
    let raw_ns = time_per_call(iters(fast), || {
        tel.cpu(0)
            .observe_reserve_wait(std::hint::black_box(i & 0x3ff));
        i = i.wrapping_add(1);
    });
    gate(TELEMETRY, raw_ns, fast)
}

/// E23: measures what rate-1 sampling adds to a mask-admitted event — one
/// relaxed load of the gate's one rate word plus the `<= 1` early return,
/// the same word whatever the major. The major still alternates, as a real
/// stream's does; the index step that costs is timed with the call, which
/// is pessimistic for the gate.
pub fn measure_sampling(fast: bool) -> GateResult {
    let gate_under_test = SampleGate::new();
    let majors = [MajorId::MEM, MajorId::SCHED];
    let mut i = 0usize;
    let raw_ns = time_per_call(iters(fast), || {
        std::hint::black_box(gate_under_test.admit(std::hint::black_box(majors[i & 1])));
        i = i.wrapping_add(1);
    });
    gate(SAMPLING, raw_ns, fast)
}

/// Steps 1b–3 for an addition whose isolated loop cost `raw_ns` per call.
fn gate(subject: Subject, raw_ns: f64, fast: bool) -> GateResult {
    let floor_ns = time_per_call(iters(fast), || {
        std::hint::black_box(std::hint::black_box(7u64).wrapping_add(1));
    });
    let added_ns = (raw_ns - floor_ns).max(0.01);

    // The full per-event cost, addition included (it is compiled in).
    let costs = event_cost::measure(fast);
    let event_ns = costs.base_ns.max(1.0);
    let added_fraction = (added_ns / event_ns).min(1.0);

    // Model the SDET point twice. Paper-anchored per-event cost, with the
    // measured share stripped for the "without" run.
    let with = CostParams::default();
    let without = CostParams {
        per_event_ns: with.per_event_ns * (1.0 - added_fraction),
        ..with
    };
    let ncpus = 8;
    let scripts_per_cpu = if fast { 4 } else { 8 };
    let on_with = run_point(ncpus, Scheme::LocklessPerCpu, with, scripts_per_cpu);
    let on_without = run_point(ncpus, Scheme::LocklessPerCpu, without, scripts_per_cpu);

    GateResult {
        subject,
        added_ns,
        event_ns,
        added_fraction,
        ncpus,
        busy_with: busy(&on_with),
        busy_without: busy(&on_without),
        throughput_with: on_with.throughput_per_hour(),
        throughput_without: on_without.throughput_per_hour(),
        overhead: 0.0,
        threshold: MAX_OVERHEAD,
        pass: false,
    }
    .judged()
}

impl GateResult {
    /// Step 3: the added busy-work fraction and the verdict on it. A model
    /// that reads *less* busy work with the addition than without it has
    /// resolved nothing (the stripped share fell inside the simulator's
    /// scheduling noise): that is a measurement error, never a pass.
    fn judged(mut self) -> GateResult {
        self.overhead = (self.busy_with - self.busy_without) / self.busy_without;
        self.pass = self.busy_with >= self.busy_without && self.overhead < self.threshold;
        self
    }
}

/// Renders the gate result as its JSON artifact.
pub fn to_json(g: &GateResult) -> String {
    format!(
        concat!(
            "{{\n",
            "  \"experiment\": \"{}\",\n",
            "  \"added_ns\": {:.4},\n",
            "  \"event_ns\": {:.4},\n",
            "  \"added_fraction\": {:.6},\n",
            "  \"ncpus\": {},\n",
            "  \"busy_with_ns\": {:.0},\n",
            "  \"busy_without_ns\": {:.0},\n",
            "  \"throughput_with_per_hour\": {:.2},\n",
            "  \"throughput_without_per_hour\": {:.2},\n",
            "  \"overhead_fraction\": {:.6},\n",
            "  \"threshold\": {:.6},\n",
            "  \"pass\": {}\n",
            "}}\n"
        ),
        g.subject.experiment,
        g.added_ns,
        g.event_ns,
        g.added_fraction,
        g.ncpus,
        g.busy_with,
        g.busy_without,
        g.throughput_with,
        g.throughput_without,
        g.overhead,
        g.threshold,
        g.pass
    )
}

/// Renders a measured gate result as its report.
pub fn render(g: &GateResult) -> String {
    let noun = g.subject.noun;
    let mut out = format!("{} (measured share, modelled SDET):\n", g.subject.heading);
    let mut t = TextTable::new(&[("quantity", Align::Left), ("value", Align::Right)]);
    t.row(vec![
        g.subject.added.into(),
        format!("{:.2} ns", g.added_ns),
    ]);
    t.row(vec![
        format!("per-event logging cost (incl. {noun})"),
        format!("{:.2} ns", g.event_ns),
    ]);
    t.row(vec![
        format!("{noun} share of event cost"),
        format!("{:.2}%", 100.0 * g.added_fraction),
    ]);
    t.row(vec![
        format!("SDET busy work @{} cpus, with {noun}", g.ncpus),
        format!("{:.3e} ns", g.busy_with),
    ]);
    t.row(vec![
        format!("SDET busy work, {noun} stripped"),
        format!("{:.3e} ns", g.busy_without),
    ]);
    t.row(vec![
        "added busy work".into(),
        format!("{:+.3}%", 100.0 * g.overhead),
    ]);
    out.push_str(&t.render());
    let _ = writeln!(
        out,
        "\ngate: {noun} overhead {:.3}% < {:.0}% — {}",
        100.0 * g.overhead,
        100.0 * g.threshold,
        if g.pass {
            "PASS"
        } else if g.busy_with < g.busy_without {
            "MEASUREMENT ERROR (busy work fell when the cost was added; run again)"
        } else {
            "FAIL"
        }
    );
    out
}

/// `ktrace-bench telemetry_gate|adapt_gate`, where the hard 1% binds (CI
/// runs it in release): prints the report, writes the JSON artifact to
/// `artifact` (default `default_artifact`), and answers whether the gate
/// passed.
pub fn run_gate(
    measure: fn(bool) -> GateResult,
    fast: bool,
    artifact: Option<String>,
    default_artifact: &str,
) -> bool {
    let g = measure(fast);
    println!("{}", render(&g));
    let path = artifact.unwrap_or_else(|| default_artifact.to_string());
    std::fs::write(&path, to_json(&g)).expect("write artifact");
    eprintln!("wrote {path}");
    g.pass
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A gate result with the given busy-work readings, judged.
    fn gate_reading(busy_with: f64, busy_without: f64) -> GateResult {
        GateResult {
            subject: SAMPLING,
            added_ns: 0.8,
            event_ns: 40.0,
            added_fraction: 0.02,
            ncpus: 8,
            busy_with,
            busy_without,
            throughput_with: 5.0e5,
            throughput_without: 5.01e5,
            overhead: f64::NAN,
            threshold: MAX_OVERHEAD,
            pass: true,
        }
        .judged()
    }

    /// The verdict on fixed inputs. The timed halves (`measure_*`) are judged
    /// where the 1% binds — `ktrace-bench telemetry_gate|adapt_gate`, in
    /// release, alone on the host — not here beside the rest of the suite.
    #[test]
    fn verdict_passes_just_under_fails_just_over_and_refuses_an_inverted_model() {
        let under = gate_reading(1.009_9e9, 1.0e9);
        assert!((under.overhead - 0.0099).abs() < 1e-9);
        assert!(under.pass);
        assert!(render(&under).contains("0.990% < 1% — PASS"));

        let at = gate_reading(1.01e9, 1.0e9);
        assert!(!at.pass, "the gate is strict: exactly 1% fails");
        let over = gate_reading(1.010_1e9, 1.0e9);
        assert!(!over.pass);
        assert!(render(&over).contains("1.010% < 1% — FAIL"));
        assert!(to_json(&over).contains("\"pass\": false"));

        let same = gate_reading(1.0e9, 1.0e9);
        assert!(same.pass && same.overhead == 0.0);

        // Less busy work *with* the addition: the model resolved nothing.
        let inverted = gate_reading(0.999e9, 1.0e9);
        assert!(inverted.overhead < 0.0);
        assert!(!inverted.pass, "a negative overhead is not a pass");
        let text = render(&inverted);
        assert!(text.contains("MEASUREMENT ERROR"), "{text}");
        assert!(!text.contains("PASS") && !text.contains("FAIL"));
        assert!(to_json(&inverted).contains("\"pass\": false"));
    }

    #[test]
    fn json_artifact_and_report_are_wellformed() {
        let g = GateResult {
            subject: SAMPLING,
            added_ns: 0.8,
            event_ns: 40.0,
            added_fraction: 0.02,
            ncpus: 8,
            busy_with: 1.0e9,
            busy_without: 0.998e9,
            throughput_with: 5.0e5,
            throughput_without: 5.01e5,
            overhead: 0.002,
            threshold: MAX_OVERHEAD,
            pass: true,
        };
        let s = to_json(&g);
        assert!(s.contains("\"experiment\": \"E23 adaptive-sampling overhead gate\""));
        assert!(s.contains("\"pass\": true"));
        assert!(s.contains("\"overhead_fraction\": 0.002000"));
        // Balanced braces / trailing newline — keeps the artifact parseable
        // by strict JSON readers.
        assert_eq!(s.matches('{').count(), s.matches('}').count());
        assert!(s.ends_with("}\n"));

        let failing = GateResult {
            subject: TELEMETRY,
            overhead: 0.03,
            pass: false,
            ..g
        };
        let text = render(&failing);
        assert!(text.starts_with("Telemetry self-metrics overhead"));
        assert!(text.contains("gate: telemetry overhead 3.000% < 1% — FAIL"));
    }
}
