//! E2 + E3: the cost of logging one event, and of the disabled check.
//!
//! Paper §3.2: "A 1-word 64-bit event requires 91 cycles (100 ns on a 1GHz
//! processor) with 11 cycles for each additional 64-bit word logged… The
//! cost of checking the trace mask is 4 machine instructions… The overall
//! performance degradation is less than 1 percent."
//!
//! This is a *measured* experiment: real events through the real lockless
//! logger on this host, with a least-squares fit of cost vs payload words.
//! Absolute numbers differ from 2003 PowerPC hardware; the **shape** —
//! constant base plus a small per-word slope, with a near-free disabled
//! check — is the claim under test.

use crate::util::{bench_logger, linear_fit, time_per_call};
use ktrace_analysis::table::{Align, TextTable};
use ktrace_events::exception;
use ktrace_format::MajorId;
use std::fmt::Write as _;

/// Measured per-event costs.
#[derive(Debug, Clone)]
pub struct EventCosts {
    /// (payload words, ns/event) samples.
    pub per_words: Vec<(usize, f64)>,
    /// Fitted base cost (ns) of a 0-payload event.
    pub base_ns: f64,
    /// Fitted additional cost (ns) per payload word.
    pub per_word_ns: f64,
    /// Cost of a log attempt whose major is mask-disabled.
    pub disabled_ns: f64,
    /// Cost of the empty measurement loop (harness floor).
    pub floor_ns: f64,
}

/// Runs the measurement.
pub fn measure(fast: bool) -> EventCosts {
    let iters = if fast { 40_000 } else { 400_000 };
    let logger = bench_logger(1);
    let handle = logger.handle(0).expect("cpu 0");

    let payload = [0x55u64; 8];
    let mut per_words = Vec::new();
    for words in 0..=8usize {
        let ns = time_per_call(iters, || {
            std::hint::black_box(handle.log_slice(
                MajorId::TEST,
                1,
                std::hint::black_box(&payload[..words]),
            ));
        });
        per_words.push((words, ns));
    }
    let (per_word_ns, base_ns) = linear_fit(
        &per_words
            .iter()
            .map(|&(w, ns)| (w as f64, ns))
            .collect::<Vec<_>>(),
    );

    logger.mask().disable(MajorId::EXCEPTION);
    let disabled_ns = time_per_call(iters * 4, || {
        std::hint::black_box(handle.log_slice(
            MajorId::EXCEPTION,
            exception::PPC_CALL,
            &[std::hint::black_box(7)],
        ));
    });
    let floor_ns = time_per_call(iters * 4, || {
        std::hint::black_box(std::hint::black_box(7u64).wrapping_add(1));
    });

    EventCosts {
        per_words,
        base_ns,
        per_word_ns,
        disabled_ns,
        floor_ns,
    }
}

/// Renders the E2/E3 report table.
pub fn report(fast: bool) -> String {
    let c = measure(fast);
    let mut out = String::new();
    let _ = writeln!(out, "Per-event logging cost (lockless per-CPU, this host):");
    let mut t = TextTable::new(&[("payload words", Align::Right), ("ns/event", Align::Right)]);
    for &(w, ns) in &c.per_words {
        t.row(vec![w.to_string(), format!("{ns:.1}")]);
    }
    out.push_str(&t.render());
    let _ = writeln!(
        out,
        "\nfit: {:.1} ns base + {:.2} ns/word   (paper @1GHz PowerPC: ~91 ns base + ~11 ns/word)",
        c.base_ns, c.per_word_ns
    );
    let _ = writeln!(
        out,
        "disabled-major check: {:.2} ns/attempt (floor {:.2} ns)   (paper: 4 instructions)",
        c.disabled_ns, c.floor_ns
    );
    let _ = writeln!(
        out,
        "disabled/enabled ratio: {:.3}  — the always-compiled-in property",
        c.disabled_ns / c.base_ns.max(1e-9)
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shape_matches_paper() {
        let c = measure(true);
        // Base cost positive and bounded (not microseconds).
        assert!(
            c.base_ns > 0.0 && c.base_ns < 10_000.0,
            "base {}",
            c.base_ns
        );
        // Cost grows gently with words: slope well under the base.
        assert!(
            c.per_word_ns < c.base_ns,
            "slope {} base {}",
            c.per_word_ns,
            c.base_ns
        );
        // Disabled check is much cheaper than logging.
        assert!(
            c.disabled_ns < c.base_ns / 2.0,
            "disabled {} base {}",
            c.disabled_ns,
            c.base_ns
        );
    }

    #[test]
    fn report_renders() {
        let s = report(true);
        assert!(s.contains("fit:"));
        assert!(s.contains("disabled-major check"));
    }
}
