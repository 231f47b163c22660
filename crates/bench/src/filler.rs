//! E6 + E12: the space economics of variable-length events.
//!
//! E6 (§3.2): "We have found empirically that 30 to 40 percent of events end
//! exactly on a buffer boundary and because there are very few events larger
//! than 4 64-bit words, this alignment in practice wastes very little
//! space." Here: log a realistic event-size mix through the real logger and
//! measure filler waste per buffer size, plus how often a buffer closes with
//! no filler at all.
//!
//! E12 (§2): fixed-length events "waste space… take longer to write… and
//! make it complicated to log data that is larger than the fixed size".
//! Here: bytes consumed per event, variable vs fixed-slot, on the same mix.

use ktrace_analysis::table::{Align, TextTable};
use ktrace_baselines::{EventSink, FixedSlotSink};
use ktrace_clock::SyncClock;
use ktrace_core::{walk_buffer, Mode, TraceConfig, TraceLogger};
use ktrace_format::MajorId;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fmt::Write as _;
use std::sync::Arc;

/// The payload-word mix: mostly small events, rarely large — the paper's
/// observed distribution ("very few events larger than 4 64-bit words").
pub fn payload_mix(rng: &mut StdRng) -> usize {
    match rng.gen_range(0..100) {
        0..=34 => 1,
        35..=59 => 2,
        60..=79 => 3,
        80..=92 => 4,
        93..=97 => 6,
        _ => 12,
    }
}

/// Filler statistics for one buffer geometry.
#[derive(Debug, Clone)]
pub struct FillerStats {
    /// Words per buffer.
    pub buffer_words: usize,
    /// Buffers measured.
    pub buffers: usize,
    /// Fraction of all words spent on filler events.
    pub filler_fraction: f64,
    /// Fraction spent on per-buffer time anchors.
    pub anchor_fraction: f64,
    /// Fraction of buffers that closed with zero filler (an event ended
    /// exactly on the boundary).
    pub exact_end_fraction: f64,
}

/// Measures filler waste for one buffer size.
pub fn measure_filler(buffer_words: usize, events: usize, seed: u64) -> FillerStats {
    let config = TraceConfig {
        buffer_words,
        buffers_per_cpu: 4,
        mode: Mode::Stream,
    };
    let logger = TraceLogger::builder()
        .geometry(config)
        .clock(Arc::new(SyncClock::new()))
        .ncpus(1)
        .build()
        .expect("valid config");
    let handle = logger.handle(0).expect("cpu 0");
    let mut rng = StdRng::seed_from_u64(seed);
    let payload = [0x77u64; 16];

    let mut buffers = 0usize;
    let mut filler_words = 0usize;
    let mut anchor_words = 0usize;
    let mut exact = 0usize;
    let mut total_words = 0usize;

    for _ in 0..events {
        let words = payload_mix(&mut rng);
        assert!(handle.log_slice(MajorId::TEST, 1, &payload[..words]));
        while let Some(buf) = logger.take_buffer(0) {
            let mut walk = walk_buffer(&buf.words, None);
            anchor_words += walk
                .by_ref()
                .filter(|e| e.is_control() && !e.is_filler())
                .map(|e| e.len_words())
                .sum::<usize>();
            buffers += 1;
            total_words += buf.words.len();
            filler_words += walk.filler_words();
            if walk.filler_words() == 0 {
                exact += 1;
            }
        }
    }

    FillerStats {
        buffer_words,
        buffers,
        filler_fraction: filler_words as f64 / total_words.max(1) as f64,
        anchor_fraction: anchor_words as f64 / total_words.max(1) as f64,
        exact_end_fraction: exact as f64 / buffers.max(1) as f64,
    }
}

/// E6 report.
pub fn report_filler(fast: bool) -> String {
    let events = if fast { 60_000 } else { 600_000 };
    let mut t = TextTable::new(&[
        ("buffer", Align::Right),
        ("buffers seen", Align::Right),
        ("filler waste", Align::Right),
        ("anchor waste", Align::Right),
        ("exact-end buffers", Align::Right),
    ]);
    for buffer_words in [128usize, 512, 2048, 16 * 1024] {
        let s = measure_filler(buffer_words, events, 42);
        t.row(vec![
            format!("{} KiB", buffer_words * 8 / 1024),
            s.buffers.to_string(),
            format!("{:.2}%", 100.0 * s.filler_fraction),
            format!("{:.2}%", 100.0 * s.anchor_fraction),
            format!("{:.0}%", 100.0 * s.exact_end_fraction),
        ]);
    }
    let mut out = String::from("Filler overhead vs buffer (alignment-boundary) size:\n");
    out.push_str(&t.render());
    out.push_str(
        "\npaper §3.2: \"30 to 40 percent of events end exactly on a buffer boundary… this \
         alignment in practice wastes very little space\"\n",
    );
    out
}

/// E12 report: variable vs fixed-slot space per event.
pub fn report_var_vs_fixed(fast: bool) -> String {
    let events = if fast { 50_000 } else { 500_000 };
    let mut rng = StdRng::seed_from_u64(7);
    let sizes: Vec<usize> = (0..events).map(|_| payload_mix(&mut rng)).collect();

    // Variable length: header + payload, plus measured filler/anchor waste.
    let filler = measure_filler(2048, events, 7);
    let avg_payload = sizes.iter().sum::<usize>() as f64 / sizes.len() as f64;
    let var_words = (1.0 + avg_payload) / (1.0 - filler.filler_fraction - filler.anchor_fraction);

    // Fixed slots must fit the largest event: 12 payload words + header,
    // plus the valid word.
    let clock = Arc::new(SyncClock::new());
    let fixed = FixedSlotSink::new(clock, 1, 13, 4096);
    let payload = [0u64; 16];
    for &s in &sizes {
        fixed.log(0, MajorId::TEST, 1, &payload[..s]);
    }
    let fixed_words = fixed.words_per_event() as f64;

    // A smaller slot wastes less but truncates.
    let small = FixedSlotSink::new(Arc::new(SyncClock::new()), 1, 5, 4096);
    for &s in &sizes {
        small.log(0, MajorId::TEST, 1, &payload[..s]);
    }

    let mut out = String::from("Space per event (same event mix):\n");
    let mut t = TextTable::new(&[
        ("scheme", Align::Left),
        ("words/event", Align::Right),
        ("bytes/event", Align::Right),
        ("truncated", Align::Right),
    ]);
    t.row(vec![
        "variable-length (incl. filler+anchor)".into(),
        format!("{var_words:.2}"),
        format!("{:.1}", var_words * 8.0),
        "0".into(),
    ]);
    t.row(vec![
        "fixed slot sized for max event".into(),
        format!("{fixed_words:.2}"),
        format!("{:.1}", fixed_words * 8.0),
        fixed.truncated().to_string(),
    ]);
    t.row(vec![
        "fixed slot sized for typical event".into(),
        format!("{:.2}", small.words_per_event() as f64),
        format!("{:.1}", small.words_per_event() as f64 * 8.0),
        small.truncated().to_string(),
    ]);
    out.push_str(&t.render());
    let _ = writeln!(
        out,
        "\nvariable-length saves {:.0}% space vs max-sized fixed slots with zero truncation",
        100.0 * (1.0 - var_words / fixed_words)
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn filler_waste_small_for_paper_geometry() {
        let s = measure_filler(16 * 1024, 60_000, 1);
        assert!(s.buffers >= 4, "need several buffers, got {}", s.buffers);
        // "wastes very little space": under 2% at 128 KiB buffers.
        assert!(s.filler_fraction < 0.02, "filler {:.3}", s.filler_fraction);
        assert!(s.anchor_fraction < 0.01);
    }

    #[test]
    fn smaller_buffers_waste_more() {
        let small = measure_filler(128, 40_000, 2);
        let large = measure_filler(4096, 40_000, 2);
        assert!(small.filler_fraction > large.filler_fraction);
    }

    #[test]
    fn some_buffers_end_exactly_on_boundary() {
        let s = measure_filler(512, 80_000, 3);
        // The paper saw 30–40%; any clearly-nonzero rate confirms the
        // mechanism (the rate depends on the size mix).
        assert!(
            s.exact_end_fraction > 0.02,
            "exact-end {:.3}",
            s.exact_end_fraction
        );
    }

    #[test]
    fn variable_beats_fixed_on_space() {
        let report = report_var_vs_fixed(true);
        assert!(report.contains("saves"), "{report}");
        // Parse the saving percentage out of the report's final line.
        let line = report.lines().find(|l| l.contains("saves")).unwrap();
        let pct: f64 = line
            .split("saves ")
            .nth(1)
            .unwrap()
            .split('%')
            .next()
            .unwrap()
            .parse()
            .unwrap();
        assert!(pct > 30.0, "saving {pct}%");
    }
}
