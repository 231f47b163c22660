//! The counter schema: every counter block is declared **once**, as a
//! compile-time table, and everything that used to be a hand-kept copy of
//! that table is generated from it or loops over it.
//!
//! The paper makes each *event* self-describing by declaring it once (§4.4:
//! one descriptor gives name, field spec and template, and every tool reads
//! that). [`counter_block!`](crate::counter_block) does the same for
//! *counters*, in the style of `ktrace_events::ktrace_event!`. One row gives
//! a counter its field name, its meaning, its Prometheus family and whether
//! it rides the `HEARTBEAT` event; from the rows the macro generates
//!
//! * the counter block — struct, `const fn new`, one relaxed-load getter per
//!   counter, and `snapshot()`;
//! * the plain-data snapshot struct (same field names, all `pub`), its
//!   [`CounterDesc`] table `COUNTERS`, `rows()` / `rows_mut()` pairing each
//!   descriptor with its value, and the saturating `delta()`.
//!
//! Exposition ([`crate::expo`]), the heartbeat payload and its inverse
//! ([`crate::snapshot`]) and the fleet collector's `/metrics` and `/nodes`
//! are loops over `rows()`. The **hot half is not generated**: each block's
//! `tally_*` / `observe_*` functions stay hand-written next to the table,
//! where an audit of the logging path's std-side edge reads them. Each row
//! names its counter's protocol role (`ExactCounter` or `StatisticCounter`
//! from `ktrace_format::protocol`), which fixes what a tally may do to it; the
//! macro itself generates only `new(0)` and `load()`, which both allow.

/// What one counter row declares. The generated structs carry the values;
/// this is everything a reader needs to label one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CounterDesc {
    /// The field name in both generated structs, and the collector's
    /// `/nodes` JSON key.
    pub name: &'static str,
    /// One-line meaning: the Prometheus `# HELP` text and the doc comment
    /// of the generated field and getter.
    pub help: &'static str,
    /// The Prometheus family, for a counter that is exposed as a family of
    /// its own.
    pub prom: Option<&'static str>,
    /// The name under which the counter rides the `CONTROL`/`HEARTBEAT`
    /// payload, for one that does. `ktrace_format` owns the wire order
    /// (`HEARTBEAT_METRICS`); [`crate::snapshot`] asserts at compile time
    /// that the flagged rows agree with it.
    pub wire: Option<&'static str>,
}

/// What one histogram row declares.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistDesc {
    /// One-line meaning (`# HELP` text and doc comment).
    pub help: &'static str,
    /// The Prometheus histogram family.
    pub prom: &'static str,
}

/// Declares one counter block. See the [module docs](crate::schema) for what
/// is generated; `crates/telemetry/src/counters.rs` holds the invocations to
/// copy from.
///
/// Attributes on the two `struct` lines pass through (docs, derives). The
/// snapshot struct's braces hold its plain, non-counter fields (a CPU index,
/// a node name), which the generated `snapshot()` takes as arguments. A
/// counter row spells its role type, in scope at the invocation, so that it
/// reads as the field declaration it is. `totals { Type.field }` additionally gives
/// `Type` one summing accessor per counter over its `field: Vec<Snapshot>`.
#[macro_export]
macro_rules! counter_block {
    (@opt) => { ::core::option::Option::None };
    (@opt $v:literal) => { ::core::option::Option::Some($v) };

    (@totals [] $($field:ident $help:literal)*) => {};
    (@totals [$Total:ident . $via:ident] $($field:ident $help:literal)*) => {
        impl $Total {
            $(
                #[doc = concat!("Summed over `", stringify!($via), "`: ", $help)]
                pub fn $field(&self) -> u64 {
                    self.$via.iter().map(|block| block.$field).sum()
                }
            )*
        }
    };

    (
        $(#[$ameta:meta])*
        $avis:vis struct $Atomic:ident;
        $(#[$smeta:meta])*
        $svis:vis struct $Snap:ident {
            $( $(#[$xmeta:meta])* $xvis:vis $xfield:ident : $xty:ty ),* $(,)?
        }
        counters {
            $(
                $field:ident : $role:ty = $help:literal
                    $(=> $prom:literal)? $(, wire $wire:literal)? ;
            )*
        }
        histograms {
            $(
                $hist:ident : Histogram, $hsum:ident = $hhelp:literal
                    => $hprom:literal ;
            )*
        }
        totals { $($totals:tt)* }
    ) => {
        $(#[$ameta])*
        $avis struct $Atomic {
            $( $field: $role, )*
            $( $hist: $crate::Histogram, )*
        }

        impl $Atomic {
            /// A zeroed block.
            pub const fn new() -> $Atomic {
                $Atomic {
                    $( $field: <$role>::new(0), )*
                    $( $hist: $crate::Histogram::new(), )*
                }
            }

            $(
                #[doc = $help]
                pub fn $field(&self) -> u64 {
                    self.$field.load()
                }
            )*

            $(
                #[doc = $hhelp]
                pub fn $hist(&self) -> &$crate::Histogram {
                    &self.$hist
                }
            )*

            /// Copies every counter with relaxed loads. Concurrent tallies
            /// may land on either side of the copy; each lands in exactly
            /// one.
            pub fn snapshot(&self $(, $xfield: $xty)*) -> $Snap {
                $Snap {
                    $( $xfield, )*
                    $( $field: self.$field(), )*
                    $( $hist: self.$hist.snap(), $hsum: self.$hist.sum(), )*
                }
            }
        }

        $(#[$smeta])*
        $svis struct $Snap {
            $( $(#[$xmeta])* $xvis $xfield: $xty, )*
            $( #[doc = $help] pub $field: u64, )*
            $(
                #[doc = concat!($hhelp, " Bucket counts.")]
                pub $hist: [u64; $crate::HIST_BUCKETS],
                #[doc = concat!($hhelp, " Sum of all observations.")]
                pub $hsum: u64,
            )*
        }

        impl $Snap {
            /// The block's counter rows, in declaration order.
            pub const COUNTERS: &'static [$crate::CounterDesc] = &[
                $($crate::CounterDesc {
                    name: stringify!($field),
                    help: $help,
                    prom: $crate::counter_block!(@opt $($prom)?),
                    wire: $crate::counter_block!(@opt $($wire)?),
                }),*
            ];

            /// The block's histogram rows, in declaration order.
            pub const HISTOGRAMS: &'static [$crate::HistDesc] = &[
                $($crate::HistDesc { help: $hhelp, prom: $hprom }),*
            ];

            /// Every counter with its descriptor, in declaration order.
            pub fn rows(&self) -> impl Iterator<Item = (&'static $crate::CounterDesc, u64)> {
                Self::COUNTERS.iter().zip([$(self.$field),*])
            }

            /// [`rows`](Self::rows), writable.
            pub fn rows_mut(
                &mut self,
            ) -> impl Iterator<Item = (&'static $crate::CounterDesc, &mut u64)> {
                Self::COUNTERS.iter().zip([$(&mut self.$field),*])
            }

            /// Every histogram as `(descriptor, buckets, sum)`.
            pub fn histograms(
                &self,
            ) -> impl Iterator<Item = (&'static $crate::HistDesc, &[u64; $crate::HIST_BUCKETS], u64)>
            {
                Self::HISTOGRAMS
                    .iter()
                    .zip([$((&self.$hist, self.$hsum)),*])
                    .map(|(desc, (buckets, sum))| (desc, buckets, sum))
            }

            /// The interval delta `self - earlier`, saturating (a restarted
            /// or mismatched `earlier` yields zeros rather than garbage).
            /// Non-counter fields are carried over from `self`.
            pub fn delta(&self, earlier: &$Snap) -> $Snap {
                let mut delta = self.clone();
                $( delta.$field = self.$field.saturating_sub(earlier.$field); )*
                $(
                    for (d, e) in delta.$hist.iter_mut().zip(&earlier.$hist) {
                        *d = d.saturating_sub(*e);
                    }
                    delta.$hsum = self.$hsum.saturating_sub(earlier.$hsum);
                )*
                delta
            }
        }

        $crate::counter_block!(@totals [$($totals)*] $($field $help)*);
    };
}

#[cfg(test)]
mod tests {
    use crate::{CpuTelemetry, SalvageTelemetry, SinkTelemetry, TelemetrySnapshot};

    /// Every block's tables at once, so a counter added to any of them is
    /// covered here without a new test.
    #[test]
    fn every_row_names_a_unique_family_and_delta_covers_every_row() {
        let counters = [
            CpuTelemetry::COUNTERS,
            SinkTelemetry::COUNTERS,
            SalvageTelemetry::COUNTERS,
        ];
        let histograms = [
            CpuTelemetry::HISTOGRAMS,
            SinkTelemetry::HISTOGRAMS,
            SalvageTelemetry::HISTOGRAMS,
        ];
        let mut families: Vec<&str> = counters
            .iter()
            .flat_map(|block| block.iter())
            .map(|d| d.prom.expect("every telemetry counter is a family"))
            .chain(histograms.iter().flat_map(|b| b.iter()).map(|d| d.prom))
            .collect();
        for name in &families {
            let tail = name.strip_prefix("ktrace_").expect(name);
            assert!(
                !tail.is_empty()
                    && tail
                        .bytes()
                        .all(|b| matches!(b, b'a'..=b'z' | b'0'..=b'9' | b'_')),
                "{name} is not ^ktrace_[a-z0-9_]+$"
            );
        }
        let declared = families.len();
        families.sort_unstable();
        families.dedup();
        assert_eq!(families.len(), declared, "duplicate Prometheus family");

        // Row i of the whole schema holds i + 1.
        let mut a = TelemetrySnapshot::default();
        a.per_cpu.push(CpuTelemetry::default());
        let mut rows = 0u64;
        for (_, v) in a.per_cpu[0]
            .rows_mut()
            .chain(a.sink.rows_mut())
            .chain(a.salvage.rows_mut())
        {
            rows += 1;
            *v = rows;
        }
        assert_eq!(
            rows as usize,
            counters.iter().map(|b| b.len()).sum::<usize>()
        );
        let mut zero = TelemetrySnapshot::default();
        zero.per_cpu.push(CpuTelemetry::default());
        assert_eq!(a.delta(&a), zero);
        assert_eq!(a.delta(&TelemetrySnapshot::default()), a);
        assert_eq!(a.delta(&zero), a);
    }
}
