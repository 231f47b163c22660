//! Node mode: one simulated machine acting as a member of a fleet.
//!
//! A fleet-collection deployment (see `ktrace-collectd`) runs many ossim
//! machines concurrently, each streaming its trace to a central collector.
//! [`NodeSpec`] names one such node and sizes its SDET-style workload;
//! [`NodeSpec::run`] drives the machine through any [`Tracer`], so the same
//! spec works with the real lockless logger ([`KTracer`](crate::KTracer)),
//! the crash injector ([`CrashTracer`](crate::CrashTracer)), or no tracing
//! at all.

use crate::config::MachineConfig;
use crate::machine::{Machine, RunReport};
use crate::tracer::Tracer;
use crate::workload::sdet::{self, SdetConfig};
use std::sync::Arc;

/// One fleet node: a name plus the shape of the machine and workload it
/// runs. The workload seed is derived from the name, so a fleet of
/// distinctly named nodes runs distinct (but individually reproducible)
/// schedules.
#[derive(Debug, Clone)]
pub struct NodeSpec {
    /// The node's fleet-wide name (also its identity on the wire and the
    /// directory name in a collector store).
    pub name: String,
    /// Simulated CPUs.
    pub ncpus: usize,
    /// SDET scripts to run.
    pub scripts: usize,
    /// Commands per script.
    pub commands_per_script: usize,
    /// Workload RNG seed (defaulted from the name by [`NodeSpec::new`]).
    pub seed: u64,
}

impl NodeSpec {
    /// A node with a workload sized to finish quickly: `2 × ncpus` scripts
    /// of three commands each, seeded from the name (FNV-1a).
    pub fn new(name: impl Into<String>, ncpus: usize) -> NodeSpec {
        let name = name.into();
        let seed = name.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3)
        });
        NodeSpec {
            name,
            ncpus,
            scripts: ncpus * 2,
            commands_per_script: 3,
            seed,
        }
    }

    /// Runs this node's workload on a fresh machine through `tracer`.
    pub fn run<T: Tracer>(&self, tracer: Arc<T>) -> RunReport {
        let machine = Machine::new(MachineConfig::fast_test(self.ncpus), tracer);
        machine.run(sdet::build(SdetConfig {
            scripts: self.scripts,
            commands_per_script: self.commands_per_script,
            seed: self.seed,
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tracer::NoTracer;

    #[test]
    fn named_nodes_get_distinct_stable_seeds() {
        let a = NodeSpec::new("node-a", 2);
        let b = NodeSpec::new("node-b", 2);
        assert_ne!(a.seed, b.seed);
        assert_eq!(a.seed, NodeSpec::new("node-a", 4).seed);
        assert_eq!(a.scripts, 4);
    }

    #[test]
    fn node_runs_its_workload_to_completion() {
        let spec = NodeSpec {
            scripts: 2,
            commands_per_script: 2,
            ..NodeSpec::new("unit", 2)
        };
        let report = spec.run(Arc::new(NoTracer));
        assert!(!report.aborted);
        assert_eq!(report.completions, 2);
    }
}
