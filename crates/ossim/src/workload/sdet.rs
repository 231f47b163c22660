//! An SDET-like workload.
//!
//! SPEC SDET "runs a series of independent scripts that simulate a typical
//! Unix time-shared environment by running commands such as awk, grep, and
//! nroff" (§4). Each script here is a shell-like process that forks/execs a
//! sequence of commands (waiting for each), and each command mixes exec page
//! faults, allocator traffic, file-system IPC, and computation. Throughput
//! is scripts per hour — the y-axis of Fig. 3.

use crate::events::{func, sysno};
use crate::task::{Op, ProcessSpec, Program};
use crate::workload::Workload;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// SDET workload shape.
#[derive(Debug, Clone, Copy)]
pub struct SdetConfig {
    /// Number of concurrent scripts (SDET's offered load).
    pub scripts: usize,
    /// Commands per script.
    pub commands_per_script: usize,
    /// RNG seed for per-command variation.
    pub seed: u64,
}

impl Default for SdetConfig {
    fn default() -> SdetConfig {
        SdetConfig {
            scripts: 8,
            commands_per_script: 6,
            seed: 42,
        }
    }
}

const COMMANDS: &[&str] = &["awk", "grep", "nroff", "ls", "ed", "spell", "cc", "sort"];

/// Builds one simulated Unix command.
fn command(name: &str, rng: &mut StdRng) -> ProcessSpec {
    let mut p = Program::new();
    // exec: the loader maps text+data regions, then demand-faults them in.
    p = p.op(Op::MapRegion {
        bytes: rng.gen_range(0x10_000..0x100_000),
    });
    p = p.op(Op::MapRegion {
        bytes: rng.gen_range(0x4_000..0x20_000),
    });
    let faults = rng.gen_range(2..6);
    for i in 0..faults {
        p = p.page_fault(0x4000_0000 + i * 0x1000);
    }
    // startup allocations.
    for _ in 0..rng.gen_range(2..5) {
        p = p.malloc(rng.gen_range(64..4096));
    }
    // file work through the FS server.
    let path = rng.gen::<u32>() as u64;
    p = p.op(Op::FsOpen { path });
    for _ in 0..rng.gen_range(1..4) {
        p = p.op(Op::FsRead {
            bytes: rng.gen_range(256..8192),
        });
    }
    p = p.op(Op::FsWrite {
        bytes: rng.gen_range(128..2048),
    });
    p = p.op(Op::FsClose { path });
    // the command's own computation.
    p = p.compute(rng.gen_range(5_000..20_000), func::USER_COMPUTE);
    // cleanup.
    p = p.op(Op::FreePages {
        pages: rng.gen_range(1..8),
    });
    p = p.syscall(sysno::EXIT);
    ProcessSpec::new(name, p)
}

/// Builds one SDET script: a shell forking each command in turn.
fn script(index: usize, cfg: &SdetConfig, rng: &mut StdRng) -> ProcessSpec {
    let mut p = Program::new();
    for c in 0..cfg.commands_per_script {
        let name = COMMANDS[(index + c) % COMMANDS.len()];
        p = p.syscall(sysno::FORK);
        p = p.op(Op::Spawn {
            child: Box::new(command(name, rng)),
        });
        p = p.op(Op::WaitChildren);
    }
    p = p.op(Op::CountCompletion);
    ProcessSpec::new(format!("sdet-script-{index}"), p)
}

/// Builds the full workload.
pub fn build(cfg: SdetConfig) -> Workload {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    Workload::new(
        (0..cfg.scripts)
            .map(|i| script(i, &cfg, &mut rng))
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_requested_shape() {
        let w = build(SdetConfig {
            scripts: 5,
            commands_per_script: 3,
            seed: 7,
        });
        assert_eq!(w.processes.len(), 5);
        for (i, p) in w.processes.iter().enumerate() {
            assert_eq!(p.name, format!("sdet-script-{i}"));
            let spawns = p
                .program
                .ops
                .iter()
                .filter(|o| matches!(o, Op::Spawn { .. }))
                .count();
            assert_eq!(spawns, 3);
            let waits = p
                .program
                .ops
                .iter()
                .filter(|o| matches!(o, Op::WaitChildren))
                .count();
            assert_eq!(waits, 3, "each command is waited for");
            assert!(matches!(p.program.ops.last(), Some(Op::CountCompletion)));
        }
    }

    #[test]
    fn deterministic_for_a_seed() {
        let a = build(SdetConfig {
            seed: 9,
            ..Default::default()
        });
        let b = build(SdetConfig {
            seed: 9,
            ..Default::default()
        });
        assert_eq!(a.processes.len(), b.processes.len());
        for (x, y) in a.processes.iter().zip(&b.processes) {
            assert_eq!(x.program.ops.len(), y.program.ops.len());
        }
    }

    #[test]
    fn commands_exercise_every_subsystem() {
        let w = build(SdetConfig::default());
        let script = &w.processes[0];
        let Some(Op::Spawn { child }) = script
            .program
            .ops
            .iter()
            .find(|o| matches!(o, Op::Spawn { .. }))
        else {
            panic!("script must spawn commands")
        };
        let ops = &child.program.ops;
        assert!(ops.iter().any(|o| matches!(o, Op::PageFault { .. })));
        assert!(ops.iter().any(|o| matches!(o, Op::Malloc { .. })));
        assert!(ops.iter().any(|o| matches!(o, Op::FsOpen { .. })));
        assert!(ops.iter().any(|o| matches!(o, Op::FsRead { .. })));
        assert!(ops.iter().any(|o| matches!(o, Op::Compute { .. })));
        assert!(ops.iter().any(|o| matches!(o, Op::FreePages { .. })));
    }
}
