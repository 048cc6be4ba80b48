//! In-process calls into the simulator's layers through their public
//! functions: cell set-up, and the cumulative per-layer replay of a
//! cell that splits its host time by layer.
//!
//! The replay runs one cell to completion under five cumulative stages,
//! each on a freshly built core:
//!
//! 1. a bare `EventCore::step()` loop;
//! 2. stage 1 plus `CsrFile::tick` on the file `Perf::program_all_events`
//!    programs (once per counter architecture);
//! 3. stage 2 (add-wires) plus `EventCounts::observe`;
//! 4. `Perf::run`, timed inside spans and bare, which gives the span
//!    recorder's own overhead;
//! 5. stage 1 plus `time_until_next_event()` on every retire-free cycle
//!    outside a claimed span, the way `Perf::run` probes with skipping on.
//!
//! Each stage runs several times and the fastest run counts. A layer's
//! marginal cost is the difference between adjacent stages.
//! Every stage must end on the same cycle: the layers observe the core,
//! they never steer it.

use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use icicle::boom::{Boom, BoomConfig};
use icicle::campaign::fingerprint::mix_seed;
use icicle::campaign::{data_seed, CellSpec, CoreSelect};
use icicle::events::{EventCore, EventCounts, EventId};
use icicle::isa::{DynStream, Program};
use icicle::perf::{Perf, SkipPolicy};
use icicle::pmu::CounterArch;
use icicle::rocket::{Rocket, RocketConfig};
use icicle::workloads::by_name_seeded;

use crate::spans::Spans;

/// Host seconds from a cell's name to its first simulated cycle:
/// workload lookup, architectural execution, and building the core (or
/// every core of an SoC). Seeds are derived exactly as the campaign
/// runner derives them.
pub fn cell_setup(cell: &CellSpec) -> Result<f64, String> {
    let seed = data_seed(cell);
    let start = Instant::now();
    match cell.core {
        CoreSelect::Soc(mix) => {
            let per_core = (0..mix.num_cores() as u64)
                .map(|k| {
                    let core_seed = if k == 0 { seed } else { mix_seed(seed, k) };
                    by_name_seeded(&cell.workload, core_seed)
                        .ok_or_else(|| format!("unknown workload {}", cell.workload))
                })
                .collect::<Result<Vec<_>, _>>()?;
            let soc = mix.build(&per_core).map_err(|e| e.to_string())?;
            let elapsed = start.elapsed().as_secs_f64();
            drop(black_box(soc));
            Ok(elapsed)
        }
        core => {
            let workload = by_name_seeded(&cell.workload, seed)
                .ok_or_else(|| format!("unknown workload {}", cell.workload))?;
            let stream = workload.execute().map_err(|e| e.to_string())?;
            let built = build_core(core, stream, workload.program_arc());
            let elapsed = start.elapsed().as_secs_f64();
            drop(black_box(built));
            Ok(elapsed)
        }
    }
}

fn build_core(core: CoreSelect, stream: DynStream, program: Arc<Program>) -> Box<dyn EventCore> {
    match core {
        CoreSelect::Rocket => Box::new(Rocket::new(RocketConfig::default(), stream)),
        CoreSelect::Boom(size) => Box::new(Boom::new(BoomConfig::for_size(size), stream, program)),
        CoreSelect::Soc(_) => unreachable!("SoC cells are replayed core by core"),
    }
}

/// The single-core cells whose layers a set of campaign cells
/// exercises: an SoC cell contributes one cell per distinct core model
/// of its mix, at its first core's seed.
pub fn replay_cells(cells: &[CellSpec]) -> Vec<CellSpec> {
    let mut out: Vec<CellSpec> = Vec::new();
    for cell in cells {
        let cores = match cell.core {
            CoreSelect::Soc(mix) => mix_cores(mix.name()),
            core => vec![core],
        };
        for core in cores {
            let single = CellSpec {
                core,
                arch: CounterArch::AddWires,
                ..cell.clone()
            };
            if !out.contains(&single) {
                out.push(single);
            }
        }
    }
    out
}

/// The core models of an SoC mix, read from its name
/// (`soc-4xrocket`, `soc-rocket+medium-boom`).
fn mix_cores(name: &str) -> Vec<CoreSelect> {
    let mut cores = Vec::new();
    for part in name.trim_start_matches("soc-").split('+') {
        let model = part.split_once('x').map_or(part, |(_, m)| m);
        let core = CoreSelect::from_name(model).expect("SoC mixes are built of named cores");
        if !cores.contains(&core) {
            cores.push(core);
        }
    }
    cores
}

/// Host time of one cell, split by layer. Times are seconds.
#[derive(Clone, Debug, Default)]
pub struct Replay {
    pub boom: bool,
    pub build_s: f64,
    pub execute_s: f64,
    /// Dynamic instructions the architectural execution produced.
    pub instrs: u64,
    /// Every core construction of the replay.
    pub new_s: Vec<f64>,
    pub cycles: u64,
    pub step_s: f64,
    pub tick_add_wires_s: f64,
    pub tick_distributed_s: f64,
    pub observe_s: f64,
    pub run_s: f64,
    pub run_bare_s: f64,
    pub probe_s: f64,
    pub probes: u64,
    /// Probes that claimed a span of at least two cycles.
    pub hits: u64,
    /// Cycles inside claimed spans.
    pub skippable: u64,
}

/// Runs of each stage; the fastest counts. Simulation is deterministic,
/// so the spread between runs is the host's, and the minimum is the
/// estimate least disturbed by it.
const STAGE_RUNS: usize = 3;

/// Replays `cell` (a single-core cell) through the five stages.
/// `traced_first` alternates which `Perf::run` timing goes first, so
/// neither always meets the warmer caches.
pub fn replay(cell: &CellSpec, spans: &Spans, traced_first: bool) -> Result<Replay, String> {
    let boom = matches!(cell.core, CoreSelect::Boom(_));
    let mut r = Replay {
        boom,
        ..Replay::default()
    };
    let ctx = spans.mint();
    let (outcome, _) = spans.time("cell.replay", ctx, |ctx| -> Result<(), String> {
        let (workload, t) = spans.time("workloads.build", ctx, |_| {
            by_name_seeded(&cell.workload, data_seed(cell))
        });
        r.build_s = t;
        let workload = workload.ok_or_else(|| format!("unknown workload {}", cell.workload))?;
        let (stream, t) = spans.time("isa.execute", ctx, |_| workload.execute());
        r.execute_s = t;
        let stream = stream.map_err(|e| e.to_string())?;
        r.instrs = stream.len() as u64;
        let program = workload.program_arc();
        let new_span = if boom { "boom.new" } else { "rocket.new" };
        let mut new_s = Vec::new();
        let mut ends = Vec::new();
        // Times `stage` on freshly built cores and keeps the fastest run;
        // a traced stage gets a span per run, an untraced one none.
        let mut fastest = |name: &str,
                           traced: bool,
                           stage: &mut dyn FnMut(&mut dyn EventCore) -> Result<(), String>|
         -> Result<f64, String> {
            let mut best = f64::INFINITY;
            for _ in 0..STAGE_RUNS {
                let copy = stream.clone();
                let (mut core, t) = spans.time(new_span, ctx, |_| {
                    build_core(cell.core, copy, program.clone())
                });
                new_s.push(t);
                let (outcome, t) = if traced {
                    spans.time(name, ctx, |_| stage(core.as_mut()))
                } else {
                    let start = Instant::now();
                    let outcome = stage(core.as_mut());
                    (outcome, start.elapsed().as_secs_f64())
                };
                outcome?;
                ends.push(core.cycle());
                best = best.min(t);
            }
            Ok(best)
        };

        r.step_s = fastest("stage.step", true, &mut |core| {
            while !core.is_done() {
                black_box(core.step());
            }
            Ok(())
        })?;
        for arch in [CounterArch::AddWires, CounterArch::Distributed] {
            let t = fastest(&format!("stage.tick.{}", arch.name()), true, &mut |core| {
                let (mut csr, _) =
                    Perf::program_all_events(core, arch).map_err(|e| e.to_string())?;
                while !core.is_done() {
                    csr.tick(core.step());
                }
                counted(csr.mcycle(), core)
            })?;
            match arch {
                CounterArch::AddWires => r.tick_add_wires_s = t,
                _ => r.tick_distributed_s = t,
            }
        }
        r.observe_s = fastest("stage.observe", true, &mut |core| {
            let (mut csr, _) =
                Perf::program_all_events(core, CounterArch::AddWires).map_err(|e| e.to_string())?;
            let mut counts = EventCounts::new();
            while !core.is_done() {
                let vector = core.step();
                csr.tick(vector);
                counts.observe(vector);
            }
            counted(counts.cycles_observed(), core)
        })?;
        let perf = Perf::new()
            .arch(CounterArch::AddWires)
            .skip(SkipPolicy::Off);
        for traced in [traced_first, !traced_first] {
            let t = fastest("stage.run", traced, &mut |core| {
                let report = perf.run(core).map_err(|e| e.to_string())?;
                counted(report.cycles, core)
            })?;
            if traced {
                r.run_s = t;
            } else {
                r.run_bare_s = t;
            }
        }
        let mut probed = (0, 0, 0);
        r.probe_s = fastest("stage.probe", true, &mut |core| {
            probed = probe(core);
            Ok(())
        })?;
        (r.probes, r.hits, r.skippable) = probed;

        r.new_s = new_s;
        r.cycles = ends[0];
        if ends.iter().any(|&end| end != r.cycles) {
            return Err(format!(
                "{}: stages ended on different cycles {ends:?}",
                cell.label()
            ));
        }
        Ok(())
    });
    outcome.map(|()| r)
}

/// Checks that a layer counted every cycle the core ran.
fn counted(count: u64, core: &mut dyn EventCore) -> Result<(), String> {
    if count == core.cycle() {
        Ok(())
    } else {
        Err(format!("counted {count} of {} cycles", core.cycle()))
    }
}

/// Steps `core` to completion, calling `time_until_next_event()` on
/// each retire-free cycle outside a claimed span, as `Perf::run` does
/// with skipping on; returns the probes, the claims of at least two
/// cycles, and the cycles those claims cover.
fn probe(core: &mut dyn EventCore) -> (u64, u64, u64) {
    let (mut probes, mut hits, mut skippable) = (0, 0, 0);
    let mut probe = true;
    let mut claimed_until = 0;
    while !core.is_done() {
        let c = core.cycle();
        if probe && c >= claimed_until {
            probes += 1;
            if let Some(n) = core.time_until_next_event().filter(|&n| n >= 2) {
                hits += 1;
                skippable += n;
                claimed_until = c + n;
            }
        }
        probe = core.step().count(EventId::InstrRetired) == 0;
    }
    (probes, hits, skippable)
}

/// The per-layer metrics of a set of replays, named as in
/// `BENCHMARK.json`. Per-cycle costs are weighted by cycles.
pub fn metrics(replays: &[Replay]) -> Vec<(&'static str, f64)> {
    let sum = |f: &dyn Fn(&Replay) -> f64, boom: Option<bool>| -> f64 {
        replays
            .iter()
            .filter(|r| boom.is_none_or(|b| r.boom == b))
            .map(f)
            .sum()
    };
    let cycles = |boom| sum(&|r| r.cycles as f64, boom);
    let ns_per_cycle = |f: &dyn Fn(&Replay) -> f64, boom| 1e9 * sum(f, boom) / cycles(boom);
    let n = replays.len() as f64;
    let mean_new = |boom: bool| {
        let all: Vec<f64> = replays
            .iter()
            .filter(|r| r.boom == boom)
            .flat_map(|r| r.new_s.iter().copied())
            .collect();
        1e3 * all.iter().sum::<f64>() / all.len() as f64
    };
    let setup = sum(&|r| r.build_s + r.execute_s + r.new_s[0], None);
    vec![
        ("workloads.build_ms", 1e3 * sum(&|r| r.build_s, None) / n),
        ("isa.execute_ms", 1e3 * sum(&|r| r.execute_s, None) / n),
        (
            "isa.minsts_per_s",
            sum(&|r| r.instrs as f64, None) / sum(&|r| r.execute_s, None) / 1e6,
        ),
        ("rocket.new_ms", mean_new(false)),
        ("boom.new_ms", mean_new(true)),
        (
            "rocket.step_ns_per_cycle",
            ns_per_cycle(&|r| r.step_s, Some(false)),
        ),
        (
            "boom.step_ns_per_cycle",
            ns_per_cycle(&|r| r.step_s, Some(true)),
        ),
        (
            "pmu.tick_ns_per_cycle",
            ns_per_cycle(&|r| r.tick_add_wires_s - r.step_s, None),
        ),
        (
            "pmu.tick_distributed_ns_per_cycle",
            ns_per_cycle(&|r| r.tick_distributed_s - r.step_s, None),
        ),
        (
            "events.observe_ns_per_cycle",
            ns_per_cycle(&|r| r.observe_s - r.tick_add_wires_s, None),
        ),
        ("perf.run_ns_per_cycle", ns_per_cycle(&|r| r.run_s, None)),
        (
            "perf.glue_ns_per_cycle",
            ns_per_cycle(&|r| r.run_s - r.observe_s, None),
        ),
        (
            "perf.probe_ns",
            1e9 * sum(&|r| r.probe_s - r.step_s, None) / sum(&|r| r.probes as f64, None),
        ),
        (
            "perf.probe_hit_ratio",
            sum(&|r| r.hits as f64, None) / sum(&|r| r.probes as f64, None),
        ),
        (
            "perf.skippable_cycle_frac",
            sum(&|r| r.skippable as f64, None) / cycles(None),
        ),
        (
            "campaign.cell_setup_frac",
            setup / (setup + sum(&|r| r.run_s, None)),
        ),
        (
            "trace.overhead_frac",
            sum(&|r| r.run_s, None) / sum(&|r| r.run_bare_s, None) - 1.0,
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use icicle::boom::BoomSize;
    use icicle::soc::SocMix;

    #[test]
    fn soc_mixes_replay_each_core_model_once() {
        assert_eq!(mix_cores("soc-2xrocket"), vec![CoreSelect::Rocket]);
        assert_eq!(mix_cores("soc-4xrocket"), vec![CoreSelect::Rocket]);
        assert_eq!(
            mix_cores("soc-rocket+medium-boom"),
            vec![CoreSelect::Rocket, CoreSelect::Boom(BoomSize::Medium)]
        );
        for mix in SocMix::ALL {
            assert!(!mix_cores(mix.name()).is_empty());
        }
    }
}
