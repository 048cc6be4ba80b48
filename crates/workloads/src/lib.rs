//! # icicle-workloads
//!
//! The benchmark suite of the Icicle reproduction.
//!
//! Three families, mirroring Table III:
//!
//! * [`micro`] — the riscv-tests-style microbenchmarks the paper's
//!   Fig. 7(a,b,k,l) characterize: `mergesort`, `qsort`, `rsort`,
//!   `memcpy`, `mm`, `vvadd`, and the branch-inversion pair
//!   `brmiss` / `brmiss_inv` of case study 2, plus the [`riscv_tests`]
//!   kernels `spmv`, `towers`, `median`, and `multiply`;
//! * [`synth`] — CoreMark- and Dhrystone-like composite kernels,
//!   including the ±instruction-scheduling CoreMark variants of case
//!   study 3;
//! * [`spec`] — synthetic proxies for the SPEC CPU2017 intrate suite.
//!   SPEC itself is commercial and runs for trillions of instructions on
//!   FPGA hosts; each proxy reproduces the *bottleneck signature* the
//!   paper reports for that benchmark (e.g. `505.mcf_r` is dominated by
//!   pointer-chasing cache misses, `548.exchange2_r` is register-resident
//!   integer compute), which is what the TMA evaluation exercises.
//!
//! Every workload leaves a checksum in `a0` (and an auxiliary flag in
//! `a1` where meaningful) so tests can verify the program actually
//! computed what it claims before trusting its timing profile.
//!
//! ```
//! use icicle_workloads::micro;
//!
//! let w = micro::mergesort(256);
//! let stream = w.execute().unwrap();
//! assert_eq!(stream.trailing_reg(icicle_isa::Reg::A1), 1); // sorted
//! ```

mod rng;
mod workload;

pub mod micro;
pub mod riscv_tests;
pub mod spec;
pub mod synth;

pub use rng::XorShift;
pub use workload::Workload;

/// The family a named workload belongs to.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
enum Suite {
    /// [`micro_suite`]: the Fig. 7 (a, b, k, l) microbenchmarks.
    Micro,
    /// [`spec_intrate_suite`]: the SPEC CPU2017 intrate proxies.
    Spec,
    /// Addressable by name but in neither suite: the scheduled CoreMark
    /// variant, and the stall-heavy pair that measures simulator
    /// throughput under long quiescent spans rather than a Fig. 7
    /// bottleneck signature.
    Extra,
}

/// One named workload: how to build its canonical form, and, for the
/// workloads whose behavior depends on their input data, how to build it
/// from another data seed.
struct Entry {
    name: &'static str,
    suite: Suite,
    build: fn() -> Workload,
    reseed: Option<fn(u64) -> Workload>,
}

const fn entry(name: &'static str, suite: Suite, build: fn() -> Workload) -> Entry {
    Entry {
        name,
        suite,
        build,
        reseed: None,
    }
}

/// Every named workload, in catalog order. The one source of the names
/// [`catalog`], [`by_name`] and [`names`] hand out.
const WORKLOADS: &[Entry] = &[
    Entry {
        reseed: Some(|seed| micro::mergesort_seeded(1 << 10, seed)),
        ..entry("mergesort", Suite::Micro, || micro::mergesort(1 << 10))
    },
    Entry {
        reseed: Some(|seed| micro::qsort_seeded(1 << 10, seed)),
        ..entry("qsort", Suite::Micro, || micro::qsort(1 << 10))
    },
    Entry {
        reseed: Some(|seed| micro::rsort_seeded(1 << 10, seed)),
        ..entry("rsort", Suite::Micro, || micro::rsort(1 << 10))
    },
    entry("memcpy", Suite::Micro, || micro::memcpy(1 << 17)),
    entry("mm", Suite::Micro, || micro::mm(20)),
    entry("vvadd", Suite::Micro, || micro::vvadd(1 << 12)),
    entry("brmiss", Suite::Micro, || micro::brmiss(1200)),
    entry("brmiss_inv", Suite::Micro, || micro::brmiss_inv(1200)),
    entry("spmv", Suite::Micro, || riscv_tests::spmv(128, 8)),
    entry("towers", Suite::Micro, || riscv_tests::towers(10)),
    entry("median", Suite::Micro, || riscv_tests::median(1 << 11)),
    entry("multiply", Suite::Micro, || riscv_tests::multiply(400)),
    entry("atomic_histogram", Suite::Micro, || {
        riscv_tests::atomic_histogram(256, 2_000)
    }),
    entry("dhrystone", Suite::Micro, || synth::dhrystone(400)),
    entry("coremark", Suite::Micro, || synth::coremark(60, false)),
    entry("500.perlbench_r", Suite::Spec, spec::perlbench),
    entry("502.gcc_r", Suite::Spec, spec::gcc),
    entry("505.mcf_r", Suite::Spec, spec::mcf),
    entry("520.omnetpp_r", Suite::Spec, spec::omnetpp),
    entry("523.xalancbmk_r", Suite::Spec, spec::xalancbmk),
    entry("525.x264_r", Suite::Spec, spec::x264),
    entry("531.deepsjeng_r", Suite::Spec, spec::deepsjeng),
    entry("541.leela_r", Suite::Spec, spec::leela),
    entry("548.exchange2_r", Suite::Spec, spec::exchange2),
    entry("557.xz_r", Suite::Spec, spec::xz),
    entry("coremark-sched", Suite::Extra, || synth::coremark(60, true)),
    entry("ptrchase", Suite::Extra, || {
        micro::ptrchase(1 << 14, 20_000)
    }),
    entry("muldiv", Suite::Extra, || micro::muldiv(2_000)),
];

fn build_suite(suite: Suite) -> Vec<Workload> {
    WORKLOADS
        .iter()
        .filter(|e| e.suite == suite)
        .map(|e| (e.build)())
        .collect()
}

fn lookup(name: &str) -> Option<&'static Entry> {
    WORKLOADS.iter().find(|e| e.name == name)
}

/// The microbenchmark suite at the default sizes (Fig. 7 a, b, k, l).
pub fn micro_suite() -> Vec<Workload> {
    build_suite(Suite::Micro)
}

/// The SPEC CPU2017 intrate proxy suite at the default sizes
/// (Fig. 7 g–j, Table V).
pub fn spec_intrate_suite() -> Vec<Workload> {
    build_suite(Suite::Spec)
}

/// The name of every workload [`catalog`] builds, in the same order,
/// without building any of them.
pub fn names() -> impl ExactSizeIterator<Item = &'static str> {
    WORKLOADS.iter().map(|e| e.name)
}

/// Every named workload at its default size: the micro suite, the SPEC
/// proxies, the scheduled CoreMark variant, and the stall-heavy pair.
pub fn catalog() -> Vec<Workload> {
    WORKLOADS.iter().map(|e| (e.build)()).collect()
}

/// Looks a workload up by the name printed in figures and tables,
/// building only that workload.
pub fn by_name(name: &str) -> Option<Workload> {
    lookup(name).map(|e| (e.build)())
}

/// Looks a workload up by name with a data-seed override.
///
/// Seed 0 always means the canonical dataset (identical to
/// [`by_name`]). For the seed-capable microbenchmarks — the three sorts,
/// whose behavior is input-data-dependent — a non-zero seed regenerates
/// the input data from that seed at the default size. Workloads whose
/// inputs are structural (matrix shapes, instruction mixes) ignore the
/// seed and return their canonical form; the seed still distinguishes
/// campaign cells, so sweeping it over such a workload measures
/// run-to-run stability of the harness itself.
pub fn by_name_seeded(name: &str, seed: u64) -> Option<Workload> {
    let e = lookup(name)?;
    Some(match e.reseed {
        Some(reseed) if seed != 0 => reseed(seed),
        _ => (e.build)(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suites_are_populated_and_named_uniquely() {
        let mut names: Vec<String> = micro_suite()
            .iter()
            .chain(spec_intrate_suite().iter())
            .map(|w| w.name().to_string())
            .collect();
        let total = names.len();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), total, "duplicate workload names");
        assert!(total >= 20);
    }

    #[test]
    fn seeded_lookup_is_canonical_at_seed_zero_and_diverges_otherwise() {
        for name in ["mergesort", "qsort", "rsort"] {
            let canonical = by_name(name).unwrap().execute().unwrap();
            let zero = by_name_seeded(name, 0).unwrap().execute().unwrap();
            assert_eq!(
                canonical.trailing_reg(icicle_isa::Reg::A0),
                zero.trailing_reg(icicle_isa::Reg::A0),
                "{name}: seed 0 must be the canonical dataset"
            );
            let other = by_name_seeded(name, 0xdead_beef)
                .unwrap()
                .execute()
                .unwrap();
            assert_ne!(
                canonical.trailing_reg(icicle_isa::Reg::A0),
                other.trailing_reg(icicle_isa::Reg::A0),
                "{name}: a non-zero seed must change the input data"
            );
            // Seeded variants still compute correct results (the sorts
            // verify sortedness into a1).
            assert_eq!(
                other.trailing_reg(icicle_isa::Reg::A1),
                1,
                "{name}: seeded run failed its own checksum"
            );
        }
        // Structurally-seeded workloads fall back to canonical.
        assert!(by_name_seeded("towers", 5).is_some());
    }

    #[test]
    fn every_entry_builds_the_workload_it_is_named_for() {
        for e in WORKLOADS {
            assert_eq!((e.build)().name(), e.name, "canonical constructor");
            if let Some(reseed) = e.reseed {
                assert_eq!(reseed(7).name(), e.name, "seeded constructor");
            }
        }
    }

    #[test]
    fn lookups_build_the_catalog_entry() {
        let catalog = catalog();
        assert_eq!(catalog.len(), WORKLOADS.len());
        assert!(catalog.iter().map(Workload::name).eq(names()));
        for w in &catalog {
            for found in [by_name(w.name()), by_name_seeded(w.name(), 0)] {
                let found = found.unwrap_or_else(|| panic!("{} not found", w.name()));
                assert_eq!(found.name(), w.name());
                assert_eq!(found.program().code(), w.program().code(), "{}", w.name());
                assert_eq!(found.program().data(), w.program().data(), "{}", w.name());
                assert_eq!(found.max_instrs(), w.max_instrs(), "{}", w.name());
            }
        }
    }

    #[test]
    fn suites_are_catalog_slices_in_order() {
        let micro: Vec<String> = micro_suite().iter().map(|w| w.name().into()).collect();
        let spec: Vec<String> = spec_intrate_suite()
            .iter()
            .map(|w| w.name().into())
            .collect();
        let all: Vec<&str> = names().collect();
        assert_eq!(micro, all[..micro.len()]);
        assert_eq!(spec, all[micro.len()..micro.len() + spec.len()]);
    }

    #[test]
    fn unknown_names_are_not_found() {
        for name in ["", "nope", "Mergesort", "505.mcf", "coremark "] {
            assert!(by_name(name).is_none(), "{name:?}");
            assert!(by_name_seeded(name, 0).is_none(), "{name:?}");
            assert!(by_name_seeded(name, 7).is_none(), "{name:?}");
        }
    }

    #[test]
    fn every_suite_workload_executes() {
        for w in micro_suite().into_iter().chain(spec_intrate_suite()) {
            let stream = w
                .execute()
                .unwrap_or_else(|e| panic!("{} failed: {e}", w.name()));
            assert!(
                stream.len() > 100,
                "{} trivially short: {}",
                w.name(),
                stream.len()
            );
        }
    }
}
