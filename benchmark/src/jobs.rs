//! The four workloads and the campaign jobs each one generates from its
//! seed. The program under test sees only the spec texts made here.

use icicle::campaign::fingerprint::mix_seed;
use icicle::campaign::CampaignSpec;

/// One benchmark workload.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum Workload {
    /// Short, densely retiring, branchy cells on both counter archs.
    SweepDense,
    /// Backend-bound cells whose working sets exceed the modelled L1.
    SweepStall,
    /// Multi-core cells on the shared L2 under the parallel engine.
    SocSharedL2,
    /// Two closed-loop clients against the analysis server.
    ServeMixed,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::SweepDense,
        Workload::SweepStall,
        Workload::SocSharedL2,
        Workload::ServeMixed,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::SweepDense => "sweep-dense",
            Workload::SweepStall => "sweep-stall",
            Workload::SocSharedL2 => "soc-shared-l2",
            Workload::ServeMixed => "serve-mixed",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The global flags and the `campaign` flags this workload's jobs
    /// run with through the CLI. At most two threads ever step cells:
    /// the host has two CPUs. The server's jobs run one thread each, as
    /// the server runs them.
    pub fn cli_flags(self) -> (&'static [&'static str], &'static [&'static str]) {
        match self {
            Workload::SweepDense | Workload::SweepStall => (&[], &["--jobs", "2"]),
            Workload::SocSharedL2 => (&["--soc-jobs", "2"], &["--jobs", "1"]),
            Workload::ServeMixed => (&[], &["--jobs", "1"]),
        }
    }
}

const SINGLE_CORES: [&str; 3] = ["rocket", "medium-boom", "large-boom"];

const DENSE: [&str; 10] = [
    "mergesort",
    "qsort",
    "rsort",
    "mm",
    "dhrystone",
    "coremark",
    "525.x264_r",
    "531.deepsjeng_r",
    "541.leela_r",
    "548.exchange2_r",
];

const STALL: [&str; 7] = [
    "ptrchase",
    "muldiv",
    "505.mcf_r",
    "520.omnetpp_r",
    "523.xalancbmk_r",
    "memcpy",
    "vvadd",
];

/// A sort whose data follows the seed, and a pointer-chasing kernel
/// whose misses contend for the shared L2.
const SOC_WORKLOADS: [&str; 2] = ["qsort", "505.mcf_r"];
const SOC_MIXES: [&str; 3] = ["soc-2xrocket", "soc-rocket+medium-boom", "soc-4xrocket"];

/// Workloads a served fresh job draws from.
const SERVE_POOL: [&str; 13] = [
    "mergesort",
    "qsort",
    "rsort",
    "vvadd",
    "mm",
    "towers",
    "median",
    "spmv",
    "multiply",
    "dhrystone",
    "coremark",
    "505.mcf_r",
    "557.xz_r",
];

/// Every served job runs both of these cores.
const SERVE_CORES: [&str; 2] = ["rocket", "medium-boom"];

/// Served jobs come in blocks of ten: six fresh jobs, three extends and
/// one repeat. The fresh jobs form two groups of three, each group
/// dealing one shuffled copy of the pool, with these workload counts.
/// The extends add a seed to one whole group of the previous block, so
/// they too cover the pool exactly once. Every block therefore asks for
/// the same simulation work whatever the seed, and any stretch of the
/// list carries the same load.
const GROUP_SIZES: [[usize; 3]; 2] = [[4, 4, 5], [3, 5, 5]];

/// Served jobs per block: six fresh, three extends, one repeat.
pub const SERVE_BLOCK: usize = 10;

/// How a job relates to the jobs before it in its list.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum Origin {
    /// New cells only.
    Fresh,
    /// The spec of the earlier fresh job at this index plus one new
    /// seed, so about half its cells are already cached.
    Extend(usize),
    /// The earlier job at this index verbatim: every cell cached.
    Repeat(usize),
}

/// One campaign job: the spec text a user would submit and its parse.
#[derive(Clone, PartialEq, Debug)]
pub struct Job {
    pub origin: Origin,
    pub text: String,
    pub spec: CampaignSpec,
}

impl Job {
    fn new(
        origin: Origin,
        name: &str,
        workloads: &[&str],
        cores: &[&str],
        archs: &[&str],
        seeds: &[u64],
    ) -> Job {
        let seeds: Vec<String> = seeds.iter().map(u64::to_string).collect();
        let text = format!(
            "name = {name}\nworkloads = {}\ncores = {}\narchs = {}\nseeds = {}\n",
            workloads.join(", "),
            cores.join(", "),
            archs.join(", "),
            seeds.join(", ")
        );
        let spec = CampaignSpec::parse(&text).expect("generated campaign specs are well formed");
        Job { origin, text, spec }
    }

    /// Cells the job expands to.
    pub fn cells(&self) -> usize {
        self.spec.cells().len()
    }
}

/// SplitMix64: the benchmark's only source of randomness.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        mix_seed(self.0, 0)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }

    /// A data seed; never 0, which names a workload's canonical data.
    fn data_seed(&mut self) -> u64 {
        self.next().max(1)
    }
}

/// The first `count` jobs of workload `w` under `seed`, in the order the
/// benchmark submits them.
pub fn jobs(w: Workload, seed: u64, count: usize) -> Vec<Job> {
    // Each workload draws from its own stream of the seed.
    let mut rng = Rng(mix_seed(seed, w as u64 + 1));
    if w == Workload::ServeMixed {
        return serve_jobs(&mut rng, count);
    }
    (0..count)
        .map(|k| {
            let name = format!("{}-{k}", w.name());
            match w {
                Workload::SweepDense => Job::new(
                    Origin::Fresh,
                    &name,
                    &DENSE,
                    &SINGLE_CORES,
                    &["add-wires", "distributed"],
                    &[rng.data_seed()],
                ),
                Workload::SweepStall => Job::new(
                    Origin::Fresh,
                    &name,
                    &STALL,
                    &SINGLE_CORES,
                    &["add-wires"],
                    &[rng.data_seed()],
                ),
                Workload::SocSharedL2 => Job::new(
                    Origin::Fresh,
                    &name,
                    &SOC_WORKLOADS,
                    &SOC_MIXES,
                    &["add-wires"],
                    &[rng.data_seed()],
                ),
                Workload::ServeMixed => unreachable!("served jobs are generated above"),
            }
        })
        .collect()
}

/// The job a fresh server's peak memory is measured on: the whole
/// served pool on both cores with every workload's canonical data
/// (seed 0), so the same cells run whatever the benchmark seed.
pub fn memory_probe() -> Job {
    Job::new(
        Origin::Fresh,
        "serve-memory-probe",
        &SERVE_POOL,
        &SERVE_CORES,
        &["add-wires"],
        &[0],
    )
}

fn serve_jobs(rng: &mut Rng, count: usize) -> Vec<Job> {
    #[derive(Copy, Clone)]
    enum Slot {
        Fresh(usize),
        Extend(usize),
        Repeat,
    }
    let mut jobs: Vec<Job> = Vec::with_capacity(count);
    // List indices of the previous block's two fresh groups.
    let mut previous: Option<[[usize; 3]; 2]> = None;
    while jobs.len() < count {
        let mut fresh: Vec<Vec<&str>> = Vec::with_capacity(6);
        for sizes in GROUP_SIZES {
            let mut pool = SERVE_POOL;
            rng.shuffle(&mut pool);
            let mut sizes = sizes;
            rng.shuffle(&mut sizes);
            let mut at = 0;
            for size in sizes {
                fresh.push(pool[at..at + size].to_vec());
                at += size;
            }
        }
        let mut slots: Vec<Slot> = (0..6)
            .map(Slot::Fresh)
            .chain((0..3).map(Slot::Extend))
            .chain([Slot::Repeat])
            .collect();
        match previous {
            Some(_) => rng.shuffle(&mut slots),
            None => {
                // The first block refers to its own fresh jobs, so
                // those go first.
                rng.shuffle(&mut slots[..6]);
                rng.shuffle(&mut slots[6..]);
            }
        }
        let base = jobs.len();
        let at = |k: usize| {
            base + slots
                .iter()
                .position(|s| matches!(s, Slot::Fresh(j) if *j == k))
                .expect("every fresh job has a slot")
        };
        let groups = [[at(0), at(1), at(2)], [at(3), at(4), at(5)]];
        let targets = previous.unwrap_or(groups);
        let extended = targets[rng.below(2)];
        let repeated = targets[rng.below(2)][rng.below(3)];
        for slot in slots {
            let name = format!("serve-{}", jobs.len());
            let job = match slot {
                Slot::Fresh(k) => Job::new(
                    Origin::Fresh,
                    &name,
                    &fresh[k],
                    &SERVE_CORES,
                    &["add-wires"],
                    &[rng.data_seed()],
                ),
                Slot::Extend(k) => {
                    let of = extended[k];
                    let original = &jobs[of].spec;
                    let workloads: Vec<&str> =
                        original.workloads.iter().map(String::as_str).collect();
                    Job::new(
                        Origin::Extend(of),
                        &name,
                        &workloads,
                        &SERVE_CORES,
                        &["add-wires"],
                        &[original.seeds[0], rng.data_seed()],
                    )
                }
                Slot::Repeat => Job {
                    origin: Origin::Repeat(repeated),
                    ..jobs[repeated].clone()
                },
            };
            jobs.push(job);
        }
        previous = Some(groups);
    }
    jobs.truncate(count);
    jobs
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sort_seeds(jobs: &[Job]) -> Vec<u64> {
        jobs.iter().flat_map(|j| j.spec.seeds.clone()).collect()
    }

    #[test]
    fn jobs_are_a_pure_function_of_the_seed() {
        for w in Workload::ALL {
            let a = jobs(w, 1, 30);
            assert_eq!(a, jobs(w, 1, 30), "{}", w.name());
            let b = jobs(w, 2, 30);
            assert_ne!(sort_seeds(&a), sort_seeds(&b), "{}", w.name());
            // A longer list starts with the shorter one.
            assert_eq!(jobs(w, 1, 12)[..], a[..12]);
        }
        let a = jobs(Workload::ServeMixed, 1, 40);
        let b = jobs(Workload::ServeMixed, 2, 40);
        let texts = |js: &[Job]| {
            js.iter()
                .map(|j| j.spec.workloads.clone())
                .collect::<Vec<_>>()
        };
        assert_ne!(texts(&a), texts(&b), "the job list itself changes");
    }

    #[test]
    fn the_memory_probe_covers_the_pool_whatever_the_seed() {
        let probe = memory_probe();
        assert_eq!(probe.cells(), 2 * SERVE_POOL.len());
        assert_eq!(probe.spec.seeds, [0]);
    }

    #[test]
    fn campaign_jobs_have_the_documented_shapes() {
        let cells = |w| jobs(w, 7, 1)[0].cells();
        assert_eq!(cells(Workload::SweepDense), 60);
        assert_eq!(cells(Workload::SweepStall), 21);
        assert_eq!(cells(Workload::SocSharedL2), 6);
        for w in [
            Workload::SweepDense,
            Workload::SweepStall,
            Workload::SocSharedL2,
        ] {
            assert!(jobs(w, 7, 5).iter().all(|j| j.origin == Origin::Fresh));
        }
    }

    #[test]
    fn served_blocks_ask_for_the_same_work_whatever_the_seed() {
        let mut twice: Vec<String> = SERVE_POOL
            .iter()
            .chain(SERVE_POOL.iter())
            .map(|s| s.to_string())
            .collect();
        twice.sort();
        let mut once: Vec<String> = SERVE_POOL.iter().map(|s| s.to_string()).collect();
        once.sort();
        for seed in [1, 2, 3] {
            let list = jobs(Workload::ServeMixed, seed, 200);
            assert_eq!(list[0].origin, Origin::Fresh);
            for block in list.chunks(SERVE_BLOCK) {
                let of_kind = |f: &dyn Fn(&Origin) -> bool| {
                    let mut used: Vec<String> = block
                        .iter()
                        .filter(|j| f(&j.origin))
                        .flat_map(|j| j.spec.workloads.clone())
                        .collect();
                    used.sort();
                    used
                };
                assert_eq!(of_kind(&|o| *o == Origin::Fresh), twice);
                assert_eq!(of_kind(&|o| matches!(o, Origin::Extend(_))), once);
                let repeats = block
                    .iter()
                    .filter(|j| matches!(j.origin, Origin::Repeat(_)))
                    .count();
                assert_eq!(repeats, 1);
            }
            for (i, job) in list.iter().enumerate() {
                let mut names = job.spec.workloads.clone();
                names.sort();
                names.dedup();
                assert_eq!(
                    names.len(),
                    job.spec.workloads.len(),
                    "duplicate in job {i}"
                );
                assert!((3..=6).contains(&names.len()));
                assert_eq!(job.spec.cores.len(), SERVE_CORES.len());
                match job.origin {
                    Origin::Fresh => assert_eq!(job.spec.seeds.len(), 1),
                    Origin::Extend(of) => {
                        assert!(of < i && list[of].origin == Origin::Fresh);
                        assert_eq!(job.spec.seeds[0], list[of].spec.seeds[0]);
                        assert_eq!(job.cells(), 2 * list[of].cells());
                    }
                    Origin::Repeat(of) => {
                        assert!(of < i);
                        assert_eq!(job.text, list[of].text);
                    }
                }
            }
        }
    }
}
