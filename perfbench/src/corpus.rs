//! The benchmark's inputs: machines, programs, and the (program, machine)
//! pairs each workload compiles. The machines and programs are the same
//! for every seed; the workload seed decides the order of the pairs and a
//! second simulation input vector.
//!
//! Machines and programs are carried as *source text*: parsing them is
//! part of what the benchmark measures (set-up for machines, every
//! operation for programs).

use aviv::CodegenOptions;
use aviv_bench::{examples, kernels};
use aviv_ir::randdag::{random_function, RandDagConfig};
use aviv_ir::{to_source, Op};
use aviv_isdl::{archs, to_isdl};

/// The three workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Source text to asm, heuristics on, a fresh plan cache per compile.
    RetargetCold,
    /// Heuristics-off (exhaustive) compiles of the paper's blocks and the
    /// DSP kernels, on pairs where one compile stays under 250 ms.
    ExactPaper,
    /// The `avivd` binary answering compiles from a restored plan cache.
    ServeWarm,
}

impl Workload {
    /// Every workload, in the order the README lists them.
    pub const ALL: [Workload; 3] = [
        Workload::RetargetCold,
        Workload::ExactPaper,
        Workload::ServeWarm,
    ];

    /// Parse a workload name as given on the command line.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::RetargetCold => "retarget_cold",
            Workload::ExactPaper => "exact_paper",
            Workload::ServeWarm => "serve_warm",
        }
    }

    /// The code-generator preset the workload compiles with.
    pub fn preset(self) -> Preset {
        match self {
            Workload::ExactPaper => Preset::Off,
            Workload::RetargetCold | Workload::ServeWarm => Preset::On,
        }
    }
}

/// A code-generator preset, as `avivc --preset` and the `avivd` request
/// field name them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Preset {
    /// All heuristics on (the paper's default configuration).
    On,
    /// Heuristics off: exhaustive assignments, unrestricted cliques.
    Off,
}

impl Preset {
    /// The options the preset stands for, with one job (no per-block
    /// parallelism) and the invariant verifier off, as in a release
    /// `avivc`/`avivd`.
    pub fn options(self) -> CodegenOptions {
        let base = match self {
            Preset::On => CodegenOptions::heuristics_on(),
            Preset::Off => CodegenOptions::heuristics_off(),
        };
        base.with_jobs(1).with_verify(false)
    }

    /// The preset's name in the `avivd` protocol.
    pub fn name(self) -> &'static str {
        match self {
            Preset::On => "on",
            Preset::Off => "off",
        }
    }
}

/// One machine description.
#[derive(Debug, Clone)]
pub struct MachineSpec {
    /// Display label (distinct per corpus).
    pub label: &'static str,
    /// ISDL source text.
    pub isdl: String,
}

/// One source program.
#[derive(Debug, Clone)]
pub struct ProgramSpec {
    /// Display label (distinct per corpus).
    pub label: String,
    /// Source text in the front-end language.
    pub source: String,
    /// Whether the program is a `randdag` random program.
    pub random: bool,
}

/// One (program, machine) pair, by index into the corpus.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Pair {
    /// Index into [`Corpus::programs`].
    pub program: usize,
    /// Index into [`Corpus::machines`].
    pub machine: usize,
}

/// A workload's complete input set.
#[derive(Debug, Clone)]
pub struct Corpus {
    /// Every machine of the workload.
    pub machines: Vec<MachineSpec>,
    /// Every program of the workload.
    pub programs: Vec<ProgramSpec>,
    /// The distinct pairs one round compiles, in the seeded order.
    pub pairs: Vec<Pair>,
    /// Per program, two argument vectors the simulator and the
    /// interpreter both run: the first is the same for every seed (it
    /// gives `sim_cycles`), the second is drawn from the seed.
    pub args: Vec<[Vec<i64>; 2]>,
}

impl Corpus {
    /// `program on machine`, for messages.
    pub fn label(&self, pair: Pair) -> String {
        format!(
            "{} on {}",
            self.programs[pair.program].label, self.machines[pair.machine].label
        )
    }
}

/// The `randdag` seed of the `rand32` block: the 32-operation block size
/// of the scaling table.
const RAND32_SEED: u64 = 1;

/// Machines that take the `rand32` block: one compile there stays
/// under half a second. On `Wide` it takes about 3.9 s and on `DspMac`
/// about 0.75 s, which would let one pair dominate a round.
const RAND32_MACHINES: [&str; 5] = ["Example", "ArchII", "Chained", "SingleAlu", "QuadVliw"];

/// The `exact_paper` pairs: each heuristics-off compile measured under
/// 250 ms on a 2-core host (see the README for the measured times of the
/// pairs left out).
const EXACT_PAIRS: [(&str, &[&str]); 9] = [
    ("Example", &["Ex1", "Ex2", "Ex3", "sum_loop"]),
    ("Example/2", &["Ex1", "Ex2", "Ex3", "sum_loop"]),
    (
        "ArchII",
        &[
            "dot4",
            "biquad",
            "cmul",
            "butterfly",
            "Ex1",
            "Ex2",
            "Ex3",
            "Ex4",
            "Ex5",
            "sum_loop",
        ],
    ),
    (
        "DspMac",
        &[
            "dot4", "cmul", "Ex1", "Ex2", "Ex3", "Ex4", "Ex5", "sum_loop",
        ],
    ),
    (
        "Chained",
        &[
            "dot4", "biquad", "cmul", "Ex1", "Ex2", "Ex3", "Ex4", "Ex5", "sum_loop",
        ],
    ),
    (
        "SingleAlu",
        &[
            "dot4",
            "biquad",
            "cmul",
            "butterfly",
            "saxpy_clamp",
            "sad4",
            "Ex1",
            "Ex2",
            "Ex3",
            "Ex4",
            "Ex5",
            "sum_loop",
        ],
    ),
    ("Wide", &["Ex1", "Ex3", "sum_loop"]),
    ("QuadVliw", &["Ex1", "Ex3", "sum_loop"]),
    (
        "AccDsp",
        &[
            "dot4", "biquad", "cmul", "Ex1", "Ex2", "Ex3", "Ex4", "Ex5", "sum_loop",
        ],
    ),
];

/// The smaller random programs: (operations per block, blocks, `randdag`
/// seed). Their seeds are fixed rather than drawn from the workload seed:
/// the compile time of one random shape varies up to tenfold between
/// `randdag` seeds, which would make the figures depend on the seed
/// instead of the code.
const RANDOM: [(usize, usize, u64); 3] = [(6, 2, 0), (8, 2, 1), (12, 1, 2)];

/// Smallest register file a machine needs to take random programs: on
/// two- and three-register files random blocks spill heavily and one
/// compile takes seconds.
const RANDOM_MIN_REGS: u32 = 4;

/// A splitmix64 step: the benchmark's own generator, so that its inputs
/// do not depend on the program's random-number code.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A seeded generator for one named stream of a workload.
#[derive(Debug, Clone)]
pub struct Stream(u64);

impl Stream {
    /// The stream `name` of seed `seed`.
    pub fn new(seed: u64, name: &str) -> Stream {
        let mut s = seed ^ 0x5151_5151_5151_5151;
        for b in name.bytes() {
            s = s.rotate_left(8) ^ u64::from(b);
            splitmix(&mut s);
        }
        Stream(s)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        splitmix(&mut self.0)
    }

    /// A value in `lo..=hi`.
    pub fn range(&mut self, lo: i64, hi: i64) -> i64 {
        let span = (hi - lo + 1) as u64;
        lo + (self.next_u64() % span) as i64
    }

    /// Shuffle `items` in place (Fisher-Yates).
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = (self.next_u64() % (i as u64 + 1)) as usize;
            items.swap(i, j);
        }
    }
}

/// Every bundled machine, as ISDL text. The three `assets/*.isdl` files
/// stand for `Example`, `ArchII` and `DspMac`; the rest are the
/// builder-made machines of `aviv_isdl::archs`, printed back to ISDL.
pub fn machines() -> Vec<MachineSpec> {
    vec![
        MachineSpec {
            label: "Example",
            isdl: include_str!("../../assets/fig3.isdl").to_string(),
        },
        MachineSpec {
            label: "Example/2",
            isdl: to_isdl(&archs::example_arch(2)),
        },
        MachineSpec {
            label: "ArchII",
            isdl: include_str!("../../assets/archII.isdl").to_string(),
        },
        MachineSpec {
            label: "DspMac",
            isdl: include_str!("../../assets/dsp_mac.isdl").to_string(),
        },
        MachineSpec {
            label: "Chained",
            isdl: to_isdl(&archs::chained_arch(4)),
        },
        MachineSpec {
            label: "SingleAlu",
            isdl: to_isdl(&archs::single_alu(6)),
        },
        MachineSpec {
            label: "Wide",
            isdl: to_isdl(&archs::wide_arch(4)),
        },
        MachineSpec {
            label: "QuadVliw",
            isdl: to_isdl(&archs::quad_vliw(4)),
        },
        MachineSpec {
            label: "AccDsp",
            isdl: to_isdl(&archs::accumulator_dsp()),
        },
    ]
}

/// The fixed programs: the DSP kernels, the paper's Ex1–Ex5 blocks
/// (Ex6/Ex7 are Ex4/Ex5 on `Example/2`), and `assets/sum_loop.av`.
/// `assets/dot4.av` is the `dot4` kernel's text and is left out.
pub fn fixed_programs() -> Vec<ProgramSpec> {
    let mut programs: Vec<ProgramSpec> = kernels::all_kernels()
        .into_iter()
        .map(|k| ProgramSpec {
            label: k.name.to_string(),
            source: k.source.to_string(),
            random: false,
        })
        .collect();
    programs.extend(
        examples::table2_examples()
            .into_iter()
            .map(|e| ProgramSpec {
                label: e.name.to_string(),
                source: e.source.to_string(),
                random: false,
            }),
    );
    programs.push(ProgramSpec {
        label: "sum_loop".to_string(),
        source: include_str!("../../assets/sum_loop.av").to_string(),
        random: false,
    });
    programs
}

fn rand_config(n_ops: usize) -> RandDagConfig {
    RandDagConfig {
        n_ops,
        ops: vec![Op::Add, Op::Sub, Op::Mul, Op::Add, Op::Mul],
        ..RandDagConfig::default()
    }
}

/// The random programs of `retarget_cold` and `serve_warm`.
fn random_programs() -> Vec<ProgramSpec> {
    let mut programs = vec![ProgramSpec {
        label: "rand32".to_string(),
        source: to_source(&random_function(&rand_config(32), 1, RAND32_SEED)),
        random: true,
    }];
    for (n_ops, blocks, seed) in RANDOM {
        programs.push(ProgramSpec {
            label: format!("rand{n_ops}x{blocks}"),
            source: to_source(&random_function(&rand_config(n_ops), blocks, seed)),
            random: true,
        });
    }
    programs
}

/// Build the corpus of `workload` for `seed`. `feasible(program,
/// machine)` says whether the machine implements every operation the
/// program needs (the analyzer's verdict, decided by the caller, which
/// holds the parsed targets).
pub fn corpus(
    workload: Workload,
    seed: u64,
    feasible: &mut dyn FnMut(&ProgramSpec, &MachineSpec) -> bool,
) -> Corpus {
    let machines = machines();
    let mut programs = fixed_programs();
    if workload != Workload::ExactPaper {
        programs.extend(random_programs());
    }
    let mut pairs = Vec::new();
    for (mi, m) in machines.iter().enumerate() {
        for (pi, p) in programs.iter().enumerate() {
            if included(workload, p, m) && feasible(p, m) {
                pairs.push(Pair {
                    program: pi,
                    machine: mi,
                });
            }
        }
    }
    Stream::new(seed, "order").shuffle(&mut pairs);
    let mut fixed = Stream::new(0, "args");
    let mut seeded = Stream::new(seed, "args");
    let args = programs
        .iter()
        .map(|p| {
            let n = aviv_ir::parse_function(&p.source)
                .expect("corpus programs parse")
                .params
                .len();
            [&mut fixed, &mut seeded].map(|s| (0..n).map(|_| s.range(-9, 12)).collect())
        })
        .collect();
    Corpus {
        machines,
        programs,
        pairs,
        args,
    }
}

/// Whether `workload` compiles `program` on `machine` (before the
/// feasibility check).
fn included(workload: Workload, program: &ProgramSpec, machine: &MachineSpec) -> bool {
    match workload {
        Workload::ExactPaper => EXACT_PAIRS
            .iter()
            .any(|(m, ps)| *m == machine.label && ps.contains(&program.label.as_str())),
        Workload::RetargetCold | Workload::ServeWarm => {
            if program.label == "rand32" {
                RAND32_MACHINES.contains(&machine.label)
            } else if program.random {
                min_regs(machine) >= RANDOM_MIN_REGS
            } else {
                true
            }
        }
    }
}

fn min_regs(machine: &MachineSpec) -> u32 {
    aviv_isdl::parse_machine(&machine.isdl)
        .expect("bundled machines parse")
        .banks()
        .iter()
        .map(|b| b.size)
        .min()
        .unwrap_or(0)
}
