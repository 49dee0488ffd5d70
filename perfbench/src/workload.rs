//! Running one workload: set-up, the measured loop, the output checks,
//! and (in the traced run) the per-layer measurements.

use crate::calib::Calibration;
use crate::check;
use crate::corpus::{self, Corpus, Workload};
use crate::serve::{self, Server, Session};
use crate::stats::{self, Layers, Metric};
use crate::trace::Trace;
use aviv::{CodeGenerator, CodegenOptions, CompileReport, PlanCache, VliwProgram};
use aviv_ir::{parse_function, Function};
use aviv_isdl::{parse_machine, Target};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How many times the traced run replays each served request in-process.
const REPLAYS: usize = 3;

/// One run's settings.
#[derive(Debug, Clone)]
pub struct Config {
    /// Which workload.
    pub workload: Workload,
    /// Input seed.
    pub seed: u64,
    /// Length of the measured window, in s.
    pub seconds: f64,
    /// Traced run: record spans and report per-layer metrics.
    pub trace: bool,
    /// The `avivd` binary.
    pub avivd: PathBuf,
    /// Directory for the socket, snapshots and the trace file.
    pub workdir: PathBuf,
}

/// What one run measured.
#[derive(Debug)]
pub struct Outcome {
    /// Operations attempted in the measured window.
    pub attempted: u64,
    /// Operations that failed (refused, `"ok":false`, or a compile error).
    pub failed: u64,
    /// Output-check failures; the run is correct when this is empty.
    pub errors: Vec<String>,
    /// The end-to-end metrics, in `BENCHMARK.json` order.
    pub end_to_end: Vec<Metric>,
    /// The per-layer metrics (traced run only), in `BENCHMARK.json` order.
    pub per_layer: Vec<Metric>,
    /// The timing metrics before scaling to the reference host speed,
    /// and the calibration task's median time.
    pub raw: Vec<Metric>,
    /// Latency samples behind the percentiles.
    pub samples: usize,
    /// The traced run's spans.
    pub trace: Trace,
}

/// The parsed inputs of one workload.
pub struct Prepared {
    /// Which workload.
    pub workload: Workload,
    /// Its corpus.
    pub corpus: Corpus,
    /// One target per corpus machine.
    pub targets: Vec<Arc<Target>>,
    /// Wall time of the set-up, in s.
    pub setup_s: f64,
    /// Per machine: `parse_machine` + `Target::new`, in ms.
    pub target_ms: Vec<f64>,
}

/// Build the corpus of `workload` and set it up once.
pub fn prepare(workload: Workload, seed: u64) -> Prepared {
    let mut feasible_targets: HashMap<&'static str, Target> = HashMap::new();
    let corpus = corpus::corpus(workload, seed, &mut |p, m| {
        let t = feasible_targets.entry(m.label).or_insert_with(|| {
            Target::new(parse_machine(&m.isdl).expect("bundled machines parse"))
        });
        let f = parse_function(&p.source).expect("corpus programs parse");
        aviv_verify::analyze_program(&f, t).feasible()
    });
    drop(feasible_targets);
    let mut target_ms = Vec::new();
    let (targets, seconds) = set_up(&corpus, &mut target_ms);
    Prepared {
        workload,
        corpus,
        targets,
        setup_s: seconds,
        target_ms,
    }
}

/// The set-up of the in-process workloads: parse every machine and build
/// its `Target`, and parse every program. Returns the targets and the
/// wall time in s; adds each machine's time (ms) to `target_ms`.
pub fn set_up(corpus: &Corpus, target_ms: &mut Vec<f64>) -> (Vec<Arc<Target>>, f64) {
    let start = Instant::now();
    let targets = corpus
        .machines
        .iter()
        .map(|m| {
            let t0 = Instant::now();
            let target = Target::new(parse_machine(&m.isdl).expect("bundled machines parse"));
            target_ms.push(t0.elapsed().as_secs_f64() * 1e3);
            Arc::new(target)
        })
        .collect();
    let functions: Vec<Function> = corpus
        .programs
        .iter()
        .map(|p| parse_function(&p.source).expect("corpus programs parse"))
        .collect();
    std::hint::black_box(&functions);
    (targets, start.elapsed().as_secs_f64())
}

/// One compiled pair.
pub struct Compiled {
    /// The parsed source.
    pub function: Function,
    /// The emitted program.
    pub program: VliwProgram,
    /// The compile's report.
    pub report: CompileReport,
    /// The rendered asm.
    pub asm: String,
}

/// Time stamps of one compile operation.
#[derive(Debug, Clone, Copy)]
pub struct Stamps {
    /// Before parsing.
    pub start: Instant,
    /// After parsing.
    pub parsed: Instant,
    /// After `compile_function`.
    pub compiled: Instant,
    /// After rendering.
    pub end: Instant,
}

/// Source text to rendered asm for one pair, against `cache`.
pub fn compile(
    target: &Arc<Target>,
    source: &str,
    options: &CodegenOptions,
    cache: Arc<PlanCache>,
) -> (Result<Compiled, String>, Stamps) {
    let start = Instant::now();
    let function = parse_function(source);
    let parsed = Instant::now();
    let function = match function {
        Ok(f) => f,
        Err(e) => {
            let s = Stamps {
                start,
                parsed,
                compiled: parsed,
                end: parsed,
            };
            return (Err(format!("parse: {e}")), s);
        }
    };
    let generator = CodeGenerator::with_shared_target(Arc::clone(target))
        .options(options.clone())
        .with_cache(cache);
    let result = generator.compile_function(&function);
    let compiled = Instant::now();
    let result = result.map(|(program, report)| {
        let asm = program.render(generator.target());
        (program, report, asm)
    });
    let end = Instant::now();
    let stamps = Stamps {
        start,
        parsed,
        compiled,
        end,
    };
    match result {
        Ok((program, report, asm)) => (
            Ok(Compiled {
                function,
                program,
                report,
                asm,
            }),
            stamps,
        ),
        Err(e) => (Err(format!("compile: {e}")), stamps),
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Add one compile's per-stage times (summed over its blocks) as samples.
fn stage_samples(layers: &mut Layers, report: &CompileReport) {
    let sum = |f: &dyn Fn(&aviv::StageTimes) -> Duration| -> f64 {
        report.blocks.iter().map(|b| ms(f(&b.stages))).sum()
    };
    layers.sample("splitdag.build_ms", sum(&|s| s.sndag));
    layers.sample("core.explore_ms", sum(&|s| s.explore));
    layers.sample("core.cover_ms", sum(&|s| s.cover));
    layers.sample("core.alloc_ms", sum(&|s| s.alloc));
    layers.sample("core.peephole_ms", sum(&|s| s.peephole));
}

/// Add one compile's work counters.
fn work_counts(layers: &mut Layers, report: &CompileReport) {
    for b in &report.blocks {
        layers.count("splitdag.nodes", b.sndag_nodes as f64);
        layers.count("core.assignments_explored", b.assignments_explored as f64);
        layers.count("core.node_expansions", b.node_expansions as f64);
        layers.count("core.spills", b.spills as f64);
        layers.count("core.peephole_removed", b.peephole_removed as f64);
    }
}

/// Code quality of the distinct pairs, summed.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Quality {
    /// Instructions, control flow included.
    pub code_size: u64,
    /// Spills over every block.
    pub spills: u64,
    /// Simulated cycles on the seeded inputs.
    pub sim_cycles: u64,
}

/// Check every distinct pair's output (simulation against the
/// interpreter; with `bounds`, the analyzer's lower bounds too) and sum
/// its code quality. Pairs whose compile failed have no output and are
/// skipped: they are counted as failed operations instead.
pub fn check_outputs(
    p: &Prepared,
    outputs: &[Option<Compiled>],
    bounds: bool,
    layers: &mut Layers,
    errors: &mut Vec<String>,
) -> Quality {
    let mut q = Quality::default();
    for (pair, out) in p.corpus.pairs.iter().zip(outputs) {
        let Some(c) = out else { continue };
        let label = p.corpus.label(*pair);
        let target = &p.targets[pair.machine];
        for (i, args) in p.corpus.args[pair.program].iter().enumerate() {
            let t0 = Instant::now();
            let sim = check::simulate(target, &c.program, &c.function, args);
            layers.sample("vm.sim_us", us(t0.elapsed()));
            let verdict = sim.and_then(|sim| {
                let reference = check::interpret(&c.function, args)?;
                check::compare(&c.function, &reference, &sim)?;
                Ok(sim.cycles)
            });
            match verdict {
                Ok(cycles) if i == 0 => {
                    q.sim_cycles += cycles as u64;
                    layers.count("vm.cycles", cycles as f64);
                }
                Ok(_) => {}
                Err(e) => errors.push(format!("{label} on inputs {args:?}: {e}")),
            }
        }
        if bounds {
            if let Err(e) = check::bounds(&c.function, target, &c.report) {
                errors.push(format!("{label}: {e}"));
            }
        }
        q.code_size += c.report.total_instructions as u64;
        q.spills += c.report.blocks.iter().map(|b| b.spills as u64).sum::<u64>();
    }
    q
}

/// Run one workload.
///
/// # Errors
///
/// A failure of the benchmark itself (not of an output check): `avivd`
/// cannot be started or talked to, or the work directory is unusable.
pub fn run(config: &Config) -> Result<Outcome, String> {
    std::fs::create_dir_all(&config.workdir)
        .map_err(|e| format!("cannot create {}: {e}", config.workdir.display()))?;
    let prepared = prepare(config.workload, config.seed);
    match config.workload {
        Workload::RetargetCold | Workload::ExactPaper => run_cold(config, &prepared),
        Workload::ServeWarm => run_serve(config, &prepared),
    }
}

/// What the measured window gave, before reduction to metrics.
struct Window<'a> {
    /// Set-up times, in s.
    setup_s: &'a [f64],
    /// Latencies in ms, grouped by pair (or request slot).
    latencies_ms: &'a [Vec<f64>],
    /// Operations completed.
    completed: u64,
    /// Time the operations took, in s (calibration and set-up excluded).
    elapsed_s: f64,
    /// Peak RSS of the compiling process, in MB.
    rss_mb: f64,
    /// The calibration tasks run in the window.
    cal: &'a Calibration,
}

impl Window<'_> {
    /// The raw timing figures and the calibration task's median time.
    fn raw(&self) -> Vec<Metric> {
        vec![
            Metric::new(
                "latency_p50_ms",
                stats::quantile_of_medians(self.latencies_ms, 0.5),
                "ms",
            ),
            Metric::new(
                "latency_p90_ms",
                stats::quantile_of_medians(self.latencies_ms, 0.9),
                "ms",
            ),
            Metric::new(
                "throughput_ops_s",
                self.completed as f64 / self.elapsed_s,
                "1/s",
            ),
            Metric::new("host.cal_us", self.cal.median_us(), "us"),
        ]
    }

    /// The end-to-end metrics, in `BENCHMARK.json` order: the timings
    /// scaled to the reference host speed.
    fn end_to_end(&self, q: Quality) -> Vec<Metric> {
        let raw = self.raw();
        let slowdown = self.cal.slowdown();
        vec![
            Metric::new("setup_s", stats::median(self.setup_s), "s"),
            Metric::new("norm_latency_p50_ms", raw[0].value / slowdown, "ms"),
            Metric::new("norm_latency_p90_ms", raw[1].value / slowdown, "ms"),
            Metric::new("norm_throughput_ops_s", raw[2].value * slowdown, "1/s"),
            Metric::new("code_size_instr", q.code_size as f64, "count"),
            Metric::new("spills", q.spills as f64, "count"),
            Metric::new("sim_cycles", q.sim_cycles as f64, "count"),
            Metric::new("peak_rss_mb", self.rss_mb, "MB"),
        ]
    }
}

/// How a per-layer metric is reduced from what the traced run gathered.
enum Reduce {
    /// Median of the samples.
    Median,
    /// The counter's total.
    Total,
    /// `core.cache_hits` over all cache lookups (0 without lookups).
    HitRatio,
}

/// The per-layer metrics, in `BENCHMARK.json` order.
const PER_LAYER: [(&str, &str, Reduce); 27] = [
    ("ir.parse_us", "us", Reduce::Median),
    ("isdl.target_ms", "ms", Reduce::Median),
    ("splitdag.build_ms", "ms", Reduce::Median),
    ("splitdag.nodes", "count", Reduce::Total),
    ("core.explore_ms", "ms", Reduce::Median),
    ("core.assignments_explored", "count", Reduce::Total),
    ("core.cover_ms", "ms", Reduce::Median),
    ("core.node_expansions", "count", Reduce::Total),
    ("core.alloc_ms", "ms", Reduce::Median),
    ("core.spills", "count", Reduce::Total),
    ("core.peephole_ms", "ms", Reduce::Median),
    ("core.peephole_removed", "count", Reduce::Total),
    ("core.warm_compile_us", "us", Reduce::Median),
    ("core.cache_hits", "count", Reduce::Total),
    ("core.cache_misses", "count", Reduce::Total),
    ("core.cache_hit_ratio", "ratio", Reduce::HitRatio),
    ("core.render_us", "us", Reduce::Median),
    ("core.persist_load_ms", "ms", Reduce::Median),
    ("core.persist_entries", "count", Reduce::Total),
    ("verify.tv_us", "us", Reduce::Median),
    ("verify.tv_obligations", "count", Reduce::Total),
    ("cli.serve_rtt_us", "us", Reduce::Median),
    ("cli.serve_overhead_us", "us", Reduce::Median),
    ("cli.serve_queued_max", "count", Reduce::Total),
    ("vm.sim_us", "us", Reduce::Median),
    ("vm.cycles", "count", Reduce::Total),
    ("host.cal_us", "us", Reduce::Median),
];

fn per_layer(l: &Layers) -> Vec<Metric> {
    PER_LAYER
        .iter()
        .map(|(name, unit, reduce)| {
            let value = match reduce {
                Reduce::Median => l.median(name),
                Reduce::Total => l.counter(name),
                Reduce::HitRatio => {
                    let hits = l.counter("core.cache_hits");
                    let lookups = hits + l.counter("core.cache_misses");
                    if lookups > 0.0 {
                        hits / lookups
                    } else {
                        0.0
                    }
                }
            };
            Metric::new(name, value, unit)
        })
        .collect()
}

/// How many times the cold workloads repeat their set-up after every
/// round (about 1 ms each).
const SETUP_REPEATS: usize = 5;

/// `retarget_cold` and `exact_paper`: rounds over the distinct pairs in
/// the seeded order, each compile against a fresh `PlanCache`, until the
/// window has passed at the end of a round. An untimed warm-up round
/// comes first: it grows the heap and fills the caches the first round
/// would otherwise pay for, and gives the outputs every later round must
/// repeat byte for byte. One calibration task follows every operation,
/// so that the tasks sample the same stretch of time as the operations.
/// The set-up is repeated [`SETUP_REPEATS`] times after every round
/// (outside the operations and the window's wall time), for the same
/// reason.
fn run_cold(config: &Config, p: &Prepared) -> Result<Outcome, String> {
    let options = p.workload.preset().options();
    let pairs = &p.corpus.pairs;
    let mut layers = Layers::default();
    let mut errors = Vec::new();
    let compile_pair = |pair: &corpus::Pair| {
        let target = &p.targets[pair.machine];
        let source = &p.corpus.programs[pair.program].source;
        compile(target, source, &options, Arc::new(PlanCache::default()))
    };
    let first: Vec<Option<Compiled>> = pairs
        .iter()
        .map(|pair| match compile_pair(pair).0 {
            Ok(c) => Some(c),
            Err(e) => {
                eprintln!("perfbench: warm-up: {}: {e}", p.corpus.label(*pair));
                None
            }
        })
        .collect();

    let origin = Instant::now();
    let mut trace = Trace::new(config.trace, origin);
    let mut latencies: Vec<Vec<f64>> = vec![Vec::new(); pairs.len()];
    let mut cal = Calibration::default();
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut setup_s = vec![p.setup_s];
    let mut target_ms = p.target_ms.clone();
    let mut setting_up = Duration::ZERO;
    let deadline = origin + Duration::from_secs_f64(config.seconds);
    loop {
        for (i, pair) in pairs.iter().enumerate() {
            let (result, st) = compile_pair(pair);
            cal.sample();
            let op = attempted;
            attempted += 1;
            let c = match result {
                Ok(c) => c,
                Err(e) => {
                    failed += 1;
                    if failed == 1 {
                        eprintln!("perfbench: operation failed: {e}");
                    }
                    continue;
                }
            };
            latencies[i].push(ms(st.end - st.start));
            if trace.on() {
                let root = trace.record("op", op, None, st.start, st.end);
                trace.record("ir.parse", op, root, st.start, st.parsed);
                trace.record("core.compile", op, root, st.parsed, st.compiled);
                trace.record("core.render", op, root, st.compiled, st.end);
                layers.sample("ir.parse_us", us(st.parsed - st.start));
                layers.sample("core.render_us", us(st.end - st.compiled));
                stage_samples(&mut layers, &c.report);
                layers.count("core.cache_hits", c.report.cache_hits as f64);
                layers.count("core.cache_misses", c.report.cache_misses as f64);
            }
            if first[i].as_ref().is_some_and(|f| f.asm != c.asm) {
                errors.push(format!(
                    "{}: output changed between rounds",
                    p.corpus.label(*pair)
                ));
            }
        }
        if Instant::now() >= deadline {
            break;
        }
        let t0 = Instant::now();
        for _ in 0..SETUP_REPEATS {
            let (targets, seconds) = set_up(&p.corpus, &mut target_ms);
            drop(targets);
            setup_s.push(seconds);
        }
        setting_up += t0.elapsed();
    }
    let elapsed_s = (origin.elapsed() - setting_up).as_secs_f64() - cal.total_s();
    let window = Window {
        setup_s: &setup_s,
        latencies_ms: &latencies,
        completed: attempted - failed,
        elapsed_s,
        rss_mb: stats::peak_rss_mb(None).unwrap_or(f64::NAN),
        cal: &cal,
    };

    let q = check_outputs(p, &first, true, &mut layers, &mut errors);
    let mut per_layer_metrics = Vec::new();
    if config.trace {
        for c in first.iter().flatten() {
            work_counts(&mut layers, &c.report);
        }
        for &t in &target_ms {
            layers.sample("isdl.target_ms", t);
        }
        for &t in &cal.samples_us {
            layers.sample("host.cal_us", t);
        }
        warm_probe(config, p, &first, &mut layers, &mut errors)?;
        per_layer_metrics = per_layer(&layers);
    }
    Ok(Outcome {
        attempted,
        failed,
        errors,
        end_to_end: window.end_to_end(q),
        per_layer: per_layer_metrics,
        raw: window.raw(),
        samples: latencies.iter().map(Vec::len).sum(),
        trace,
    })
}

/// The served request slots: slot `2 * pair + validate`.
pub fn requests(p: &Prepared) -> Vec<String> {
    let preset = p.workload.preset().name();
    p.corpus
        .pairs
        .iter()
        .flat_map(|pair| {
            let m = &p.corpus.machines[pair.machine].isdl;
            let src = &p.corpus.programs[pair.program].source;
            [false, true].map(|v| serve::compile_request(m, src, preset, v))
        })
        .collect()
}

/// In-process replay of each request slot: parse, compile against the
/// restored `cache`, render, and validate when the slot asks. Returns the
/// median replay time of each slot (`NaN` for slots not replayed).
fn replay(p: &Prepared, cache: &Arc<PlanCache>, slots: &[usize], layers: &mut Layers) -> Vec<f64> {
    let options = p.workload.preset().options();
    let mut medians = vec![f64::NAN; p.corpus.pairs.len() * 2];
    for &slot in slots {
        let pair = p.corpus.pairs[slot / 2];
        let validate = slot % 2 == 1;
        let target = &p.targets[pair.machine];
        let source = &p.corpus.programs[pair.program].source;
        let mut totals = Vec::with_capacity(REPLAYS);
        for rep in 0..REPLAYS {
            let (result, st) = compile(target, source, &options, Arc::clone(cache));
            let Ok(c) = result else { continue };
            let mut total = st.end - st.start;
            layers.sample("ir.parse_us", us(st.parsed - st.start));
            layers.sample("core.warm_compile_us", us(st.compiled - st.parsed));
            layers.sample("core.render_us", us(st.end - st.compiled));
            if validate {
                let t0 = Instant::now();
                let tv = aviv_verify::validate_asm(&c.function, &c.asm, &target.machine);
                let d = t0.elapsed();
                total += d;
                layers.sample("verify.tv_us", us(d));
                if rep == 0 {
                    layers.count("verify.tv_obligations", tv.obligations as f64);
                }
            }
            totals.push(us(total));
        }
        medians[slot] = stats::median(&totals);
    }
    medians
}

/// Record the served round trips and their overhead over the in-process
/// replay of the same request.
fn serve_layers(session: &Session, replayed_us: &[f64], layers: &mut Layers) {
    for (slot, rtt) in session.rtt_us() {
        layers.sample("cli.serve_rtt_us", rtt);
        if replayed_us[slot].is_finite() {
            layers.sample("cli.serve_overhead_us", rtt - replayed_us[slot]);
        }
    }
    layers.max("cli.serve_queued_max", session.queued_max as f64);
}

/// Time restoring a snapshot into a fresh cache.
fn timed_load(path: &Path, layers: &mut Layers) -> Result<Arc<PlanCache>, String> {
    let cache = Arc::new(PlanCache::default());
    let t0 = Instant::now();
    let outcome = aviv::load_snapshot(path, &cache)
        .map_err(|e| format!("cannot load {}: {e}", path.display()))?;
    layers.sample("core.persist_load_ms", ms(t0.elapsed()));
    match outcome {
        aviv::LoadOutcome::Loaded { entries, .. } => {
            layers.count("core.persist_entries", entries as f64);
            Ok(cache)
        }
        other => Err(format!(
            "snapshot {} not restored: {other:?}",
            path.display()
        )),
    }
}

/// The traced run's layer measurements that the cold loop does not make:
/// warm recompiles on a primed cache, translation validation, a snapshot
/// round trip, and one round of the distinct pairs served by `avivd` from
/// that snapshot.
fn warm_probe(
    config: &Config,
    p: &Prepared,
    outputs: &[Option<Compiled>],
    layers: &mut Layers,
    errors: &mut Vec<String>,
) -> Result<(), String> {
    let options = p.workload.preset().options();
    let primed = Arc::new(PlanCache::default());
    for pair in &p.corpus.pairs {
        let target = &p.targets[pair.machine];
        let source = &p.corpus.programs[pair.program].source;
        let _ = compile(target, source, &options, Arc::clone(&primed));
    }
    let snapshot = config
        .workdir
        .join(format!("probe-{}.avivcache", std::process::id()));
    aviv::save_snapshot(&snapshot, &primed)
        .map_err(|e| format!("cannot write {}: {e}", snapshot.display()))?;
    let restored = timed_load(&snapshot, layers)?;
    let slots: Vec<usize> = (0..p.corpus.pairs.len()).map(|i| 2 * i + 1).collect();
    let replayed = replay(p, &restored, &slots, layers);

    let socket = config
        .workdir
        .join(format!("probe-{}.sock", std::process::id()));
    let (server, _) = Server::start(&config.avivd, &socket, Some(&snapshot))
        .map_err(|e| format!("cannot start avivd: {e}"))?;
    let requests = requests(p);
    let session = serve::drive(server.socket(), &requests, &[slots], None, false)
        .map_err(|e| format!("avivd session: {e}"))?;
    server
        .shutdown()
        .map_err(|e| format!("avivd shutdown: {e}"))?;
    let _ = std::fs::remove_file(&snapshot);
    check_served(p, outputs, &session, errors);
    serve_layers(&session, &replayed, layers);
    Ok(())
}

/// Check every distinct served line against the in-process cold compile.
fn check_served(
    p: &Prepared,
    outputs: &[Option<Compiled>],
    session: &Session,
    errors: &mut Vec<String>,
) {
    for (slot, lines) in session.lines.iter().enumerate() {
        let pair = p.corpus.pairs[slot / 2];
        let label = p.corpus.label(pair);
        for line in lines {
            if !check::served_ok(line) {
                continue; // a failed operation, already counted
            }
            let Some(c) = &outputs[slot / 2] else {
                errors.push(format!(
                    "{label}: served, but the in-process compile failed"
                ));
                continue;
            };
            if let Err(e) = check::response(line, &c.asm, slot % 2 == 1) {
                errors.push(format!("{label}: {e}"));
            }
        }
    }
}

/// Number of `avivd` restarts timed for `setup_s`.
const RESTARTS: usize = 15;

/// Length of one `serve_warm` segment between calibration bursts, in s.
const SEGMENT_S: f64 = 5.0;

/// Calibration tasks per `serve_warm` burst (about 0.15 s).
const CALIBRATION_BURST: usize = 300;

/// `serve_warm`: `avivd` restarted on a primed snapshot, two closed-loop
/// clients, every request a cache hit. The calibration tasks run in
/// bursts while the clients are paused (keeping their connections): one
/// before the window, one after every [`SEGMENT_S`] of it. Running them
/// beside the clients would measure the contention for the two cores,
/// and so a change in `avivd`'s own CPU use, rather than the host's speed.
fn run_serve(config: &Config, p: &Prepared) -> Result<Outcome, String> {
    let options = p.workload.preset().options();
    let mut layers = Layers::default();
    let mut errors = Vec::new();
    let origin = Instant::now();
    let mut trace = Trace::new(config.trace, origin);

    // The in-process cold compile of every distinct pair: the reference
    // the served bytes are checked against.
    let outputs: Vec<Option<Compiled>> = p
        .corpus
        .pairs
        .iter()
        .map(|pair| {
            let target = &p.targets[pair.machine];
            let source = &p.corpus.programs[pair.program].source;
            let (result, _) = compile(target, source, &options, Arc::new(PlanCache::default()));
            match result {
                Ok(c) => Some(c),
                Err(e) => {
                    errors.push(format!("in-process compile failed: {e}"));
                    None
                }
            }
        })
        .collect();

    let pid = std::process::id();
    let snapshot = config.workdir.join(format!("plans-{pid}.avivcache"));
    let socket = config.workdir.join(format!("avivd-{pid}.sock"));
    let _ = std::fs::remove_file(&snapshot);
    let requests = requests(p);
    let n = p.corpus.pairs.len();

    // Untimed priming run: every distinct pair once, then a shutdown,
    // which writes the snapshot.
    let start = |persist: &Path| {
        Server::start(&config.avivd, &socket, Some(persist))
            .map_err(|e| format!("cannot start avivd: {e}"))
    };
    let (server, _) = start(&snapshot)?;
    let priming: Vec<usize> = (0..n).map(|i| 2 * i).collect();
    let primed = serve::drive(server.socket(), &requests, &[priming], None, false)
        .map_err(|e| format!("priming session: {e}"))?;
    server
        .shutdown()
        .map_err(|e| format!("avivd shutdown: {e}"))?;
    if primed.failed > 0 {
        errors.push(format!("{} priming requests failed", primed.failed));
    }

    // Set-up: restart on the snapshot until the first ping is answered.
    let mut setup_s = Vec::with_capacity(RESTARTS);
    let mut server = None;
    for i in 0..RESTARTS {
        let (s, ready) = start(&snapshot)?;
        setup_s.push(ready.as_secs_f64());
        if i + 1 < RESTARTS {
            s.shutdown().map_err(|e| format!("avivd shutdown: {e}"))?;
        } else {
            server = Some(s);
        }
    }
    let server = server.expect("at least one restart");

    // Two clients: each sends every pair once per round in its own seeded
    // order; client 0 validates a seeded half of the pairs and client 1
    // the other half.
    let mut stream = corpus::Stream::new(config.seed, "serve");
    let mut validate: Vec<bool> = (0..n).map(|i| i < n / 2).collect();
    stream.shuffle(&mut validate);
    let plan0: Vec<usize> = (0..n).map(|i| 2 * i + usize::from(validate[i])).collect();
    let mut plan1: Vec<usize> = (0..n).map(|i| 2 * i + usize::from(!validate[i])).collect();
    stream.shuffle(&mut plan1);

    let before = serve::stats(server.socket()).map_err(|e| format!("stats: {e}"))?;
    let mut cal = Calibration::default();
    cal.burst(CALIBRATION_BURST);
    let deadline = Instant::now() + Duration::from_secs_f64(config.seconds);
    let pauses = (config.seconds / SEGMENT_S).ceil() as usize - 1;
    let session = serve::drive_paused(
        server.socket(),
        &requests,
        &[plan0, plan1],
        Some(deadline),
        config.trace,
        pauses,
        &mut || cal.burst(CALIBRATION_BURST),
    )
    .map_err(|e| format!("measured session: {e}"))?;
    cal.burst(CALIBRATION_BURST);
    let after = serve::stats(server.socket()).map_err(|e| format!("stats: {e}"))?;
    let rss = stats::peak_rss_mb(Some(server.pid())).unwrap_or(f64::NAN);
    server
        .shutdown()
        .map_err(|e| format!("avivd shutdown: {e}"))?;

    check_served(p, &outputs, &session, &mut errors);
    let q = check_outputs(p, &outputs, false, &mut layers, &mut errors);
    let mut latencies: Vec<Vec<f64>> = vec![Vec::new(); requests.len()];
    for (slot, t) in session.rtt_us() {
        latencies[slot].push(t / 1e3);
    }
    let window = Window {
        setup_s: &setup_s,
        latencies_ms: &latencies,
        completed: session.attempted - session.failed,
        elapsed_s: session.elapsed_s,
        rss_mb: rss,
        cal: &cal,
    };

    let mut per_layer_metrics = Vec::new();
    if config.trace {
        for c in outputs.iter().flatten() {
            stage_samples(&mut layers, &c.report);
            work_counts(&mut layers, &c.report);
        }
        for &t in &p.target_ms {
            layers.sample("isdl.target_ms", t);
        }
        layers.count("core.cache_hits", (after.hits - before.hits) as f64);
        layers.count("core.cache_misses", (after.misses - before.misses) as f64);
        let restored = timed_load(&snapshot, &mut layers)?;
        let slots: Vec<usize> = (0..2 * n).collect();
        let replayed = replay(p, &restored, &slots, &mut layers);
        serve_layers(&session, &replayed, &mut layers);
        for &t in &cal.samples_us {
            layers.sample("host.cal_us", t);
        }
        per_layer_metrics = per_layer(&layers);
    }
    let _ = std::fs::remove_file(&snapshot);
    for (op, &(_, sent, answered)) in session.done.iter().enumerate() {
        trace.record("cli.request", op as u64, None, sent, answered);
    }
    Ok(Outcome {
        attempted: session.attempted,
        failed: session.failed,
        errors,
        end_to_end: window.end_to_end(q),
        per_layer: per_layer_metrics,
        raw: window.raw(),
        samples: session.done.len(),
        trace,
    })
}
