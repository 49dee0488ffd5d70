//! The benchmark command: one run of one workload.
//!
//! ```text
//! aviv-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!                --avivd <path> [--workdir <dir>]
//! ```
//!
//! Prints a human-readable summary on stderr and, as the last line of
//! stdout, one JSON object with `correct`, `attempted`, `failed` and the
//! end-to-end metrics (`--trace 0`) or the per-layer metrics (`--trace 1`).
//! Exits 0 when every output check passed. `perfbench/run.py` builds the
//! program and this binary and runs it.

use aviv_perfbench::corpus::Workload;
use aviv_perfbench::stats::{self, Metric};
use aviv_perfbench::workload::{self, Config};
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "usage: aviv-perfbench --workload <retarget_cold|exact_paper|serve_warm> \
--seed <n> --seconds <s> --trace <0|1> --avivd <path> [--workdir <dir>]";

fn parse_args(args: &[String]) -> Result<Config, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut avivd = None;
    let mut workdir = PathBuf::from(".bench_run");
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload `{value}`"))?,
                );
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed `{value}`"))?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("bad seconds `{value}`"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds must be in (0, 600], got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got `{value}`")),
                });
            }
            "--avivd" => avivd = Some(PathBuf::from(value)),
            "--workdir" => workdir = PathBuf::from(value),
            other => return Err(format!("unknown argument `{other}`\n{USAGE}")),
        }
    }
    let missing = |name: &str| format!("missing {name}\n{USAGE}");
    Ok(Config {
        workload: workload.ok_or_else(|| missing("--workload"))?,
        seed: seed.ok_or_else(|| missing("--seed"))?,
        seconds: seconds.ok_or_else(|| missing("--seconds"))?,
        trace: trace.ok_or_else(|| missing("--trace"))?,
        avivd: avivd.ok_or_else(|| missing("--avivd"))?,
        workdir,
    })
}

fn json_fields(metrics: &[Metric]) -> String {
    let fields: Vec<String> = metrics
        .iter()
        .map(|m| format!("\"{}\":{}", m.name, stats::json_number(m.value)))
        .collect();
    fields.join(",")
}

fn summary_json(config: &Config, samples: usize, end_to_end: &[Metric], raw: &[Metric]) -> String {
    format!(
        "{{\"workload\":\"{}\",\"seed\":{},\"trace\":{},\"samples\":{samples},\"end_to_end\":{{{}}},\"raw\":{{{}}}}}",
        config.workload.name(),
        config.seed,
        config.trace,
        json_fields(end_to_end),
        json_fields(raw)
    )
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let config = match parse_args(&args) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    let outcome = match workload::run(&config) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    for e in &outcome.errors {
        eprintln!("perfbench: check failed: {e}");
    }
    eprintln!(
        "perfbench: {} seed {}: {} attempted, {} failed, {} latency samples{}",
        config.workload.name(),
        config.seed,
        outcome.attempted,
        outcome.failed,
        outcome.samples,
        if config.trace { " (traced)" } else { "" }
    );
    for m in &outcome.end_to_end {
        eprintln!("  {:<22} {:>14.4} {}", m.name, m.value, m.unit);
    }
    eprintln!("  unscaled:");
    for m in &outcome.raw {
        eprintln!("  {:<22} {:>14.4} {}", m.name, m.value, m.unit);
    }
    if config.trace {
        let path = config.workdir.join(format!(
            "trace-{}-{}.jsonl",
            config.workload.name(),
            config.seed
        ));
        let summary = summary_json(&config, outcome.samples, &outcome.end_to_end, &outcome.raw);
        match outcome.trace.write(&path, &summary) {
            Ok(()) => eprintln!("perfbench: spans written to {}", path.display()),
            Err(e) => eprintln!("perfbench: cannot write {}: {e}", path.display()),
        }
    }
    let correct = outcome.errors.is_empty();
    let metrics = if config.trace {
        &outcome.per_layer
    } else {
        &outcome.end_to_end
    };
    println!(
        "{}",
        stats::result_line(correct, outcome.attempted, outcome.failed, metrics)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
