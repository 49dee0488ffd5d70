//! Output checks, run outside every timed region.
//!
//! * Simulation against the reference: the compiled program runs on
//!   `aviv_vm::Simulator` and the source runs on the `aviv_ir`
//!   interpreter, on the same seeded arguments; the return value and every
//!   named variable must agree.
//! * Lower bounds: every block's instruction count is at least the
//!   analyzer's admissible `min_instructions` bound.
//! * Served responses: `"ok":true`, answered wholly from the cache,
//!   validated when asked, and byte-identical to an in-process cold
//!   compile of the same pair.

use aviv::jsonv::{self, Json};
use aviv::{CompileReport, VliwProgram};
use aviv_ir::{Function, InterpResult, Interpreter, MemLayout};
use aviv_isdl::Target;
use aviv_vm::{SimResult, Simulator};

/// Run the reference interpreter on `args`.
///
/// # Errors
///
/// The interpreter's fault, as text.
pub fn interpret(f: &Function, args: &[i64]) -> Result<InterpResult, String> {
    Interpreter::with_layout(f, MemLayout::for_function(f))
        .args(args)
        .run()
        .map_err(|e| format!("interpreter: {e}"))
}

/// Run the compiled `program` on the simulator with `f`'s parameters
/// set to `args`.
///
/// # Errors
///
/// The simulator's fault, as text.
pub fn simulate(
    target: &Target,
    program: &VliwProgram,
    f: &Function,
    args: &[i64],
) -> Result<SimResult, String> {
    let layout = MemLayout::for_function(f);
    let mut sim = Simulator::new(target, program);
    for (&p, &v) in f.params.iter().zip(args) {
        sim.poke(layout.addr(p), v);
    }
    sim.run().map_err(|e| format!("simulator: {e}"))
}

/// Compare a simulation with the interpreter's run of the same inputs:
/// return value and every named variable.
///
/// # Errors
///
/// The first disagreement.
pub fn compare(f: &Function, reference: &InterpResult, sim: &SimResult) -> Result<(), String> {
    if reference.return_value != sim.return_value {
        return Err(format!(
            "return value: interpreter {:?}, simulator {:?}",
            reference.return_value, sim.return_value
        ));
    }
    let layout = MemLayout::for_function(f);
    for (sym, name) in f.syms.iter() {
        if name.starts_with("__") {
            continue;
        }
        let addr = layout.addr(sym);
        let want = reference.memory.get(&addr).copied().unwrap_or(0);
        let got = sim.memory.get(&addr).copied().unwrap_or(0);
        if want != got {
            return Err(format!(
                "variable {name}: interpreter {want}, simulator {got}"
            ));
        }
    }
    Ok(())
}

/// Check every block of `report` against the analyzer's admissible
/// lower bound on its instruction count, and that the compile completed.
///
/// # Errors
///
/// The first block below its bound, or a block-count mismatch.
pub fn bounds(f: &Function, target: &Target, report: &CompileReport) -> Result<(), String> {
    if !report.complete {
        return Err("compile did not complete".to_string());
    }
    let analysis = aviv_verify::analyze_program(f, target);
    if analysis.blocks.len() != report.blocks.len() {
        return Err(format!(
            "analyzer saw {} blocks, the compile reported {}",
            analysis.blocks.len(),
            report.blocks.len()
        ));
    }
    for (i, (a, b)) in analysis.blocks.iter().zip(&report.blocks).enumerate() {
        if b.instructions < a.min_instructions {
            return Err(format!(
                "block {i}: {} instructions, below the admissible bound {}",
                b.instructions, a.min_instructions
            ));
        }
    }
    Ok(())
}

/// Whether a served response line counts as a completed operation. A
/// refusal (`retry_after_ms`) or any `"ok":false` answer is a failed
/// operation. Cheap enough for the measured loop: requests carry no id,
/// so a success starts with exactly this prefix.
pub fn served_ok(line: &str) -> bool {
    line.starts_with("{\"ok\":true,")
}

/// Check one served compile response against the in-process cold
/// compile's rendered `expected` asm.
///
/// # Errors
///
/// What is wrong with the response.
pub fn response(line: &str, expected: &str, validate: bool) -> Result<(), String> {
    let json = jsonv::parse(line).map_err(|e| format!("response is not JSON: {e}"))?;
    let field = |k: &str| json.get(k);
    if field("ok").and_then(Json::as_bool) != Some(true) {
        return Err(format!("response not ok: {}", truncate(line)));
    }
    let blocks = field("blocks").and_then(Json::as_u64);
    let hits = field("cache_hits").and_then(Json::as_u64);
    let misses = field("cache_misses").and_then(Json::as_u64);
    if misses != Some(0) || hits != blocks {
        return Err(format!(
            "not answered from the cache: blocks {blocks:?}, hits {hits:?}, misses {misses:?}"
        ));
    }
    let validated = field("validated").and_then(Json::as_bool) == Some(true);
    if validated != validate {
        return Err(format!(
            "validate requested {validate}, response validated {validated}"
        ));
    }
    match field("asm").and_then(Json::as_str) {
        Some(asm) if asm == expected => Ok(()),
        Some(_) => Err("served asm differs from the in-process cold compile".to_string()),
        None => Err("response has no asm".to_string()),
    }
}

fn truncate(s: &str) -> &str {
    match s.char_indices().nth(200) {
        Some((i, _)) => &s[..i],
        None => s,
    }
}
