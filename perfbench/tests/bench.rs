//! The benchmark's own tests: seeded inputs repeat, the output checks
//! catch corrupted results, and refused requests count as failed.
//!
//! Run from the repository root with
//! `cargo test --release --manifest-path perfbench/Cargo.toml`.

use aviv::{CodeGenerator, PlanCache};
use aviv_cli::serve::{ServeConfig, Server};
use aviv_isdl::{parse_machine, Target};
use aviv_perfbench::check;
use aviv_perfbench::corpus::{self, Workload};
use aviv_perfbench::serve;
use aviv_perfbench::workload::{self, Config};
use std::io::{BufReader, Read, Write};
use std::os::unix::net::UnixStream;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("aviv-perfbench-{}-{name}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

#[test]
fn same_seed_same_corpus_and_requests() {
    for w in Workload::ALL {
        let a = workload::prepare(w, 7);
        let b = workload::prepare(w, 7);
        assert_eq!(a.corpus.pairs, b.corpus.pairs, "{}", w.name());
        assert_eq!(a.corpus.args, b.corpus.args, "{}", w.name());
        let sources = |p: &workload::Prepared| -> Vec<String> {
            p.corpus.programs.iter().map(|p| p.source.clone()).collect()
        };
        assert_eq!(sources(&a), sources(&b), "{}", w.name());
        assert_eq!(
            workload::requests(&a),
            workload::requests(&b),
            "{}",
            w.name()
        );
        assert!(!a.corpus.pairs.is_empty());
    }
    // Another seed draws other random programs, order and inputs.
    let a = workload::prepare(Workload::RetargetCold, 7);
    let c = workload::prepare(Workload::RetargetCold, 8);
    assert_ne!(workload::requests(&a), workload::requests(&c));
    assert_ne!(a.corpus.args, c.corpus.args);
}

#[test]
fn same_seed_same_code_quality() {
    let run = || {
        let config = Config {
            workload: Workload::ExactPaper,
            seed: 3,
            seconds: 1e-3,
            trace: false,
            avivd: PathBuf::from("unused"),
            workdir: scratch("quality"),
        };
        let out = workload::run(&config).expect("runs");
        assert!(out.errors.is_empty(), "{:?}", out.errors);
        assert_eq!(out.failed, 0);
        out.end_to_end
            .into_iter()
            .filter(|m| matches!(m.name, "code_size_instr" | "spills" | "sim_cycles"))
            .map(|m| m.value)
            .collect::<Vec<f64>>()
    };
    let first = run();
    assert_eq!(first.len(), 3);
    assert!(first.iter().all(|&v| v > 0.0), "{first:?}");
    assert_eq!(first, run());
}

fn dot4_on_example() -> (Arc<Target>, workload::Compiled) {
    let machine = corpus::machines()
        .into_iter()
        .find(|m| m.label == "Example")
        .expect("Example is bundled");
    let target = Arc::new(Target::new(parse_machine(&machine.isdl).expect("parses")));
    let (result, _) = workload::compile(
        &target,
        aviv_bench::kernels::DOT4.source,
        &corpus::Preset::On.options(),
        Arc::new(PlanCache::default()),
    );
    (target, result.expect("dot4 compiles"))
}

#[test]
fn a_wrong_simulated_value_is_caught() {
    let (target, c) = dot4_on_example();
    let args = [1, 2, 3, 4, 5, 6, 7, 8];
    let reference = check::interpret(&c.function, &args).expect("interprets");
    let mut sim = check::simulate(&target, &c.program, &c.function, &args).expect("simulates");
    check::compare(&c.function, &reference, &sim).expect("the real result agrees");

    let mut wrong_return = sim.clone();
    wrong_return.return_value = wrong_return.return_value.map(|v| v + 1);
    assert!(check::compare(&c.function, &reference, &wrong_return).is_err());

    let acc = c.function.syms.get("acc").expect("dot4 stores acc");
    let addr = aviv_ir::MemLayout::for_function(&c.function).addr(acc);
    *sim.memory.get_mut(&addr).expect("acc is stored") += 1;
    let err = check::compare(&c.function, &reference, &sim).expect_err("caught");
    assert!(err.contains("acc"), "{err}");
}

/// Change the first register operand of the asm inside a served line
/// (`rB.I` becomes `rB.I'`).
fn edit_one_operand(line: &str) -> String {
    let start = line.find("\"asm\":\"").expect("has asm");
    let bytes = line.as_bytes();
    let at = (start..bytes.len() - 3)
        .find(|&i| {
            bytes[i] == b' '
                && bytes[i + 1] == b'r'
                && bytes[i + 2].is_ascii_digit()
                && bytes[i + 3] == b'.'
        })
        .expect("has a register operand")
        + 4;
    let digit = bytes[at] - b'0';
    let mut edited = line.to_string();
    edited.replace_range(at..=at, &((digit + 1) % 2).to_string());
    edited
}

#[test]
fn an_edited_asm_operand_is_caught() {
    let (target, c) = dot4_on_example();
    let machine = corpus::machines()
        .into_iter()
        .find(|m| m.label == "Example")
        .expect("Example is bundled");
    let request =
        serve::compile_request(&machine.isdl, aviv_bench::kernels::DOT4.source, "on", true);
    // The same request twice through the real server code: the second
    // answer comes from the plan cache.
    let server = Server::new(&ServeConfig::default());
    let input = format!("{request}\n{request}\n");
    let mut out = Vec::new();
    server
        .serve(BufReader::new(input.as_bytes()), &mut out)
        .expect("serves");
    let text = String::from_utf8(out).expect("utf-8");
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), 2);
    assert!(
        check::response(lines[0], &c.asm, true).is_err(),
        "a cold answer is not a hit"
    );
    check::response(lines[1], &c.asm, true).expect("the warm answer passes");
    assert!(
        check::response(lines[1], &c.asm, false).is_err(),
        "validate flag is checked"
    );

    let edited = edit_one_operand(lines[1]);
    assert_ne!(edited, lines[1]);
    let err = check::response(&edited, &c.asm, true).expect_err("caught");
    assert!(err.contains("differs"), "{err}");

    // The cold reference is what a fresh generator emits.
    let generator = CodeGenerator::with_shared_target(target).options(corpus::Preset::On.options());
    let (program, _) = generator.compile_function(&c.function).expect("compiles");
    assert_eq!(program.render(generator.target()), c.asm);
}

#[test]
fn a_refused_request_counts_as_failed() {
    let dir = scratch("refused");
    let socket = dir.join("s.sock");
    // Queue depth 1: once one compile waits for a worker, admission
    // control refuses the next with `retry_after_ms`.
    let config = ServeConfig {
        queue_depth: 1,
        ..ServeConfig::default()
    };
    let server = Server::new(&config);
    let machines = corpus::machines();
    let example = machines
        .iter()
        .find(|m| m.label == "Example")
        .expect("bundled");
    // A heuristics-off biquad on Example runs for many seconds; it is
    // cancelled once the refusals have been seen.
    let slow = |id: u32| {
        format!(
            "{{\"id\":{id},\"op\":\"compile\",\"preset\":\"off\",\"machine\":\"{}\",\"program\":\"{}\"}}\n",
            aviv::jsonv::escape(&example.isdl),
            aviv::jsonv::escape(aviv_bench::kernels::BIQUAD.source)
        )
    };
    let requests = vec![serve::compile_request(
        &example.isdl,
        aviv_bench::kernels::DOT4.source,
        "on",
        false,
    )];
    let session = std::thread::scope(|s| {
        let handle = s.spawn(|| server.serve_unix(&socket));
        let mut waited = 0;
        let mut busy = loop {
            if let Ok(c) = UnixStream::connect(&socket) {
                break c;
            }
            waited += 1;
            assert!(waited < 5000, "in-process server did not start");
            std::thread::sleep(Duration::from_millis(1));
        };
        // One slow compile in flight, then a second one queued behind it.
        let wait_for = |what: &dyn Fn(serve::Stats) -> bool| {
            for _ in 0..10_000 {
                if what(serve::stats(&socket).expect("stats")) {
                    return;
                }
                std::thread::sleep(Duration::from_millis(1));
            }
            panic!("server never reached the expected state");
        };
        busy.write_all(slow(1).as_bytes()).expect("writes");
        wait_for(&|st| st.in_flight == 1 && st.queued == 0);
        busy.write_all(slow(2).as_bytes()).expect("writes");
        wait_for(&|st| st.queued == 1);
        let session =
            serve::drive(&socket, &requests, &[vec![0, 0, 0]], None, false).expect("session runs");
        busy.write_all(b"{\"op\":\"cancel\",\"id\":1}\n{\"op\":\"cancel\",\"id\":2}\n")
            .expect("writes");
        busy.shutdown(std::net::Shutdown::Write)
            .expect("half-close");
        let mut answers = String::new();
        busy.read_to_string(&mut answers).expect("reads");
        assert!(answers.contains("\"cancelled\":true"), "{answers}");
        serve::Client::connect(&socket)
            .expect("connects")
            .call("{\"op\":\"shutdown\"}")
            .expect("shuts down");
        handle
            .join()
            .expect("server thread")
            .expect("server ends cleanly");
        session
    });
    assert_eq!(session.attempted, 3);
    assert_eq!(session.failed, 3);
    assert!(session.done.is_empty());
    let line = &session.lines[0][0];
    assert!(line.contains("retry_after_ms"), "{line}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn paused_clients_resume_on_their_connections() {
    let dir = scratch("paused");
    let socket = dir.join("s.sock");
    let server = Server::new(&ServeConfig::default());
    let example = corpus::machines()
        .into_iter()
        .find(|m| m.label == "Example")
        .expect("bundled");
    let requests = vec![serve::compile_request(
        &example.isdl,
        aviv_bench::kernels::DOT4.source,
        "on",
        false,
    )];
    let (session, pauses, stats, wall) = std::thread::scope(|s| {
        let handle = s.spawn(|| server.serve_unix(&socket));
        let mut waited = 0;
        while UnixStream::connect(&socket).is_err() {
            waited += 1;
            assert!(waited < 5000, "in-process server did not start");
            std::thread::sleep(Duration::from_millis(1));
        }
        // One cold compile first, so that every driven request is a hit.
        serve::Client::connect(&socket)
            .expect("connects")
            .call(&requests[0])
            .expect("compiles");
        let mut pauses = 0;
        let started = std::time::Instant::now();
        let deadline = started + Duration::from_millis(300);
        let session = serve::drive_paused(
            &socket,
            &requests,
            &[vec![0, 0], vec![0]],
            Some(deadline),
            false,
            2,
            &mut || {
                pauses += 1;
                std::thread::sleep(Duration::from_millis(50));
            },
        )
        .expect("session runs");
        let wall = started.elapsed().as_secs_f64();
        let stats = serve::stats(&socket).expect("stats");
        serve::Client::connect(&socket)
            .expect("connects")
            .call("{\"op\":\"shutdown\"}")
            .expect("shuts down");
        handle
            .join()
            .expect("server thread")
            .expect("server ends cleanly");
        (session, pauses, stats, wall)
    });
    assert_eq!(pauses, 2);
    assert_eq!(session.failed, 0);
    assert_eq!(session.attempted, session.done.len() as u64);
    // Every client sent its whole list at least once in each of the
    // three segments.
    assert!(session.attempted >= 3 * 3, "{}", session.attempted);
    assert_eq!(stats.misses, 1, "only the priming compile missed");
    assert_eq!(session.lines[0].len(), 1, "every answer the same warm one");
    // The paused time (at least 2 × 50 ms) is left out.
    assert!(
        session.elapsed_s <= wall - 0.1,
        "{} of {wall}",
        session.elapsed_s
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn quantiles_count_each_pair_once() {
    use aviv_perfbench::stats::quantile_of_medians;
    // A pair with many samples weighs no more than one with few.
    let groups = vec![vec![1.0; 50], vec![2.0, 2.0, 90.0], vec![3.0], vec![]];
    assert_eq!(quantile_of_medians(&groups, 0.5), 2.0);
    assert_eq!(quantile_of_medians(&groups, 1.0), 3.0);
}
