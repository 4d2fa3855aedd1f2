//! `rtdc-perfbench` — one steady benchmark for the rtdc workspace.
//!
//! ```sh
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload paper-grid --seed 1 --seconds 20 --trace 0
//! ```
//!
//! Three closed-loop workloads with one caller, all in this process on
//! this thread, calling the library's public functions directly (see the
//! README for why each was chosen and what each metric means):
//!
//! * `paper-grid` — build, load and run one cell of the paper's grid;
//! * `serve-mix` — a seeded request stream through
//!   `rtdc_serve::server::handle_line` against one `ServeState`;
//! * `planopt-loop` — one uncached `rtdc_bench::planopt::optimize` call.
//!
//! A run sets up (median of [`SETUP_SAMPLES`] set-ups, the extra ones in
//! child processes so each pays program generation with calibration
//! afresh), computes native references, then runs whole rounds of the
//! workload's ops until `--seconds` have passed, checking every output.
//! With `--trace 0` it prints the end-to-end metrics; with `--trace 1`
//! every second round is traced and it prints the per-layer metrics. The
//! last line of stdout is the JSON result.

mod checks;
mod grid;
mod host;
mod planopt_loop;
mod serve_mix;
mod spans;

use std::process::ExitCode;
use std::time::{Duration, Instant};

use rtdc::prelude::*;
use rtdc_isa::program::ObjectProgram;
use rtdc_sim::{Machine, Stats};

use spans::Recorder;

/// Set-ups per run: one in this process, the rest in child processes.
const SETUP_SAMPLES: usize = 3;

/// Share of the traced op time the ledger may leave unexplained (see
/// [`checks::ledger_holds`]).
pub const LEDGER_SLACK: f64 = 0.05;

/// Commit budget for every simulated run (no workload comes near it).
pub const MAX_INSNS: u64 = rtdc_bench::experiments::MAX_INSNS;

/// The workloads, in the order `BENCHMARK.json` lists them.
const WORKLOADS: [&str; 3] = ["paper-grid", "serve-mix", "planopt-loop"];

/// Everything a round needs besides the workload itself.
pub struct Ctx {
    pub cfg: SimConfig,
    pub rec: Recorder,
    /// Per-op wall times of untraced rounds, ns.
    pub untraced_ns: Vec<u64>,
    /// Per-op wall times of traced rounds, ns.
    pub traced_ns: Vec<u64>,
    /// Simulated instructions of untraced ops.
    pub untraced_insns: u64,
    pub attempted: u64,
    pub failed: u64,
    /// Check failures (the first few are printed).
    pub wrong: Vec<String>,
    /// Instructions of `sim.run` spans.
    pub run_insns: u64,
    /// Instructions of `sim.traced_run` spans.
    pub traced_insns: u64,
    /// Σ (opaque entry call − its replayed layers), ns: the entry's own
    /// self time (serve dispatch, or the optimizer's model).
    pub residual_ns: i64,
    next_op: u64,
}

impl Ctx {
    fn new() -> Ctx {
        Ctx {
            cfg: SimConfig::hpca2000_baseline(),
            rec: Recorder::new(),
            untraced_ns: Vec::new(),
            traced_ns: Vec::new(),
            untraced_insns: 0,
            attempted: 0,
            failed: 0,
            wrong: Vec::new(),
            run_insns: 0,
            traced_insns: 0,
            residual_ns: 0,
            next_op: 0,
        }
    }

    /// Starts an op: stamps its id on the spans that follow.
    pub fn begin_op(&mut self) -> Instant {
        self.next_op += 1;
        self.rec.op = self.next_op;
        self.attempted += 1;
        Instant::now()
    }

    /// Ends an op started at `t0`, recording its wall time.
    pub fn end_op(&mut self, t0: Instant) -> u64 {
        let ns = t0.elapsed().as_nanos() as u64;
        if self.rec.on {
            self.traced_ns.push(ns);
        } else {
            self.untraced_ns.push(ns);
        }
        ns
    }

    /// Records the outcome of a check.
    pub fn check(&mut self, c: checks::Check) {
        if let Err(e) = c {
            self.wrong.push(e);
        }
    }

    /// Counts a failed op.
    pub fn fail(&mut self, what: &str, e: impl std::fmt::Display) {
        self.failed += 1;
        eprintln!("perfbench: op failed: {what}: {e}");
    }
}

/// One finished simulated run.
pub struct Ran {
    pub exit: u32,
    pub stats: Stats,
    pub output: Vec<u8>,
}

/// Loads and runs `image`. Untraced, this is the one public call
/// `run_image`; traced, it is `load_image` and `Machine::run` in their own
/// spans, which is what `run_image` does inside.
pub fn load_and_run(ctx: &mut Ctx, image: &MemoryImage) -> Result<Ran, String> {
    if !ctx.rec.on {
        let r = run_image(image, ctx.cfg, MAX_INSNS).map_err(|e| e.to_string())?;
        return Ok(Ran {
            exit: r.exit_code,
            stats: r.stats,
            output: r.output,
        });
    }
    let cfg = ctx.cfg;
    let mut m: Machine = ctx
        .rec
        .span("runner.load", || load_image(image, cfg))
        .map_err(|e| e.to_string())?;
    let out = ctx
        .rec
        .span("sim.run", || m.run(MAX_INSNS))
        .map_err(|e| e.to_string())?;
    ctx.run_insns += m.stats().insns;
    Ok(Ran {
        exit: out.exit_code,
        stats: *m.stats(),
        output: m.output().to_vec(),
    })
}

/// How the native build of a program ends: the reference every other
/// image of it must reproduce.
#[derive(Debug, Clone)]
pub struct NativeRef {
    pub exit: u32,
    /// [`checks::crc32`] of the output bytes.
    pub crc: u32,
}

/// Builds and runs `program` natively, checking a known-answer program's
/// value on the way.
pub fn native_ref(ctx: &mut Ctx, program: &ObjectProgram) -> NativeRef {
    let image = build_native(program).expect("every workload program links natively");
    let r = run_image(&image, ctx.cfg, MAX_INSNS).expect("every workload program runs natively");
    let what = format!("{} native", program.name);
    ctx.check(checks::known_answer_holds(
        &program.name,
        r.exit_code,
        &r.output,
    ));
    ctx.check(checks::stall_sum_holds(&what, &r.stats));
    NativeRef {
        exit: r.exit_code,
        crc: checks::crc32(&r.output),
    }
}

/// Builds `program` as the image family `family` (`native`, or a scheme
/// with optional `+rf`, every procedure compressed).
pub fn build_family(program: &ObjectProgram, family: &str) -> Result<MemoryImage, String> {
    if family == "native" {
        return build_native(program).map_err(|e| e.to_string());
    }
    let (scheme, rf) = Scheme::parse(family).ok_or_else(|| format!("unknown family {family}"))?;
    let all = Selection::all_compressed(program.procedures.len());
    build_compressed(program, scheme, rf, &all).map_err(|e| e.to_string())
}

/// What one round produced; rounds of `paper-grid` and `planopt-loop`
/// repeat it exactly.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RoundSums {
    /// Σ code bytes (native text + compressed payload) of its images.
    pub image_bytes: u64,
    /// Σ of the runs' statistics (`stats.cycles` is `sim_cycles`).
    pub stats: Stats,
}

impl RoundSums {
    pub fn add_run(&mut self, s: &Stats) {
        let t = &mut self.stats;
        t.insns += s.insns;
        t.cycles += s.cycles;
        t.exceptions += s.exceptions;
        t.swics += s.swics;
        t.handler_cycles += s.handler_cycles;
        let (a, b) = (&mut t.stalls, &s.stalls);
        a.imiss += b.imiss;
        a.dmiss += b.dmiss;
        a.branch += b.branch;
        a.reg_jump += b.reg_jump;
        a.load_use += b.load_use;
        a.hilo += b.hilo;
        a.swic += b.swic;
        a.exception += b.exception;
    }
}

/// One metric of the result line.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(name: &str, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.to_string(),
        value,
        unit,
    }
}

/// A workload: rounds of ops, and the per-layer readings only it has.
pub trait Workload {
    /// Seconds spent in program generation during set-up.
    fn generate_s(&self) -> f64;
    /// Native references for the output checks (not timed), just before
    /// the first round.
    fn reference(&mut self, ctx: &mut Ctx);
    /// Runs round `r`: every op timed, traced when `ctx.rec.on`, every
    /// output checked.
    fn round(&mut self, r: u64, ctx: &mut Ctx) -> RoundSums;
    /// Whether every round must reproduce round 0's sums exactly.
    fn rounds_repeat(&self) -> bool;
    /// End-of-run checks and per-layer readings of this workload's own
    /// layers (serve daemon, cache, optimizer).
    fn finish(&mut self, ctx: &mut Ctx) -> Vec<Metric>;
}

/// Sets up `workload` and returns it with the set-up time in seconds.
fn setup(workload: &str, seed: u64) -> (Box<dyn Workload>, f64) {
    let t0 = Instant::now();
    let w: Box<dyn Workload> = match workload {
        "paper-grid" => Box::new(grid::PaperGrid::new(seed)),
        "serve-mix" => Box::new(serve_mix::ServeMix::new(seed)),
        "planopt-loop" => Box::new(planopt_loop::PlanoptLoop::new(seed)),
        other => unreachable!("workload {other} was validated"),
    };
    (w, t0.elapsed().as_secs_f64())
}

/// A seeded generator for round `r`.
pub fn round_rng(seed: u64, r: u64) -> rtdc_rng::Rng64 {
    rtdc_rng::Rng64::seed_from_u64(seed ^ (r + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    setup_only: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        setup_only: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--setup-only" {
            a.setup_only = true;
            continue;
        }
        let v = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => a.workload = v,
            "--seed" => a.seed = v.parse().map_err(|_| format!("bad --seed {v}"))?,
            "--seconds" => {
                a.seconds = v.parse().map_err(|_| format!("bad --seconds {v}"))?;
                if !(a.seconds > 0.0 && a.seconds <= 3600.0) {
                    return Err(format!("--seconds {v} out of range"));
                }
            }
            "--trace" => {
                a.trace = match v.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, not {v}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !WORKLOADS.contains(&a.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}, not {:?}",
            WORKLOADS.join(", "),
            a.workload
        ));
    }
    Ok(a)
}

/// One set-up in a child process, so program generation pays its
/// calibration again (calibration is memoized per process).
fn child_setup(a: &Args) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = std::process::Command::new(exe)
        .args(["--setup-only", "--workload", &a.workload])
        .args(["--seed", &a.seed.to_string()])
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| e.to_string())?;
    if !out.status.success() {
        return Err(format!("set-up child exited with {}", out.status));
    }
    let text = String::from_utf8_lossy(&out.stdout);
    text.lines()
        .rev()
        .find_map(|l| l.strip_prefix("setup_s "))
        .and_then(|v| v.trim().parse().ok())
        .ok_or_else(|| format!("set-up child printed no time: {text:?}"))
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: rtdc-perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    if args.setup_only {
        let (_, s) = setup(&args.workload, args.seed);
        println!("setup_s {s}");
        return ExitCode::SUCCESS;
    }

    let (mut wl, first) = setup(&args.workload, args.seed);
    let mut setup_samples = vec![first];
    // `setup_s` is an end-to-end metric; a traced run does not report it.
    let samples = if args.trace { 1 } else { SETUP_SAMPLES };
    for _ in 1..samples {
        match child_setup(&args) {
            Ok(s) => setup_samples.push(s),
            Err(e) => {
                eprintln!("perfbench: {e}");
                return ExitCode::from(1);
            }
        }
    }
    let setup_s = host::quantile(&setup_samples, 0.5);

    let mut ctx = Ctx::new();
    wl.reference(&mut ctx);

    let budget = Duration::from_secs_f64(args.seconds);
    let min_rounds = if args.trace { 2 } else { 1 };
    let cpu0 = host::thread_cpu_ns();
    let t0 = Instant::now();
    let mut round0 = RoundSums::default();
    let mut rounds = 0u64;
    while rounds < min_rounds || t0.elapsed() < budget {
        ctx.rec.on = args.trace && rounds % 2 == 1;
        let sums = wl.round(rounds, &mut ctx);
        if rounds == 0 {
            round0 = sums;
        } else if wl.rounds_repeat() && sums != round0 {
            ctx.wrong.push(format!(
                "round {rounds} sums {sums:?} differ from round 0 {round0:?}"
            ));
        }
        rounds += 1;
    }
    ctx.rec.on = false;
    let wall_s = t0.elapsed().as_secs_f64();
    let cpu_s = (host::thread_cpu_ns() - cpu0) as f64 / 1e9;
    let layer_metrics = wl.finish(&mut ctx);

    let metrics = if args.trace {
        let path = std::path::PathBuf::from(format!(
            "perfbench/out/spans-{}-seed{}.jsonl",
            args.workload, args.seed
        ));
        if let Err(e) = ctx.rec.write_jsonl(&path) {
            eprintln!("perfbench: writing {}: {e}", path.display());
        }
        per_layer(
            &mut ctx,
            wl.as_ref(),
            &round0,
            layer_metrics,
            cpu_s / wall_s,
        )
    } else {
        end_to_end(&ctx, setup_s, &round0)
    };

    let correct = ctx.wrong.is_empty();
    for w in ctx.wrong.iter().take(10) {
        eprintln!("perfbench: check failed: {w}");
    }
    println!(
        "# run: workload={} seed={} trace={} seconds={} rounds={rounds} wall_s={wall_s:.3} \
         cpu_s={cpu_s:.3} ops_attempted={} ops_failed={} checks_failed={} setup_samples_s={:?}",
        args.workload,
        args.seed,
        u8::from(args.trace),
        args.seconds,
        ctx.attempted,
        ctx.failed,
        ctx.wrong.len(),
        setup_samples
    );
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        ctx.attempted,
        ctx.failed,
        body.join(", ")
    );
    ExitCode::SUCCESS
}

fn end_to_end(ctx: &Ctx, setup_s: f64, round0: &RoundSums) -> Vec<Metric> {
    let op_s: f64 = ctx.untraced_ns.iter().sum::<u64>() as f64 / 1e9;
    let ms: Vec<f64> = ctx.untraced_ns.iter().map(|&n| n as f64 / 1e6).collect();
    vec![
        metric("setup_s", setup_s, "s"),
        metric("ops_per_s", ms.len() as f64 / op_s, "1/s"),
        metric("op_p50_ms", host::quantile(&ms, 0.50), "ms"),
        metric("op_p99_ms", host::quantile(&ms, 0.99), "ms"),
        metric("sim_mips", ctx.untraced_insns as f64 / op_s / 1e6, "MIPS"),
        metric("peak_rss_mb", host::peak_rss_mb(), "MB"),
        metric("sim_cycles", round0.stats.cycles as f64, "cycles"),
        metric("image_bytes", round0.image_bytes as f64, "bytes"),
    ]
}

/// Per-layer readings a workload reports from its own layers; 0 on the
/// workloads that do not touch the layer.
const WORKLOAD_LAYERS: [(&str, &str); 11] = [
    ("planopt.iterations", "count"),
    ("planopt.iter_ms", "ms"),
    ("serve.run_ms", "ms"),
    ("serve.build_ms", "ms"),
    ("serve.sim_s", "s"),
    ("serve.overhead_s", "s"),
    ("cache.lookups", "count"),
    ("cache.hits", "count"),
    ("cache.misses", "count"),
    ("cache.evictions", "count"),
    ("cache.hit_ratio", "ratio"),
];

/// Span layers that make up an op, nested in it or replayed after it.
const LEDGER_LAYERS: [&str; 5] = [
    "builder.build",
    "image.verify",
    "runner.load",
    "sim.run",
    "sim.traced_run",
];

fn per_layer(
    ctx: &mut Ctx,
    wl: &dyn Workload,
    round0: &RoundSums,
    own: Vec<Metric>,
    cpu_share: f64,
) -> Vec<Metric> {
    let t = spans::totals(ctx.rec.spans());
    let get = |n: &str| t.get(n).copied().unwrap_or_default();
    let mean_ms = |n: &str| {
        let l = get(n);
        if l.count == 0 {
            0.0
        } else {
            l.total_ns as f64 / l.count as f64 / 1e6
        }
    };
    let secs = |ns: u64| ns as f64 / 1e9;
    let mips = |insns: u64, ns: u64| {
        if ns == 0 {
            0.0
        } else {
            insns as f64 / secs(ns) / 1e6
        }
    };
    let s = &round0.stats;
    let mut m = vec![
        metric("workloads.generate_s", wl.generate_s(), "s"),
        metric("builder.builds", get("builder.build").count as f64, "count"),
        metric("builder.build_ms", mean_ms("builder.build"), "ms"),
        metric("image.verify_ms", mean_ms("image.verify"), "ms"),
        metric("runner.load_ms", mean_ms("runner.load"), "ms"),
        metric("sim.run_s", secs(get("sim.run").total_ns), "s"),
        metric(
            "sim.translated_mips",
            mips(ctx.run_insns, get("sim.run").total_ns),
            "MIPS",
        ),
        metric(
            "sim.traced_mips",
            mips(ctx.traced_insns, get("sim.traced_run").total_ns),
            "MIPS",
        ),
        metric("sim.insns", s.insns as f64, "count"),
        metric("sim.exceptions", s.exceptions as f64, "count"),
        metric("sim.swics", s.swics as f64, "count"),
        metric("sim.handler_cycles", s.handler_cycles as f64, "cycles"),
    ];
    let st = &s.stalls;
    for (cause, v) in [
        ("imiss", st.imiss),
        ("dmiss", st.dmiss),
        ("branch", st.branch),
        ("reg_jump", st.reg_jump),
        ("load_use", st.load_use),
        ("hilo", st.hilo),
        ("swic", st.swic),
        ("exception", st.exception),
    ] {
        m.push(metric(&format!("sim.stall.{cause}"), v as f64, "cycles"));
    }
    for (name, unit) in WORKLOAD_LAYERS {
        let v = own.iter().find(|o| o.name == name).map_or(0.0, |o| o.value);
        m.push(metric(name, v, unit));
    }
    m.push(metric("host.cpu_share", cpu_share, "ratio"));

    // The ledger: Σ self times of the layers making up the traced ops.
    let op = get("op");
    let glue = op.self_ns;
    let layers: Vec<(&str, u64)> = LEDGER_LAYERS.iter().map(|&n| (n, get(n).self_ns)).collect();
    let layer_ns: u64 = layers.iter().map(|&(_, ns)| ns).sum();
    let op_ns = op.total_ns.max(1) as f64;
    ctx.check(checks::ledger_holds(
        op.total_ns,
        glue,
        layer_ns,
        ctx.residual_ns,
        LEDGER_SLACK,
    ));
    m.push(metric("ledger.op_s", secs(op.total_ns), "s"));
    m.push(metric("ledger.self.glue_s", secs(glue), "s"));
    for (n, ns) in layers {
        m.push(metric(&format!("ledger.self.{n}_s"), secs(ns), "s"));
    }
    m.push(metric(
        "ledger.self.entry_s",
        ctx.residual_ns as f64 / 1e9,
        "s",
    ));
    m.push(metric(
        "ledger.unattributed_share",
        glue as f64 / op_ns,
        "ratio",
    ));
    let mean = |v: &[u64]| v.iter().sum::<u64>() as f64 / v.len().max(1) as f64;
    let overhead = mean(&ctx.traced_ns) / mean(&ctx.untraced_ns).max(1.0) - 1.0;
    m.push(metric("trace.overhead_share", overhead, "ratio"));
    m
}
