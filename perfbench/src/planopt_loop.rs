//! `planopt-loop`: each op is one uncached `planopt::optimize` call on an
//! (analog, scheme±rf) pair at a native-byte budget. Every iteration runs
//! traced through `PlanSink` and rebuilds, so the simulator is used the
//! opposite way from `paper-grid`. `optimized_plan_cached` and the `plan`
//! op are bypassed because both memoize per process.

use std::sync::Arc;
use std::time::Instant;

use rtdc::prelude::*;
use rtdc_bench::planopt::DEFAULT_BUDGET_PCT;
use rtdc_bench::planopt::{budget_from_pct, optimize, PlanOptConfig, PlanOptResult, PlanSink};
use rtdc_isa::program::ObjectProgram;
use rtdc_sim::Stats;
use rtdc_workloads::{by_name, generate_cached, spec, BenchmarkSpec};

use crate::{checks, metric, native_ref, round_rng, MAX_INSNS};
use crate::{Ctx, Metric, NativeRef, RoundSums, Workload};

/// Two high-miss analogs, one loop-bound one and the three tiny analogs
/// under six schemes and handler variants. The middle three pairs cost
/// about the same (170–200 ms), so the median op falls inside that
/// cluster rather than on a gap between two pairs.
const PAIRS: [(&str, &str); 7] = [
    ("go", "d"),
    ("perl", "cp+rf"),
    ("tiny-walker", "cp+rf"),
    ("pegwit", "d2"),
    ("tiny-walker", "lz"),
    ("tiny-interp", "cp"),
    ("tiny-loop", "d2+rf"),
];

fn spec_named(name: &str) -> BenchmarkSpec {
    by_name(name)
        .or_else(|| {
            [
                spec::tiny::walker(),
                spec::tiny::loop_kernel(),
                spec::tiny::interpreter(),
            ]
            .into_iter()
            .find(|s| s.name == name)
        })
        .expect("pair names a generated analog")
}

/// What round 0 established for a pair; later rounds must reproduce it.
#[derive(Clone, Copy)]
struct First {
    digest: u32,
    best_cycles: u64,
    iterations: usize,
    /// Σ simulated instructions over the op's iterations.
    insns: u64,
    best_stats: Stats,
    best_code_bytes: u32,
}

pub struct PlanoptLoop {
    seed: u64,
    generate_s: f64,
    programs: Vec<Arc<ObjectProgram>>,
    budgets: Vec<u32>,
    proc_bytes: Vec<Vec<u32>>,
    native: Vec<NativeRef>,
    first: Vec<Option<First>>,
    opt: PlanOptConfig,
    traced_optimize_ns: u64,
    traced_iterations: u64,
}

impl PlanoptLoop {
    pub fn new(seed: u64) -> PlanoptLoop {
        let t0 = Instant::now();
        let programs: Vec<Arc<ObjectProgram>> = PAIRS
            .iter()
            .map(|(n, _)| generate_cached(&spec_named(n)))
            .collect();
        let generate_s = t0.elapsed().as_secs_f64();
        PlanoptLoop {
            seed,
            generate_s,
            budgets: programs
                .iter()
                .map(|p| budget_from_pct(p, DEFAULT_BUDGET_PCT))
                .collect(),
            proc_bytes: programs
                .iter()
                .map(|p| p.procedures.iter().map(|q| q.byte_size()).collect())
                .collect(),
            programs,
            native: Vec::new(),
            first: vec![None; PAIRS.len()],
            opt: PlanOptConfig::default(),
            traced_optimize_ns: 0,
            traced_iterations: 0,
        }
    }

    /// Round 0: runs every iteration's plan untraced. Each must take the
    /// cycles the traced loop measured; the best must reproduce the
    /// native output.
    fn establish(&mut self, i: usize, res: &PlanOptResult, ctx: &mut Ctx) -> Result<First, String> {
        let what = format!("{} {}", PAIRS[i].0, PAIRS[i].1);
        let mut first = First {
            digest: res.plan.digest(),
            best_cycles: res.iterations[res.best].cycles,
            iterations: res.iterations.len(),
            insns: 0,
            best_stats: Stats::default(),
            best_code_bytes: 0,
        };
        for (k, rec) in res.iterations.iter().enumerate() {
            let image = build_planned(&self.programs[i], &rec.plan).map_err(|e| e.to_string())?;
            let r = run_image(&image, ctx.cfg, MAX_INSNS).map_err(|e| e.to_string())?;
            if r.stats.cycles != rec.cycles {
                ctx.wrong.push(format!(
                    "{what} iteration {k}: untraced {} cycles, traced {}",
                    r.stats.cycles, rec.cycles
                ));
            }
            ctx.check(checks::stall_sum_holds(&what, &r.stats));
            first.insns += r.stats.insns;
            if k == res.best {
                let n = &self.native[i];
                ctx.check(checks::matches_native(
                    &what,
                    r.exit_code,
                    checks::crc32(&r.output),
                    n.exit,
                    n.crc,
                ));
                first.best_stats = r.stats;
                first.best_code_bytes = image.sizes.total_code_bytes();
            }
        }
        Ok(first)
    }

    /// Traced rounds: replays the op's iterations as the public calls the
    /// loop makes, `build_planned` and `run_image_with_sink` with a
    /// `PlanSink`; the rest of the optimize call is the optimizer's model.
    fn replay(&mut self, i: usize, res: &PlanOptResult, entry_ns: u64, ctx: &mut Ctx) {
        let root = ctx.rec.open("replay");
        for (k, rec) in res.iterations.iter().enumerate() {
            let program = &self.programs[i];
            let image = ctx
                .rec
                .span("builder.build", || build_planned(program, &rec.plan));
            let cfg = ctx.cfg;
            let ran = image.map_err(|e| e.to_string()).and_then(|img| {
                ctx.rec
                    .span("sim.traced_run", || {
                        run_image_with_sink(&img, cfg, MAX_INSNS, PlanSink::default())
                    })
                    .map_err(|e| e.to_string())
            });
            match ran {
                Ok((r, _)) if r.stats.cycles == rec.cycles => ctx.traced_insns += r.stats.insns,
                Ok((r, _)) => ctx.wrong.push(format!(
                    "replay {} iteration {k}: {} cycles, loop measured {}",
                    PAIRS[i].0, r.stats.cycles, rec.cycles
                )),
                Err(e) => ctx.wrong.push(format!("replay {}: {e}", PAIRS[i].0)),
            }
        }
        ctx.rec.close(root);
        ctx.residual_ns += entry_ns as i64 - ctx.rec.children_ns(root) as i64;
    }
}

impl Workload for PlanoptLoop {
    fn generate_s(&self) -> f64 {
        self.generate_s
    }

    fn reference(&mut self, ctx: &mut Ctx) {
        self.native = self.programs.iter().map(|p| native_ref(ctx, p)).collect();
    }

    fn round(&mut self, r: u64, ctx: &mut Ctx) -> RoundSums {
        let mut order: Vec<usize> = (0..PAIRS.len()).collect();
        round_rng(self.seed, r).shuffle(&mut order);
        let mut sums = RoundSums::default();
        for i in order {
            let (bench, family) = PAIRS[i];
            let what = format!("{bench} {family}");
            let (scheme, rf) = Scheme::parse(family).expect("pair names a scheme");
            let opt = PlanOptConfig {
                native_budget_bytes: self.budgets[i],
                ..self.opt
            };
            let t0 = ctx.begin_op();
            let root = ctx.rec.open("op");
            let entry = ctx.rec.open("planopt.optimize");
            let res = optimize(&self.programs[i], scheme, rf, ctx.cfg, &opt);
            ctx.rec.close(entry);
            ctx.rec.close(root);
            ctx.end_op(t0);
            let res = match res {
                Ok(res) => res,
                Err(e) => {
                    ctx.fail(&what, e);
                    continue;
                }
            };
            if ctx.rec.on {
                let entry_ns = ctx.rec.duration_ns(entry);
                self.traced_optimize_ns += entry_ns;
                self.traced_iterations += res.iterations.len() as u64;
                self.replay(i, &res, entry_ns, ctx);
            }
            ctx.check(checks::planopt_holds(
                &what,
                &res,
                opt.observe_iters,
                self.budgets[i],
                &self.proc_bytes[i],
            ));
            let first = match self.first[i] {
                Some(f) => f,
                None => match self.establish(i, &res, ctx) {
                    Ok(f) => *self.first[i].insert(f),
                    Err(e) => {
                        ctx.wrong.push(format!("{what}: {e}"));
                        continue;
                    }
                },
            };
            if res.plan.digest() != first.digest
                || res.iterations[res.best].cycles != first.best_cycles
                || res.iterations.len() != first.iterations
            {
                ctx.wrong
                    .push(format!("{what}: round {r} found another plan than round 0"));
            }
            if !ctx.rec.on {
                ctx.untraced_insns += first.insns;
            }
            sums.add_run(&first.best_stats);
            sums.image_bytes += u64::from(first.best_code_bytes);
        }
        sums
    }

    fn rounds_repeat(&self) -> bool {
        true
    }

    fn finish(&mut self, _ctx: &mut Ctx) -> Vec<Metric> {
        let per_round: usize = self.first.iter().flatten().map(|f| f.iterations).sum();
        vec![
            metric("planopt.iterations", per_round as f64, "count"),
            metric(
                "planopt.iter_ms",
                self.traced_optimize_ns as f64 / self.traced_iterations.max(1) as f64 / 1e6,
                "ms",
            ),
        ]
    }
}
