//! `serve-mix`: a seeded request stream through `handle_line` against one
//! `ServeState`, with no socket, pool or store. Short runs, where verify,
//! `load_image` and the response dominate, beside cache writes: misses,
//! encode+layout+seal, inserts, LRU evictions, and a read after each write.

use std::collections::{BTreeSet, HashMap};
use std::sync::Arc;
use std::time::Instant;

use rtdc::prelude::*;
use rtdc_isa::program::ObjectProgram;
use rtdc_rng::Rng64;
use rtdc_serve::client::request_line;
use rtdc_serve::json::{self, Json, ObjWriter};
use rtdc_serve::protocol::parse_stats;
use rtdc_serve::server::{handle_line, ServeConfig, ServeState};
use rtdc_workloads::{by_name, generate_cached, programs, spec};

use crate::{checks, load_and_run, metric, native_ref, round_rng};
use crate::{Ctx, Metric, NativeRef, RoundSums, Workload};

/// The warm set: the three tiny analogs and the known-answer programs.
/// Each round builds every warm image once and runs it once; the
/// known-answer programs, the cheapest runs and so the ones where verify,
/// load and response weigh most, run twice. The median op then falls in
/// the middle of the known-answer runs rather than on a class boundary.
const WARM: [&str; 7] = [
    "tiny-walker",
    "tiny-loop",
    "tiny-interp",
    "sort",
    "crc32",
    "matmul",
    "strsearch",
];

/// How many of [`WARM`] are tiny analogs (the rest are known-answer programs).
const TINY: usize = 3;

/// All nine image families the daemon serves.
const FAMILIES: [&str; 9] = [
    "native", "d", "d+rf", "cp", "cp+rf", "d2", "d2+rf", "lz", "lz+rf",
];

/// The mid-size analog the selective-compression plans are drawn for.
const PLAN_BENCH: &str = "ijpeg";

/// Plans per round that are run right after their build, all of
/// [`RUN_FAMILY`]: they are the slowest 2% of ops, so `op_p99_ms` sits in
/// the middle of one class of run and not on the boundary between two.
const PLAN_RUNS: u64 = 4;

/// The family of the plans that are run.
const RUN_FAMILY: &str = "d";

/// Native share of a drawn plan's text bytes, percent.
const PLAN_NATIVE_PCT: f64 = 10.0;

/// Cache room beyond the warm set, in native-`ijpeg`-image units: more
/// than two rounds of plan images (12 a round), so the least recently
/// used entry is always an old plan image and the warm set stays resident.
const PLAN_SLOTS: u64 = 28;

struct Req {
    line: String,
    run: bool,
    bench: &'static str,
    /// Image family, or `None` for a plan.
    family: Option<&'static str>,
    plan: Option<Arc<CompressionPlan>>,
}

impl Req {
    fn warm(bench: &'static str, family: &'static str, run: bool) -> Req {
        let op = if run { "run" } else { "build" };
        Req {
            line: request_line(op, bench, family, None),
            run,
            bench,
            family: Some(family),
            plan: None,
        }
    }

    fn plan(plan: &Arc<CompressionPlan>, run: bool) -> Req {
        let mut w = ObjWriter::new();
        w.str("op", if run { "run" } else { "build" })
            .str("bench", PLAN_BENCH)
            .str("plan", &plan.to_string());
        Req {
            line: w.finish(),
            run,
            bench: PLAN_BENCH,
            family: None,
            plan: Some(Arc::clone(plan)),
        }
    }

    /// The image the request resolves to.
    fn image_key(&self) -> String {
        match (&self.family, &self.plan) {
            (Some(f), _) => format!("{} {f}", self.bench),
            (None, Some(p)) => format!("{} plan {:08x}", self.bench, p.digest()),
            (None, None) => unreachable!("a request names a family or a plan"),
        }
    }
}

pub struct ServeMix {
    seed: u64,
    state: ServeState,
    generate_s: f64,
    programs: HashMap<&'static str, Arc<ObjectProgram>>,
    native: HashMap<&'static str, NativeRef>,
    /// First response to each warm request; responses are pure functions
    /// of the request, so every repeat must equal it.
    first: HashMap<String, String>,
    /// Images the traced rounds' replays run, by [`Req::image_key`].
    replay: HashMap<String, MemoryImage>,
    plan_builds: u64,
    start_stats: Json,
    start_metrics: Json,
}

fn serve_ok(state: &ServeState, line: &str) -> Json {
    let resp = handle_line(state, line, None);
    let v = json::parse(&resp).expect("the daemon answers with JSON");
    assert_eq!(
        v.get("ok").and_then(Json::as_bool),
        Some(true),
        "{line} -> {resp}"
    );
    v
}

fn resident_bytes(v: &Json) -> u64 {
    v.get("resident_bytes").and_then(Json::as_u64).unwrap_or(0)
}

impl ServeMix {
    pub fn new(seed: u64) -> ServeMix {
        let t0 = Instant::now();
        let mut programs: HashMap<&'static str, Arc<ObjectProgram>> = HashMap::new();
        for s in [
            spec::tiny::walker(),
            spec::tiny::loop_kernel(),
            spec::tiny::interpreter(),
        ] {
            programs.insert(s.name, generate_cached(&s));
        }
        programs.insert(
            PLAN_BENCH,
            generate_cached(&by_name(PLAN_BENCH).expect("paper analog")),
        );
        let generate_s = t0.elapsed().as_secs_f64();
        for p in programs::all_programs() {
            let name = WARM.iter().copied().find(|&n| n == p.name);
            programs.insert(name.expect("known-answer programs are warm"), Arc::new(p));
        }

        // Size the budget: the warm set plus PLAN_SLOTS plan images,
        // measured on a throwaway state without a budget.
        let probe = ServeState::new(&ServeConfig {
            cache_bytes: 1 << 40,
            ..ServeConfig::default()
        });
        let mut warm_bytes = 0;
        for bench in WARM {
            for family in FAMILIES {
                warm_bytes +=
                    resident_bytes(&serve_ok(&probe, &Req::warm(bench, family, false).line));
            }
        }
        let slot = resident_bytes(&serve_ok(
            &probe,
            &Req::warm(PLAN_BENCH, "native", false).line,
        ));
        let state = ServeState::new(&ServeConfig {
            cache_bytes: warm_bytes + PLAN_SLOTS * slot,
            ..ServeConfig::default()
        });
        for bench in WARM {
            for family in FAMILIES {
                serve_ok(&state, &Req::warm(bench, family, false).line);
            }
        }
        ServeMix {
            seed,
            state,
            generate_s,
            programs,
            native: HashMap::new(),
            first: HashMap::new(),
            replay: HashMap::new(),
            plan_builds: 0,
            start_stats: Json::Null,
            start_metrics: Json::Null,
        }
    }

    /// A seeded selective-compression plan for [`PLAN_BENCH`]: random
    /// procedures native up to the byte budget, every procedure in link
    /// order. (A random layout would scatter the loop kernels into
    /// conflicting lines and make a plan's run cost vary by 30×.)
    fn draw_plan(&self, rng: &mut Rng64, family: &str) -> Arc<CompressionPlan> {
        let program = &self.programs[PLAN_BENCH];
        let (scheme, rf) = Scheme::parse(family).expect("compressed family");
        let n = program.procedures.len();
        let budget = rtdc_bench::planopt::budget_from_pct(program, PLAN_NATIVE_PCT);
        let mut ids: Vec<usize> = (0..n).collect();
        rng.shuffle(&mut ids);
        let mut native = BTreeSet::new();
        let mut spent = 0;
        for id in ids {
            let bytes = program.procedures[id].byte_size();
            if spent + bytes <= budget {
                spent += bytes;
                native.insert(id);
            }
        }
        let selection = Selection::from_native_set(native, n);
        Arc::new(CompressionPlan::uniform(
            scheme,
            rf,
            PlanSource::Manual,
            &selection,
        ))
    }

    /// Builds the image `req` resolves to, the way the daemon does.
    fn build(&self, req: &Req) -> Result<MemoryImage, String> {
        let program = &self.programs[req.bench];
        let built = match (req.family, &req.plan) {
            (Some("native"), _) => build_native(program),
            (Some(f), _) => {
                let (scheme, rf) = Scheme::parse(f).expect("served family");
                let all = Selection::all_compressed(program.procedures.len());
                build_planned(
                    program,
                    &CompressionPlan::uniform(scheme, rf, PlanSource::Heuristic, &all),
                )
            }
            (None, Some(p)) => build_planned(program, p),
            (None, None) => unreachable!("a request names a family or a plan"),
        };
        built.map_err(|e| e.to_string())
    }

    /// Replays a traced request as the public calls the daemon makes for
    /// it: `build_planned`/`build_native` on a miss, `verify_integrity` on
    /// a hit, then `load_image` and `Machine::run` for a `run`.
    fn replay(&mut self, req: &Req, missed: bool, entry_ns: u64, ctx: &mut Ctx) {
        let key = req.image_key();
        let root = ctx.rec.open("replay");
        let image = if missed {
            ctx.rec.span("builder.build", || self.build(req))
        } else {
            match self.replay.remove(&key) {
                Some(img) => Ok(img),
                None => self.build(req),
            }
        };
        let result = image.and_then(|img| {
            if !missed {
                ctx.rec
                    .span("image.verify", || img.verify_integrity())
                    .map_err(|e| e.to_string())?;
            }
            let ran = if req.run {
                Some(load_and_run(ctx, &img)?)
            } else {
                None
            };
            Ok((img, ran))
        });
        ctx.rec.close(root);
        let layers = ctx.rec.children_ns(root);
        ctx.residual_ns += entry_ns as i64 - layers as i64;
        match result {
            Ok((img, ran)) => {
                if let Some(ran) = ran {
                    let n = &self.native[req.bench];
                    let what = format!("replay {key}");
                    ctx.check(checks::matches_native(
                        &what,
                        ran.exit,
                        checks::crc32(&ran.output),
                        n.exit,
                        n.crc,
                    ));
                }
                // A plan image is read once after its build: keep it
                // from the build to the read.
                if req.plan.is_none() || missed {
                    self.replay.insert(key, img);
                }
            }
            Err(e) => ctx.wrong.push(format!("replay {key}: {e}")),
        }
    }

    fn serve(&mut self, req: &Req, ctx: &mut Ctx, sums: &mut RoundSums) {
        let misses_before = self.state.cache.stats().misses;
        let t0 = ctx.begin_op();
        let root = ctx.rec.open("op");
        let entry = ctx.rec.open("serve.handle_line");
        let resp = handle_line(&self.state, &req.line, None);
        ctx.rec.close(entry);
        ctx.rec.close(root);
        ctx.end_op(t0);
        if ctx.rec.on {
            let missed = self.state.cache.stats().misses > misses_before;
            let entry_ns = ctx.rec.duration_ns(entry);
            self.replay(req, missed, entry_ns, ctx);
        }

        let what = req.image_key();
        let v = match json::parse(&resp) {
            Ok(v) if v.get("ok").and_then(Json::as_bool) == Some(true) => v,
            _ => {
                ctx.fail(&what, &resp);
                return;
            }
        };
        if req.plan.is_none() {
            let first = self
                .first
                .entry(req.line.clone())
                .or_insert_with(|| resp.clone());
            if *first != resp {
                ctx.wrong.push(format!(
                    "{}: response changed: {first} then {resp}",
                    req.line
                ));
            }
        }
        if req.run {
            let field = |k: &str| v.get(k).and_then(Json::as_u64).unwrap_or(u64::MAX);
            let n = &self.native[req.bench];
            ctx.check(checks::matches_native(
                &what,
                field("exit_code") as u32,
                field("output_crc32") as u32,
                n.exit,
                n.crc,
            ));
            match v.get("stats").and_then(parse_stats) {
                Some(stats) => {
                    ctx.check(checks::stall_sum_holds(&what, &stats));
                    if !ctx.rec.on {
                        ctx.untraced_insns += stats.insns;
                    }
                    sums.add_run(&stats);
                }
                None => ctx
                    .wrong
                    .push(format!("{what}: run response without stats")),
            }
        } else {
            let size = |k: &str| {
                v.get("sizes")
                    .and_then(|s| s.get(k))
                    .and_then(Json::as_u64)
                    .unwrap_or(0)
            };
            sums.image_bytes += size("native_text_bytes") + size("compressed_payload_bytes");
        }
    }
}

/// `(count, sum)` of a daemon histogram in a `metrics` response.
fn histogram(metrics: &Json, name: &str) -> (u64, u64) {
    let h = metrics
        .get("metrics")
        .and_then(|m| m.get("histograms"))
        .and_then(|h| h.get(name));
    let f = |k: &str| h.and_then(|h| h.get(k)).and_then(Json::as_u64).unwrap_or(0);
    (f("count"), f("sum"))
}

/// Σ sums of the daemon's `serve.sim.wall_us.*` histograms, µs.
fn sim_wall_us(metrics: &Json) -> u64 {
    match metrics.get("metrics").and_then(|m| m.get("histograms")) {
        Some(Json::Obj(map)) => map
            .iter()
            .filter(|(k, _)| k.starts_with("serve.sim.wall_us."))
            .filter_map(|(_, h)| h.get("sum").and_then(Json::as_u64))
            .sum(),
        _ => 0,
    }
}

fn cache_counter(stats: &Json, name: &str) -> u64 {
    stats
        .get("cache")
        .and_then(|c| c.get(name))
        .and_then(Json::as_u64)
        .unwrap_or(0)
}

impl Workload for ServeMix {
    fn generate_s(&self) -> f64 {
        self.generate_s
    }

    fn reference(&mut self, ctx: &mut Ctx) {
        for name in WARM.iter().copied().chain([PLAN_BENCH]) {
            let n = native_ref(ctx, &self.programs[name]);
            self.native.insert(name, n);
        }
        self.start_stats = serve_ok(&self.state, r#"{"op":"stats"}"#);
        self.start_metrics = serve_ok(&self.state, r#"{"op":"metrics"}"#);
    }

    fn round(&mut self, r: u64, ctx: &mut Ctx) -> RoundSums {
        let mut rng = round_rng(self.seed, r);
        let mut reqs: Vec<Req> = Vec::new();
        for (i, bench) in WARM.into_iter().enumerate() {
            for family in FAMILIES {
                reqs.push(Req::warm(bench, family, false));
                reqs.push(Req::warm(bench, family, true));
                if i >= TINY {
                    reqs.push(Req::warm(bench, family, true));
                }
            }
        }
        rng.shuffle(&mut reqs);
        // One plan per compressed family, read back with a second build,
        // and PLAN_RUNS plans of RUN_FAMILY, run right after their build.
        let reads = FAMILIES[1..].iter().map(|f| (*f, false));
        let runs = (0..PLAN_RUNS).map(|_| (RUN_FAMILY, true));
        for (family, run) in reads.chain(runs) {
            let plan = self.draw_plan(&mut rng, family);
            let pos = (rng.next_u64() % (reqs.len() as u64 + 1)) as usize;
            reqs.splice(pos..pos, [Req::plan(&plan, false), Req::plan(&plan, run)]);
            self.plan_builds += 1;
        }
        let mut sums = RoundSums::default();
        for req in &reqs {
            self.serve(req, ctx, &mut sums);
        }
        sums
    }

    fn rounds_repeat(&self) -> bool {
        false
    }

    fn finish(&mut self, ctx: &mut Ctx) -> Vec<Metric> {
        let stats = serve_ok(&self.state, r#"{"op":"stats"}"#);
        let metrics = serve_ok(&self.state, r#"{"op":"metrics"}"#);
        let c = |n: &str| cache_counter(&stats, n);
        ctx.check(checks::cache_reconciles(
            c("lookups"),
            c("hits"),
            c("misses"),
            c("poisoned"),
        ));
        let d = |n: &str| c(n) - cache_counter(&self.start_stats, n);
        ctx.check(checks::warm_set_resident(d("misses"), self.plan_builds));
        let delta = |name: &str| {
            let (c1, s1) = histogram(&metrics, name);
            let (c0, s0) = histogram(&self.start_metrics, name);
            (c1 - c0, s1 - s0)
        };
        let per_call_ms = |(count, sum_us): (u64, u64)| sum_us as f64 / count.max(1) as f64 / 1e3;
        let run = delta("serve.op.run.us");
        let sim_s = (sim_wall_us(&metrics) - sim_wall_us(&self.start_metrics)) as f64 / 1e6;
        vec![
            metric("serve.run_ms", per_call_ms(run), "ms"),
            metric(
                "serve.build_ms",
                per_call_ms(delta("serve.op.build.us")),
                "ms",
            ),
            metric("serve.sim_s", sim_s, "s"),
            metric("serve.overhead_s", run.1 as f64 / 1e6 - sim_s, "s"),
            metric("cache.lookups", d("lookups") as f64, "count"),
            metric("cache.hits", d("hits") as f64, "count"),
            metric("cache.misses", d("misses") as f64, "count"),
            metric("cache.evictions", d("evictions") as f64, "count"),
            metric(
                "cache.hit_ratio",
                d("hits") as f64 / d("lookups").max(1) as f64,
                "ratio",
            ),
        ]
    }
}
