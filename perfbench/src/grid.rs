//! `paper-grid`: each op builds, loads and runs one cell of the paper's
//! grid, analog × image family. Long untraced runs, so the translated
//! simulator does almost all the work and build and load almost none.

use std::sync::Arc;
use std::time::Instant;

use rtdc_isa::program::ObjectProgram;
use rtdc_workloads::{by_name, generate_cached, programs};

use crate::{build_family, checks, load_and_run, native_ref, round_rng};
use crate::{Ctx, NativeRef, RoundSums, Workload};

/// High-miss analogs (perl, vortex) beside loop-bound ones (ijpeg,
/// mpeg2enc, pegwit); the four known-answer programs are added to them.
/// With vortex rather than go, the median cell falls among many cells of
/// similar cost instead of next to the gap above the native walker runs.
const ANALOGS: [&str; 5] = ["perl", "vortex", "ijpeg", "mpeg2enc", "pegwit"];

/// The image families of the paper's tables plus the two extra codecs.
const FAMILIES: [&str; 7] = ["native", "d", "d+rf", "cp", "cp+rf", "d2", "lz"];

pub struct PaperGrid {
    seed: u64,
    programs: Vec<Arc<ObjectProgram>>,
    generate_s: f64,
    native: Vec<NativeRef>,
}

impl PaperGrid {
    pub fn new(seed: u64) -> PaperGrid {
        let t0 = Instant::now();
        let mut programs: Vec<Arc<ObjectProgram>> = ANALOGS
            .iter()
            .map(|n| generate_cached(&by_name(n).expect("paper analog")))
            .collect();
        programs.extend(programs::all_programs().into_iter().map(Arc::new));
        PaperGrid {
            seed,
            programs,
            generate_s: t0.elapsed().as_secs_f64(),
            native: Vec::new(),
        }
    }
}

impl Workload for PaperGrid {
    fn generate_s(&self) -> f64 {
        self.generate_s
    }

    fn reference(&mut self, ctx: &mut Ctx) {
        self.native = self.programs.iter().map(|p| native_ref(ctx, p)).collect();
    }

    fn round(&mut self, r: u64, ctx: &mut Ctx) -> RoundSums {
        let mut cells: Vec<usize> = (0..self.programs.len() * FAMILIES.len()).collect();
        round_rng(self.seed, r).shuffle(&mut cells);
        let mut sums = RoundSums::default();
        for cell in cells {
            let (program, family) = (
                &self.programs[cell / FAMILIES.len()],
                FAMILIES[cell % FAMILIES.len()],
            );
            let what = format!("{} {family}", program.name);
            let t0 = ctx.begin_op();
            let root = ctx.rec.open("op");
            let built = ctx
                .rec
                .span("builder.build", || build_family(program, family));
            let ran = built.and_then(|image| {
                if ctx.rec.on {
                    ctx.rec
                        .span("image.verify", || image.verify_integrity())
                        .map_err(|e| e.to_string())?;
                }
                let ran = load_and_run(ctx, &image)?;
                Ok((image.sizes.total_code_bytes(), ran))
            });
            ctx.rec.close(root);
            ctx.end_op(t0);
            let (code_bytes, ran) = match ran {
                Ok(x) => x,
                Err(e) => {
                    ctx.fail(&what, e);
                    continue;
                }
            };
            if !ctx.rec.on {
                ctx.untraced_insns += ran.stats.insns;
            }
            let native = &self.native[cell / FAMILIES.len()];
            ctx.check(checks::stall_sum_holds(&what, &ran.stats));
            ctx.check(checks::known_answer_holds(
                &program.name,
                ran.exit,
                &ran.output,
            ));
            ctx.check(checks::matches_native(
                &what,
                ran.exit,
                checks::crc32(&ran.output),
                native.exit,
                native.crc,
            ));
            sums.add_run(&ran.stats);
            sums.image_bytes += u64::from(code_bytes);
        }
        sums
    }

    fn rounds_repeat(&self) -> bool {
        true
    }

    fn finish(&mut self, _ctx: &mut Ctx) -> Vec<crate::Metric> {
        Vec::new()
    }
}
