//! Output checks. Every expected value here is computed apart from the
//! program under test: the known answers are recomputed in plain Rust from
//! the algorithms the programs implement, the CRC-32 is a bitwise
//! implementation of its own, and the remaining checks are properties the
//! method must have (compressed runs behave exactly like native ones; every
//! simulated cycle is attributed to an instruction or one stall cause).

use rtdc::plan::CompressionPlan;
use rtdc_bench::planopt::PlanOptResult;
use rtdc_sim::Stats;

/// A failed check, with what was expected and what was seen.
pub type Check = Result<(), String>;

/// Bitwise CRC-32 (IEEE, reflected polynomial 0xEDB88320).
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = u32::MAX;
    for &b in bytes {
        crc ^= u32::from(b);
        for _ in 0..8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
        }
    }
    !crc
}

fn xorshift32(mut v: u32) -> u32 {
    v ^= v << 13;
    v ^= v >> 17;
    v ^= v << 5;
    v
}

/// Weighted checksum `Σ i·a[i]` of 64 xorshift32 draws from 0x12345678,
/// sorted ascending as signed words (the `sort` program).
fn sort_checksum() -> i32 {
    let mut v = 0x1234_5678u32;
    let mut a: Vec<i32> = (0..64)
        .map(|_| {
            v = xorshift32(v);
            v as i32
        })
        .collect();
    a.sort_unstable();
    a.iter().enumerate().fold(0i32, |acc, (i, &x)| {
        acc.wrapping_add(x.wrapping_mul(i as i32))
    })
}

/// trace(A·B) for the 4x4 operands `A[i][j] = i + 2j + 1` and
/// `B[i][j] = 3i − j + 2` (the `matmul` program).
fn matmul_trace() -> i32 {
    let a = |i: i32, j: i32| i + 2 * j + 1;
    let b = |i: i32, j: i32| 3 * i - j + 2;
    (0..4)
        .map(|i| (0..4).map(|k| a(i, k) * b(k, i)).sum::<i32>())
        .sum()
}

/// Occurrences of `[10, 1, 8]` in the 200 bytes `(7i + 3) & 15` (the
/// `strsearch` program).
fn pattern_count() -> i32 {
    let text: Vec<u8> = (0..200u32).map(|i| ((7 * i + 3) & 0x0f) as u8).collect();
    text.windows(3).filter(|w| *w == [10, 1, 8]).count() as i32
}

/// The value a known-answer program prints, or `None` for a program
/// without one.
pub fn known_answer(program: &str) -> Option<i32> {
    match program {
        "sort" => Some(sort_checksum()),
        "crc32" => Some(crc32(&(0..=255u8).collect::<Vec<u8>>()) as i32),
        "matmul" => Some(matmul_trace()),
        "strsearch" => Some(pattern_count()),
        _ => None,
    }
}

/// The exit code and output bytes of a known-answer program that prints
/// `value`: the value in decimal and a newline, exit code its low 7 bits.
pub fn known_output(value: i32) -> (u32, Vec<u8>) {
    (value as u32 & 0x7f, format!("{value}\n").into_bytes())
}

/// A known-answer program's run printed the independently computed value.
pub fn known_answer_holds(program: &str, exit_code: u32, output: &[u8]) -> Check {
    let Some(value) = known_answer(program) else {
        return Ok(());
    };
    let (exit, out) = known_output(value);
    if exit_code == exit && output == out.as_slice() {
        Ok(())
    } else {
        Err(format!(
            "{program}: expected exit {exit} output {:?}, got exit {exit_code} output {:?}",
            String::from_utf8_lossy(&out),
            String::from_utf8_lossy(output)
        ))
    }
}

/// Every cycle is one committed instruction or one attributed stall.
pub fn stall_sum_holds(what: &str, s: &Stats) -> Check {
    let sum = s.stalls.sum() + s.insns;
    if sum == s.cycles {
        Ok(())
    } else {
        Err(format!(
            "{what}: stalls {} + insns {} = {sum} != cycles {}",
            s.stalls.sum(),
            s.insns,
            s.cycles
        ))
    }
}

/// A compressed (or served) run ended exactly as the native run did.
pub fn matches_native(what: &str, exit: u32, crc: u32, native_exit: u32, native_crc: u32) -> Check {
    if exit == native_exit && crc == native_crc {
        Ok(())
    } else {
        Err(format!(
            "{what}: exit {exit} crc {crc:08x}, native exit {native_exit} crc {native_crc:08x}"
        ))
    }
}

/// Original text bytes of the procedures a plan keeps native.
fn native_bytes(plan: &CompressionPlan, proc_bytes: &[u32]) -> u64 {
    plan.procs
        .iter()
        .zip(proc_bytes)
        .filter(|(d, _)| d.scheme.is_none())
        .map(|(_, &b)| u64::from(b))
        .sum()
}

/// The closed loop's own guarantees: a fixed point within
/// `observe_iters + 2` iterations, a best plan inside the native-byte
/// budget, and no worse than the all-compressed starting point.
pub fn planopt_holds(
    what: &str,
    r: &PlanOptResult,
    observe_iters: u32,
    budget: u32,
    proc_bytes: &[u32],
) -> Check {
    if !r.converged || r.iterations.len() > observe_iters as usize + 2 {
        return Err(format!(
            "{what}: converged={} after {} iterations (bound {})",
            r.converged,
            r.iterations.len(),
            observe_iters + 2
        ));
    }
    let native = native_bytes(&r.plan, proc_bytes);
    if native > u64::from(budget) {
        return Err(format!(
            "{what}: best plan keeps {native} native bytes > budget {budget}"
        ));
    }
    let best = r.iterations[r.best].cycles;
    let start = r.iterations[0].cycles;
    if best > start {
        return Err(format!(
            "{what}: best {best} cycles > all-compressed {start}"
        ));
    }
    Ok(())
}

/// The cache's counters reconcile: every lookup is a hit or a miss, and
/// no resident image failed verification.
pub fn cache_reconciles(lookups: u64, hits: u64, misses: u64, poisoned: u64) -> Check {
    if lookups == hits + misses && poisoned == 0 {
        Ok(())
    } else {
        Err(format!(
            "cache: lookups {lookups} != hits {hits} + misses {misses}, or poisoned {poisoned} != 0"
        ))
    }
}

/// The traced ops' ledger adds up: the op spans' own (glue) time, the
/// layers' self times and the entry calls' residual sum to the op time
/// (to 1 ppm + 1 µs of rounding); the glue is at most `slack` of the op
/// time; and replayed layers exceed the entry calls they replay by at
/// most `slack` of it (`residual_ns` ≥ −slack · op).
pub fn ledger_holds(
    op_ns: u64,
    glue_ns: u64,
    layer_ns: u64,
    residual_ns: i64,
    slack: f64,
) -> Check {
    let sum = glue_ns as i64 + layer_ns as i64 + residual_ns;
    if (sum - op_ns as i64).unsigned_abs() > op_ns / 1_000_000 + 1_000 {
        return Err(format!(
            "ledger: layer self times sum to {sum} ns, traced ops took {op_ns} ns"
        ));
    }
    let op = op_ns as f64;
    if glue_ns as f64 > slack * op || (residual_ns as f64) < -slack * op {
        return Err(format!(
            "ledger: glue {glue_ns} ns or residual {residual_ns} ns exceeds {slack} of {op_ns} ns"
        ));
    }
    Ok(())
}

/// Every cache miss in the measured loop was a plan build: the budget kept
/// the warm set resident.
pub fn warm_set_resident(misses: u64, plan_builds: u64) -> Check {
    if misses == plan_builds {
        Ok(())
    } else {
        Err(format!(
            "cache: {misses} misses for {plan_builds} plan builds; the warm set did not stay resident"
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtdc::prelude::*;
    use rtdc_bench::planopt::{IterationRecord, PlanOptResult};

    #[test]
    fn crc32_matches_the_standard_check_value() {
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_ne!(crc32(b"123456788"), 0xCBF4_3926);
    }

    #[test]
    fn known_answers_match_the_published_values() {
        assert_eq!(known_answer("sort"), Some(-162_428_379));
        assert_eq!(known_answer("crc32"), Some(688_229_491));
        assert_eq!(known_answer("matmul"), Some(540));
        assert_eq!(known_answer("strsearch"), Some(13));
        assert_eq!(known_answer("go"), None);
    }

    #[test]
    fn known_answer_check_rejects_a_wrong_value_or_exit() {
        let (exit, out) = known_output(540);
        assert!(known_answer_holds("matmul", exit, &out).is_ok());
        assert!(known_answer_holds("matmul", exit, b"541\n").is_err());
        assert!(known_answer_holds("matmul", exit + 1, &out).is_err());
        assert!(known_answer_holds("crc32", exit, &out).is_err());
    }

    #[test]
    fn stall_check_rejects_an_unattributed_cycle() {
        let mut s = Stats {
            insns: 10,
            cycles: 13,
            ..Stats::default()
        };
        s.stalls.dmiss = 3;
        assert!(stall_sum_holds("t", &s).is_ok());
        s.cycles += 1;
        assert!(stall_sum_holds("t", &s).is_err());
    }

    #[test]
    fn native_check_rejects_a_different_exit_or_output() {
        assert!(matches_native("t", 3, 7, 3, 7).is_ok());
        assert!(matches_native("t", 4, 7, 3, 7).is_err());
        assert!(matches_native("t", 3, 8, 3, 7).is_err());
    }

    #[test]
    fn cache_check_rejects_lost_lookups_and_poison() {
        assert!(cache_reconciles(10, 7, 3, 0).is_ok());
        assert!(cache_reconciles(10, 7, 2, 0).is_err());
        assert!(cache_reconciles(10, 7, 3, 1).is_err());
    }

    #[test]
    fn ledger_check_rejects_a_gap_too_much_glue_or_an_oversized_replay() {
        assert!(ledger_holds(1_000_000, 10_000, 900_000, 90_000, 0.05).is_ok());
        // Parts that do not add up to the op time.
        assert!(ledger_holds(1_000_000, 10_000, 900_000, 80_000, 0.05).is_err());
        // Glue above the slack.
        assert!(ledger_holds(1_000_000, 60_000, 900_000, 40_000, 0.05).is_err());
        // Replayed layers 6% longer than the calls they replay.
        assert!(ledger_holds(1_000_000, 0, 1_060_000, -60_000, 0.05).is_err());
        assert!(ledger_holds(1_000_000, 0, 1_040_000, -40_000, 0.05).is_ok());
    }

    #[test]
    fn residency_check_rejects_a_warm_miss() {
        assert!(warm_set_resident(24, 24).is_ok());
        assert!(warm_set_resident(25, 24).is_err());
    }

    fn record(plan: &CompressionPlan, cycles: u64) -> IterationRecord {
        IterationRecord {
            plan: plan.clone(),
            cycles,
            handler_cycles: 0,
            exceptions: 0,
            ratio: 1.0,
        }
    }

    #[test]
    fn planopt_check_rejects_divergence_budget_overrun_and_regression() {
        let all = CompressionPlan::uniform(
            Scheme::Dictionary,
            false,
            PlanSource::Trace,
            &Selection::all_compressed(3),
        );
        let one_native = CompressionPlan::uniform(
            Scheme::Dictionary,
            false,
            PlanSource::Trace,
            &Selection::from_native_set([1].into_iter().collect(), 3),
        );
        let bytes = [40, 80, 120];
        let good = PlanOptResult {
            plan: one_native.clone(),
            best: 1,
            iterations: vec![record(&all, 100), record(&one_native, 90)],
            converged: true,
        };
        assert!(planopt_holds("t", &good, 3, 80, &bytes).is_ok());
        // Over budget.
        assert!(planopt_holds("t", &good, 3, 79, &bytes).is_err());
        // Not converged, or too many iterations.
        let diverged = PlanOptResult {
            converged: false,
            ..good.clone()
        };
        assert!(planopt_holds("t", &diverged, 3, 80, &bytes).is_err());
        assert!(planopt_holds("t", &good, 0, 80, &bytes).is_ok());
        let long = PlanOptResult {
            iterations: vec![record(&all, 100); 6],
            best: 0,
            plan: all.clone(),
            ..good.clone()
        };
        assert!(planopt_holds("t", &long, 3, 80, &bytes).is_err());
        // Best worse than the all-compressed start.
        let worse = PlanOptResult {
            iterations: vec![record(&all, 100), record(&one_native, 110)],
            ..good
        };
        assert!(planopt_holds("t", &worse, 3, 80, &bytes).is_err());
    }
}
