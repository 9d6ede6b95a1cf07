//! Differential testing: random Mul-T programs are evaluated by the
//! reference interpreter and by the full pipeline (compiler → run-time
//! → machine) under every compilation target and several processor
//! counts. Any divergence is a bug in the compiler, the run-time
//! system, the processor, or the oracle.

use april_machine::IdealMachine;
use april_mult::interp::{interpret, Value};
use april_mult::trace::trace_program;
use april_mult::{compile, programs, CompileOptions};
use april_runtime::{RtConfig, Runtime};
use april_util::Rng;

/// Generates a deterministic random integer-valued expression using
/// `nvars` in-scope integer variables `v0..`.
fn gen_expr(rng: &mut Rng, depth: u32, nvars: u32) -> String {
    if depth == 0 {
        return if nvars > 0 && rng.gen_bool(0.5) {
            format!("v{}", rng.gen_below(nvars as u64))
        } else {
            format!("{}", rng.gen_range(-9, 100))
        };
    }
    let d = depth - 1;
    match rng.gen_below(14) {
        0 => format!(
            "(+ {} {})",
            gen_expr(rng, d, nvars),
            gen_expr(rng, d, nvars)
        ),
        1 => format!(
            "(- {} {})",
            gen_expr(rng, d, nvars),
            gen_expr(rng, d, nvars)
        ),
        2 => format!(
            "(* {} {})",
            gen_expr(rng, d, nvars),
            gen_expr(rng, d, nvars)
        ),
        3 => format!(
            "(quotient {} {})",
            gen_expr(rng, d, nvars),
            rng.gen_range(1, 9)
        ),
        4 => format!(
            "(remainder {} {})",
            gen_expr(rng, d, nvars),
            rng.gen_range(1, 9)
        ),
        5 => {
            let cmp = ["<", "<=", ">", ">=", "="][rng.gen_index(5)];
            format!(
                "(if ({cmp} {} {}) {} {})",
                gen_expr(rng, d, nvars),
                gen_expr(rng, d, nvars),
                gen_expr(rng, d, nvars),
                gen_expr(rng, d, nvars)
            )
        }
        6 => format!(
            "(let ((v{nvars} {})) {})",
            gen_expr(rng, d, nvars),
            gen_expr(rng, d, nvars + 1)
        ),
        7 => format!(
            "((lambda (v{nvars}) {}) {})",
            gen_expr(rng, d, nvars + 1),
            gen_expr(rng, d, nvars)
        ),
        8 => format!(
            "(car (cons {} {}))",
            gen_expr(rng, d, nvars),
            gen_expr(rng, d, nvars)
        ),
        9 => format!(
            "(cdr (cons {} {}))",
            gen_expr(rng, d, nvars),
            gen_expr(rng, d, nvars)
        ),
        10 => {
            let i = rng.gen_below(4);
            format!(
                "(vector-ref (make-vector 4 {}) {i})",
                gen_expr(rng, d, nvars)
            )
        }
        11 => format!("(touch (future {}))", gen_expr(rng, d, nvars)),
        12 => format!(
            "(begin {} {})",
            gen_expr(rng, d, nvars),
            gen_expr(rng, d, nvars)
        ),
        _ => format!(
            "(if (not (= {} 0)) {} {})",
            gen_expr(rng, d, nvars),
            gen_expr(rng, d, nvars),
            gen_expr(rng, d, nvars)
        ),
    }
}

/// The first generator's 48 programs: expressions over every form.
fn mixed_programs() -> impl Iterator<Item = String> {
    (0..48u64).map(|case| {
        let mut rng = Rng::seed_from(0xd1ff ^ case);
        format!("(define (main) {})", gen_expr(&mut rng, 4, 0))
    })
}

/// The second generator's 48 programs: three futures around
/// independent subtrees, joined.
fn future_heavy_programs() -> impl Iterator<Item = String> {
    (0..48u64).map(|case| {
        let mut rng = Rng::seed_from(0xfu64 ^ (case << 8));
        let a = gen_expr(&mut rng, 3, 0);
        let b = gen_expr(&mut rng, 3, 0);
        let c = gen_expr(&mut rng, 3, 0);
        format!("(define (main) (+ (future {a}) (+ (future {b}) (future {c}))))")
    })
}

fn run_pipeline(src: &str, opts: &CompileOptions, procs: usize) -> i32 {
    let prog = compile(src, opts).unwrap_or_else(|e| panic!("compile: {e}\n{src}"));
    let m = IdealMachine::new(procs, procs * (4 << 20), prog);
    let mut rt = Runtime::new(
        m,
        RtConfig {
            region_bytes: 4 << 20,
            max_cycles: 100_000_000,
            ..RtConfig::default()
        },
    );
    let r = rt.run().unwrap_or_else(|e| panic!("run: {e}\n{src}"));
    r.value
        .as_fixnum()
        .unwrap_or_else(|| panic!("non-fixnum result {} for\n{src}", r.value))
}

/// Every target and machine size computes what the oracle computes.
#[test]
fn all_targets_match_the_oracle() {
    for src in mixed_programs() {
        let expected = match interpret(&src) {
            Ok(Value::Int(n)) => n,
            Ok(other) => panic!("oracle produced non-int {other} for\n{src}"),
            Err(e) => panic!("oracle failed ({e}) on generated program\n{src}"),
        };
        for (label, opts, procs) in [
            ("t_seq/1", CompileOptions::t_seq(), 1),
            ("april/1", CompileOptions::april(), 1),
            ("april/3", CompileOptions::april(), 3),
            ("lazy/2", CompileOptions::april_lazy(), 2),
            ("encore/2", CompileOptions::encore(), 2),
        ] {
            let got = run_pipeline(&src, &opts, procs);
            assert_eq!(
                got, expected,
                "target {label} diverged from oracle on\n{src}"
            );
        }
    }
}

/// Deeper, future-heavy expressions on more processors.
#[test]
fn future_heavy_expressions_are_deterministic() {
    for src in future_heavy_programs() {
        let expected = match interpret(&src) {
            Ok(Value::Int(n)) => n,
            other => panic!("oracle: {other:?} on\n{src}"),
        };
        let eager = run_pipeline(&src, &CompileOptions::april(), 4);
        let lazy = run_pipeline(&src, &CompileOptions::april_lazy(), 4);
        assert_eq!(eager, expected);
        assert_eq!(lazy, expected);
    }
}

/// Tracing runs the oracle's evaluator: on calls through procedure
/// values, fixnum overflow, dynamic errors and both generators'
/// programs it gives `interpret`'s value or error.
#[test]
fn tracing_gives_the_oracles_result() {
    let rows = [
        "(define (inc x) (+ x 1)) (define (app f x) (f x)) (define (main) (app inc 41))"
            .to_string(),
        format!(
            "{lib}
            (define (sq x) (* x x))
            (define (add a b) (+ a b))
            (define (main)
              (let ((v (make-vector 8 3)))
                (pmap! sq v 2)
                (preduce add 0 v 0 8 2)))",
            lib = programs::data_parallel_lib()
        ),
        "(define (main) (+ 536870911 1))".to_string(),
        "(define (main) (quotient 7 0))".to_string(),
        "(define (main) (make-vector -1 0))".to_string(),
        "(define (main) (vector-set! (make-vector 2 0) 5 1))".to_string(),
    ];
    let corpus = rows
        .into_iter()
        .chain(mixed_programs())
        .chain(future_heavy_programs());
    for src in corpus {
        let want = interpret(&src).map_err(|e| e.to_string());
        let got = trace_program(&src)
            .map(|(_, v)| v)
            .map_err(|e| e.to_string());
        assert_eq!(got, want, "traced result differs on\n{src}");
    }
}
