//! The rule registry: each rule is a token-level check over one
//! [`SourceFile`], scoped by the [`policy`](crate::policy) tables.
//!
//! Rules deliberately favor *precision over recall* — a finding must be
//! actionable, so width inference only fires on unambiguous same-file
//! facts and unknown-width casts are skipped rather than guessed. The
//! runtime determinism oracles (`tests/determinism.rs`,
//! `tests/tiled_determinism.rs`) remain the backstop for what the
//! static pass cannot see.

use crate::lexer::{TokKind, Token};
use crate::policy::{float_accum_binds, lossy_cast_binds, CrateKind, FileClass};
use crate::report::Diagnostic;
use crate::source::{cast_dest_width, int_width_of, SourceFile};

/// A single lint rule.
pub trait Rule {
    /// Stable identifier used in diagnostics and waivers.
    fn id(&self) -> &'static str;
    /// One-line description for `--rules` output.
    fn description(&self) -> &'static str;
    /// Scan `file`, pushing findings into `out`.
    fn check(&self, file: &SourceFile, out: &mut Vec<Diagnostic>);
}

/// Every rule, in reporting order.
pub fn registry() -> Vec<Box<dyn Rule>> {
    vec![
        Box::new(NoStdHash),
        Box::new(NoWallclock),
        Box::new(FloatAccum),
        Box::new(SafetyComment),
        Box::new(NoUnwrap),
        Box::new(LossyCast),
    ]
}

/// Rule identifiers the engine accepts in waivers (includes the
/// engine-level rules that have no [`Rule`] object).
pub fn known_rule_ids() -> Vec<&'static str> {
    let mut ids: Vec<&'static str> = registry().iter().map(|r| r.id()).collect();
    ids.push("workspace-lints");
    ids
}

fn diag(file: &SourceFile, rule: &'static str, t: &Token, message: String) -> Diagnostic {
    Diagnostic {
        rule,
        path: file.rel_path.clone(),
        line: t.line,
        col: t.col,
        message,
    }
}

/// `no-std-hash`: the hot crates must not touch `std::collections`'
/// randomized hash tables — iteration order varies per process, which
/// is exactly the nondeterminism the `FlatMap`/`FlatSet` substrate
/// exists to rule out. Binds to every file class of hot crates (test
/// helpers seed oracles and fixtures, so they carry the contract too).
struct NoStdHash;

impl Rule for NoStdHash {
    fn id(&self) -> &'static str {
        "no-std-hash"
    }

    fn description(&self) -> &'static str {
        "deny std HashMap/HashSet in hot crates; use delorean_trace's FlatMap/FlatSet substrate"
    }

    fn check(&self, file: &SourceFile, out: &mut Vec<Diagnostic>) {
        if file.crate_kind != CrateKind::Hot {
            return;
        }
        for t in file.tokens() {
            if t.is_ident("HashMap") || t.is_ident("HashSet") {
                out.push(diag(
                    file,
                    self.id(),
                    t,
                    format!(
                        "std::collections::{} iterates in a process-random order; use \
                         FlatMap/FlatSet (delorean_trace::collections) or waive with a \
                         justification proving no order-dependent iteration",
                        t.text
                    ),
                ));
            }
        }
    }
}

/// `no-wallclock`: reading the host clock anywhere but the bench
/// harness makes results time-dependent. Modeled cost lives in
/// `delorean_virt::HostClock`; real time belongs to `delorean_bench`
/// (and the criterion shim it drives).
struct NoWallclock;

impl Rule for NoWallclock {
    fn id(&self) -> &'static str {
        "no-wallclock"
    }

    fn description(&self) -> &'static str {
        "deny Instant::now/SystemTime outside the bench harness"
    }

    fn check(&self, file: &SourceFile, out: &mut Vec<Diagnostic>) {
        if file.crate_kind == CrateKind::Bench || file.crate_name == "criterion" {
            return;
        }
        let toks = file.tokens();
        for (i, t) in toks.iter().enumerate() {
            let hit = t.is_ident("SystemTime")
                || (t.is_ident("Instant")
                    && toks.get(i + 1).is_some_and(|a| a.is_punct(':'))
                    && toks.get(i + 2).is_some_and(|a| a.is_punct(':'))
                    && toks.get(i + 3).is_some_and(|a| a.is_ident("now")));
            if hit {
                out.push(diag(
                    file,
                    self.id(),
                    t,
                    format!(
                        "{} reads the host clock; results must depend only on inputs — \
                         charge modeled cost to delorean_virt::HostClock, or move the \
                         measurement into delorean_bench",
                        t.text
                    ),
                ));
            }
        }
    }
}

/// `float-accum`: cross-unit float accumulation must flow through the
/// plan-ordered summation helpers (`sampling::reduce_region_units`
/// into `virt::HostClock`/`RunCost`), where the fold order is fixed
/// regardless of worker count. Detects compound assignment to
/// identifiers declared `f32`/`f64` in the same file, plus
/// `.sum::<f64>()`-style typed folds.
struct FloatAccum;

impl Rule for FloatAccum {
    fn id(&self) -> &'static str {
        "float-accum"
    }

    fn description(&self) -> &'static str {
        "deny ad-hoc float accumulation outside the fixed summation-tree helpers"
    }

    fn check(&self, file: &SourceFile, out: &mut Vec<Diagnostic>) {
        if !float_accum_binds(&file.crate_name) || file.class != FileClass::Lib {
            return;
        }
        let toks = file.tokens();
        for (i, t) in toks.iter().enumerate() {
            if file.in_test_region(t.line) {
                continue;
            }
            // `acc += x` / `-=` / `*=` / `/=` on a known-float target.
            if t.kind == TokKind::Ident
                && file.decls.floats.contains_key(&t.text)
                && toks.get(i + 1).is_some_and(|a| {
                    a.is_punct('+') || a.is_punct('-') || a.is_punct('*') || a.is_punct('/')
                })
                && toks.get(i + 2).is_some_and(|a| a.is_punct('='))
                && toks[i + 1].line == toks[i + 2].line
                && toks[i + 1].col + 1 == toks[i + 2].col
            {
                out.push(diag(
                    file,
                    self.id(),
                    t,
                    format!(
                        "compound float accumulation into `{}`; route cross-unit sums \
                         through the plan-ordered reduce_region_units/HostClock helpers or waive \
                         with a justification that the fold order is worker-count-invariant",
                        t.text
                    ),
                ));
            }
            // `.sum::<f64>()` / `.product::<f32>()`.
            if (t.is_ident("sum") || t.is_ident("product"))
                && i >= 1
                && toks[i - 1].is_punct('.')
                && toks.get(i + 1).is_some_and(|a| a.is_punct(':'))
                && toks.get(i + 2).is_some_and(|a| a.is_punct(':'))
                && toks.get(i + 3).is_some_and(|a| a.is_punct('<'))
                && toks
                    .get(i + 4)
                    .is_some_and(|a| a.is_ident("f64") || a.is_ident("f32"))
            {
                out.push(diag(
                    file,
                    self.id(),
                    t,
                    format!(
                        "iterator `.{}::<float>()` folds in iteration order; if the order \
                         is plan-fixed, waive with that justification, otherwise use the \
                         summation-tree helpers",
                        t.text
                    ),
                ));
            }
        }
    }
}

/// `safety-comment`: every `unsafe` keyword — block, fn, impl — must
/// sit next to a comment stating the upheld invariant: `// SAFETY:` (or
/// a `# Safety` doc section) on the same line, or in the comment block
/// directly above (attributes in between are fine).
struct SafetyComment;

impl Rule for SafetyComment {
    fn id(&self) -> &'static str {
        "safety-comment"
    }

    fn description(&self) -> &'static str {
        "every unsafe block/fn/impl requires an adjacent SAFETY comment"
    }

    fn check(&self, file: &SourceFile, out: &mut Vec<Diagnostic>) {
        for t in file.tokens() {
            if !t.is_ident("unsafe") {
                continue;
            }
            let ok = file.comment_adjacent(t.line, |c| {
                c.text.contains("SAFETY:") || c.text.contains("# Safety")
            });
            if !ok {
                out.push(diag(
                    file,
                    self.id(),
                    t,
                    "`unsafe` without an adjacent `// SAFETY:` comment (or `# Safety` doc \
                     section) stating the invariant the caller/block upholds"
                        .to_string(),
                ));
            }
        }
    }
}

/// `no-unwrap`: library code must surface failures through the typed
/// error contract (e.g. `TileError`), not abort the process. Binds to
/// `src/` library code of the hot and lib crates, outside
/// `#[cfg(test)]`; bins, tests, benches and the compat shims (which
/// mirror panicking third-party APIs) are exempt.
struct NoUnwrap;

impl Rule for NoUnwrap {
    fn id(&self) -> &'static str {
        "no-unwrap"
    }

    fn description(&self) -> &'static str {
        "deny unwrap()/expect()/panic! in library crates; use typed errors"
    }

    fn check(&self, file: &SourceFile, out: &mut Vec<Diagnostic>) {
        if !matches!(file.crate_kind, CrateKind::Hot | CrateKind::Lib)
            || file.class != FileClass::Lib
        {
            return;
        }
        let toks = file.tokens();
        for (i, t) in toks.iter().enumerate() {
            if file.in_test_region(t.line) {
                continue;
            }
            let method_call = |name: &str| {
                t.is_ident(name)
                    && i >= 1
                    && toks[i - 1].is_punct('.')
                    && toks.get(i + 1).is_some_and(|a| a.is_punct('('))
            };
            if method_call("unwrap") || method_call("expect") {
                out.push(diag(
                    file,
                    self.id(),
                    t,
                    format!(
                        "`.{}()` can abort the process; return a typed error, restructure \
                         so the invariant is expressed in the types, or waive with the \
                         invariant that makes failure impossible",
                        t.text
                    ),
                ));
            }
            if t.is_ident("panic") && toks.get(i + 1).is_some_and(|a| a.is_punct('!')) {
                out.push(diag(
                    file,
                    self.id(),
                    t,
                    "`panic!` in library code; return a typed error or waive with the \
                     invariant that makes this unreachable"
                        .to_string(),
                ));
            }
        }
    }
}

/// `lossy-cast`: in the hot crates, an `as` cast between integer types
/// must be provably lossless. Source widths come from same-file
/// declarations (`let`/params/fields/`fn ... -> u64` returns, plus
/// `len()`/`capacity()` builtins); `usize` counts as 64-bit as a source
/// and 32-bit as a destination, so `u64 as usize` — the PR 2
/// `size_hint` bug class — is lossy while `u32 as usize` is not.
/// Unknown-width sources are skipped: precision over recall.
struct LossyCast;

impl LossyCast {
    /// Width of the cast source ending at token index `i` (exclusive).
    fn source_width(file: &SourceFile, i: usize) -> Option<u32> {
        let toks = file.tokens();
        let prev = toks.get(i.checked_sub(1)?)?;
        match prev.kind {
            TokKind::Num => {
                let txt = &prev.text;
                [
                    "u8", "i8", "u16", "i16", "u32", "i32", "u64", "i64", "usize", "isize",
                ]
                .iter()
                .find(|s| txt.ends_with(*s))
                .and_then(|s| int_width_of(s))
            }
            TokKind::Ident => file.decls.int_width.get(&prev.text).copied(),
            TokKind::Punct if prev.is_punct(')') => {
                // Match back to the opening paren.
                let mut depth = 0usize;
                let mut j = i - 1;
                loop {
                    if toks[j].is_punct(')') {
                        depth += 1;
                    } else if toks[j].is_punct('(') {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    j = j.checked_sub(1)?;
                }
                // `f(...) as T` / `x.f(...) as T`: the call's return width.
                if j >= 1 && toks[j - 1].kind == TokKind::Ident {
                    return file.decls.fn_width.get(&toks[j - 1].text).copied();
                }
                // `(expr) as T`: the last inner cast decides, if any.
                let mut width = None;
                let mut d = 0usize;
                for k in j + 1..i - 1 {
                    if toks[k].is_punct('(') {
                        d += 1;
                    } else if toks[k].is_punct(')') {
                        d = d.saturating_sub(1);
                    } else if d == 0
                        && toks[k].is_ident("as")
                        && k + 1 < i - 1
                        && toks[k + 1].kind == TokKind::Ident
                    {
                        width = int_width_of(&toks[k + 1].text).or(width);
                    }
                }
                width
            }
            _ => None,
        }
    }
}

impl Rule for LossyCast {
    fn id(&self) -> &'static str {
        "lossy-cast"
    }

    fn description(&self) -> &'static str {
        "deny lossy `as` integer casts in hot crates; use delorean_trace::cast helpers"
    }

    fn check(&self, file: &SourceFile, out: &mut Vec<Diagnostic>) {
        if !lossy_cast_binds(&file.crate_name) || file.class != FileClass::Lib {
            return;
        }
        let toks = file.tokens();
        for (i, t) in toks.iter().enumerate() {
            if !t.is_ident("as") || file.in_test_region(t.line) {
                continue;
            }
            let Some(dest) = toks.get(i + 1) else {
                continue;
            };
            let Some(dw) = cast_dest_width(&dest.text) else {
                continue;
            };
            let Some(sw) = Self::source_width(file, i) else {
                continue;
            };
            if sw > dw {
                out.push(diag(
                    file,
                    self.id(),
                    t,
                    format!(
                        "lossy integer cast ({sw}-bit source `as {}`); use the checked or \
                         explicitly-truncating helpers in delorean_trace::cast, or waive \
                         with the bound that makes the value fit",
                        dest.text
                    ),
                ));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::crate_kind;

    fn check_src(package: &str, class: FileClass, src: &str) -> Vec<Diagnostic> {
        let file = SourceFile::analyze(
            "x.rs".into(),
            package.into(),
            crate_kind(package),
            class,
            src,
        );
        let mut out = Vec::new();
        for rule in registry() {
            rule.check(&file, &mut out);
        }
        out
    }

    fn rules_hit(d: &[Diagnostic]) -> Vec<&'static str> {
        d.iter().map(|d| d.rule).collect()
    }

    #[test]
    fn hashmap_flagged_in_hot_crate_only() {
        let src = "use std::collections::HashMap;\n";
        assert_eq!(
            rules_hit(&check_src("delorean_trace", FileClass::Lib, src)),
            ["no-std-hash"]
        );
        assert!(check_src("delorean_bench", FileClass::Lib, src).is_empty());
    }

    #[test]
    fn wallclock_flagged_outside_bench() {
        let src = "fn f() { let t = Instant::now(); }\n";
        assert_eq!(
            rules_hit(&check_src("delorean_cpu", FileClass::Lib, src)),
            ["no-wallclock"]
        );
        assert!(check_src("delorean_bench", FileClass::Lib, src).is_empty());
        assert!(check_src("criterion", FileClass::Lib, src).is_empty());
        // A plain `Instant` ident (e.g. storing one handed in) is fine.
        assert!(check_src("delorean_cpu", FileClass::Lib, "fn f(t: Instant) {}\n").is_empty());
    }

    #[test]
    fn float_accum_detection() {
        let src = "struct C { seconds: f64 }\nimpl C { fn add(&mut self, s: f64) { self.seconds += s; } }\n";
        assert_eq!(
            rules_hit(&check_src("delorean_virt", FileClass::Lib, src)),
            ["float-accum"]
        );
        // Integer accumulation is fine.
        let ints = "struct C { n: u64 }\nimpl C { fn add(&mut self) { self.n += 1; } }\n";
        assert!(check_src("delorean_virt", FileClass::Lib, ints).is_empty());
        // Typed float folds are flagged; statmodel is out of scope.
        let fold = "fn f(v: &[f64]) -> f64 { v.iter().sum::<f64>() }\n";
        assert_eq!(
            rules_hit(&check_src("delorean_core", FileClass::Lib, fold)),
            ["float-accum"]
        );
        assert!(check_src("delorean_statmodel", FileClass::Lib, fold).is_empty());
    }

    #[test]
    fn safety_comment_required() {
        let bad = "fn f(p: *const u8) { let _ = unsafe { *p }; }\n";
        assert_eq!(
            rules_hit(&check_src("memmap2", FileClass::Lib, bad)),
            ["safety-comment"]
        );
        let good = "fn f(p: *const u8) {\n    // SAFETY: p is valid for reads by contract\n    let _ = unsafe { *p };\n}\n";
        assert!(check_src("memmap2", FileClass::Lib, good).is_empty());
        let doc = "/// # Safety\n/// caller must own the slot\npub unsafe fn put() {}\n";
        assert!(check_src("rayon", FileClass::Lib, doc).is_empty());
    }

    #[test]
    fn unwrap_flagged_in_lib_code_only() {
        let src = "fn f(x: Option<u32>) -> u32 { x.unwrap() }\n";
        assert_eq!(
            rules_hit(&check_src("delorean_cache", FileClass::Lib, src)),
            ["no-unwrap"]
        );
        assert!(check_src("delorean_cache", FileClass::Tests, src).is_empty());
        assert!(check_src("rayon", FileClass::Lib, src).is_empty());
        let test_mod =
            "#[cfg(test)]\nmod tests {\n    fn f(x: Option<u32>) -> u32 { x.unwrap() }\n}\n";
        assert!(check_src("delorean_cache", FileClass::Lib, test_mod).is_empty());
        // unwrap_or and friends are not unwrap.
        assert!(check_src(
            "delorean_cache",
            FileClass::Lib,
            "fn f(x: Option<u32>) -> u32 { x.unwrap_or(0) }\n"
        )
        .is_empty());
    }

    #[test]
    fn panic_flagged() {
        let src = "fn f() { panic!(\"boom\"); }\n";
        assert_eq!(
            rules_hit(&check_src("delorean_sampling", FileClass::Lib, src)),
            ["no-unwrap"]
        );
    }

    #[test]
    fn lossy_cast_width_inference() {
        // Known 64-bit source into usize: lossy (usize may be 32-bit).
        let src = "fn f(k: u64) -> usize { k as usize }\n";
        assert_eq!(
            rules_hit(&check_src("delorean_trace", FileClass::Lib, src)),
            ["lossy-cast"]
        );
        // u32 into usize is lossless.
        assert!(check_src(
            "delorean_trace",
            FileClass::Lib,
            "fn f(k: u32) -> usize { k as usize }\n"
        )
        .is_empty());
        // len() is a known 64-bit builtin.
        assert_eq!(
            rules_hit(&check_src(
                "delorean_cache",
                FileClass::Lib,
                "fn f(v: &[u8]) -> u32 { v.len() as u32 }\n"
            )),
            ["lossy-cast"]
        );
        // Parenthesized expression: the inner cast decides.
        assert_eq!(
            rules_hit(&check_src(
                "delorean_trace",
                FileClass::Lib,
                "fn f(a: u32, b: u32) -> usize { (a as u64 * b as u64) as usize }\n"
            )),
            ["lossy-cast"]
        );
        // Unknown width: skipped.
        assert!(check_src(
            "delorean_trace",
            FileClass::Lib,
            "fn f(k: Mystery) -> usize { k.get() as usize }\n"
        )
        .is_empty());
        // Widening is fine.
        assert!(check_src(
            "delorean_trace",
            FileClass::Lib,
            "fn f(k: u32) -> u64 { k as u64 }\n"
        )
        .is_empty());
        // Out of scope crate: skipped.
        assert!(check_src(
            "delorean_core",
            FileClass::Lib,
            "fn f(k: u64) -> usize { k as usize }\n"
        )
        .is_empty());
    }
}
