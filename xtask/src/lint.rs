//! The lint rules, written as pure functions over `(path, content)` so
//! the test suite can feed synthetic sources (including deliberately
//! seeded violations) without touching the filesystem.
//!
//! Four rules, mechanically enforcing what the `noc-units` type system
//! cannot:
//!
//! 1. **`f64-api`** — no bare `f64` in `pub fn` signatures or `pub`
//!    struct fields of the unit-bearing crates. Genuinely dimensionless
//!    values (fractions, ratios, weights) and documented raw-numeric
//!    seams are exempted with an inline marker.
//! 2. **`hash-container`** — no `std::collections::HashMap`/`HashSet` in
//!    deterministic result paths: their iteration order is a latent
//!    nondeterminism bug. Lookup-only maps that are never iterated may be
//!    exempted with a marker.
//! 3. **`wall-clock`** — no `Instant::now` outside the probe/timing
//!    seams; wall-clock reads anywhere else leak nondeterminism into
//!    results.
//! 4. **`raw-guard`** — every `pub fn raw(` constructor in `noc-units`
//!    must `debug_assert!` its invariant within its body, so the
//!    NaN-freedom guards cannot silently rot.
//!
//! # Allowlist policy
//!
//! A finding is suppressed by a marker comment on the offending line or
//! the line directly above: `// lint: allow(<rule>) — <reason>`. A
//! whole file opts out of one rule with `// lint: allow-file(<rule>) —
//! <reason>` anywhere in the file. The reason is mandatory by
//! convention (reviewed, not parsed). Test modules (`#[cfg(test)]`) and
//! comment/doc lines are out of scope for rules 1–3.

/// One lint finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Repo-relative path of the offending file.
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// Rule identifier (`f64-api`, `hash-container`, `wall-clock`,
    /// `raw-guard`).
    pub rule: &'static str,
    /// Human-readable description.
    pub message: String,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}:{}: [{}] {}", self.file, self.line, self.rule, self.message)
    }
}

/// Lints one source file; `path` is repo-relative with `/` separators.
pub fn lint_file(path: &str, content: &str) -> Vec<Violation> {
    let mut out = Vec::new();
    if in_scope_for_api_rules(path) {
        check_f64_api(path, content, &mut out);
        check_hash_container(path, content, &mut out);
        check_wall_clock(path, content, &mut out);
    }
    if path.starts_with("crates/units/src/") {
        check_raw_guard(path, content, &mut out);
    }
    out
}

/// The crates rules 1–3 apply to: the unit-bearing crates plus the LP
/// solver (whose tableaux sit on every deterministic result path; its
/// dimensionless `f64` API is opted out per file, keeping the
/// hash-container and wall-clock rules in force). Consumers
/// (experiments, baselines, the vendored shims) and the probe
/// crate (a timing seam by design) are out of scope.
fn in_scope_for_api_rules(path: &str) -> bool {
    [
        "crates/graph/src/",
        "crates/core/src/",
        "crates/sim/src/",
        "crates/dse/src/",
        "crates/lp/src/",
    ]
    .iter()
    .any(|p| path.starts_with(p))
}

/// Lines at or past the first `#[cfg(test)]` are test scope (the
/// workspace convention keeps test modules at the bottom of each file).
fn test_scope_start(lines: &[&str]) -> usize {
    lines.iter().position(|l| l.trim_start().starts_with("#[cfg(test)]")).unwrap_or(lines.len())
}

/// True when line `i` (0-based) is exempted from `rule` by a marker on
/// the line itself, anywhere in the contiguous comment/attribute block
/// directly above it, or file-wide.
fn allowed(lines: &[&str], i: usize, rule: &str, file_allows: &[String]) -> bool {
    if file_allows.iter().any(|r| r == rule) {
        return true;
    }
    let marker = format!("lint: allow({rule})");
    if lines[i].contains(&marker) {
        return true;
    }
    let mut j = i;
    while j > 0 {
        j -= 1;
        let t = lines[j].trim_start();
        if t.starts_with("//") || t.starts_with("#[") || t.starts_with("/*") || t.starts_with('*') {
            if lines[j].contains(&marker) {
                return true;
            }
        } else {
            break;
        }
    }
    false
}

/// Collects the file-wide `lint: allow-file(<rule>)` directives.
fn file_allows(lines: &[&str]) -> Vec<String> {
    let mut rules = Vec::new();
    for l in lines {
        if let Some(rest) = l.split("lint: allow-file(").nth(1) {
            if let Some(rule) = rest.split(')').next() {
                rules.push(rule.to_string());
            }
        }
    }
    rules
}

/// True for lines that are entirely comment or doc text.
fn is_comment(line: &str) -> bool {
    let t = line.trim_start();
    t.starts_with("//") || t.starts_with("/*") || t.starts_with('*')
}

/// Strips a trailing `// ...` comment so tokens in prose don't count.
fn code_of(line: &str) -> &str {
    match line.find("//") {
        Some(i) => &line[..i],
        None => line,
    }
}

/// Rule 1: bare `f64` in public signatures — `pub fn` parameter/return
/// types and `pub` struct fields.
fn check_f64_api(path: &str, content: &str, out: &mut Vec<Violation>) {
    let lines: Vec<&str> = content.lines().collect();
    let limit = test_scope_start(&lines);
    let allows = file_allows(&lines);
    let mut i = 0;
    while i < limit {
        let line = lines[i];
        if is_comment(line) {
            i += 1;
            continue;
        }
        let code = code_of(line);
        // Public function signatures (possibly spanning lines): scan from
        // the `pub fn` line to the body `{` or declaration `;`.
        if code.contains("pub fn ") {
            let start = i;
            let mut sig = String::new();
            while i < limit {
                let c = code_of(lines[i]);
                sig.push_str(c);
                sig.push(' ');
                if c.contains('{') || c.trim_end().ends_with(';') {
                    break;
                }
                i += 1;
            }
            let sig = sig.split('{').next().unwrap_or(&sig);
            if has_f64_token(sig) && !allowed(&lines, start, "f64-api", &allows) {
                out.push(Violation {
                    file: path.to_string(),
                    line: start + 1,
                    rule: "f64-api",
                    message: format!(
                        "bare `f64` in public signature `{}` — use a noc-units quantity, or mark \
                         a dimensionless value with `// lint: allow(f64-api) — <reason>`",
                        code.trim()
                    ),
                });
            }
            i += 1;
            continue;
        }
        // Public struct fields: `pub name: ...f64...`.
        if is_pub_field(code) && has_f64_token(code) && !allowed(&lines, i, "f64-api", &allows) {
            out.push(Violation {
                file: path.to_string(),
                line: i + 1,
                rule: "f64-api",
                message: format!(
                    "bare `f64` in public field `{}` — use a noc-units quantity, or mark a \
                     dimensionless value with `// lint: allow(f64-api) — <reason>`",
                    code.trim()
                ),
            });
        }
        i += 1;
    }
}

/// True for a `pub <name>: <type>` struct-field line (not `pub fn`,
/// `pub struct`, `pub const`, ...).
fn is_pub_field(code: &str) -> bool {
    let t = code.trim_start();
    let Some(rest) = t.strip_prefix("pub ") else { return false };
    for kw in ["fn ", "struct ", "enum ", "const ", "static ", "mod ", "use ", "type ", "trait "] {
        if rest.starts_with(kw) {
            return false;
        }
    }
    // A field line has `name: Type` before any `=` (consts are filtered
    // above; this keeps `pub x: f64,` and rejects expressions).
    rest.split('=').next().is_some_and(|head| head.contains(':'))
}

/// True when `f64` appears as a standalone token (not `to_f64`,
/// `fmt_f64`, `as_f64`, ...).
fn has_f64_token(code: &str) -> bool {
    let bytes = code.as_bytes();
    let mut from = 0;
    while let Some(pos) = code[from..].find("f64") {
        let i = from + pos;
        let before_ok = i == 0 || {
            let b = bytes[i - 1];
            !(b.is_ascii_alphanumeric() || b == b'_')
        };
        let after = i + 3;
        let after_ok = after >= bytes.len() || {
            let b = bytes[after];
            !(b.is_ascii_alphanumeric() || b == b'_')
        };
        if before_ok && after_ok {
            return true;
        }
        from = after;
    }
    false
}

/// Rule 2: `HashMap`/`HashSet` in deterministic result paths.
fn check_hash_container(path: &str, content: &str, out: &mut Vec<Violation>) {
    let lines: Vec<&str> = content.lines().collect();
    let limit = test_scope_start(&lines);
    let allows = file_allows(&lines);
    for (i, line) in lines.iter().enumerate().take(limit) {
        if is_comment(line) {
            continue;
        }
        let code = code_of(line);
        for token in ["HashMap", "HashSet"] {
            if code.contains(token) && !allowed(&lines, i, "hash-container", &allows) {
                out.push(Violation {
                    file: path.to_string(),
                    line: i + 1,
                    rule: "hash-container",
                    message: format!(
                        "`{token}` in a deterministic result path (iteration order is \
                         unspecified) — use `BTreeMap`/`BTreeSet`, or mark a never-iterated \
                         lookup with `// lint: allow(hash-container) — <reason>`"
                    ),
                });
                break;
            }
        }
    }
}

/// Rule 3: `Instant::now` outside the probe/timing seams.
fn check_wall_clock(path: &str, content: &str, out: &mut Vec<Violation>) {
    let lines: Vec<&str> = content.lines().collect();
    let limit = test_scope_start(&lines);
    let allows = file_allows(&lines);
    for (i, line) in lines.iter().enumerate().take(limit) {
        if is_comment(line) {
            continue;
        }
        if code_of(line).contains("Instant::now") && !allowed(&lines, i, "wall-clock", &allows) {
            out.push(Violation {
                file: path.to_string(),
                line: i + 1,
                rule: "wall-clock",
                message: "`Instant::now` outside the probe/timing seams leaks wall-clock \
                          nondeterminism into results — route timing through `StageTimes`/the \
                          probe, or mark a timing seam with `// lint: allow(wall-clock) — \
                          <reason>`"
                    .to_string(),
            });
        }
    }
}

/// Rule 4: every `pub fn raw(` in `noc-units` must `debug_assert!` its
/// invariant within the next few lines (the NaN-freedom guard).
fn check_raw_guard(path: &str, content: &str, out: &mut Vec<Violation>) {
    const WINDOW: usize = 8;
    let lines: Vec<&str> = content.lines().collect();
    for (i, line) in lines.iter().enumerate() {
        if is_comment(line) || !code_of(line).contains("pub fn raw(") {
            continue;
        }
        let guarded = lines[i..lines.len().min(i + WINDOW)]
            .iter()
            .any(|l| code_of(l).contains("debug_assert!"));
        if !guarded {
            out.push(Violation {
                file: path.to_string(),
                line: i + 1,
                rule: "raw-guard",
                message: "`pub fn raw(` without a `debug_assert!` guard in its body — the \
                          trusted constructor must debug-assert its invariant"
                    .to_string(),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const IN_SCOPE: &str = "crates/core/src/seeded.rs";

    fn rules_of(violations: &[Violation]) -> Vec<&'static str> {
        violations.iter().map(|v| v.rule).collect()
    }

    #[test]
    fn seeded_f64_signature_is_caught() {
        // The negative test the acceptance criteria call for: a seeded
        // violation must fail the lint.
        let src = "pub fn comm_cost(&self) -> f64 {\n    0.0\n}\n";
        let v = lint_file(IN_SCOPE, src);
        assert_eq!(rules_of(&v), ["f64-api"], "{v:?}");
        assert_eq!(v[0].line, 1);
    }

    #[test]
    fn seeded_f64_field_is_caught() {
        let src = "pub struct R {\n    pub comm_cost: f64,\n}\n";
        let v = lint_file(IN_SCOPE, src);
        assert_eq!(rules_of(&v), ["f64-api"]);
        assert_eq!(v[0].line, 2);
    }

    #[test]
    fn multi_line_signatures_are_scanned_to_the_body() {
        let src = "pub fn route(\n    &self,\n    rate: f64,\n) -> usize {\n";
        assert_eq!(rules_of(&lint_file(IN_SCOPE, src)), ["f64-api"]);
    }

    #[test]
    fn marker_and_file_directives_suppress() {
        let inline = "// lint: allow(f64-api) — dimensionless fraction\npub fn frac() -> f64;\n";
        assert!(lint_file(IN_SCOPE, inline).is_empty());
        let same_line = "pub frac: f64, // lint: allow(f64-api) — dimensionless\n";
        assert!(lint_file(IN_SCOPE, &format!("pub struct S {{\n{same_line}}}\n")).is_empty());
        let file_wide = "// lint: allow-file(f64-api) — raw numeric seam\npub fn x() -> f64;\n";
        assert!(lint_file(IN_SCOPE, file_wide).is_empty());
    }

    #[test]
    fn non_api_f64_is_fine() {
        let src = "fn private(x: f64) -> f64 { x }\nlet y: f64 = 0.0;\n";
        assert!(lint_file(IN_SCOPE, src).is_empty());
        // `to_f64`/`as_f64` calls are not the `f64` token.
        let src = "pub fn show(&self) -> String { format!(\"{}\", self.0.to_f64()) }\n";
        assert!(lint_file(IN_SCOPE, src).is_empty());
    }

    #[test]
    fn test_modules_and_comments_are_out_of_scope() {
        let src = "/// Returns f64 things.\n#[cfg(test)]\nmod tests {\n    pub fn x() -> f64 { \
                   0.0 }\n    use std::collections::HashMap;\n}\n";
        assert!(lint_file(IN_SCOPE, src).is_empty());
    }

    #[test]
    fn out_of_scope_crates_are_ignored() {
        let src = "pub fn comm_cost(&self) -> f64;\nuse std::collections::HashMap;\n";
        assert!(lint_file("crates/experiments/src/fig3.rs", src).is_empty());
        assert!(lint_file("crates/probe/src/lib.rs", src).is_empty());
        assert!(lint_file("vendor/rand/src/lib.rs", src).is_empty());
    }

    #[test]
    fn seeded_hash_container_is_caught_and_markable() {
        let src = "use std::collections::HashMap;\n";
        assert_eq!(rules_of(&lint_file(IN_SCOPE, src)), ["hash-container"]);
        let marked =
            "// lint: allow(hash-container) — lookup-only\nuse std::collections::HashMap;\n";
        assert!(lint_file(IN_SCOPE, marked).is_empty());
        assert_eq!(rules_of(&lint_file(IN_SCOPE, "let s = HashSet::new();\n")), ["hash-container"]);
    }

    #[test]
    fn seeded_wall_clock_is_caught_and_markable() {
        let src = "let t = Instant::now();\n";
        assert_eq!(rules_of(&lint_file(IN_SCOPE, src)), ["wall-clock"]);
        let marked = "let t = Instant::now(); // lint: allow(wall-clock) — timing seam\n";
        assert!(lint_file(IN_SCOPE, marked).is_empty());
    }

    #[test]
    fn seeded_unguarded_raw_constructor_is_caught() {
        let good = "impl Q {\n    pub fn raw(v: f64) -> Self {\n        \
                    debug_assert!(v.is_finite());\n        Self(v)\n    }\n}\n";
        assert!(lint_file("crates/units/src/lib.rs", good).is_empty());
        let bad = "impl Q {\n    pub fn raw(v: f64) -> Self {\n        Self(v)\n    }\n}\n";
        assert_eq!(rules_of(&lint_file("crates/units/src/lib.rs", bad)), ["raw-guard"]);
        // The rule only applies to the units crate (the same snippet in
        // core scope trips `f64-api` instead, not `raw-guard`).
        assert!(!rules_of(&lint_file(IN_SCOPE, bad)).contains(&"raw-guard"));
    }

    #[test]
    fn sharded_sweep_modules_are_in_scope() {
        // The PR-9 stage-cache and shard modules sit squarely on
        // deterministic result paths (cache keys, checkpoint manifests,
        // restored records), so the hash-container and wall-clock rules
        // must cover them — pin that a scope refactor cannot drop them.
        for path in ["crates/dse/src/cache.rs", "crates/dse/src/shard.rs"] {
            let src = "use std::collections::HashMap;\nlet t = Instant::now();\n";
            assert_eq!(rules_of(&lint_file(path, src)), ["hash-container", "wall-clock"], "{path}");
        }
    }

    #[test]
    fn lp_modules_are_in_scope() {
        // The solver feeds every split routing result, so the
        // determinism rules (hash-container, wall-clock) must cover it —
        // pin that a scope refactor cannot drop the crate. Its `f64` API
        // stays legal only through explicit per-file `allow-file(f64-api)`
        // markers. Every pinned file must exist, so a deletion cannot
        // leave a stale pin behind.
        let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
        for path in ["crates/lp/src/lib.rs", "crates/lp/src/problem.rs", "crates/lp/src/simplex.rs"]
        {
            assert!(root.join(path).is_file(), "{path} is pinned but does not exist");
            let src = "use std::collections::HashMap;\nlet t = Instant::now();\npub fn x() -> \
                       f64;\n";
            assert_eq!(
                rules_of(&lint_file(path, src)),
                ["f64-api", "hash-container", "wall-clock"],
                "{path}"
            );
        }
    }

    #[test]
    fn violations_render_location_and_rule() {
        let v = &lint_file(IN_SCOPE, "pub fn x() -> f64;\n")[0];
        let shown = v.to_string();
        assert!(shown.contains("crates/core/src/seeded.rs:1"), "{shown}");
        assert!(shown.contains("[f64-api]"), "{shown}");
    }
}
