//! The rule engine: the `hot-path-alloc` check over the token stream.
//!
//! No allocating construct (`Vec::new`, `vec!`, `format!`, `.collect()`,
//! `.clone()`, …) may appear inside a function marked `// lint: hot-path`
//! (see the README "Correctness tooling" section for the policy). No
//! compiler lint can see that a function is hot, so this one rule stays
//! lexical; the workspace's other contracts are clippy lints and tests.
//!
//! Any diagnostic can be suppressed with a justified
//! `// lint:allow(rule): <why>` comment on the offending line or the line
//! above it. Suppressions without a justification, and suppressions that
//! never fire, are themselves errors — so the allow-list can only shrink.
//!
//! The engine is lexical by design (the workspace is dependency-free, so
//! there is no `syn` to build an AST with): a cold arm of a hot function
//! that allocates on purpose documents itself with a suppression.

use crate::lexer::{lex, Comment, LexOutput, Token, TokenKind};
use std::fmt;

/// Base names of the modules whose hot paths carry `// lint: hot-path`
/// markers. The `hot-path-alloc` rule fires in any marked function, but a
/// marker outside these files is reported so the list stays deliberate.
const HOT_PATH_FILES: &[&str] = &[
    "hlh.rs",
    "support.rs",
    "season.rs",
    "miner.rs",
    "streaming.rs",
];

/// Method names whose receiver allocates on the hot path.
const ALLOC_METHODS: &[&str] = &[
    "collect",
    "to_vec",
    "clone",
    "cloned",
    "to_owned",
    "to_string",
];
/// Macros that allocate.
const ALLOC_MACROS: &[&str] = &["format", "vec"];

/// One finding, pointing at a source position.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Path the finding was produced for (as given to the engine).
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
    /// Rule identifier (e.g. `hot-path-alloc`).
    pub rule: &'static str,
    /// Human-readable description of the violation.
    pub message: String,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}:{}: [{}] {}",
            self.file, self.line, self.col, self.rule, self.message
        )
    }
}

/// A parsed `// lint:allow(rule, …): justification` comment.
#[derive(Debug)]
struct Suppression {
    line: u32,
    rules: Vec<String>,
    justified: bool,
    used: bool,
}

/// A parsed `// lint: hot-path` marker awaiting its function.
#[derive(Debug)]
struct HotMarker {
    line: u32,
    consumed: bool,
}

/// What the brace stack holds: a function body (hot or not) or an anonymous
/// block (closures, match arms and loop bodies belong to the enclosing
/// function).
#[derive(Debug, Clone, Copy)]
enum Scope {
    Function { hot: bool },
    Block,
}

/// Lints one source file. `file` is only used for reporting and for the
/// base-name check of hot-path markers; `source` is the file contents.
#[must_use]
pub fn lint_source(file: &str, source: &str) -> Vec<Diagnostic> {
    let lexed = lex(source);
    Engine::new(file, &lexed).run()
}

fn base_name(file: &str) -> &str {
    file.rsplit(['/', '\\']).next().unwrap_or(file)
}

struct Engine<'a> {
    file: &'a str,
    base: &'a str,
    tokens: &'a [Token],
    comments: &'a [Comment],
    suppressions: Vec<Suppression>,
    hot_markers: Vec<HotMarker>,
    diags: Vec<Diagnostic>,
}

impl<'a> Engine<'a> {
    fn new(file: &'a str, lexed: &'a LexOutput) -> Self {
        Engine {
            file,
            base: base_name(file),
            tokens: &lexed.tokens,
            comments: &lexed.comments,
            suppressions: Vec::new(),
            hot_markers: Vec::new(),
            diags: Vec::new(),
        }
    }

    fn run(mut self) -> Vec<Diagnostic> {
        self.parse_comments();
        self.walk();
        self.finish_markers();
        self.apply_suppressions()
    }

    fn emit(&mut self, token: &Token, rule: &'static str, message: String) {
        self.diags.push(Diagnostic {
            file: self.file.to_string(),
            line: token.line,
            col: token.col,
            rule,
            message,
        });
    }

    // ---- comment directives -------------------------------------------

    fn parse_comments(&mut self) {
        for c in self.comments {
            let text = c.text.trim();
            if let Some(rest) = text.strip_prefix("lint:allow(") {
                let Some(close) = rest.find(')') else {
                    self.diags.push(Diagnostic {
                        file: self.file.to_string(),
                        line: c.line,
                        col: 1,
                        rule: "suppression-syntax",
                        message: "malformed `lint:allow` — missing `)`".into(),
                    });
                    continue;
                };
                let rules: Vec<String> = rest[..close]
                    .split(',')
                    .map(|r| r.trim().to_string())
                    .filter(|r| !r.is_empty())
                    .collect();
                let tail = rest[close + 1..].trim_start();
                let justified = tail.strip_prefix(':').is_some_and(|j| !j.trim().is_empty());
                if !justified {
                    self.diags.push(Diagnostic {
                        file: self.file.to_string(),
                        line: c.line,
                        col: 1,
                        rule: "suppression-syntax",
                        message: "`lint:allow` requires a justification: \
                                  `// lint:allow(rule): <why this is sound>`"
                            .into(),
                    });
                }
                self.suppressions.push(Suppression {
                    line: c.line,
                    rules,
                    justified,
                    used: false,
                });
            } else if text == "lint: hot-path" {
                self.hot_markers.push(HotMarker {
                    line: c.line,
                    consumed: false,
                });
                if !HOT_PATH_FILES.contains(&self.base) && !self.base.starts_with("fixture_") {
                    self.diags.push(Diagnostic {
                        file: self.file.to_string(),
                        line: c.line,
                        col: 1,
                        rule: "hot-path-alloc",
                        message: format!(
                            "`lint: hot-path` marker in `{}`, which is not a registered \
                             hot-path module — extend HOT_PATH_FILES in stpm-lint deliberately",
                            self.base
                        ),
                    });
                }
            } else if text.starts_with("lint:") || text.starts_with("lint ") {
                self.diags.push(Diagnostic {
                    file: self.file.to_string(),
                    line: c.line,
                    col: 1,
                    rule: "suppression-syntax",
                    message: format!("unrecognised lint directive: `//{}`", c.text),
                });
            }
        }
    }

    // ---- main walk ----------------------------------------------------

    fn walk(&mut self) {
        let t = self.tokens;
        let mut stack: Vec<Scope> = Vec::new();
        // `Some(hot)` between a `fn` name and its body's opening brace.
        let mut pending_fn: Option<bool> = None;
        // Bracket depth inside a pending `fn` signature, so the `;` of an
        // array type in the parameter list (`[u8; 4]`) is not mistaken for
        // the end of a bodyless trait-method declaration.
        let mut sig_depth = 0usize;

        for i in 0..t.len() {
            let tok = &t[i];

            // --- function tracking ---
            if tok.is_ident("fn") && i + 1 < t.len() && t[i + 1].kind == TokenKind::Ident {
                pending_fn = Some(self.take_hot_marker(tok.line));
                sig_depth = 0;
            } else if tok.is_punct('{') {
                match pending_fn.take() {
                    Some(hot) => stack.push(Scope::Function { hot }),
                    None => stack.push(Scope::Block),
                }
            } else if tok.is_punct('}') {
                stack.pop();
            } else if pending_fn.is_some() {
                if tok.is_punct('(') || tok.is_punct('[') {
                    sig_depth += 1;
                } else if tok.is_punct(')') || tok.is_punct(']') {
                    sig_depth = sig_depth.saturating_sub(1);
                } else if tok.is_punct(';') && sig_depth == 0 {
                    // A trait-method declaration ends without a body.
                    pending_fn = None;
                }
            }

            let hot = stack.iter().rev().find_map(|s| match s {
                Scope::Function { hot } => Some(*hot),
                Scope::Block => None,
            });
            if hot == Some(true) {
                self.check_hot_alloc(i);
            }
        }
    }

    fn take_hot_marker(&mut self, fn_line: u32) -> bool {
        for m in &mut self.hot_markers {
            if !m.consumed && m.line < fn_line {
                m.consumed = true;
                return true;
            }
        }
        false
    }

    fn check_hot_alloc(&mut self, i: usize) {
        let t = self.tokens;
        let tok = &t[i];
        if tok.kind != TokenKind::Ident {
            return;
        }
        let next = t.get(i + 1);
        let next2 = t.get(i + 2);
        let next3 = t.get(i + 3);
        // `Vec::new`, `Vec::with_capacity`, `Box::new`, `String::new`…
        if matches!(
            tok.text.as_str(),
            "Vec" | "Box" | "String" | "BTreeMap" | "HashMap" | "FxHashMap"
        ) && next.is_some_and(|n| n.is_punct(':'))
            && next2.is_some_and(|n| n.is_punct(':'))
        {
            if let Some(m) = next3 {
                if matches!(
                    m.text.as_str(),
                    "new" | "with_capacity" | "from" | "default"
                ) {
                    let (ty, method) = (tok.text.clone(), m.text.clone());
                    self.emit(
                        tok,
                        "hot-path-alloc",
                        format!("`{ty}::{method}` allocates inside a `lint: hot-path` function"),
                    );
                    return;
                }
            }
        }
        // allocating macros: `format!`, `vec!`
        if ALLOC_MACROS.contains(&tok.text.as_str()) && next.is_some_and(|n| n.is_punct('!')) {
            let name = tok.text.clone();
            self.emit(
                tok,
                "hot-path-alloc",
                format!("`{name}!` allocates inside a `lint: hot-path` function"),
            );
            return;
        }
        // allocating methods: `.collect()`, `.to_vec()`, `.clone()`…
        if ALLOC_METHODS.contains(&tok.text.as_str())
            && i > 0
            && t[i - 1].is_punct('.')
            && next.is_some_and(|n| n.is_punct('('))
        {
            let name = tok.text.clone();
            self.emit(
                tok,
                "hot-path-alloc",
                format!("`.{name}()` allocates inside a `lint: hot-path` function"),
            );
        }
    }

    // ---- wrap-up ------------------------------------------------------

    fn finish_markers(&mut self) {
        let unconsumed: Vec<u32> = self
            .hot_markers
            .iter()
            .filter(|m| !m.consumed)
            .map(|m| m.line)
            .collect();
        for line in unconsumed {
            self.diags.push(Diagnostic {
                file: self.file.to_string(),
                line,
                col: 1,
                rule: "hot-path-alloc",
                message: "`lint: hot-path` marker is not followed by a function".into(),
            });
        }
    }

    /// Applies suppressions: a diagnostic on line `L` is silenced by a
    /// justified `lint:allow` naming its rule on line `L` or `L - 1`.
    /// Unused suppressions become diagnostics of their own.
    fn apply_suppressions(mut self) -> Vec<Diagnostic> {
        let mut kept = Vec::new();
        for d in std::mem::take(&mut self.diags) {
            if d.rule == "suppression-syntax" || d.rule == "unused-suppression" {
                kept.push(d);
                continue;
            }
            // Same-line suppressions take precedence over previous-line
            // ones, so adjacent annotated lines each consume their own.
            let matches_at = |s: &Suppression, line: u32| {
                s.justified && s.line == line && s.rules.iter().any(|r| r == d.rule)
            };
            let suppressed = match self
                .suppressions
                .iter_mut()
                .position(|s| matches_at(s, d.line))
            {
                Some(i) => Some(i),
                None => self
                    .suppressions
                    .iter_mut()
                    .position(|s| d.line > 0 && matches_at(s, d.line - 1)),
            }
            .map(|i| &mut self.suppressions[i]);
            match suppressed {
                Some(s) => s.used = true,
                None => kept.push(d),
            }
        }
        for s in &self.suppressions {
            if s.justified && !s.used {
                kept.push(Diagnostic {
                    file: self.file.to_string(),
                    line: s.line,
                    col: 1,
                    rule: "unused-suppression",
                    message: format!(
                        "`lint:allow({})` does not suppress anything — remove it",
                        s.rules.join(", ")
                    ),
                });
            }
        }
        kept.sort_by_key(|a| (a.line, a.col));
        kept
    }
}
