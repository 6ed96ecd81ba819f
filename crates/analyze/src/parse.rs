//! A lenient recursive-descent parser over the [`crate::lexer`] token
//! stream.
//!
//! The dataflow rules ([`crate::taint`]) and the concurrency rule family
//! ([`crate::rules`]) need more structure than a token stream — which
//! call feeds which binding, which closure is an argument to which
//! method, where a function's result expression is — but far less than
//! full Rust. This parser produces exactly that middle layer: a tree of
//! **items** (functions, impls, mods; everything else is skipped with
//! balanced-delimiter recovery) whose function bodies are trees of
//! **expressions** in a deliberately small vocabulary: paths, calls,
//! method calls, closures, `unsafe` blocks, blocks, casts, `for` loops,
//! and an order-preserving catch-all sequence node.
//!
//! Three design rules keep it honest (DESIGN.md §13):
//!
//! 1. **Lenient, never stuck.** Every loop consumes at least one token
//!    on every iteration; malformed or unsupported syntax degrades into
//!    [`ExprKind::Seq`] / [`ItemKind::Other`] rather than an error. A
//!    linter must not crash on the code it scans.
//! 2. **Union semantics downstream.** The taint analysis unions over
//!    children, so operator *precedence is irrelevant* — `a + b * c`
//!    and `(a + b) * c` carry identical taint. Binary operators
//!    therefore fold into a flat [`ExprKind::Seq`] with no precedence
//!    climbing at all.
//! 3. **Not full Rust.** Macros bodies are token soup parsed as
//!    expressions, patterns are parsed as expressions (their idents
//!    *should* read the scrutinee's taint, so this over-approximation
//!    points the safe direction), and struct literals become
//!    `Seq[path, block]`. The soundness caveats are listed in
//!    DESIGN.md §13.

use crate::lexer::{Token, TokenKind};

/// A parsed source file: its top-level items.
#[derive(Debug)]
pub struct File {
    /// Top-level items in source order.
    pub items: Vec<Item>,
}

/// One item (function, mod, impl, or an opaque "other").
#[derive(Debug)]
pub struct Item {
    /// 1-based line of the item's first token.
    pub line: u32,
    /// Whether an attribute on this item contained the bare ident
    /// `test` (`#[test]`, `#[cfg(test)]`, `#[cfg(all(test, …))]`).
    pub cfg_test: bool,
    /// What the item is.
    pub kind: ItemKind,
}

/// Item discriminant.
#[derive(Debug)]
pub enum ItemKind {
    /// `fn` item (free, impl method, or trait method).
    Fn(FnItem),
    /// `mod name { … }` (inline only; `mod name;` becomes `Other`).
    Mod {
        /// Module name.
        name: String,
        /// Items inside the module body.
        items: Vec<Item>,
    },
    /// `impl … { … }` / `trait … { … }` — a container of methods.
    Impl {
        /// Best-effort self type / trait name (last path ident before
        /// the body brace, generics stripped).
        self_ty: String,
        /// Items inside the body.
        items: Vec<Item>,
    },
    /// Anything else (`struct`, `use`, `static`, …), skipped balanced.
    Other,
}

/// One `fn` item.
#[derive(Debug)]
pub struct FnItem {
    /// Function name.
    pub name: String,
    /// Has a `pub` / `pub(…)` visibility.
    pub is_pub: bool,
    /// Parameter binding names, best effort (`self` included; nested
    /// tuple-pattern bindings are missed).
    pub params: Vec<String>,
    /// The body; `None` for bodiless trait-method signatures.
    pub body: Option<Block>,
    /// Has a `-> Ret` return type (unit-returning fns are not flagged
    /// by the return-taint sink).
    pub returns_value: bool,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
}

/// `{ … }`: statements plus an optional tail expression.
#[derive(Debug)]
pub struct Block {
    /// Statements in source order.
    pub stmts: Vec<Stmt>,
    /// Trailing expression (no `;`), the block's value.
    pub tail: Option<Box<Expr>>,
    /// 1-based line of the opening brace.
    pub line: u32,
}

/// One statement.
#[derive(Debug)]
pub enum Stmt {
    /// `let <pat>(: <ty>)? = <init>;`
    Let {
        /// Every ident in the pattern/type region (over-approximate:
        /// all of them read the initializer for taint purposes).
        names: Vec<String>,
        /// Initializer, when present.
        init: Option<Expr>,
        /// 1-based line of the `let`.
        line: u32,
    },
    /// An expression statement (with or without `;`).
    Expr(Expr),
    /// `return <expr>?;`
    Return(Option<Expr>, u32),
    /// A nested item (fn-in-fn, test mods, …).
    Item(Item),
}

/// One expression node.
#[derive(Debug)]
pub struct Expr {
    /// 1-based line of the expression's first token.
    pub line: u32,
    /// Expression discriminant.
    pub kind: ExprKind,
}

/// Expression discriminant — the small vocabulary the rules consume.
#[derive(Debug)]
pub enum ExprKind {
    /// `a::b::c` (turbofish stripped); locals are single-segment.
    Path(Vec<String>),
    /// `callee(args…)`.
    Call {
        /// The called expression (usually a `Path`).
        callee: Box<Expr>,
        /// Call arguments.
        args: Vec<Expr>,
    },
    /// `recv.name(args…)`.
    MethodCall {
        /// Receiver expression.
        recv: Box<Expr>,
        /// Method name.
        name: String,
        /// Call arguments.
        args: Vec<Expr>,
    },
    /// `|params…| body` / `move |…| body`.
    Closure {
        /// Parameter names, best effort.
        params: Vec<String>,
        /// The closure body expression.
        body: Box<Expr>,
    },
    /// `unsafe { … }`.
    Unsafe(Block),
    /// A plain `{ … }` block (also match bodies, struct-literal
    /// bodies, and other brace groups).
    Block(Block),
    /// `expr as Ty`.
    Cast {
        /// The cast operand.
        expr: Box<Expr>,
        /// The target type, idents joined with `::` (generics and
        /// punctuation stripped; `*const u8` renders as `ptr::u8`).
        ty: String,
    },
    /// `for <pat> in <iter> { body }`.
    For {
        /// Pattern binding names.
        names: Vec<String>,
        /// The iterated expression.
        iter: Box<Expr>,
        /// Loop body.
        body: Block,
    },
    /// Operator folds, tuples, arrays, and every other structure the
    /// vocabulary doesn't name: an order-preserving child list.
    Seq(Vec<Expr>),
    /// A literal or other atom with no children.
    Lit,
}

/// Keywords that begin an item at statement level.
const ITEM_KEYWORDS: &[&str] = &[
    "fn",
    "struct",
    "enum",
    "union",
    "impl",
    "mod",
    "use",
    "trait",
    "static",
    "type",
    "macro_rules",
    "extern",
    "pub",
];

/// Binary / glue operators folded into [`ExprKind::Seq`]. Includes `=`
/// (assignment), `:` (struct-literal fields, type ascription in
/// patterns), and `=>` (match arms) so those constructs degrade into
/// sequences instead of stalling the parser.
const BINOPS: &[&str] = &[
    "+", "-", "*", "/", "%", "^", "&", "|", "&&", "||", "<<", ">>", "==", "!=", "<", ">", "<=",
    ">=", "=", "+=", "-=", "*=", "/=", "%=", "^=", "&=", "|=", "<<=", ">>=", "..", "..=", ":",
    "=>", "->",
];

/// Tokens that end an expression at the current nesting level.
const EXPR_ENDERS: &[&str] = &[",", ";", ")", "]", "}"];

/// Prefix tokens skipped before a primary expression.
const PREFIXES: &[&str] = &["&", "&&", "*", "-", "!", "..", "..="];

struct Parser<'a> {
    toks: &'a [Token<'a>],
    pos: usize,
}

/// Parses pre-lexed tokens (comments must already be filtered out).
#[must_use]
pub fn parse_tokens(code: &[Token<'_>]) -> File {
    let mut p = Parser { toks: code, pos: 0 };
    let mut items = Vec::new();
    while !p.at_end() {
        let before = p.pos;
        if let Some(item) = p.parse_item() {
            items.push(item);
        }
        if p.pos == before {
            p.bump(); // never stall
        }
    }
    File { items }
}

/// Lexes `src` (dropping comments) and parses it.
#[must_use]
pub fn parse_source(src: &str) -> File {
    let code: Vec<Token<'_>> = crate::lexer::lex(src)
        .into_iter()
        .filter(|t| !matches!(t.kind, TokenKind::LineComment | TokenKind::BlockComment))
        .collect();
    parse_tokens(&code)
}

impl<'a> Parser<'a> {
    fn at_end(&self) -> bool {
        self.pos >= self.toks.len()
    }

    fn peek(&self) -> Option<&Token<'a>> {
        self.toks.get(self.pos)
    }

    fn peek_text(&self) -> &'a str {
        self.toks.get(self.pos).map_or("", |t| t.text)
    }

    fn peek_ahead(&self, n: usize) -> &'a str {
        self.toks.get(self.pos + n).map_or("", |t| t.text)
    }

    fn line(&self) -> u32 {
        self.toks.get(self.pos).map_or(0, |t| t.line)
    }

    fn bump(&mut self) {
        self.pos += 1;
    }

    fn eat(&mut self, text: &str) -> bool {
        if self.peek_text() == text {
            self.bump();
            true
        } else {
            false
        }
    }

    fn is_ident(&self) -> bool {
        self.peek().is_some_and(|t| t.kind == TokenKind::Ident)
    }

    /// Skips a balanced `< … >` generics region; assumes at `<`.
    /// `>>` closes two levels, `->` none (it is a single token).
    fn skip_angles(&mut self) {
        let mut depth = 0i32;
        while let Some(t) = self.peek() {
            match t.text {
                "<" => depth += 1,
                "<<" => depth += 2,
                ">" => depth -= 1,
                ">>" => depth -= 2,
                _ => {}
            }
            self.bump();
            if depth <= 0 {
                return;
            }
        }
    }

    /// Skips one balanced delimiter group; assumes at `(`, `[` or `{`.
    fn skip_group(&mut self) {
        let mut depth = 0i32;
        while let Some(t) = self.peek() {
            match t.text {
                "(" | "[" | "{" => depth += 1,
                ")" | "]" | "}" => depth -= 1,
                _ => {}
            }
            self.bump();
            if depth <= 0 {
                return;
            }
        }
    }

    /// Consumes `#[ … ]` / `#![ … ]`; returns whether the attribute
    /// arguments contained the bare ident `test`.
    fn parse_attr(&mut self) -> bool {
        self.bump(); // `#`
        self.eat("!");
        if self.peek_text() != "[" {
            return false;
        }
        let mut depth = 0i32;
        let mut has_test = false;
        while let Some(t) = self.peek() {
            match t.text {
                "[" => depth += 1,
                "]" => depth -= 1,
                "test" if t.kind == TokenKind::Ident => has_test = true,
                _ => {}
            }
            self.bump();
            if depth <= 0 {
                return has_test;
            }
        }
        has_test
    }

    /// Parses one item at the current position. Returns `None` for
    /// stray tokens that begin no item (the caller guarantees
    /// progress).
    fn parse_item(&mut self) -> Option<Item> {
        let line = self.line();
        let mut cfg_test = false;
        while self.peek_text() == "#" {
            cfg_test |= self.parse_attr();
        }
        // Visibility and modifiers.
        let mut is_pub = false;
        loop {
            match self.peek_text() {
                "pub" => {
                    is_pub = true;
                    self.bump();
                    if self.peek_text() == "(" {
                        self.skip_group();
                    }
                }
                "unsafe" => {
                    // `unsafe fn` / `unsafe impl` modifier; `unsafe {`
                    // blocks never reach here (statement level only).
                    self.bump();
                }
                "const" | "async" if self.peek_ahead(1) == "fn" => self.bump(),
                "extern" if self.peek().is_some() && self.peek_ahead(1) != "crate" => {
                    self.bump();
                    if self.peek().is_some_and(|t| t.kind == TokenKind::Str) {
                        self.bump();
                    }
                }
                _ => break,
            }
        }
        match self.peek_text() {
            "fn" => {
                let f = self.parse_fn(is_pub);
                Some(Item {
                    line,
                    cfg_test,
                    kind: ItemKind::Fn(f),
                })
            }
            "mod" => {
                self.bump();
                let name = self.take_ident().unwrap_or_default();
                if self.peek_text() == "{" {
                    let items = self.parse_item_body();
                    Some(Item {
                        line,
                        cfg_test,
                        kind: ItemKind::Mod { name, items },
                    })
                } else {
                    self.eat(";");
                    Some(Item {
                        line,
                        cfg_test,
                        kind: ItemKind::Other,
                    })
                }
            }
            "impl" | "trait" => {
                self.bump();
                // Scan the header up to the body brace, remembering the
                // last path ident as the best-effort self type.
                let mut self_ty = String::new();
                while let Some(t) = self.peek() {
                    match t.text {
                        "{" => break,
                        ";" => {
                            self.bump();
                            return Some(Item {
                                line,
                                cfg_test,
                                kind: ItemKind::Other,
                            });
                        }
                        "<" => {
                            self.skip_angles();
                            continue;
                        }
                        "where" => {
                            // where-clause: skip to the body brace.
                            while !self.at_end() && self.peek_text() != "{" {
                                self.bump();
                            }
                            break;
                        }
                        _ => {
                            if t.kind == TokenKind::Ident && t.text != "for" && t.text != "dyn" {
                                self_ty = t.text.to_string();
                            }
                            self.bump();
                        }
                    }
                }
                if self.peek_text() == "{" {
                    let items = self.parse_item_body();
                    Some(Item {
                        line,
                        cfg_test,
                        kind: ItemKind::Impl { self_ty, items },
                    })
                } else {
                    Some(Item {
                        line,
                        cfg_test,
                        kind: ItemKind::Other,
                    })
                }
            }
            "struct" | "enum" | "union" | "use" | "static" | "type" | "macro_rules" | "extern" => {
                // Skip to the terminating `;` or balanced brace group.
                while let Some(t) = self.peek() {
                    match t.text {
                        ";" => {
                            self.bump();
                            break;
                        }
                        "{" => {
                            self.skip_group();
                            // Tuple structs end with `;`, brace items
                            // don't; both are consumed by now except a
                            // possible trailing `;`.
                            self.eat(";");
                            break;
                        }
                        "(" | "[" => self.skip_group(),
                        "<" => self.skip_angles(),
                        "=" => {
                            // `static X: T = expr;` — the initializer
                            // is skipped here; statics with interesting
                            // taint are out of this parser's scope.
                            self.bump();
                        }
                        _ => self.bump(),
                    }
                }
                Some(Item {
                    line,
                    cfg_test,
                    kind: ItemKind::Other,
                })
            }
            "const" => {
                // `const NAME: T = expr;` (const fn was handled above).
                while !self.at_end() && !self.eat(";") {
                    match self.peek_text() {
                        "(" | "[" | "{" => self.skip_group(),
                        "<" => self.skip_angles(),
                        _ => self.bump(),
                    }
                }
                Some(Item {
                    line,
                    cfg_test,
                    kind: ItemKind::Other,
                })
            }
            _ => None,
        }
    }

    /// Parses `{ item* }`; assumes at `{`.
    fn parse_item_body(&mut self) -> Vec<Item> {
        self.bump(); // `{`
        let mut items = Vec::new();
        while !self.at_end() && self.peek_text() != "}" {
            let before = self.pos;
            if let Some(item) = self.parse_item() {
                items.push(item);
            }
            if self.pos == before {
                self.bump();
            }
        }
        self.eat("}");
        items
    }

    fn take_ident(&mut self) -> Option<String> {
        if self.is_ident() {
            let s = self.peek_text().to_string();
            self.bump();
            Some(s)
        } else {
            None
        }
    }

    /// Parses `fn name<…>(params) -> Ret (where …)? ({ body } | ;)`;
    /// assumes at `fn`.
    fn parse_fn(&mut self, is_pub: bool) -> FnItem {
        let line = self.line();
        self.bump(); // `fn`
        let name = self.take_ident().unwrap_or_default();
        if self.peek_text() == "<" {
            self.skip_angles();
        }
        // Parameters: idents immediately before a `:` at paren depth 1,
        // plus any bare `self`.
        let mut params = Vec::new();
        if self.peek_text() == "(" {
            let start = self.pos;
            self.skip_group();
            let inner = &self.toks[start + 1..self.pos.saturating_sub(1)];
            let mut depth = 0i32;
            for (i, t) in inner.iter().enumerate() {
                match t.text {
                    "(" | "[" | "{" => depth += 1,
                    ")" | "]" | "}" => depth -= 1,
                    "self" if depth == 0 && t.kind == TokenKind::Ident => {
                        params.push("self".to_string());
                    }
                    ":" if depth == 0 => {
                        if let Some(prev) = inner.get(i.wrapping_sub(1)) {
                            if prev.kind == TokenKind::Ident {
                                params.push(prev.text.to_string());
                            }
                        }
                    }
                    _ => {}
                }
            }
        }
        // Return type and where clause: skip to `{` or `;`. An `->`
        // before any `where` is the return arrow; `->` inside a where
        // clause (`F: Fn() -> T`) is not.
        let mut returns_value = false;
        let mut in_where = false;
        while let Some(t) = self.peek() {
            match t.text {
                "{" | ";" => break,
                "(" | "[" => self.skip_group(),
                "<" => self.skip_angles(),
                "where" if t.kind == TokenKind::Ident => {
                    in_where = true;
                    self.bump();
                }
                "->" => {
                    returns_value |= !in_where;
                    self.bump();
                }
                _ => self.bump(),
            }
        }
        let body = if self.peek_text() == "{" {
            Some(self.parse_block())
        } else {
            self.eat(";");
            None
        };
        FnItem {
            name,
            is_pub,
            params,
            body,
            returns_value,
            line,
        }
    }

    /// Parses `{ stmt* tail? }`; assumes at `{`.
    fn parse_block(&mut self) -> Block {
        let line = self.line();
        self.bump(); // `{`
        let mut stmts = Vec::new();
        let mut tail = None;
        while !self.at_end() && self.peek_text() != "}" {
            let before = self.pos;
            if self.eat(";") {
                continue;
            }
            let text = self.peek_text();
            if text == "let" {
                stmts.push(self.parse_let());
            } else if text == "return" || text == "break" {
                let line = self.line();
                self.bump();
                let value = if matches!(self.peek_text(), ";" | "}") {
                    None
                } else {
                    Some(self.parse_expr(false))
                };
                self.eat(";");
                stmts.push(Stmt::Return(value, line));
            } else if text == "#" || (self.is_ident() && ITEM_KEYWORDS.contains(&text)) {
                // `#[…]` may decorate a statement (`#[cfg] let x = …`)
                // or an item; item parsing handles both (attributes are
                // consumed there, and a non-item keyword after the
                // attribute falls through to `None`, after which the
                // statement is parsed normally on the next iteration).
                if let Some(item) = self.parse_item() {
                    stmts.push(Stmt::Item(item));
                }
            } else {
                let e = self.parse_expr(false);
                if self.eat(";") {
                    stmts.push(Stmt::Expr(e));
                } else if self.peek_text() == "}" {
                    tail = Some(Box::new(e));
                } else {
                    stmts.push(Stmt::Expr(e));
                }
            }
            if self.pos == before {
                self.bump();
            }
        }
        self.eat("}");
        Block { stmts, tail, line }
    }

    /// Parses `let <pat>(: <ty>)? (= <expr>)? ;`; assumes at `let`.
    fn parse_let(&mut self) -> Stmt {
        let line = self.line();
        self.bump(); // `let`
                     // Pattern + type: everything up to a top-level `=` or `;`.
        let mut names = Vec::new();
        let mut depth = 0i32;
        while let Some(t) = self.peek() {
            match t.text {
                "=" if depth == 0 => break,
                ";" if depth == 0 => break,
                "(" | "[" | "{" => {
                    depth += 1;
                    self.bump();
                }
                ")" | "]" | "}" => {
                    depth -= 1;
                    self.bump();
                }
                "<" => self.skip_angles(),
                _ => {
                    if t.kind == TokenKind::Ident && !matches!(t.text, "mut" | "ref" | "box" | "_")
                    {
                        names.push(t.text.to_string());
                    }
                    self.bump();
                }
            }
        }
        let init = if self.eat("=") {
            Some(self.parse_expr(false))
        } else {
            None
        };
        self.eat(";");
        // `let … else { … }` — the else block was parsed as part of
        // the initializer expression chain; nothing extra to do.
        Stmt::Let { names, init, line }
    }

    /// Parses one expression: a unary/postfix chain, optionally folded
    /// with further chains by binary-ish operators into a `Seq`.
    ///
    /// `no_struct` suppresses struct-literal `{` postfix (condition
    /// position of `if`/`while`/`match`/`for`).
    fn parse_expr(&mut self, no_struct: bool) -> Expr {
        let line = self.line();
        let first = self.parse_chain(no_struct);
        let mut parts = vec![first];
        loop {
            let text = self.peek_text();
            if EXPR_ENDERS.contains(&text) || self.at_end() {
                break;
            }
            if BINOPS.contains(&text) {
                self.bump();
                if EXPR_ENDERS.contains(&self.peek_text()) || self.at_end() {
                    break; // trailing operator (`..` in ranges, `a..`)
                }
                parts.push(self.parse_chain(no_struct));
            } else {
                break;
            }
        }
        match <[Expr; 1]>::try_from(parts) {
            Ok([only]) => only,
            Err(parts) => Expr {
                line,
                kind: ExprKind::Seq(parts),
            },
        }
    }

    /// Parses prefix operators, a primary, and its postfix chain.
    fn parse_chain(&mut self, no_struct: bool) -> Expr {
        while PREFIXES.contains(&self.peek_text())
            || matches!(self.peek_text(), "mut" | "move" | "dyn" | "ref")
        {
            self.bump();
        }
        let mut e = self.parse_primary(no_struct);
        loop {
            match self.peek_text() {
                "(" => {
                    let args = self.parse_call_args();
                    e = Expr {
                        line: e.line,
                        kind: ExprKind::Call {
                            callee: Box::new(e),
                            args,
                        },
                    };
                }
                "." => {
                    self.bump();
                    if self.is_ident() {
                        let name = self.peek_text().to_string();
                        let line = self.line();
                        self.bump();
                        if self.peek_text() == "::" && self.peek_ahead(1) == "<" {
                            self.bump();
                            self.skip_angles();
                        }
                        if self.peek_text() == "(" {
                            let args = self.parse_call_args();
                            e = Expr {
                                line,
                                kind: ExprKind::MethodCall {
                                    recv: Box::new(e),
                                    name,
                                    args,
                                },
                            };
                        }
                        // plain field access: taint of the whole value,
                        // `e` unchanged.
                    } else {
                        // `.0` tuple index, `.await`.
                        if !self.at_end() {
                            self.bump();
                        }
                    }
                }
                "?" => self.bump(),
                "[" => {
                    self.bump();
                    let mut children = vec![e];
                    while !self.at_end() && self.peek_text() != "]" {
                        children.push(self.parse_expr(false));
                        if !self.eat(",") {
                            break;
                        }
                    }
                    self.eat("]");
                    let line = children[0].line;
                    e = Expr {
                        line,
                        kind: ExprKind::Seq(children),
                    };
                }
                "as" => {
                    self.bump();
                    let mut ty_parts: Vec<&str> = Vec::new();
                    loop {
                        let t = self.peek_text();
                        if self.is_ident() {
                            ty_parts.push(t);
                            self.bump();
                        } else if t == "<" {
                            self.skip_angles();
                        } else if matches!(t, "::" | "*" | "&") {
                            // `*const u8` / `*mut u8` raw-pointer types
                            // keep their ident (`const`/`mut` are
                            // Idents to the lexer and land in
                            // `ty_parts`).
                            self.bump();
                        } else {
                            break;
                        }
                    }
                    e = Expr {
                        line: e.line,
                        kind: ExprKind::Cast {
                            expr: Box::new(e),
                            ty: ty_parts.join("::"),
                        },
                    };
                }
                "{" if !no_struct && matches!(e.kind, ExprKind::Path(_)) => {
                    // Struct literal `Path { field: expr, … }`.
                    let body = self.parse_block();
                    let line = e.line;
                    e = Expr {
                        line,
                        kind: ExprKind::Seq(vec![
                            e,
                            Expr {
                                line,
                                kind: ExprKind::Block(body),
                            },
                        ]),
                    };
                }
                _ => break,
            }
        }
        e
    }

    /// Parses `( expr, … )` call arguments; assumes at `(`.
    fn parse_call_args(&mut self) -> Vec<Expr> {
        self.bump(); // `(`
        let mut args = Vec::new();
        while !self.at_end() && self.peek_text() != ")" {
            let before = self.pos;
            args.push(self.parse_expr(false));
            self.eat(",");
            if self.pos == before {
                self.bump();
            }
        }
        self.eat(")");
        args
    }

    fn parse_primary(&mut self, no_struct: bool) -> Expr {
        let line = self.line();
        let Some(t) = self.peek() else {
            return Expr {
                line,
                kind: ExprKind::Lit,
            };
        };
        match t.text {
            "|" | "||" => {
                // Closure. `||` is an empty parameter list in primary
                // position (binary-or never leads an expression).
                let mut params = Vec::new();
                if t.text == "||" {
                    self.bump();
                } else {
                    self.bump();
                    let mut depth = 0i32;
                    while let Some(p) = self.peek() {
                        match p.text {
                            "|" if depth == 0 => {
                                self.bump();
                                break;
                            }
                            "(" | "[" | "{" => {
                                depth += 1;
                                self.bump();
                            }
                            ")" | "]" | "}" => {
                                depth -= 1;
                                self.bump();
                            }
                            "<" => self.skip_angles(),
                            _ => {
                                if p.kind == TokenKind::Ident
                                    && !matches!(p.text, "mut" | "ref" | "_")
                                {
                                    params.push(p.text.to_string());
                                }
                                self.bump();
                            }
                        }
                    }
                }
                if self.peek_text() == "->" {
                    // Explicit return type: skip to the body brace.
                    while !self.at_end() && self.peek_text() != "{" {
                        self.bump();
                    }
                }
                let body = self.parse_expr(false);
                Expr {
                    line,
                    kind: ExprKind::Closure {
                        params,
                        body: Box::new(body),
                    },
                }
            }
            "if" | "while" => {
                self.bump();
                let mut parts = Vec::new();
                if self.peek_text() == "let" && self.is_ident() {
                    // `if let PAT = EXPR { … }`: reuse the `For` node so
                    // the pattern's bindings read the scrutinee's taint.
                    self.bump();
                    let mut names = Vec::new();
                    while let Some(p) = self.peek() {
                        if p.text == "=" {
                            self.bump();
                            break;
                        }
                        if p.kind == TokenKind::Ident && !matches!(p.text, "mut" | "ref" | "_") {
                            names.push(p.text.to_string());
                        }
                        self.bump();
                    }
                    let scrutinee = self.parse_expr(true);
                    let body = if self.peek_text() == "{" {
                        self.parse_block()
                    } else {
                        Block {
                            stmts: Vec::new(),
                            tail: None,
                            line,
                        }
                    };
                    parts.push(Expr {
                        line,
                        kind: ExprKind::For {
                            names,
                            iter: Box::new(scrutinee),
                            body,
                        },
                    });
                } else {
                    parts.push(self.parse_expr(true));
                    if self.peek_text() == "{" {
                        let b = self.parse_block();
                        parts.push(Expr {
                            line,
                            kind: ExprKind::Block(b),
                        });
                    }
                }
                while self.eat("else") {
                    if self.peek_text() == "if" {
                        // `else if (let)? …`: recurse — the nested `if`
                        // consumes the rest of the chain.
                        parts.push(self.parse_expr(true));
                        break;
                    }
                    if self.peek_text() == "{" {
                        let b = self.parse_block();
                        parts.push(Expr {
                            line,
                            kind: ExprKind::Block(b),
                        });
                    } else {
                        break;
                    }
                }
                Expr {
                    line,
                    kind: ExprKind::Seq(parts),
                }
            }
            "match" => {
                self.bump();
                let scrutinee = self.parse_expr(true);
                let mut parts = vec![scrutinee];
                if self.peek_text() == "{" {
                    // Arms parse leniently as block statements:
                    // `pat => expr,` folds via the `=>` binop.
                    let b = self.parse_block();
                    parts.push(Expr {
                        line,
                        kind: ExprKind::Block(b),
                    });
                }
                Expr {
                    line,
                    kind: ExprKind::Seq(parts),
                }
            }
            "for" => {
                self.bump();
                let mut names = Vec::new();
                while let Some(p) = self.peek() {
                    if p.text == "in" {
                        self.bump();
                        break;
                    }
                    if p.kind == TokenKind::Ident && !matches!(p.text, "mut" | "ref" | "_") {
                        names.push(p.text.to_string());
                    }
                    self.bump();
                }
                let iter = self.parse_expr(true);
                let body = if self.peek_text() == "{" {
                    self.parse_block()
                } else {
                    Block {
                        stmts: Vec::new(),
                        tail: None,
                        line,
                    }
                };
                Expr {
                    line,
                    kind: ExprKind::For {
                        names,
                        iter: Box::new(iter),
                        body,
                    },
                }
            }
            "loop" => {
                self.bump();
                let b = if self.peek_text() == "{" {
                    self.parse_block()
                } else {
                    Block {
                        stmts: Vec::new(),
                        tail: None,
                        line,
                    }
                };
                Expr {
                    line,
                    kind: ExprKind::Block(b),
                }
            }
            "unsafe" => {
                self.bump();
                if self.peek_text() == "{" {
                    let b = self.parse_block();
                    Expr {
                        line,
                        kind: ExprKind::Unsafe(b),
                    }
                } else {
                    Expr {
                        line,
                        kind: ExprKind::Lit,
                    }
                }
            }
            "let" => {
                // `if let <pat> = <expr>` — treat `let` as transparent;
                // the pattern parses as an expression and `=` folds.
                self.bump();
                self.parse_chain(no_struct)
            }
            "{" => {
                let b = self.parse_block();
                Expr {
                    line,
                    kind: ExprKind::Block(b),
                }
            }
            "(" => {
                self.bump();
                let mut children = Vec::new();
                while !self.at_end() && self.peek_text() != ")" {
                    let before = self.pos;
                    children.push(self.parse_expr(false));
                    self.eat(",");
                    if self.pos == before {
                        self.bump();
                    }
                }
                self.eat(")");
                Expr {
                    line,
                    kind: ExprKind::Seq(children),
                }
            }
            "[" => {
                self.bump();
                let mut children = Vec::new();
                while !self.at_end() && self.peek_text() != "]" {
                    let before = self.pos;
                    children.push(self.parse_expr(false));
                    if !self.eat(",") && !self.eat(";") {
                        // `[expr; len]` repeats fold in via `;`.
                    }
                    if self.pos == before {
                        self.bump();
                    }
                }
                self.eat("]");
                Expr {
                    line,
                    kind: ExprKind::Seq(children),
                }
            }
            _ => {
                if t.kind == TokenKind::Ident {
                    let mut segs = vec![t.text.to_string()];
                    self.bump();
                    // Macro invocation `name!(…)` / `name![…]` /
                    // `name!{…}`: parse the delimited arguments as
                    // ordinary call arguments so taint flows through.
                    if self.peek_text() == "!" && matches!(self.peek_ahead(1), "(" | "[" | "{") {
                        self.bump(); // `!`
                        let open = self.peek_text();
                        let args = if open == "(" {
                            self.parse_call_args()
                        } else {
                            let b = self.parse_block_like(open);
                            vec![Expr {
                                line,
                                kind: ExprKind::Block(b),
                            }]
                        };
                        return Expr {
                            line,
                            kind: ExprKind::Call {
                                callee: Box::new(Expr {
                                    line,
                                    kind: ExprKind::Path(segs),
                                }),
                                args,
                            },
                        };
                    }
                    while self.peek_text() == "::" {
                        self.bump();
                        if self.peek_text() == "<" {
                            self.skip_angles(); // turbofish
                        } else if self.is_ident() {
                            segs.push(self.peek_text().to_string());
                            self.bump();
                        } else {
                            break;
                        }
                    }
                    Expr {
                        line,
                        kind: ExprKind::Path(segs),
                    }
                } else {
                    // Literal, lifetime (loop label), or stray punct.
                    self.bump();
                    Expr {
                        line,
                        kind: ExprKind::Lit,
                    }
                }
            }
        }
    }

    /// Parses a `[ … ]` or `{ … }` macro-argument group as a block of
    /// lenient statements; assumes at the opening delimiter.
    fn parse_block_like(&mut self, open: &str) -> Block {
        if open == "{" {
            return self.parse_block();
        }
        let line = self.line();
        self.bump(); // `[`
        let mut stmts = Vec::new();
        while !self.at_end() && self.peek_text() != "]" {
            let before = self.pos;
            stmts.push(Stmt::Expr(self.parse_expr(false)));
            self.eat(",");
            self.eat(";");
            if self.pos == before {
                self.bump();
            }
        }
        self.eat("]");
        Block {
            stmts,
            tail: None,
            line,
        }
    }
}

/// Walks every function item in a file, depth first, in source order.
/// The callback receives the enclosing impl/trait type name (empty for
/// free functions) and whether any enclosing item carried a test
/// attribute.
pub fn for_each_fn<'f>(file: &'f File, mut f: impl FnMut(&'f FnItem, &str, bool)) {
    fn walk<'f>(
        items: &'f [Item],
        self_ty: &str,
        in_test: bool,
        f: &mut impl FnMut(&'f FnItem, &str, bool),
    ) {
        for item in items {
            let test = in_test || item.cfg_test;
            match &item.kind {
                ItemKind::Fn(func) => {
                    f(func, self_ty, test);
                    // Nested fn items inside the body.
                    if let Some(body) = &func.body {
                        walk_block_items(body, self_ty, test, f);
                    }
                }
                ItemKind::Mod { items, .. } => walk(items, self_ty, test, f),
                ItemKind::Impl { self_ty: ty, items } => walk(items, ty, test, f),
                ItemKind::Other => {}
            }
        }
    }
    fn walk_block_items<'f>(
        block: &'f Block,
        self_ty: &str,
        in_test: bool,
        f: &mut impl FnMut(&'f FnItem, &str, bool),
    ) {
        for stmt in &block.stmts {
            if let Stmt::Item(item) = stmt {
                walk(std::slice::from_ref(item), self_ty, in_test, f);
            }
        }
    }
    walk(&file.items, "", false, &mut f);
}

/// Walks every expression in a block, depth first (statements, then
/// the tail), including expressions nested in closures, blocks, and
/// loops — but **not** descending into nested fn items.
pub fn for_each_expr<'b>(block: &'b Block, f: &mut impl FnMut(&'b Expr)) {
    for stmt in &block.stmts {
        match stmt {
            Stmt::Let { init, .. } => {
                if let Some(e) = init {
                    visit_expr(e, f);
                }
            }
            Stmt::Expr(e) => visit_expr(e, f),
            Stmt::Return(Some(e), _) => visit_expr(e, f),
            Stmt::Return(None, _) | Stmt::Item(_) => {}
        }
    }
    if let Some(e) = &block.tail {
        visit_expr(e, f);
    }
}

/// Depth-first pre-order walk of one expression tree.
pub fn visit_expr<'b>(e: &'b Expr, f: &mut impl FnMut(&'b Expr)) {
    f(e);
    match &e.kind {
        ExprKind::Call { callee, args } => {
            visit_expr(callee, f);
            for a in args {
                visit_expr(a, f);
            }
        }
        ExprKind::MethodCall { recv, args, .. } => {
            visit_expr(recv, f);
            for a in args {
                visit_expr(a, f);
            }
        }
        ExprKind::Closure { body, .. } => visit_expr(body, f),
        ExprKind::Unsafe(b) | ExprKind::Block(b) => for_each_expr(b, f),
        ExprKind::Cast { expr, .. } => visit_expr(expr, f),
        ExprKind::For { iter, body, .. } => {
            visit_expr(iter, f);
            for_each_expr(body, f);
        }
        ExprKind::Seq(children) => {
            for c in children {
                visit_expr(c, f);
            }
        }
        ExprKind::Path(_) | ExprKind::Lit => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fns(src: &str) -> Vec<String> {
        let file = parse_source(src);
        let mut out = Vec::new();
        for_each_fn(&file, |f, ty, _| {
            if ty.is_empty() {
                out.push(f.name.clone());
            } else {
                out.push(format!("{ty}::{}", f.name));
            }
        });
        out
    }

    #[test]
    fn items_and_methods_are_found() {
        let src = r"
            pub fn free(x: u32) -> u32 { x }
            struct S { a: u32 }
            impl S {
                pub fn method(&self) -> u32 { self.a }
                unsafe fn danger(&self) {}
            }
            mod inner {
                fn hidden() {}
            }
            trait T {
                fn required(&self);
                fn provided(&self) {}
            }
        ";
        assert_eq!(
            fns(src),
            vec![
                "free",
                "S::method",
                "S::danger",
                "hidden",
                "T::required",
                "T::provided"
            ]
        );
    }

    #[test]
    fn pub_flag_survives_unsafe_modifier() {
        let file = parse_source("pub unsafe fn f() {} fn g() {}");
        let mut flags = Vec::new();
        for_each_fn(&file, |f, _, _| {
            flags.push((f.name.clone(), f.is_pub));
        });
        assert_eq!(
            flags,
            vec![("f".to_string(), true), ("g".to_string(), false)]
        );
    }

    #[test]
    fn params_are_collected() {
        let file = parse_source("fn f(mut a: u32, b: &str, &self) {} ");
        let mut params = Vec::new();
        for_each_fn(&file, |f, _, _| params = f.params.clone());
        assert_eq!(params, vec!["a", "b", "self"]);
    }

    #[test]
    fn test_attributes_mark_functions() {
        let src = r"
            #[test]
            fn t() {}
            #[cfg(test)]
            mod tests {
                fn helper() {}
            }
            fn live() {}
        ";
        let file = parse_source(src);
        let mut seen = Vec::new();
        for_each_fn(&file, |f, _, in_test| seen.push((f.name.clone(), in_test)));
        assert_eq!(
            seen,
            vec![
                ("t".to_string(), true),
                ("helper".to_string(), true),
                ("live".to_string(), false)
            ]
        );
    }

    fn body_of(src: &str) -> Block {
        let file = parse_source(src);
        let mut found = None;
        for item in file.items {
            if let ItemKind::Fn(f) = item.kind {
                found = f.body;
                break;
            }
        }
        found.expect("fn with body")
    }

    /// Collects `(call-ish name, line)` pairs from a fn body.
    fn calls(src: &str) -> Vec<String> {
        let body = body_of(src);
        let mut out = Vec::new();
        for_each_expr(&body, &mut |e| match &e.kind {
            ExprKind::Call { callee, .. } => {
                if let ExprKind::Path(segs) = &callee.kind {
                    out.push(segs.join("::"));
                }
            }
            ExprKind::MethodCall { name, .. } => out.push(format!(".{name}")),
            _ => {}
        });
        out
    }

    #[test]
    fn calls_and_method_chains() {
        // Pre-order: the outermost node of each chain comes first.
        assert_eq!(
            calls("fn f() { let x = std::env::var(K).ok(); g(x.as_deref()); }"),
            vec![".ok", "std::env::var", "g", ".as_deref"]
        );
    }

    #[test]
    fn turbofish_and_generics_do_not_confuse() {
        assert_eq!(
            calls("fn f() { let v = iter.collect::<Vec<_>>(); Vec::<u8>::new(); }"),
            vec![".collect", "Vec::new"]
        );
    }

    #[test]
    fn closures_are_parsed_with_bodies() {
        let body = body_of("fn f(p: &Pool) { p.map_indexed(items, |i, x| helper(i) + x); }");
        let mut closure_calls = Vec::new();
        for_each_expr(&body, &mut |e| {
            if let ExprKind::Closure { params, body } = &e.kind {
                assert_eq!(params, &["i", "x"]);
                visit_expr(body, &mut |e2| {
                    if let ExprKind::Call { callee, .. } = &e2.kind {
                        if let ExprKind::Path(segs) = &callee.kind {
                            closure_calls.push(segs.join("::"));
                        }
                    }
                });
            }
        });
        assert_eq!(closure_calls, vec!["helper"]);
    }

    #[test]
    fn struct_literals_keep_field_expressions() {
        assert_eq!(
            calls("fn f() -> G { G { start: now(), n: 0 } }"),
            vec!["now"]
        );
    }

    #[test]
    fn casts_carry_types() {
        let body = body_of("fn f(p: *const u8) -> usize { p as usize }");
        let mut tys = Vec::new();
        for_each_expr(&body, &mut |e| {
            if let ExprKind::Cast { ty, .. } = &e.kind {
                tys.push(ty.clone());
            }
        });
        assert_eq!(tys, vec!["usize"]);
    }

    #[test]
    fn match_and_if_let_flow_through() {
        assert_eq!(
            calls(
                "fn f(x: Option<u32>) -> u32 {
                    if let Some(v) = x { g(v) } else { h() };
                    match x { Some(v) => g(v), None => h() }
                }"
            ),
            // The if-let pattern binds (no call); the match arm's
            // `Some(v)` degrades to a call node — harmless for taint.
            vec!["g", "h", "Some", "g", "h"]
        );
    }

    #[test]
    fn if_let_and_while_let_bind_pattern_names() {
        let body = body_of(
            "fn f() {
                if let Ok(v) = source() { use_it(v) }
                while let Some(w) = it.next() { use_it(w) }
            }",
        );
        let mut bound = Vec::new();
        for_each_expr(&body, &mut |e| {
            if let ExprKind::For { names, .. } = &e.kind {
                bound.push(names.clone());
            }
        });
        assert_eq!(bound.len(), 2);
        assert!(bound[0].contains(&"v".to_string()));
        assert!(bound[1].contains(&"w".to_string()));
    }

    #[test]
    fn macros_expose_arguments() {
        assert_eq!(
            calls("fn f() { println!(\"{}\", g()); assert_eq!(h(), 3); }"),
            vec!["println", "g", "assert_eq", "h"]
        );
    }

    #[test]
    fn for_loops_record_iter_and_body() {
        let body = body_of("fn f(v: Vec<u32>) { for (i, x) in v.iter().enumerate() { g(x); } }");
        let mut fors = 0;
        for_each_expr(&body, &mut |e| {
            if let ExprKind::For { names, .. } = &e.kind {
                fors += 1;
                assert_eq!(names, &["i", "x"]);
            }
        });
        assert_eq!(fors, 1);
    }

    #[test]
    fn let_collects_all_pattern_names() {
        let body = body_of("fn f() { let (a, mut b): (u32, u32) = g(); }");
        match &body.stmts[0] {
            Stmt::Let { names, init, .. } => {
                assert!(names.contains(&"a".to_string()));
                assert!(names.contains(&"b".to_string()));
                assert!(init.is_some());
            }
            other => panic!("expected let, got {other:?}"),
        }
    }

    #[test]
    fn tail_expression_is_separated() {
        let body = body_of("fn f() -> u32 { g(); h() }");
        assert_eq!(body.stmts.len(), 1);
        assert!(body.tail.is_some());
    }

    #[test]
    fn unsafe_blocks_are_distinct_nodes() {
        let body = body_of("fn f() { unsafe { g() } }");
        let mut unsafes = 0;
        for_each_expr(&body, &mut |e| {
            if matches!(e.kind, ExprKind::Unsafe(_)) {
                unsafes += 1;
            }
        });
        assert_eq!(unsafes, 1);
    }

    #[test]
    fn never_stalls_on_adversarial_input() {
        // Unbalanced delimiters, stray operators, macro soup: the
        // parser must terminate (progress guarantee), not loop.
        for src in [
            "fn f() { ) ) } }",
            "fn f( {",
            "impl {",
            "fn f() { a ..= ; :: }",
            "#[cfg(] fn g() {}",
            "fn f() { x.  }",
            "match { =>",
        ] {
            let _ = parse_source(src);
        }
    }

    #[test]
    fn real_pool_source_parses() {
        // The parser must digest a real workspace file without losing
        // the functions inside it.
        let src = include_str!("../../core/src/pool.rs");
        let file = parse_source(src);
        let mut names = Vec::new();
        for_each_fn(&file, |f, _, _| names.push(f.name.clone()));
        for expected in [
            "threads_from",
            "configured_threads",
            "map_indexed",
            "threads_for",
        ] {
            assert!(names.iter().any(|n| n == expected), "missing {expected}");
        }
    }
}
