//! Recursive-descent parser for mini-C.

use crate::ast::*;
use crate::error::FrontendError;
use crate::lexer::{lex, SpannedTok, Tok};
use crate::types::{Taint, Type};

/// Parse a full translation unit from source text.
pub fn parse(src: &str) -> Result<Program, FrontendError> {
    let toks = lex(src)?;
    Parser::new(toks).program()
}

/// Parse a single expression; used in unit tests and by the attack harness to
/// build small snippets.
pub fn parse_expr(src: &str) -> Result<Expr, FrontendError> {
    let toks = lex(src)?;
    let mut p = Parser::new(toks);
    let e = p.expr()?;
    p.expect(Tok::Eof)?;
    Ok(e)
}

struct Parser {
    toks: Vec<SpannedTok>,
    pos: usize,
}

impl Parser {
    fn new(toks: Vec<SpannedTok>) -> Self {
        Parser { toks, pos: 0 }
    }

    fn peek(&self) -> &Tok {
        &self.toks[self.pos.min(self.toks.len() - 1)].tok
    }

    fn peek_at(&self, offset: usize) -> &Tok {
        &self.toks[(self.pos + offset).min(self.toks.len() - 1)].tok
    }

    fn span(&self) -> Span {
        self.toks[self.pos.min(self.toks.len() - 1)].span
    }

    /// Consume the current token.  The parser never looks behind, so the
    /// token is moved out of the stream; the final `Eof` stays put.
    fn bump(&mut self) -> Tok {
        let last = self.toks.len() - 1;
        if self.pos < last {
            self.pos += 1;
            std::mem::replace(&mut self.toks[self.pos - 1].tok, Tok::Eof)
        } else {
            self.toks[last].tok.clone()
        }
    }

    fn eat(&mut self, tok: Tok) -> bool {
        if *self.peek() == tok {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect(&mut self, tok: Tok) -> Result<(), FrontendError> {
        if *self.peek() == tok {
            self.bump();
            Ok(())
        } else {
            Err(self.error(format!(
                "expected {:?}, found {}",
                tok,
                self.peek().describe()
            )))
        }
    }

    fn expect_ident(&mut self) -> Result<String, FrontendError> {
        match self.bump() {
            Tok::Ident(s) => Ok(s),
            other => Err(self.error(format!("expected identifier, found {}", other.describe()))),
        }
    }

    fn error(&self, msg: impl Into<String>) -> FrontendError {
        FrontendError::parse(msg, self.span())
    }

    // ----- top level -------------------------------------------------------

    fn program(&mut self) -> Result<Program, FrontendError> {
        let mut prog = Program::default();
        loop {
            match self.peek() {
                Tok::Eof => break,
                Tok::KwStruct if *self.peek_at(2) == Tok::LBrace => {
                    prog.structs.push(self.struct_def()?)
                }
                Tok::KwExtern => prog.externs.push(self.extern_decl()?),
                _ => self.global_or_function(&mut prog)?,
            }
        }
        Ok(prog)
    }

    fn struct_def(&mut self) -> Result<StructDef, FrontendError> {
        let span = self.span();
        self.expect(Tok::KwStruct)?;
        let name = self.expect_ident()?;
        self.expect(Tok::LBrace)?;
        let mut fields = Vec::new();
        while !self.eat(Tok::RBrace) {
            let fspan = self.span();
            let base = self.type_spec()?;
            let (fname, fty) = self.declarator(base)?;
            self.expect(Tok::Semi)?;
            fields.push(FieldDef {
                name: fname,
                ty: fty,
                span: fspan,
            });
        }
        self.expect(Tok::Semi)?;
        Ok(StructDef { name, fields, span })
    }

    fn extern_decl(&mut self) -> Result<ExternDecl, FrontendError> {
        let span = self.span();
        self.expect(Tok::KwExtern)?;
        let base = self.type_spec()?;
        let (name, ret) = self.declarator(base)?;
        self.expect(Tok::LParen)?;
        let params = self.param_list()?;
        self.expect(Tok::Semi)?;
        Ok(ExternDecl {
            name,
            params,
            ret,
            span,
        })
    }

    fn global_or_function(&mut self, prog: &mut Program) -> Result<(), FrontendError> {
        let span = self.span();
        let base = self.type_spec()?;
        let (name, ty) = self.declarator(base)?;
        match self.peek() {
            Tok::LParen => {
                self.bump();
                let params = self.param_list()?;
                if self.eat(Tok::Semi) {
                    // Forward declaration of a U function: record nothing, the
                    // definition will follow.
                    return Ok(());
                }
                let body = self.block()?;
                prog.functions.push(FunctionDef {
                    name,
                    params,
                    ret: ty,
                    body,
                    span,
                });
            }
            _ => {
                let init = if self.eat(Tok::Assign) {
                    Some(self.expr()?)
                } else {
                    None
                };
                self.expect(Tok::Semi)?;
                prog.globals.push(GlobalDef {
                    name,
                    ty,
                    init,
                    span,
                });
            }
        }
        Ok(())
    }

    fn param_list(&mut self) -> Result<Vec<ParamDecl>, FrontendError> {
        let mut params = Vec::new();
        if self.eat(Tok::RParen) {
            return Ok(params);
        }
        // `void` as the sole parameter means "no parameters".
        if *self.peek() == Tok::KwVoid && *self.peek_at(1) == Tok::RParen {
            self.bump();
            self.bump();
            return Ok(params);
        }
        loop {
            let span = self.span();
            let base = self.type_spec()?;
            let (name, ty) = self.declarator(base)?;
            // Array parameters decay to pointers, as in C.
            let ty = ty.decay();
            params.push(ParamDecl { name, ty, span });
            if self.eat(Tok::RParen) {
                break;
            }
            self.expect(Tok::Comma)?;
        }
        Ok(params)
    }

    // ----- types -----------------------------------------------------------

    /// True if the current token can start a type specifier.
    fn starts_type(&self) -> bool {
        matches!(
            self.peek(),
            Tok::KwInt | Tok::KwChar | Tok::KwVoid | Tok::KwStruct | Tok::KwPrivate
        )
    }

    /// Parse `[private] (int|char|void|struct name)` and return the base type
    /// with the qualifier attached to it.
    fn type_spec(&mut self) -> Result<Type, FrontendError> {
        let taint = if self.eat(Tok::KwPrivate) {
            Taint::Private
        } else {
            Taint::Public
        };
        let base = match self.bump() {
            Tok::KwInt => Type::int(),
            Tok::KwChar => Type::char(),
            Tok::KwVoid => Type::void(),
            Tok::KwStruct => {
                let name = self.expect_ident()?;
                Type::strukt(&name)
            }
            other => return Err(self.error(format!("expected a type, found {}", other.describe()))),
        };
        Ok(base.with_base_taint(taint))
    }

    /// Parse a declarator on top of `base`: pointer stars, a name or a
    /// function-pointer declarator, and optional array brackets.
    fn declarator(&mut self, base: Type) -> Result<(String, Type), FrontendError> {
        let mut ty = base;
        while self.eat(Tok::Star) {
            ty = Type::ptr(ty);
        }
        // Function pointer: `ret (*name)(params)`.
        if *self.peek() == Tok::LParen && *self.peek_at(1) == Tok::Star {
            self.bump(); // (
            self.bump(); // *
            let name = self.expect_ident()?;
            self.expect(Tok::RParen)?;
            self.expect(Tok::LParen)?;
            let mut params = Vec::new();
            if !self.eat(Tok::RParen) {
                loop {
                    let pbase = self.type_spec()?;
                    let pty = self.abstract_declarator(pbase)?;
                    params.push(pty.decay());
                    if self.eat(Tok::RParen) {
                        break;
                    }
                    self.expect(Tok::Comma)?;
                }
            }
            return Ok((name, Type::func_ptr(params, ty)));
        }
        let name = self.expect_ident()?;
        // Array suffixes (only the outermost dimension is kept; nested arrays
        // are flattened left to right).
        let mut dims = Vec::new();
        while self.eat(Tok::LBracket) {
            if self.eat(Tok::RBracket) {
                // `type name[]` in a parameter position: decays to pointer.
                ty = Type::ptr(ty);
                return Ok((name, ty));
            }
            match self.bump() {
                Tok::Int(n) if n >= 0 => dims.push(n as u64),
                other => {
                    return Err(
                        self.error(format!("expected array length, found {}", other.describe()))
                    )
                }
            }
            self.expect(Tok::RBracket)?;
        }
        for d in dims.into_iter().rev() {
            ty = Type::array(ty, d);
        }
        Ok((name, ty))
    }

    /// A declarator without a name (used for parameter types inside
    /// function-pointer declarators and for casts / sizeof).
    fn abstract_declarator(&mut self, base: Type) -> Result<Type, FrontendError> {
        let mut ty = base;
        while self.eat(Tok::Star) {
            ty = Type::ptr(ty);
        }
        // An optional identifier (parameter name) is permitted and ignored.
        if let Tok::Ident(_) = self.peek() {
            self.bump();
        }
        Ok(ty)
    }

    // ----- statements ------------------------------------------------------

    fn block(&mut self) -> Result<Block, FrontendError> {
        self.expect(Tok::LBrace)?;
        let mut stmts = Vec::new();
        while !self.eat(Tok::RBrace) {
            stmts.push(self.stmt()?);
        }
        Ok(Block { stmts })
    }

    fn stmt(&mut self) -> Result<Stmt, FrontendError> {
        let span = self.span();
        match self.peek() {
            Tok::LBrace => Ok(Stmt::Block(self.block()?)),
            Tok::KwIf => {
                self.bump();
                self.expect(Tok::LParen)?;
                let cond = self.expr()?;
                self.expect(Tok::RParen)?;
                let then_blk = self.block_or_single()?;
                let else_blk = if self.eat(Tok::KwElse) {
                    Some(self.block_or_single()?)
                } else {
                    None
                };
                Ok(Stmt::If {
                    cond,
                    then_blk,
                    else_blk,
                    span,
                })
            }
            Tok::KwWhile => {
                self.bump();
                self.expect(Tok::LParen)?;
                let cond = self.expr()?;
                self.expect(Tok::RParen)?;
                let body = self.block_or_single()?;
                Ok(Stmt::While { cond, body, span })
            }
            Tok::KwFor => {
                self.bump();
                self.expect(Tok::LParen)?;
                let init = if self.eat(Tok::Semi) {
                    None
                } else {
                    let s = if self.starts_type() {
                        self.decl_stmt()?
                    } else {
                        let e = self.expr()?;
                        self.expect(Tok::Semi)?;
                        Stmt::Expr(e)
                    };
                    Some(Box::new(s))
                };
                let cond = if *self.peek() == Tok::Semi {
                    None
                } else {
                    Some(self.expr()?)
                };
                self.expect(Tok::Semi)?;
                let step = if *self.peek() == Tok::RParen {
                    None
                } else {
                    Some(self.expr()?)
                };
                self.expect(Tok::RParen)?;
                let body = self.block_or_single()?;
                Ok(Stmt::For {
                    init,
                    cond,
                    step,
                    body,
                    span,
                })
            }
            Tok::KwReturn => {
                self.bump();
                let value = if *self.peek() == Tok::Semi {
                    None
                } else {
                    Some(self.expr()?)
                };
                self.expect(Tok::Semi)?;
                Ok(Stmt::Return { value, span })
            }
            Tok::KwBreak => {
                self.bump();
                self.expect(Tok::Semi)?;
                Ok(Stmt::Break { span })
            }
            Tok::KwContinue => {
                self.bump();
                self.expect(Tok::Semi)?;
                Ok(Stmt::Continue { span })
            }
            _ if self.starts_type() => self.decl_stmt(),
            _ => {
                let e = self.expr()?;
                self.expect(Tok::Semi)?;
                Ok(Stmt::Expr(e))
            }
        }
    }

    /// Either a braced block or a single statement (for `if (c) stmt;`).
    fn block_or_single(&mut self) -> Result<Block, FrontendError> {
        if *self.peek() == Tok::LBrace {
            self.block()
        } else {
            Ok(Block {
                stmts: vec![self.stmt()?],
            })
        }
    }

    fn decl_stmt(&mut self) -> Result<Stmt, FrontendError> {
        let span = self.span();
        let base = self.type_spec()?;
        let (name, ty) = self.declarator(base)?;
        let init = if self.eat(Tok::Assign) {
            Some(self.expr()?)
        } else {
            None
        };
        self.expect(Tok::Semi)?;
        Ok(Stmt::Decl {
            name,
            ty,
            init,
            span,
        })
    }

    // ----- expressions -----------------------------------------------------

    pub(crate) fn expr(&mut self) -> Result<Expr, FrontendError> {
        self.assignment()
    }

    fn assignment(&mut self) -> Result<Expr, FrontendError> {
        let lhs = self.logical_or()?;
        let span = self.span();
        match self.peek() {
            Tok::Assign => {
                self.bump();
                let rhs = self.assignment()?;
                Ok(Expr::new(
                    ExprKind::Assign {
                        lhs: Box::new(lhs),
                        rhs: Box::new(rhs),
                    },
                    span,
                ))
            }
            Tok::PlusAssign | Tok::MinusAssign => {
                let op = if *self.peek() == Tok::PlusAssign {
                    BinOp::Add
                } else {
                    BinOp::Sub
                };
                self.bump();
                let rhs = self.assignment()?;
                let combined = Expr::new(
                    ExprKind::Binary {
                        op,
                        lhs: Box::new(lhs.clone()),
                        rhs: Box::new(rhs),
                    },
                    span,
                );
                Ok(Expr::new(
                    ExprKind::Assign {
                        lhs: Box::new(lhs),
                        rhs: Box::new(combined),
                    },
                    span,
                ))
            }
            _ => Ok(lhs),
        }
    }

    fn binary_level(
        &mut self,
        ops: &[(Tok, BinOp)],
        next: fn(&mut Self) -> Result<Expr, FrontendError>,
    ) -> Result<Expr, FrontendError> {
        let mut lhs = next(self)?;
        loop {
            let span = self.span();
            let Some((_, op)) = ops.iter().find(|(t, _)| t == self.peek()) else {
                return Ok(lhs);
            };
            let op = *op;
            self.bump();
            let rhs = next(self)?;
            lhs = Expr::new(
                ExprKind::Binary {
                    op,
                    lhs: Box::new(lhs),
                    rhs: Box::new(rhs),
                },
                span,
            );
        }
    }

    fn logical_or(&mut self) -> Result<Expr, FrontendError> {
        self.binary_level(&[(Tok::PipePipe, BinOp::LogicalOr)], Self::logical_and)
    }

    fn logical_and(&mut self) -> Result<Expr, FrontendError> {
        self.binary_level(&[(Tok::AmpAmp, BinOp::LogicalAnd)], Self::bit_or)
    }

    fn bit_or(&mut self) -> Result<Expr, FrontendError> {
        self.binary_level(&[(Tok::Pipe, BinOp::Or)], Self::bit_xor)
    }

    fn bit_xor(&mut self) -> Result<Expr, FrontendError> {
        self.binary_level(&[(Tok::Caret, BinOp::Xor)], Self::bit_and)
    }

    fn bit_and(&mut self) -> Result<Expr, FrontendError> {
        self.binary_level(&[(Tok::Amp, BinOp::And)], Self::equality)
    }

    fn equality(&mut self) -> Result<Expr, FrontendError> {
        self.binary_level(
            &[(Tok::EqEq, BinOp::Eq), (Tok::NotEq, BinOp::Ne)],
            Self::relational,
        )
    }

    fn relational(&mut self) -> Result<Expr, FrontendError> {
        self.binary_level(
            &[
                (Tok::Lt, BinOp::Lt),
                (Tok::Le, BinOp::Le),
                (Tok::Gt, BinOp::Gt),
                (Tok::Ge, BinOp::Ge),
            ],
            Self::shift,
        )
    }

    fn shift(&mut self) -> Result<Expr, FrontendError> {
        self.binary_level(
            &[(Tok::Shl, BinOp::Shl), (Tok::Shr, BinOp::Shr)],
            Self::additive,
        )
    }

    fn additive(&mut self) -> Result<Expr, FrontendError> {
        self.binary_level(
            &[(Tok::Plus, BinOp::Add), (Tok::Minus, BinOp::Sub)],
            Self::multiplicative,
        )
    }

    fn multiplicative(&mut self) -> Result<Expr, FrontendError> {
        self.binary_level(
            &[
                (Tok::Star, BinOp::Mul),
                (Tok::Slash, BinOp::Div),
                (Tok::Percent, BinOp::Rem),
            ],
            Self::unary,
        )
    }

    fn unary(&mut self) -> Result<Expr, FrontendError> {
        let span = self.span();
        let op = match self.peek() {
            Tok::Minus => Some(UnOp::Neg),
            Tok::Bang => Some(UnOp::Not),
            Tok::Tilde => Some(UnOp::BitNot),
            Tok::Star => Some(UnOp::Deref),
            Tok::Amp => Some(UnOp::AddrOf),
            _ => None,
        };
        if let Some(op) = op {
            self.bump();
            let operand = self.unary()?;
            return Ok(Expr::new(
                ExprKind::Unary {
                    op,
                    operand: Box::new(operand),
                },
                span,
            ));
        }
        // Cast: `(type) unary`.
        if *self.peek() == Tok::LParen && self.type_starts_at(1) {
            self.bump();
            let base = self.type_spec()?;
            let ty = self.abstract_declarator(base)?;
            self.expect(Tok::RParen)?;
            let inner = self.unary()?;
            return Ok(Expr::new(
                ExprKind::Cast {
                    ty,
                    expr: Box::new(inner),
                },
                span,
            ));
        }
        if *self.peek() == Tok::KwSizeof {
            self.bump();
            self.expect(Tok::LParen)?;
            let base = self.type_spec()?;
            let ty = self.abstract_declarator(base)?;
            self.expect(Tok::RParen)?;
            return Ok(Expr::new(ExprKind::SizeOf(ty), span));
        }
        self.postfix()
    }

    fn type_starts_at(&self, offset: usize) -> bool {
        matches!(
            self.peek_at(offset),
            Tok::KwInt | Tok::KwChar | Tok::KwVoid | Tok::KwStruct | Tok::KwPrivate
        )
    }

    fn postfix(&mut self) -> Result<Expr, FrontendError> {
        let mut e = self.primary()?;
        loop {
            let span = self.span();
            match self.peek() {
                Tok::LParen => {
                    self.bump();
                    let mut args = Vec::new();
                    if !self.eat(Tok::RParen) {
                        loop {
                            args.push(self.expr()?);
                            if self.eat(Tok::RParen) {
                                break;
                            }
                            self.expect(Tok::Comma)?;
                        }
                    }
                    e = Expr::new(
                        ExprKind::Call {
                            callee: Box::new(e),
                            args,
                        },
                        span,
                    );
                }
                Tok::LBracket => {
                    self.bump();
                    let index = self.expr()?;
                    self.expect(Tok::RBracket)?;
                    e = Expr::new(
                        ExprKind::Index {
                            base: Box::new(e),
                            index: Box::new(index),
                        },
                        span,
                    );
                }
                Tok::Dot => {
                    self.bump();
                    let field = self.expect_ident()?;
                    e = Expr::new(
                        ExprKind::Member {
                            base: Box::new(e),
                            field,
                        },
                        span,
                    );
                }
                Tok::Arrow => {
                    self.bump();
                    let field = self.expect_ident()?;
                    e = Expr::new(
                        ExprKind::Arrow {
                            base: Box::new(e),
                            field,
                        },
                        span,
                    );
                }
                _ => return Ok(e),
            }
        }
    }

    fn primary(&mut self) -> Result<Expr, FrontendError> {
        let span = self.span();
        match self.bump() {
            Tok::Int(v) => Ok(Expr::new(ExprKind::IntLit(v), span)),
            Tok::Char(c) => Ok(Expr::new(ExprKind::CharLit(c), span)),
            Tok::Str(s) => Ok(Expr::new(ExprKind::StrLit(s), span)),
            Tok::Ident(name) => Ok(Expr::new(ExprKind::Ident(name), span)),
            Tok::LParen => {
                let e = self.expr()?;
                self.expect(Tok::RParen)?;
                Ok(e)
            }
            other => Err(self.error(format!(
                "expected an expression, found {}",
                other.describe()
            ))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::Taint;

    #[test]
    fn parse_simple_function() {
        let prog = parse("int add(int a, int b) {\n  return a + b;\n}\n").unwrap();
        assert_eq!(prog.functions.len(), 1);
        let f = &prog.functions[0];
        assert_eq!(f.name, "add");
        assert_eq!(f.params.len(), 2);
        assert_eq!(f.body.stmts.len(), 1);
    }

    #[test]
    fn parse_private_annotations() {
        let prog = parse(
            "extern void decrypt(char *c, private char *d);\n\
             private int secret_key;\n\
             int handle(char *uname, private char *upasswd) { return 0; }\n",
        )
        .unwrap();
        assert_eq!(prog.externs.len(), 1);
        let dec = &prog.externs[0];
        assert_eq!(dec.params[1].ty.pointee().unwrap().taint, Taint::Private);
        assert_eq!(prog.globals[0].ty.taint, Taint::Private);
        let f = &prog.functions[0];
        assert_eq!(f.params[1].ty.pointee().unwrap().taint, Taint::Private);
        assert_eq!(f.params[0].ty.pointee().unwrap().taint, Taint::Public);
    }

    #[test]
    fn parse_struct_and_member_access() {
        let prog = parse(
            "struct point { int x; int y; };\n\
             int get(struct point *p) { return p->x + p->y; }\n",
        )
        .unwrap();
        assert_eq!(prog.structs.len(), 1);
        assert_eq!(prog.structs[0].fields.len(), 2);
    }

    #[test]
    fn parse_arrays_and_indexing() {
        let prog = parse(
            "int sum(int n) {\n  char buf[512];\n  int i;\n  int s = 0;\n  for (i = 0; i < n; i = i + 1) { s = s + buf[i]; }\n  return s;\n}\n",
        )
        .unwrap();
        let f = &prog.functions[0];
        match &f.body.stmts[0] {
            Stmt::Decl { ty, .. } => assert!(ty.is_array()),
            other => panic!("expected decl, got {other:?}"),
        }
    }

    #[test]
    fn parse_function_pointer() {
        let prog =
            parse("int apply(int (*fp)(int, int), int a, int b) { return fp(a, b); }\n").unwrap();
        let f = &prog.functions[0];
        assert!(f.params[0].ty.is_func_ptr());
    }

    #[test]
    fn parse_casts_and_sizeof() {
        let e = parse_expr("(private char *) p").unwrap();
        match e.kind {
            ExprKind::Cast { ty, .. } => {
                assert_eq!(ty.pointee().unwrap().taint, Taint::Private)
            }
            other => panic!("expected cast, got {other:?}"),
        }
        let e = parse_expr("sizeof(int)").unwrap();
        assert!(matches!(e.kind, ExprKind::SizeOf(_)));
    }

    #[test]
    fn parse_precedence() {
        let e = parse_expr("1 + 2 * 3").unwrap();
        match e.kind {
            ExprKind::Binary {
                op: BinOp::Add,
                rhs,
                ..
            } => match rhs.kind {
                ExprKind::Binary { op: BinOp::Mul, .. } => {}
                other => panic!("expected mul on rhs, got {other:?}"),
            },
            other => panic!("expected add at top, got {other:?}"),
        }
    }

    #[test]
    fn parse_if_else_and_while() {
        let prog = parse(
            "int f(int x) { if (x > 0) { return 1; } else { return 0; } }\n\
             int g(int x) { while (x) x = x - 1; return x; }\n",
        )
        .unwrap();
        assert_eq!(prog.functions.len(), 2);
    }

    #[test]
    fn parse_webserver_example() {
        // The running example of the paper (Figure 1), adapted to mini-C.
        let src = r#"
            extern int recv(int fd, char *buf, int buf_size);
            extern int send(int fd, char *buf, int buf_size);
            extern void decrypt(char *ciphertxt, private char *data);
            extern void read_passwd(char *uname, private char *pass, int size);
            extern void read_file(char *fname, char *out, int size);

            int authenticate(char *uname, private char *upass, private char *pass) {
                int i;
                for (i = 0; i < 16; i = i + 1) {
                    if (upass[i] != pass[i]) { return 0; }
                }
                return 1;
            }

            void handleReq(char *uname, private char *upasswd, char *fname,
                           char *out, int out_size) {
                char passwd[512];
                char fcontents[512];
                read_passwd(uname, passwd, 512);
                if (!(authenticate(uname, upasswd, passwd))) {
                    return;
                }
                read_file(fname, fcontents, 512);
            }
        "#;
        let prog = parse(src).unwrap();
        assert_eq!(prog.externs.len(), 5);
        assert_eq!(prog.functions.len(), 2);
        assert_eq!(prog.find_function("handleReq").unwrap().params.len(), 5);
    }

    #[test]
    fn parse_error_reports_location() {
        let err = parse("int f( { }").unwrap_err();
        assert!(err.to_string().contains("parse error"));
    }
}
