//! Lowering from the mini-C AST to the IR.
//!
//! The lowering is deliberately unoptimised (every local lives in an `Alloca`
//! slot; every access goes through explicit loads/stores) — the clean-up
//! passes in [`crate::passes`] and the register allocator in
//! `confllvm-codegen` take care of the rest.  What matters here is that the
//! *taint-relevant* structure is preserved:
//!
//! * explicit `private` annotations become pins on the corresponding values,
//! * trusted extern signatures become the `ExternFunc` table,
//! * every load/store records a span so inference errors point at source.

use std::collections::HashMap;

use confllvm_minic::ast::{self, BinOp as AstBinOp, Expr, ExprKind, Stmt, UnOp};
use confllvm_minic::sema::WORD_SIZE;
use confllvm_minic::{FrontendError, Program, Sema, Span, Taint, Type, TypeKind};

use crate::builder::FunctionBuilder;
use crate::inst::{BinOp, CmpOp, Inst, MemSize, Operand, Terminator, ValueId};
use crate::module::{ExternFunc, Global, Module};

/// Lower a parsed and analysed program into an IR module.
pub fn lower(prog: &Program, sema: &Sema, module_name: &str) -> Result<Module, FrontendError> {
    let mut lowerer = Lowerer {
        sema,
        module: Module {
            name: module_name.to_string(),
            ..Default::default()
        },
        string_count: 0,
    };
    lowerer.lower_program(prog)?;
    Ok(lowerer.module)
}

struct Lowerer<'a> {
    sema: &'a Sema,
    module: Module,
    string_count: usize,
}

impl<'a> Lowerer<'a> {
    fn lower_program(&mut self, prog: &Program) -> Result<(), FrontendError> {
        for e in &prog.externs {
            self.module.externs.push(lower_extern(e));
        }
        for g in &prog.globals {
            let size = self.sema.size_of(&g.ty, g.span)?;
            let init = self.lower_global_init(g)?;
            self.module.globals.push(Global {
                name: g.name.clone(),
                size: size.max(1),
                taint: storage_taint(&g.ty),
                init,
                span: g.span,
            });
        }
        for f in &prog.functions {
            let func = FnLowerer::new(self, f).lower()?;
            self.module.functions.push(func);
        }
        Ok(())
    }

    fn lower_global_init(&self, g: &ast::GlobalDef) -> Result<Vec<u8>, FrontendError> {
        let Some(init) = &g.init else {
            return Ok(Vec::new());
        };
        match &init.kind {
            ExprKind::IntLit(v) => Ok(v.to_le_bytes().to_vec()),
            ExprKind::CharLit(c) => Ok(vec![*c]),
            ExprKind::StrLit(s) => {
                let mut bytes = s.as_bytes().to_vec();
                bytes.push(0);
                Ok(bytes)
            }
            _ => Err(FrontendError::sema(
                "global initialisers must be integer, character or string literals",
                g.span,
            )),
        }
    }

    /// Intern a string literal as a public global and return its name.
    fn intern_string(&mut self, s: &str, span: Span) -> String {
        let name = format!(".str.{}", self.string_count);
        self.string_count += 1;
        let mut bytes = s.as_bytes().to_vec();
        bytes.push(0);
        self.module.globals.push(Global {
            name: name.clone(),
            size: bytes.len() as u64,
            taint: Taint::Public,
            init: bytes,
            span,
        });
        name
    }
}

fn lower_extern(e: &ast::ExternDecl) -> ExternFunc {
    ExternFunc {
        name: e.name.clone(),
        param_taints: e.params.iter().map(|p| p.ty.decay().taint).collect(),
        param_pointee_taints: e
            .params
            .iter()
            .map(|p| p.ty.decay().deref_taint())
            .collect(),
        param_is_pointer: e
            .params
            .iter()
            .map(|p| p.ty.decay().is_pointer() || p.ty.is_func_ptr())
            .collect(),
        ret_taint: e.ret.taint,
        has_ret_value: !e.ret.is_void(),
    }
}

/// Taint of the storage occupied by a top-level definition of this type.
/// Because the surface syntax attaches `private` to the base type and
/// propagates it outward through arrays, the type's own taint is exactly the
/// region the object must live in.
fn storage_taint(ty: &Type) -> Taint {
    ty.taint
}

/// A local variable: the value holding the address of its stack slot plus its
/// declared type.
#[derive(Clone)]
struct LocalSlot {
    addr: ValueId,
    ty: Type,
}

struct LoopCtx {
    continue_bb: crate::inst::BlockId,
    break_bb: crate::inst::BlockId,
}

struct FnLowerer<'a, 'b> {
    parent: &'a mut Lowerer<'b>,
    func: &'a ast::FunctionDef,
    b: FunctionBuilder,
    scopes: Vec<HashMap<String, LocalSlot>>,
    loops: Vec<LoopCtx>,
}

impl<'a, 'b> FnLowerer<'a, 'b> {
    fn new(parent: &'a mut Lowerer<'b>, func: &'a ast::FunctionDef) -> Self {
        let mut b = FunctionBuilder::new(&func.name, func.params.len());
        b.set_span(func.span);
        b.set_param_taints(
            func.params.iter().map(|p| p.ty.decay().taint).collect(),
            func.params
                .iter()
                .map(|p| p.ty.decay().deref_taint())
                .collect(),
        );
        b.set_ret(func.ret.taint, !func.ret.is_void());
        FnLowerer {
            parent,
            func,
            b,
            scopes: vec![HashMap::new()],
            loops: Vec::new(),
        }
    }

    fn sema(&self) -> &'b Sema {
        self.parent.sema
    }

    fn lower(mut self) -> Result<crate::module::Function, FrontendError> {
        // Spill every parameter into a stack slot so that `&param` and
        // re-assignment work uniformly.
        for (i, p) in self.func.params.iter().enumerate() {
            let pty = p.ty.decay();
            let size = self.sema().size_of(&pty, p.span)?.max(WORD_SIZE);
            let slot = self.b.alloca(size, &p.name);
            // The slot holds exactly the parameter; the taint constraints for
            // the parameter value itself come from the trusted/declared
            // signature (Function::param_taints) and flow into the slot via
            // the store below.
            let param = self.b.param(i);
            self.b.store(slot, param, MemSize::B8, p.span);
            self.scopes
                .last_mut()
                .expect("scope stack never empty")
                .insert(
                    p.name.clone(),
                    LocalSlot {
                        addr: slot,
                        ty: pty,
                    },
                );
        }
        self.lower_block(&self.func.body)?;
        // Fall-through return for void functions (and a defensive `return 0`
        // for non-void ones whose control flow reaches the end).
        let span = self.func.span;
        if self.func.ret.is_void() {
            self.b.terminate(Terminator::Ret { value: None, span });
        } else {
            self.b.terminate(Terminator::Ret {
                value: Some(Operand::Const(0)),
                span,
            });
        }
        Ok(self.b.finish())
    }

    // ----- scope helpers ----------------------------------------------------

    fn lookup_local(&self, name: &str) -> Option<LocalSlot> {
        for scope in self.scopes.iter().rev() {
            if let Some(slot) = scope.get(name) {
                return Some(slot.clone());
            }
        }
        None
    }

    // ----- statements -------------------------------------------------------

    fn lower_block(&mut self, block: &ast::Block) -> Result<(), FrontendError> {
        self.scopes.push(HashMap::new());
        for stmt in &block.stmts {
            self.lower_stmt(stmt)?;
        }
        self.scopes.pop();
        Ok(())
    }

    fn lower_stmt(&mut self, stmt: &Stmt) -> Result<(), FrontendError> {
        match stmt {
            Stmt::Decl {
                name,
                ty,
                init,
                span,
            } => {
                let size = self.sema().size_of(ty, *span)?.max(1);
                let slot = self.b.alloca(size, name);
                // Explicit `private` annotations on locals pin the slot; the
                // rest is inferred (Section 2: annotations within U are not
                // trusted but do guide inference).
                if ty.taint == Taint::Private || ty.deref_taint() == Taint::Private {
                    self.b.value_info_mut(slot).declared_pointee = Some(Taint::Private);
                }
                self.scopes
                    .last_mut()
                    .expect("scope stack never empty")
                    .insert(
                        name.clone(),
                        LocalSlot {
                            addr: slot,
                            ty: ty.clone(),
                        },
                    );
                if let Some(init) = init {
                    let (val, _vty) = self.rvalue(init)?;
                    let size = MemSize::from_bytes(self.sema().access_size(ty));
                    self.b.store(slot, val, size, *span);
                }
            }
            Stmt::Expr(e) => {
                self.rvalue(e)?;
            }
            Stmt::If {
                cond,
                then_blk,
                else_blk,
                span,
            } => {
                let (c, _) = self.rvalue(cond)?;
                let then_bb = self.b.new_block();
                let else_bb = self.b.new_block();
                let join_bb = self.b.new_block();
                self.b.terminate(Terminator::CondBr {
                    cond: c,
                    then_bb,
                    else_bb,
                    span: *span,
                });
                self.b.switch_to(then_bb);
                self.lower_block(then_blk)?;
                self.b.terminate(Terminator::Br(join_bb));
                self.b.switch_to(else_bb);
                if let Some(e) = else_blk {
                    self.lower_block(e)?;
                }
                self.b.terminate(Terminator::Br(join_bb));
                self.b.switch_to(join_bb);
            }
            Stmt::While { cond, body, span } => {
                let head = self.b.new_block();
                let body_bb = self.b.new_block();
                let exit = self.b.new_block();
                self.b.terminate(Terminator::Br(head));
                self.b.switch_to(head);
                let (c, _) = self.rvalue(cond)?;
                self.b.terminate(Terminator::CondBr {
                    cond: c,
                    then_bb: body_bb,
                    else_bb: exit,
                    span: *span,
                });
                self.b.switch_to(body_bb);
                self.loops.push(LoopCtx {
                    continue_bb: head,
                    break_bb: exit,
                });
                self.lower_block(body)?;
                self.loops.pop();
                self.b.terminate(Terminator::Br(head));
                self.b.switch_to(exit);
            }
            Stmt::For {
                init,
                cond,
                step,
                body,
                span,
            } => {
                self.scopes.push(HashMap::new());
                if let Some(init) = init {
                    self.lower_stmt(init)?;
                }
                let head = self.b.new_block();
                let body_bb = self.b.new_block();
                let step_bb = self.b.new_block();
                let exit = self.b.new_block();
                self.b.terminate(Terminator::Br(head));
                self.b.switch_to(head);
                let c = match cond {
                    Some(c) => self.rvalue(c)?.0,
                    None => Operand::Const(1),
                };
                self.b.terminate(Terminator::CondBr {
                    cond: c,
                    then_bb: body_bb,
                    else_bb: exit,
                    span: *span,
                });
                self.b.switch_to(body_bb);
                self.loops.push(LoopCtx {
                    continue_bb: step_bb,
                    break_bb: exit,
                });
                self.lower_block(body)?;
                self.loops.pop();
                self.b.terminate(Terminator::Br(step_bb));
                self.b.switch_to(step_bb);
                if let Some(step) = step {
                    self.rvalue(step)?;
                }
                self.b.terminate(Terminator::Br(head));
                self.b.switch_to(exit);
                self.scopes.pop();
            }
            Stmt::Return { value, span } => {
                let v = match value {
                    Some(e) => Some(self.rvalue(e)?.0),
                    None => None,
                };
                self.b.terminate(Terminator::Ret {
                    value: v,
                    span: *span,
                });
                // Keep lowering any (unreachable) trailing statements into a
                // fresh block.
                let cont = self.b.new_block();
                self.b.switch_to(cont);
            }
            Stmt::Break { span } => {
                let Some(ctx) = self.loops.last() else {
                    return Err(FrontendError::sema("`break` outside of a loop", *span));
                };
                let target = ctx.break_bb;
                self.b.terminate(Terminator::Br(target));
                let cont = self.b.new_block();
                self.b.switch_to(cont);
            }
            Stmt::Continue { span } => {
                let Some(ctx) = self.loops.last() else {
                    return Err(FrontendError::sema("`continue` outside of a loop", *span));
                };
                let target = ctx.continue_bb;
                self.b.terminate(Terminator::Br(target));
                let cont = self.b.new_block();
                self.b.switch_to(cont);
            }
            Stmt::Block(b) => self.lower_block(b)?,
        }
        Ok(())
    }

    // ----- expressions ------------------------------------------------------

    /// Lower an expression to an operand carrying its value (an "rvalue").
    fn rvalue(&mut self, e: &Expr) -> Result<(Operand, Type), FrontendError> {
        match &e.kind {
            ExprKind::IntLit(v) => Ok((Operand::Const(*v), Type::int())),
            ExprKind::CharLit(c) => Ok((Operand::Const(*c as i64), Type::char())),
            ExprKind::StrLit(s) => {
                let name = self.parent.intern_string(s, e.span);
                let v = self.b.global_addr(&name);
                Ok((v.into(), Type::ptr(Type::char())))
            }
            ExprKind::SizeOf(ty) => {
                let size = self.sema().size_of(ty, e.span)?;
                Ok((Operand::Const(size as i64), Type::int()))
            }
            ExprKind::Ident(name) => {
                // Function names used as values become function pointers.
                if self.lookup_local(name).is_none() && !self.sema().globals.contains_key(name) {
                    if let Some(sig) = self.sema().signature(name) {
                        let v = self.b.func_addr(name);
                        return Ok((
                            v.into(),
                            Type::func_ptr(sig.params.clone(), sig.ret.clone()),
                        ));
                    }
                }
                let (addr, ty) = self.lower_addr(e)?;
                self.load_object(addr, &ty, e.span)
            }
            ExprKind::Unary { op, operand } => match op {
                UnOp::Deref => {
                    let (addr, ty) = self.lower_addr(e)?;
                    self.load_object(addr, &ty, e.span)
                }
                UnOp::AddrOf => {
                    let (addr, ty) = self.lower_addr(operand)?;
                    Ok((addr, Type::ptr(ty)))
                }
                UnOp::Neg => {
                    let (v, t) = self.rvalue(operand)?;
                    let r = self.b.bin(BinOp::Sub, 0i64, v);
                    Ok((r.into(), Type::new(TypeKind::Int, t.taint)))
                }
                UnOp::Not => {
                    let (v, t) = self.rvalue(operand)?;
                    let r = self.b.cmp(CmpOp::Eq, v, 0i64);
                    Ok((r.into(), Type::new(TypeKind::Int, t.taint)))
                }
                UnOp::BitNot => {
                    let (v, t) = self.rvalue(operand)?;
                    let r = self.b.bin(BinOp::Xor, v, -1i64);
                    Ok((r.into(), Type::new(TypeKind::Int, t.taint)))
                }
            },
            ExprKind::Binary { op, lhs, rhs } => self.lower_binary(*op, lhs, rhs, e.span),
            ExprKind::Assign { lhs, rhs } => {
                let (val, vty) = self.rvalue(rhs)?;
                let (addr, lty) = self.lower_addr(lhs)?;
                let size = MemSize::from_bytes(self.sema().access_size(&lty));
                self.b.store(addr, val, size, e.span);
                Ok((val, vty))
            }
            ExprKind::Call { callee, args } => self.lower_call(callee, args, e.span),
            ExprKind::Index { .. } | ExprKind::Member { .. } | ExprKind::Arrow { .. } => {
                let (addr, ty) = self.lower_addr(e)?;
                self.load_object(addr, &ty, e.span)
            }
            ExprKind::Cast { ty, expr } => {
                let (v, _) = self.rvalue(expr)?;
                let dst = self.b.copy(v);
                // A cast re-declares the pointee taint; this is exactly the
                // loophole the Minizip experiment (Section 7.6) exploits and
                // that the runtime checks close.
                if ty.is_pointer() {
                    self.b.value_info_mut(dst).declared_pointee = Some(ty.deref_taint());
                }
                Ok((dst.into(), ty.clone()))
            }
        }
    }

    /// Load a value of type `ty` from `addr`.  Aggregate-typed objects
    /// (arrays, structs) "decay" to their address instead of being loaded.
    fn load_object(
        &mut self,
        addr: Operand,
        ty: &Type,
        span: Span,
    ) -> Result<(Operand, Type), FrontendError> {
        if ty.is_array() {
            return Ok((addr, ty.decay()));
        }
        if ty.is_struct() {
            return Ok((addr, Type::ptr(ty.clone())));
        }
        let size = MemSize::from_bytes(self.sema().access_size(ty));
        let dst = self.b.load(addr, size, span);
        // Pointer-typed loads from arbitrary memory carry their static
        // pointee taint as a pin (see crate::taint).
        if ty.is_pointer() || ty.is_func_ptr() {
            self.b.value_info_mut(dst).declared_pointee = Some(ty.deref_taint());
        }
        if ty.taint == Taint::Private {
            self.b.value_info_mut(dst).declared_taint = Some(Taint::Private);
        }
        Ok((dst.into(), ty.clone()))
    }

    fn lower_binary(
        &mut self,
        op: AstBinOp,
        lhs: &Expr,
        rhs: &Expr,
        span: Span,
    ) -> Result<(Operand, Type), FrontendError> {
        // Short-circuit logical operators get their own control flow.
        if matches!(op, AstBinOp::LogicalAnd | AstBinOp::LogicalOr) {
            return self.lower_logical(op, lhs, rhs, span);
        }
        let (lv, lt) = self.rvalue(lhs)?;
        let (rv, rt) = self.rvalue(rhs)?;
        let taint = lt.taint.join(rt.taint);
        if let Some(cmp) = ast_cmp(op) {
            let r = self.b.cmp(cmp, lv, rv);
            return Ok((r.into(), Type::new(TypeKind::Int, taint)));
        }
        let bop = ast_bin(op);
        // Pointer arithmetic: scale the integer operand by the element size.
        let (lv, rv, result_ty) = if lt.decay().is_pointer() && rt.is_integer() {
            let elem = lt.decay().pointee().cloned().unwrap_or_else(Type::char);
            let esize = self.sema().size_of(&elem, span)?.max(1);
            let scaled = if esize == 1 {
                rv
            } else {
                self.b.bin(BinOp::Mul, rv, esize as i64).into()
            };
            (lv, scaled, lt.decay())
        } else if rt.decay().is_pointer() && lt.is_integer() && bop == BinOp::Add {
            let elem = rt.decay().pointee().cloned().unwrap_or_else(Type::char);
            let esize = self.sema().size_of(&elem, span)?.max(1);
            let scaled = if esize == 1 {
                lv
            } else {
                self.b.bin(BinOp::Mul, lv, esize as i64).into()
            };
            (rv, scaled, rt.decay())
        } else {
            (lv, rv, Type::new(TypeKind::Int, taint))
        };
        let r = self.b.bin(bop, lv, rv);
        Ok((r.into(), result_ty.with_outer_taint(taint)))
    }

    fn lower_logical(
        &mut self,
        op: AstBinOp,
        lhs: &Expr,
        rhs: &Expr,
        span: Span,
    ) -> Result<(Operand, Type), FrontendError> {
        let result = self.b.alloca(WORD_SIZE, "logical.tmp");
        let (lv, lt) = self.rvalue(lhs)?;
        let lbool = self.b.cmp(CmpOp::Ne, lv, 0i64);
        self.b.store(result, lbool, MemSize::B8, span);
        let rhs_bb = self.b.new_block();
        let end_bb = self.b.new_block();
        match op {
            AstBinOp::LogicalAnd => self.b.terminate(Terminator::CondBr {
                cond: lbool.into(),
                then_bb: rhs_bb,
                else_bb: end_bb,
                span,
            }),
            AstBinOp::LogicalOr => self.b.terminate(Terminator::CondBr {
                cond: lbool.into(),
                then_bb: end_bb,
                else_bb: rhs_bb,
                span,
            }),
            _ => unreachable!("lower_logical called with non-logical operator"),
        }
        self.b.switch_to(rhs_bb);
        let (rv, rt) = self.rvalue(rhs)?;
        let rbool = self.b.cmp(CmpOp::Ne, rv, 0i64);
        self.b.store(result, rbool, MemSize::B8, span);
        self.b.terminate(Terminator::Br(end_bb));
        self.b.switch_to(end_bb);
        let out = self.b.load(result, MemSize::B8, span);
        Ok((
            out.into(),
            Type::new(TypeKind::Int, lt.taint.join(rt.taint)),
        ))
    }

    fn lower_call(
        &mut self,
        callee: &Expr,
        args: &[Expr],
        span: Span,
    ) -> Result<(Operand, Type), FrontendError> {
        let mut lowered_args = Vec::new();
        for a in args {
            lowered_args.push(self.rvalue(a)?.0);
        }
        if let ExprKind::Ident(name) = &callee.kind {
            if self.lookup_local(name).is_none() {
                if let Some(sig) = self.sema().signature(name).cloned() {
                    let has_result = !sig.ret.is_void();
                    let dst = if sig.is_extern {
                        self.b.call_extern(name, lowered_args, has_result, span)
                    } else {
                        self.b.call(name, lowered_args, has_result, span)
                    };
                    if let Some(d) = dst {
                        if sig.ret.is_pointer() {
                            self.b.value_info_mut(d).declared_pointee = Some(sig.ret.deref_taint());
                        }
                    }
                    let op = dst.map(Operand::Value).unwrap_or(Operand::Const(0));
                    return Ok((op, sig.ret.clone()));
                }
            }
        }
        // Indirect call through a function-pointer value.
        let (target, tty) = self.rvalue(callee)?;
        let (param_types, ret) = match &tty.kind {
            TypeKind::FuncPtr { params, ret } => (params.clone(), ret.as_ref().clone()),
            _ => {
                return Err(FrontendError::sema(
                    "called value is neither a function nor a function pointer",
                    span,
                ))
            }
        };
        let has_result = !ret.is_void();
        let dst = if has_result {
            Some(self.b.new_value(None))
        } else {
            None
        };
        self.b.push(Inst::CallIndirect {
            dst,
            target,
            args: lowered_args,
            param_taints: param_types.iter().map(|t| t.decay().taint).collect(),
            ret_taint: ret.taint,
            span,
        });
        let op = dst.map(Operand::Value).unwrap_or(Operand::Const(0));
        Ok((op, ret))
    }

    /// Lower an lvalue expression to the address of the designated object.
    fn lower_addr(&mut self, e: &Expr) -> Result<(Operand, Type), FrontendError> {
        match &e.kind {
            ExprKind::Ident(name) => {
                if let Some(slot) = self.lookup_local(name) {
                    return Ok((slot.addr.into(), slot.ty));
                }
                if let Some(gty) = self.sema().globals.get(name).cloned() {
                    let v = self.b.global_addr(name);
                    return Ok((v.into(), gty));
                }
                Err(FrontendError::sema(
                    format!("unknown identifier `{name}`"),
                    e.span,
                ))
            }
            ExprKind::Unary {
                op: UnOp::Deref,
                operand,
            } => {
                let (ptr, pty) = self.rvalue(operand)?;
                let inner = match pty.decay().kind {
                    TypeKind::Ptr(inner) => *inner,
                    _ => {
                        return Err(FrontendError::sema(
                            format!("cannot dereference value of type `{pty}`"),
                            e.span,
                        ))
                    }
                };
                Ok((ptr, inner))
            }
            ExprKind::Index { base, index } => {
                let (bv, bty) = self.rvalue(base)?;
                let elem = match bty.decay().kind {
                    TypeKind::Ptr(inner) => *inner,
                    _ => {
                        return Err(FrontendError::sema(
                            format!("cannot index value of type `{bty}`"),
                            e.span,
                        ))
                    }
                };
                let (iv, _) = self.rvalue(index)?;
                let esize = self.sema().size_of(&elem, e.span)?.max(1);
                let scaled = if esize == 1 {
                    iv
                } else {
                    self.b.bin(BinOp::Mul, iv, esize as i64).into()
                };
                let addr = self.b.bin(BinOp::Add, bv, scaled);
                Ok((addr.into(), elem))
            }
            ExprKind::Member { base, field } => {
                let (baddr, bty) = self.lower_addr(base)?;
                let fty = self.sema().member_type(&bty, field, e.span, false)?;
                let layout = match &bty.kind {
                    TypeKind::Struct(n) => self.sema().struct_layout(n).cloned(),
                    _ => None,
                };
                let layout = layout.ok_or_else(|| {
                    FrontendError::sema(format!("`.` applied to non-struct `{bty}`"), e.span)
                })?;
                let offset = layout.field(field).map(|f| f.offset).unwrap_or(0);
                let addr = self.b.bin(BinOp::Add, baddr, offset as i64);
                Ok((addr.into(), fty))
            }
            ExprKind::Arrow { base, field } => {
                let (bv, bty) = self.rvalue(base)?;
                let fty = self.sema().member_type(&bty, field, e.span, true)?;
                let struct_name = match &bty.decay().kind {
                    TypeKind::Ptr(inner) => match &inner.kind {
                        TypeKind::Struct(n) => n.clone(),
                        _ => {
                            return Err(FrontendError::sema(
                                format!("`->` applied to non-struct pointer `{bty}`"),
                                e.span,
                            ))
                        }
                    },
                    _ => {
                        return Err(FrontendError::sema(
                            format!("`->` applied to non-pointer `{bty}`"),
                            e.span,
                        ))
                    }
                };
                let layout = self
                    .sema()
                    .struct_layout(&struct_name)
                    .cloned()
                    .ok_or_else(|| {
                        FrontendError::sema(format!("unknown struct `{struct_name}`"), e.span)
                    })?;
                let offset = layout.field(field).map(|f| f.offset).unwrap_or(0);
                let addr = self.b.bin(BinOp::Add, bv, offset as i64);
                Ok((addr.into(), fty))
            }
            ExprKind::Cast { ty, expr } => {
                // `*(int*)p = v` style writes through a cast.
                let (v, _) = self.lower_addr(expr)?;
                Ok((v, ty.clone()))
            }
            _ => Err(FrontendError::sema("expression is not an lvalue", e.span)),
        }
    }
}

fn ast_bin(op: AstBinOp) -> BinOp {
    match op {
        AstBinOp::Add => BinOp::Add,
        AstBinOp::Sub => BinOp::Sub,
        AstBinOp::Mul => BinOp::Mul,
        AstBinOp::Div => BinOp::Div,
        AstBinOp::Rem => BinOp::Rem,
        AstBinOp::Shl => BinOp::Shl,
        AstBinOp::Shr => BinOp::Shr,
        AstBinOp::And => BinOp::And,
        AstBinOp::Or => BinOp::Or,
        AstBinOp::Xor => BinOp::Xor,
        _ => unreachable!("comparison / logical handled separately"),
    }
}

fn ast_cmp(op: AstBinOp) -> Option<CmpOp> {
    Some(match op {
        AstBinOp::Eq => CmpOp::Eq,
        AstBinOp::Ne => CmpOp::Ne,
        AstBinOp::Lt => CmpOp::Lt,
        AstBinOp::Le => CmpOp::Le,
        AstBinOp::Gt => CmpOp::Gt,
        AstBinOp::Ge => CmpOp::Ge,
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use confllvm_minic::parse;

    fn lower_src(src: &str) -> Module {
        let prog = parse(src).unwrap();
        let sema = Sema::analyze(&prog).unwrap();
        lower(&prog, &sema, "test").unwrap()
    }

    #[test]
    fn lower_straight_line_function() {
        let m = lower_src("int add(int a, int b) { return a + b; }");
        let f = m.function("add").unwrap();
        assert!(f.inst_count() >= 3); // two param spills + the add
        assert!(f.has_ret_value);
    }

    #[test]
    fn lower_branches_and_loops() {
        let m = lower_src(
            "int count(int n) { int s = 0; int i; for (i = 0; i < n; i = i + 1) { if (i > 2) { s = s + i; } } return s; }",
        );
        let f = m.function("count").unwrap();
        assert!(f.blocks.len() >= 6);
    }

    #[test]
    fn lower_array_access_scales_index() {
        let m = lower_src("int get(int *p, int i) { return p[i]; }");
        let f = m.function("get").unwrap();
        let has_mul = f.blocks.iter().any(|b| {
            b.insts
                .iter()
                .any(|i| matches!(i, Inst::Bin { op: BinOp::Mul, .. }))
        });
        assert!(has_mul, "expected index scaling by element size");
    }

    #[test]
    fn lower_char_array_access_byte_sized() {
        let m = lower_src("int get(char *p, int i) { return p[i]; }");
        let f = m.function("get").unwrap();
        let has_byte_load = f.blocks.iter().any(|b| {
            b.insts.iter().any(|i| {
                matches!(
                    i,
                    Inst::Load {
                        size: MemSize::B1,
                        ..
                    }
                )
            })
        });
        assert!(has_byte_load);
    }

    #[test]
    fn lower_extern_call_and_globals() {
        let m = lower_src(
            "extern int send(int fd, char *buf, int n);\n\
             char logbuf[64];\n\
             private int key;\n\
             int f() { return send(1, logbuf, 64); }",
        );
        assert_eq!(m.externs.len(), 1);
        assert_eq!(m.globals.len(), 2);
        assert_eq!(m.global("key").unwrap().taint, Taint::Private);
        assert_eq!(m.global("logbuf").unwrap().taint, Taint::Public);
        let f = m.function("f").unwrap();
        let has_extern_call = f
            .blocks
            .iter()
            .any(|b| b.insts.iter().any(|i| matches!(i, Inst::CallExtern { .. })));
        assert!(has_extern_call);
    }

    #[test]
    fn lower_string_literal_becomes_global() {
        let m = lower_src(
            "extern int send(int fd, char *buf, int n);\n\
             int f() { return send(1, \"hello\", 5); }",
        );
        assert!(m.globals.iter().any(|g| g.name.starts_with(".str.")));
        let s = m
            .globals
            .iter()
            .find(|g| g.name.starts_with(".str."))
            .unwrap();
        assert_eq!(&s.init[..5], b"hello");
        assert_eq!(s.init[5], 0);
    }

    #[test]
    fn lower_struct_member_offsets() {
        let m = lower_src(
            "struct pair { int a; int b; };\n\
             int second(struct pair *p) { return p->b; }",
        );
        let f = m.function("second").unwrap();
        // Offset 8 must appear as an addend somewhere.
        let has_off8 = f.blocks.iter().any(|b| {
            b.insts.iter().any(|i| {
                matches!(
                    i,
                    Inst::Bin {
                        op: BinOp::Add,
                        rhs: Operand::Const(8),
                        ..
                    }
                )
            })
        });
        assert!(has_off8);
    }

    #[test]
    fn lower_function_pointer_calls() {
        let m = lower_src(
            "int inc(int x) { return x + 1; }\n\
             int apply(int (*fp)(int), int v) { return fp(v); }\n\
             int main() { return apply(inc, 41); }",
        );
        let apply = m.function("apply").unwrap();
        let has_icall = apply.blocks.iter().any(|b| {
            b.insts
                .iter()
                .any(|i| matches!(i, Inst::CallIndirect { .. }))
        });
        assert!(has_icall);
        let main = m.function("main").unwrap();
        let has_funcaddr = main
            .blocks
            .iter()
            .any(|b| b.insts.iter().any(|i| matches!(i, Inst::FuncAddr { .. })));
        assert!(has_funcaddr);
    }

    #[test]
    fn private_param_pins_are_recorded() {
        let m = lower_src("int auth(char *u, private char *pass) { return pass[0]; }");
        let f = m.function("auth").unwrap();
        assert_eq!(f.param_pointee_taints[1], Taint::Private);
        assert_eq!(f.param_pointee_taints[0], Taint::Public);
    }

    #[test]
    fn logical_and_short_circuits() {
        let m = lower_src("int f(int a, int b) { return a && b; }");
        let f = m.function("f").unwrap();
        assert!(f.blocks.len() >= 3, "short-circuit needs extra blocks");
    }

    #[test]
    fn break_and_continue_lower() {
        let m = lower_src(
            "int f(int n) { int i; int s = 0; for (i = 0; i < n; i = i + 1) { if (i == 3) { continue; } if (i == 7) { break; } s = s + 1; } return s; }",
        );
        assert!(m.function("f").is_some());
    }

    #[test]
    fn break_outside_loop_is_an_error() {
        let prog = parse("int f() { break; return 0; }").unwrap();
        let sema = Sema::analyze(&prog).unwrap();
        assert!(lower(&prog, &sema, "t").is_err());
    }
}
