//! A small convenience builder for constructing IR functions, used by the
//! lowering pass and by unit tests.

use confllvm_minic::{Span, Taint};

use crate::inst::{BinOp, BlockId, CmpOp, Inst, MemSize, Operand, Terminator, ValueId};
use crate::module::{Block, Function, ValueInfo};

/// Builds one [`Function`] instruction by instruction.
pub struct FunctionBuilder {
    name: String,
    params: Vec<ValueId>,
    param_taints: Vec<Taint>,
    param_pointee_taints: Vec<Taint>,
    ret_taint: Taint,
    has_ret_value: bool,
    blocks: Vec<Block>,
    values: Vec<ValueInfo>,
    current: BlockId,
    span: Span,
}

impl FunctionBuilder {
    /// Create a builder for a function with `nparams` parameters, all public
    /// by default (override with [`FunctionBuilder::set_param_taints`]).
    pub fn new(name: &str, nparams: usize) -> Self {
        let mut values = Vec::new();
        let mut params = Vec::new();
        for i in 0..nparams {
            params.push(ValueId(i as u32));
            values.push(ValueInfo {
                name: Some(format!("arg{i}")),
                ..Default::default()
            });
        }
        let entry = Block {
            id: BlockId(0),
            insts: Vec::new(),
            term: Terminator::Ret {
                value: None,
                span: Span::default(),
            },
        };
        FunctionBuilder {
            name: name.to_string(),
            params,
            param_taints: vec![Taint::Public; nparams],
            param_pointee_taints: vec![Taint::Public; nparams],
            ret_taint: Taint::Public,
            has_ret_value: false,
            blocks: vec![entry],
            values,
            current: BlockId(0),
            span: Span::default(),
        }
    }

    pub fn set_span(&mut self, span: Span) {
        self.span = span;
    }

    pub fn set_param_taints(&mut self, taints: Vec<Taint>, pointee_taints: Vec<Taint>) {
        assert_eq!(taints.len(), self.params.len());
        assert_eq!(pointee_taints.len(), self.params.len());
        self.param_taints = taints;
        self.param_pointee_taints = pointee_taints;
    }

    pub fn set_ret(&mut self, taint: Taint, has_value: bool) {
        self.ret_taint = taint;
        self.has_ret_value = has_value;
    }

    /// The value representing parameter `i`.
    pub fn param(&self, i: usize) -> ValueId {
        self.params[i]
    }

    /// Mutable access to a value's metadata (for setting declared-taint pins
    /// during lowering).
    pub fn value_info_mut(&mut self, v: ValueId) -> &mut ValueInfo {
        &mut self.values[v.0 as usize]
    }

    /// Allocate a fresh value.
    pub fn new_value(&mut self, name: Option<&str>) -> ValueId {
        let id = ValueId(self.values.len() as u32);
        self.values.push(ValueInfo {
            name: name.map(|s| s.to_string()),
            ..Default::default()
        });
        id
    }

    /// Create a new (empty) block and return its id; the builder keeps
    /// emitting into the current block until [`FunctionBuilder::switch_to`].
    pub fn new_block(&mut self) -> BlockId {
        let id = BlockId(self.blocks.len() as u32);
        self.blocks.push(Block {
            id,
            insts: Vec::new(),
            term: Terminator::Ret {
                value: None,
                span: Span::default(),
            },
        });
        id
    }

    pub fn switch_to(&mut self, block: BlockId) {
        self.current = block;
    }

    /// Append an instruction to the current block.
    pub fn push(&mut self, inst: Inst) {
        self.blocks[self.current.0 as usize].insts.push(inst);
    }

    /// Set the terminator of the current block.
    pub fn terminate(&mut self, term: Terminator) {
        self.blocks[self.current.0 as usize].term = term;
    }

    // ----- typed helpers ----------------------------------------------------

    pub fn alloca(&mut self, size: u64, name: &str) -> ValueId {
        let dst = self.new_value(Some(name));
        self.push(Inst::Alloca {
            dst,
            size,
            name: name.to_string(),
        });
        dst
    }

    pub fn load(&mut self, addr: impl Into<Operand>, size: MemSize, span: Span) -> ValueId {
        let dst = self.new_value(None);
        self.push(Inst::Load {
            dst,
            addr: addr.into(),
            size,
            region: Taint::Public,
            span,
        });
        dst
    }

    pub fn store(
        &mut self,
        addr: impl Into<Operand>,
        value: impl Into<Operand>,
        size: MemSize,
        span: Span,
    ) {
        self.push(Inst::Store {
            addr: addr.into(),
            value: value.into(),
            size,
            region: Taint::Public,
            span,
        });
    }

    pub fn bin(&mut self, op: BinOp, lhs: impl Into<Operand>, rhs: impl Into<Operand>) -> ValueId {
        let dst = self.new_value(None);
        self.push(Inst::Bin {
            dst,
            op,
            lhs: lhs.into(),
            rhs: rhs.into(),
        });
        dst
    }

    pub fn cmp(&mut self, op: CmpOp, lhs: impl Into<Operand>, rhs: impl Into<Operand>) -> ValueId {
        let dst = self.new_value(None);
        self.push(Inst::Cmp {
            dst,
            op,
            lhs: lhs.into(),
            rhs: rhs.into(),
        });
        dst
    }

    pub fn copy(&mut self, src: impl Into<Operand>) -> ValueId {
        let dst = self.new_value(None);
        self.push(Inst::Copy {
            dst,
            src: src.into(),
        });
        dst
    }

    pub fn global_addr(&mut self, name: &str) -> ValueId {
        let dst = self.new_value(Some(name));
        self.push(Inst::GlobalAddr {
            dst,
            name: name.to_string(),
        });
        dst
    }

    pub fn func_addr(&mut self, name: &str) -> ValueId {
        let dst = self.new_value(Some(name));
        self.push(Inst::FuncAddr {
            dst,
            name: name.to_string(),
        });
        dst
    }

    pub fn call(
        &mut self,
        callee: &str,
        args: Vec<Operand>,
        has_result: bool,
        span: Span,
    ) -> Option<ValueId> {
        let dst = if has_result {
            Some(self.new_value(None))
        } else {
            None
        };
        self.push(Inst::Call {
            dst,
            callee: callee.to_string(),
            args,
            span,
        });
        dst
    }

    pub fn call_extern(
        &mut self,
        callee: &str,
        args: Vec<Operand>,
        has_result: bool,
        span: Span,
    ) -> Option<ValueId> {
        let dst = if has_result {
            Some(self.new_value(None))
        } else {
            None
        };
        self.push(Inst::CallExtern {
            dst,
            callee: callee.to_string(),
            args,
            span,
        });
        dst
    }

    /// Finish the function.
    pub fn finish(self) -> Function {
        Function {
            name: self.name,
            params: self.params,
            param_taints: self.param_taints,
            param_pointee_taints: self.param_pointee_taints,
            ret_taint: self.ret_taint,
            has_ret_value: self.has_ret_value,
            blocks: self.blocks,
            values: self.values,
            span: self.span,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_simple_add_function() {
        let mut b = FunctionBuilder::new("add", 2);
        b.set_ret(Taint::Public, true);
        let sum = b.bin(BinOp::Add, b.param(0), b.param(1));
        b.terminate(Terminator::Ret {
            value: Some(sum.into()),
            span: Span::default(),
        });
        let f = b.finish();
        assert_eq!(f.name, "add");
        assert_eq!(f.params.len(), 2);
        assert_eq!(f.inst_count(), 1);
        assert!(f.has_ret_value);
    }

    #[test]
    fn values_are_sequential() {
        let mut b = FunctionBuilder::new("f", 1);
        let v1 = b.new_value(None);
        let v2 = b.new_value(None);
        assert_eq!(v1, ValueId(1));
        assert_eq!(v2, ValueId(2));
    }
}
