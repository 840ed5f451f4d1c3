//! IR functions, globals and modules.

use confllvm_minic::{Span, Taint};

use crate::inst::{BlockId, Inst, Operand, Terminator, ValueId};

/// Per-value metadata.  `taint` is the taint of the value itself; for
/// pointer-like values `pointee_taint` records the taint of the memory the
/// pointer designates.  Both are filled in by the qualifier inference.
///
/// `declared_taint` / `declared_pointee` are optional *pins* coming from the
/// surface syntax (explicit `private` annotations, trusted extern signatures,
/// pointer casts and pointer-typed loads).  The inference must respect them;
/// everything left unpinned is solved for.
#[derive(Debug, Clone)]
pub struct ValueInfo {
    pub name: Option<String>,
    pub taint: Taint,
    pub pointee_taint: Taint,
    pub declared_taint: Option<Taint>,
    pub declared_pointee: Option<Taint>,
}

impl Default for ValueInfo {
    fn default() -> Self {
        ValueInfo {
            name: None,
            taint: Taint::Public,
            pointee_taint: Taint::Public,
            declared_taint: None,
            declared_pointee: None,
        }
    }
}

/// A basic block: a list of instructions followed by a single terminator.
#[derive(Debug, Clone)]
pub struct Block {
    pub id: BlockId,
    pub insts: Vec<Inst>,
    pub term: Terminator,
}

/// A function defined inside the untrusted compartment U.
#[derive(Debug, Clone)]
pub struct Function {
    pub name: String,
    /// Parameter values, in order.  Parameter `i` is `ValueId(i)`.
    pub params: Vec<ValueId>,
    /// Declared taints of the parameters (from the signature annotations).
    pub param_taints: Vec<Taint>,
    /// Declared pointee taints of the parameters (Public for non-pointers).
    pub param_pointee_taints: Vec<Taint>,
    /// Declared taint of the return value.
    pub ret_taint: Taint,
    /// Whether the function returns a value at all.
    pub has_ret_value: bool,
    pub blocks: Vec<Block>,
    pub values: Vec<ValueInfo>,
    pub span: Span,
}

impl Function {
    pub fn block(&self, id: BlockId) -> &Block {
        &self.blocks[id.0 as usize]
    }

    pub fn entry(&self) -> BlockId {
        BlockId(0)
    }

    pub fn value_info(&self, v: ValueId) -> &ValueInfo {
        &self.values[v.0 as usize]
    }

    pub fn value_info_mut(&mut self, v: ValueId) -> &mut ValueInfo {
        &mut self.values[v.0 as usize]
    }

    /// Taint of an operand: constants are public, values use their inferred
    /// taint.
    pub fn operand_taint(&self, op: Operand) -> Taint {
        match op {
            Operand::Const(_) => Taint::Public,
            Operand::Value(v) => self.value_info(v).taint,
        }
    }

    /// Number of instructions across all blocks (terminators excluded).
    pub fn inst_count(&self) -> usize {
        self.blocks.iter().map(|b| b.insts.len()).sum()
    }

    /// Predecessors of every block, indexed by block; a block branching to
    /// the same successor twice is listed twice.
    pub fn predecessors(&self) -> Vec<Vec<BlockId>> {
        let mut preds: Vec<Vec<BlockId>> = vec![Vec::new(); self.blocks.len()];
        for b in &self.blocks {
            for s in b.term.successors() {
                preds[s.0 as usize].push(b.id);
            }
        }
        preds
    }
}

/// A global variable owned by U, placed in the public or private region
/// according to its taint.
#[derive(Debug, Clone)]
pub struct Global {
    pub name: String,
    pub size: u64,
    /// Taint of the data stored in the global.
    pub taint: Taint,
    /// Optional initial bytes (zero-filled if shorter than `size`).
    pub init: Vec<u8>,
    pub span: Span,
}

/// The trusted-library (T) interface as declared by `extern` signatures.
/// These signatures are trusted: they define where private data enters and
/// leaves U (Section 2).
#[derive(Debug, Clone)]
pub struct ExternFunc {
    pub name: String,
    /// Taint of each parameter *value* (what ends up in the argument
    /// register).
    pub param_taints: Vec<Taint>,
    /// Pointee taint of each parameter (which region a pointer argument must
    /// lie in); equal to the value taint for non-pointer parameters.
    pub param_pointee_taints: Vec<Taint>,
    /// Which parameters are pointers (and therefore subject to range checks
    /// in the wrapper).
    pub param_is_pointer: Vec<bool>,
    pub ret_taint: Taint,
    pub has_ret_value: bool,
}

/// A whole compilation unit of U code.
#[derive(Debug, Clone, Default)]
pub struct Module {
    pub name: String,
    pub globals: Vec<Global>,
    pub externs: Vec<ExternFunc>,
    pub functions: Vec<Function>,
}

impl Module {
    pub fn function(&self, name: &str) -> Option<&Function> {
        self.functions.iter().find(|f| f.name == name)
    }

    pub fn global(&self, name: &str) -> Option<&Global> {
        self.globals.iter().find(|g| g.name == name)
    }

    pub fn extern_func(&self, name: &str) -> Option<&ExternFunc> {
        self.externs.iter().find(|e| e.name == name)
    }

    /// Index of an extern in the externals table (used by the stub/loader
    /// mechanism of Section 6).
    pub fn extern_index(&self, name: &str) -> Option<usize> {
        self.externs.iter().position(|e| e.name == name)
    }

    /// Total instruction count, a proxy for code size used in reports.
    pub fn inst_count(&self) -> usize {
        self.functions.iter().map(|f| f.inst_count()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FunctionBuilder;

    #[test]
    fn predecessors_of_diamond() {
        let mut b = FunctionBuilder::new("diamond", 1);
        let then_bb = b.new_block();
        let else_bb = b.new_block();
        let join = b.new_block();
        let cond = b.param(0);
        b.terminate(Terminator::CondBr {
            cond: cond.into(),
            then_bb,
            else_bb,
            span: Span::default(),
        });
        b.switch_to(then_bb);
        b.terminate(Terminator::Br(join));
        b.switch_to(else_bb);
        b.terminate(Terminator::Br(join));
        b.switch_to(join);
        b.terminate(Terminator::Ret {
            value: None,
            span: Span::default(),
        });
        let f = b.finish();
        let preds = f.predecessors();
        assert_eq!(preds[join.0 as usize].len(), 2);
        assert!(preds[f.entry().0 as usize].is_empty());
    }

    #[test]
    fn module_lookup() {
        let mut m = Module::default();
        m.externs.push(ExternFunc {
            name: "send".into(),
            param_taints: vec![Taint::Public, Taint::Public, Taint::Public],
            param_pointee_taints: vec![Taint::Public, Taint::Public, Taint::Public],
            param_is_pointer: vec![false, true, false],
            ret_taint: Taint::Public,
            has_ret_value: true,
        });
        m.externs.push(ExternFunc {
            name: "decrypt".into(),
            param_taints: vec![Taint::Public, Taint::Public],
            param_pointee_taints: vec![Taint::Public, Taint::Private],
            param_is_pointer: vec![true, true],
            ret_taint: Taint::Public,
            has_ret_value: false,
        });
        assert_eq!(m.extern_index("decrypt"), Some(1));
        assert!(m.extern_func("send").is_some());
        assert!(m.extern_func("missing").is_none());
    }
}
