//! The mini-C type system, including the `private` type qualifier of the
//! paper.
//!
//! Every type node carries a [`Taint`].  The qualifier written by the
//! programmer (`private int x`, `private char *buf`) applies to the *data*
//! of the base type, exactly as in the paper: `private int *p` is a public
//! pointer to a private integer (Section 5.1).

/// The two-point confidentiality lattice: `Public ⊑ Private`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub enum Taint {
    /// Low / public data, allowed to flow to public sinks.
    #[default]
    Public,
    /// High / private data, must never flow to public sinks without
    /// declassification through T.
    Private,
}

impl Taint {
    /// Least upper bound in the lattice.
    pub fn join(self, other: Taint) -> Taint {
        if self == Taint::Private || other == Taint::Private {
            Taint::Private
        } else {
            Taint::Public
        }
    }

    /// `self ⊑ other` in the lattice: public may flow anywhere; private may
    /// only flow to private.
    pub fn flows_to(self, other: Taint) -> bool {
        self == Taint::Public || other == Taint::Private
    }

    /// Short display name used in diagnostics and disassembly listings.
    pub fn name(self) -> &'static str {
        match self {
            Taint::Public => "public",
            Taint::Private => "private",
        }
    }

    /// Single taint bit as used in the magic sequences (Section 4).
    pub fn bit(self) -> u64 {
        match self {
            Taint::Public => 0,
            Taint::Private => 1,
        }
    }

    /// Inverse of [`Taint::bit`].
    pub fn from_bit(bit: u64) -> Taint {
        if bit & 1 == 1 {
            Taint::Private
        } else {
            Taint::Public
        }
    }
}

impl std::fmt::Display for Taint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Structural part of a mini-C type.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TypeKind {
    Void,
    /// 64-bit signed integer (the only integer width besides `char`).
    Int,
    /// 8-bit byte.
    Char,
    /// Pointer to another type.
    Ptr(Box<Type>),
    /// Fixed-size array (only allowed for locals and globals).
    Array(Box<Type>, u64),
    /// Named struct; layout is resolved by semantic analysis.
    Struct(String),
    /// Function pointer signature: parameter types and return type.
    FuncPtr {
        params: Vec<Type>,
        ret: Box<Type>,
    },
}

/// A mini-C type: structure plus the taint of the immediate value of this
/// type.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Type {
    pub kind: TypeKind,
    pub taint: Taint,
}

impl Type {
    pub fn new(kind: TypeKind, taint: Taint) -> Self {
        Type { kind, taint }
    }

    pub fn void() -> Self {
        Type::new(TypeKind::Void, Taint::Public)
    }

    pub fn int() -> Self {
        Type::new(TypeKind::Int, Taint::Public)
    }

    pub fn private_int() -> Self {
        Type::new(TypeKind::Int, Taint::Private)
    }

    pub fn char() -> Self {
        Type::new(TypeKind::Char, Taint::Public)
    }

    /// Pointer to `inner`.  The pointer value itself is public (addresses are
    /// not secrets); what it points to carries `inner`'s taint.
    pub fn ptr(inner: Type) -> Self {
        Type::new(TypeKind::Ptr(Box::new(inner)), Taint::Public)
    }

    pub fn array(elem: Type, len: u64) -> Self {
        let taint = elem.taint;
        Type::new(TypeKind::Array(Box::new(elem), len), taint)
    }

    pub fn strukt(name: &str) -> Self {
        Type::new(TypeKind::Struct(name.to_string()), Taint::Public)
    }

    pub fn func_ptr(params: Vec<Type>, ret: Type) -> Self {
        Type::new(
            TypeKind::FuncPtr {
                params,
                ret: Box::new(ret),
            },
            Taint::Public,
        )
    }

    /// Apply the `private` qualifier the way the surface syntax does: it
    /// attaches to the *base* type of the declaration (the innermost
    /// non-pointer, non-array type).
    pub fn with_base_taint(mut self, taint: Taint) -> Self {
        match &mut self.kind {
            TypeKind::Ptr(inner) => {
                let new_inner = inner.as_ref().clone().with_base_taint(taint);
                **inner = new_inner;
            }
            TypeKind::Array(elem, _) => {
                let new_elem = elem.as_ref().clone().with_base_taint(taint);
                self.taint = new_elem.taint;
                **elem = new_elem;
            }
            _ => self.taint = taint,
        }
        self
    }

    /// Replace the outermost taint (used when a struct field inherits the
    /// qualifier of the struct-typed variable it is accessed through;
    /// Section 5.1).
    pub fn with_outer_taint(mut self, taint: Taint) -> Self {
        self.taint = taint;
        self
    }

    /// The pointed-to type, if this is a pointer.
    pub fn pointee(&self) -> Option<&Type> {
        match &self.kind {
            TypeKind::Ptr(inner) => Some(inner),
            _ => None,
        }
    }

    pub fn is_void(&self) -> bool {
        self.kind == TypeKind::Void
    }

    pub fn is_pointer(&self) -> bool {
        matches!(self.kind, TypeKind::Ptr(_))
    }

    pub fn is_array(&self) -> bool {
        matches!(self.kind, TypeKind::Array(..))
    }

    pub fn is_struct(&self) -> bool {
        matches!(self.kind, TypeKind::Struct(_))
    }

    pub fn is_func_ptr(&self) -> bool {
        matches!(self.kind, TypeKind::FuncPtr { .. })
    }

    pub fn is_integer(&self) -> bool {
        matches!(self.kind, TypeKind::Int | TypeKind::Char)
    }

    /// Arrays decay to pointers to their element type when used as values,
    /// as in C.
    pub fn decay(&self) -> Type {
        match &self.kind {
            TypeKind::Array(elem, _) => Type::ptr(elem.as_ref().clone()),
            _ => self.clone(),
        }
    }

    /// The taint of the data obtained by dereferencing this type once
    /// (pointers and arrays); falls back to the type's own taint for scalars.
    pub fn deref_taint(&self) -> Taint {
        match &self.kind {
            TypeKind::Ptr(inner) | TypeKind::Array(inner, _) => inner.taint,
            _ => self.taint,
        }
    }
}

impl std::fmt::Display for Type {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.taint == Taint::Private {
            write!(f, "private ")?;
        }
        match &self.kind {
            TypeKind::Void => write!(f, "void"),
            TypeKind::Int => write!(f, "int"),
            TypeKind::Char => write!(f, "char"),
            TypeKind::Ptr(inner) => write!(f, "{}*", inner),
            TypeKind::Array(elem, n) => write!(f, "{}[{}]", elem, n),
            TypeKind::Struct(name) => write!(f, "struct {}", name),
            TypeKind::FuncPtr { params, ret } => {
                write!(f, "{} (*)(", ret)?;
                for (i, p) in params.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{}", p)?;
                }
                write!(f, ")")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lattice_laws() {
        use Taint::*;
        assert_eq!(Public.join(Public), Public);
        assert_eq!(Public.join(Private), Private);
        assert_eq!(Private.join(Public), Private);
        assert_eq!(Private.join(Private), Private);
        assert!(Public.flows_to(Public));
        assert!(Public.flows_to(Private));
        assert!(Private.flows_to(Private));
        assert!(!Private.flows_to(Public));
    }

    #[test]
    fn taint_bits_roundtrip() {
        assert_eq!(Taint::from_bit(Taint::Private.bit()), Taint::Private);
        assert_eq!(Taint::from_bit(Taint::Public.bit()), Taint::Public);
    }

    #[test]
    fn base_taint_attaches_to_innermost() {
        // `private int *p` — public pointer to private int.
        let t = Type::ptr(Type::int()).with_base_taint(Taint::Private);
        assert_eq!(t.taint, Taint::Public);
        assert_eq!(t.pointee().unwrap().taint, Taint::Private);

        // `private char buf[16]` — private array of private chars.
        let t = Type::array(Type::char(), 16).with_base_taint(Taint::Private);
        assert_eq!(t.taint, Taint::Private);
        assert_eq!(t.deref_taint(), Taint::Private);

        // Scalar.
        let t = Type::int().with_base_taint(Taint::Private);
        assert_eq!(t.taint, Taint::Private);
    }

    #[test]
    fn array_decay() {
        let arr = Type::array(Type::char().with_base_taint(Taint::Private), 32);
        let decayed = arr.decay();
        assert!(decayed.is_pointer());
        assert_eq!(decayed.pointee().unwrap().taint, Taint::Private);
        assert_eq!(arr.deref_taint(), Taint::Private);
    }

    #[test]
    fn display_forms() {
        assert_eq!(Type::private_int().to_string(), "private int");
        let private_char = Type::char().with_base_taint(Taint::Private);
        assert_eq!(Type::ptr(private_char).to_string(), "private char*");
        assert_eq!(Type::array(Type::int(), 4).to_string(), "int[4]");
    }
}
