//! Operation set supported by the PE ALUs.

use std::fmt;

/// The kind of operation a DFG node performs.
///
/// The set mirrors what CGRA compilers typically see after lowering a loop
/// body: integer/float arithmetic, comparisons, selects, memory accesses and
/// the loop-carried `Phi`. The mapper only cares about the [`OpClass`]
/// (whether a memory-capable PE is required); the full kind is kept for
/// realistic resource-MII accounting and for readable DOT dumps.
///
/// # Examples
///
/// ```
/// use rewire_arch::{OpKind, OpClass};
/// assert_eq!(OpKind::Load.class(), OpClass::Memory);
/// assert_eq!(OpKind::Mul.class(), OpClass::Compute);
/// assert!(OpKind::Store.is_memory());
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
#[non_exhaustive]
pub enum OpKind {
    /// Integer or floating-point addition.
    Add,
    /// Subtraction.
    Sub,
    /// Multiplication.
    Mul,
    /// Division.
    Div,
    /// Square root (used by cholesky/gramschmidt-style kernels).
    Sqrt,
    /// Left shift.
    Shl,
    /// Right shift.
    Shr,
    /// Bitwise and.
    And,
    /// Bitwise or.
    Or,
    /// Bitwise xor.
    Xor,
    /// Comparison producing a predicate.
    Cmp,
    /// Predicated select (`cond ? a : b`).
    Select,
    /// Memory load. Requires a memory-capable PE.
    Load,
    /// Memory store. Requires a memory-capable PE.
    Store,
    /// Loop-carried value merge (software-pipelining phi).
    Phi,
    /// Constant materialisation / immediate generation.
    Const,
    /// Address or induction-variable update.
    Addr,
}

/// Coarse resource class of an operation: does it need a memory-capable PE?
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum OpClass {
    /// Executes on any PE.
    Compute,
    /// Executes only on PEs with a memory port ([`Pe::memory_capable`]).
    ///
    /// [`Pe::memory_capable`]: crate::Pe::memory_capable
    Memory,
}

impl OpKind {
    /// Returns the resource class of this operation.
    pub const fn class(self) -> OpClass {
        match self {
            OpKind::Load | OpKind::Store => OpClass::Memory,
            _ => OpClass::Compute,
        }
    }

    /// Returns `true` for operations that must be placed on a memory-capable PE.
    pub const fn is_memory(self) -> bool {
        matches!(self.class(), OpClass::Memory)
    }

    /// Short lowercase mnemonic, used in DOT dumps and debug tables.
    pub const fn mnemonic(self) -> &'static str {
        match self {
            OpKind::Add => "add",
            OpKind::Sub => "sub",
            OpKind::Mul => "mul",
            OpKind::Div => "div",
            OpKind::Sqrt => "sqrt",
            OpKind::Shl => "shl",
            OpKind::Shr => "shr",
            OpKind::And => "and",
            OpKind::Or => "or",
            OpKind::Xor => "xor",
            OpKind::Cmp => "cmp",
            OpKind::Select => "sel",
            OpKind::Load => "ld",
            OpKind::Store => "st",
            OpKind::Phi => "phi",
            OpKind::Const => "const",
            OpKind::Addr => "addr",
        }
    }

    /// All operation kinds, useful for exhaustive tests and fuzzing.
    pub const ALL: [OpKind; 17] = [
        OpKind::Add,
        OpKind::Sub,
        OpKind::Mul,
        OpKind::Div,
        OpKind::Sqrt,
        OpKind::Shl,
        OpKind::Shr,
        OpKind::And,
        OpKind::Or,
        OpKind::Xor,
        OpKind::Cmp,
        OpKind::Select,
        OpKind::Load,
        OpKind::Store,
        OpKind::Phi,
        OpKind::Const,
        OpKind::Addr,
    ];
}

impl fmt::Display for OpKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.mnemonic())
    }
}

impl fmt::Display for OpClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OpClass::Compute => f.write_str("compute"),
            OpClass::Memory => f.write_str("memory"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn only_loads_and_stores_are_memory_class() {
        for op in OpKind::ALL {
            let expect_memory = matches!(op, OpKind::Load | OpKind::Store);
            assert_eq!(op.is_memory(), expect_memory, "{op:?}");
        }
    }

    #[test]
    fn mnemonics_are_unique() {
        let mut seen = std::collections::HashSet::new();
        for op in OpKind::ALL {
            assert!(seen.insert(op.mnemonic()), "duplicate mnemonic for {op:?}");
        }
    }

    #[test]
    fn display_matches_mnemonic() {
        assert_eq!(format!("{}", OpKind::Load), "ld");
        assert_eq!(format!("{}", OpClass::Memory), "memory");
    }
}
