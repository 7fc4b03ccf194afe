//! Variables and literals.

use std::fmt;
use std::ops::Not;

/// A propositional variable, allocated by [`Solver::new_var`].
///
/// [`Solver::new_var`]: crate::Solver::new_var
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct Var(u32);

impl Var {
    /// Builds a variable from its dense index. Only meaningful for indices
    /// previously handed out by a solver.
    pub fn from_index(index: usize) -> Var {
        Var(u32::try_from(index).expect("variable index fits in u32"))
    }

    /// Dense index, `0..num_vars`.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for Var {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "x{}", self.0)
    }
}

/// A literal: a variable or its negation.
///
/// Encoded as `2 * var + sign` so literals index flat watch lists directly.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct Lit(u32);

impl Lit {
    /// The positive literal of `v`.
    pub fn positive(v: Var) -> Lit {
        Lit(v.0 << 1)
    }

    /// The negative literal of `v`.
    pub fn negative(v: Var) -> Lit {
        Lit((v.0 << 1) | 1)
    }

    /// `v` when `positive`, `¬v` otherwise.
    pub fn new(v: Var, positive: bool) -> Lit {
        if positive {
            Lit::positive(v)
        } else {
            Lit::negative(v)
        }
    }

    /// The underlying variable.
    pub fn var(self) -> Var {
        Var(self.0 >> 1)
    }

    /// `true` for the positive literal.
    pub fn is_positive(self) -> bool {
        self.0 & 1 == 0
    }

    /// Dense code `2 * var + sign`, for flat per-literal tables.
    pub fn code(self) -> usize {
        self.0 as usize
    }

    /// The literal whose [`raw`](Lit::raw) code is `code`.
    pub(crate) fn from_raw(code: u32) -> Lit {
        Lit(code)
    }

    /// [`code`](Lit::code) as stored in the clause arena.
    pub(crate) fn raw(self) -> u32 {
        self.0
    }

    /// Parses a DIMACS literal: `3` → `x2` positive, `-3` → `x2` negated
    /// (DIMACS variables are 1-based). Returns `None` for `0`.
    pub fn from_dimacs(n: i64) -> Option<Lit> {
        if n == 0 {
            return None;
        }
        let v = Var::from_index((n.unsigned_abs() - 1) as usize);
        Some(Lit::new(v, n > 0))
    }
}

impl Not for Lit {
    type Output = Lit;

    fn not(self) -> Lit {
        Lit(self.0 ^ 1)
    }
}

impl fmt::Display for Lit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_positive() {
            write!(f, "{}", self.var())
        } else {
            write!(f, "!{}", self.var())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn literal_encoding_round_trips() {
        let v = Var::from_index(7);
        let p = Lit::positive(v);
        let n = Lit::negative(v);
        assert_eq!(p.var(), v);
        assert_eq!(n.var(), v);
        assert!(p.is_positive());
        assert!(!n.is_positive());
        assert_eq!(!p, n);
        assert_eq!(!n, p);
        assert_eq!(p.code(), 14);
        assert_eq!(n.code(), 15);
        assert_eq!(Lit::new(v, true), p);
        assert_eq!(Lit::new(v, false), n);
    }

    #[test]
    fn dimacs_literals_are_one_based_and_signed() {
        assert_eq!(Lit::from_dimacs(0), None);
        let p = Lit::from_dimacs(3).unwrap();
        assert_eq!(p.var().index(), 2);
        assert!(p.is_positive());
        let n = Lit::from_dimacs(-1).unwrap();
        assert_eq!(n.var().index(), 0);
        assert!(!n.is_positive());
    }

    #[test]
    fn display_forms() {
        let v = Var::from_index(3);
        assert_eq!(format!("{}", Lit::positive(v)), "x3");
        assert_eq!(format!("{}", Lit::negative(v)), "!x3");
    }
}
