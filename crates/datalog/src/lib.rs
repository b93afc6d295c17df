//! # bvq-datalog
//!
//! A positive Datalog engine for the `bvq` reproduction of Vardi,
//! *On the Complexity of Bounded-Variable Queries* (PODS 1995).
//!
//! Proposition 3.2 reduces Cook's Path Systems problem — a Datalog
//! program — to `FO³` query evaluation. This crate provides the Datalog
//! side: programs of positive Horn rules over a [`Database`]'s EDB
//! relations, evaluated naively or semi-naively, plus the translation of
//! single-IDB programs into FP least-fixpoint formulas (tested for
//! agreement with `bvq-core`'s evaluator).
//!
//! [`Database`]: bvq_relation::Database

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ast;
pub mod delta;
pub mod eval;
pub mod parser;
pub mod record;
pub mod translate;

pub use ast::{AtomTerm, BodyAtom, DatalogError, Head, Program, Rule};
pub use delta::{normalise_atom, project_head, rule_bindings, Bindings, RelSource};
pub use eval::{eval_naive, eval_naive_with, eval_seminaive, eval_seminaive_with, EvalOutput};
pub use parser::{parse_program, parse_program_spanned};
pub use record::{eval_recorded, Derivations, RecordedStep};
pub use translate::{to_fp_formula, to_fp_formula_multi};
