//! Structural bytecode verifier.
//!
//! Lowering bugs in [`super::bytecode`] would otherwise surface as
//! index panics deep inside the executor (or, worse, as silently wrong
//! answers when a stale register is read). This pass checks every
//! invariant the executor relies on *before* anything runs:
//!
//! * every register index is in bounds (`< nregs`);
//! * every side-table slot (atom, coordinate map, fixpoint) is in
//!   bounds, atom arities match the database schema, and map/equality/
//!   quantifier coordinates stay within the variable bound `k`;
//! * registers are defined before use and never used after their
//!   `Drop`, block by block — entry sees the prelude, a fixpoint body
//!   sees the prelude and its own setup (exactly the environments the
//!   executor provides);
//! * the result register of each block is actually defined;
//! * every fixpoint loop has a non-empty body — the structural
//!   guarantee behind the per-round deadline checkpoint: the machine
//!   checks the deadline once per body execution, so a loop that
//!   executed no ops would also never reach a checkpoint.
//!
//! The verifier runs on every lowering under `debug_assertions` in
//! [`super::plan_query`] and unconditionally in the test suite.

use bvq_relation::CoordSource;
use bvq_relation::Database;

use super::bytecode::{op_dst, op_regs, Bytecode, Op, Reg};

/// Which registers a block may read without defining them itself.
struct Env<'a> {
    /// Registers defined by enclosing blocks (prelude, setup).
    visible: &'a [Vec<Reg>],
}

/// Verifies one lowered program. Returns a description of the first
/// violation found.
pub(crate) fn verify(bc: &Bytecode, db: &Database, k: usize) -> Result<(), String> {
    check_tables(bc, db, k)?;
    let prelude_defs = block_defs(&bc.prelude);
    check_block(bc, "prelude", &bc.prelude, Env { visible: &[] }, None, k)?;
    check_block(
        bc,
        "entry",
        &bc.entry,
        Env {
            visible: std::slice::from_ref(&prelude_defs),
        },
        Some(bc.result),
        k,
    )?;
    for (i, fc) in bc.fixes.iter().enumerate() {
        if fc.body.is_empty() {
            return Err(format!(
                "fixpoint f{i} ({}) has an empty body: its loop would never reach \
                 a deadline checkpoint",
                fc.name
            ));
        }
        let setup_defs = block_defs(&fc.setup);
        check_block(
            bc,
            &format!("f{i} setup"),
            &fc.setup,
            Env {
                visible: std::slice::from_ref(&prelude_defs),
            },
            None,
            k,
        )?;
        let visible = [prelude_defs.clone(), setup_defs];
        check_block(
            bc,
            &format!("f{i} body"),
            &fc.body,
            Env { visible: &visible },
            Some(fc.out),
            k,
        )?;
    }
    Ok(())
}

/// Registers a block defines.
fn block_defs(ops: &[Op]) -> Vec<Reg> {
    let mut defs: Vec<Reg> = ops.iter().filter_map(op_dst).collect();
    defs.sort_unstable();
    defs.dedup();
    defs
}

/// Side-table consistency: slot indices, atom arities against the
/// database schema, coordinate-map bounds.
fn check_tables(bc: &Bytecode, db: &Database, k: usize) -> Result<(), String> {
    for (i, spec) in bc.atoms.iter().enumerate() {
        let arity = db.schema().arity(spec.rel);
        if spec.args.len() != arity {
            return Err(format!(
                "atom slot {i} ({}) has {} argument(s) but relation arity is {arity}",
                spec.display,
                spec.args.len()
            ));
        }
        for t in &spec.args {
            if let bvq_logic::Term::Var(v) = t {
                if v.index() >= k {
                    return Err(format!(
                        "atom slot {i} ({}) references x{} beyond the k = {k} bound",
                        spec.display,
                        v.index() + 1
                    ));
                }
            }
        }
    }
    for (i, map) in bc.maps.iter().enumerate() {
        for src in map {
            if let CoordSource::Coord(j) = src {
                if *j >= k {
                    return Err(format!(
                        "coordinate map {i} reads coordinate {j} beyond the k = {k} bound"
                    ));
                }
            }
        }
    }
    for (i, fc) in bc.fixes.iter().enumerate() {
        if fc.apply_map as usize >= bc.maps.len() {
            return Err(format!(
                "fixpoint f{i} apply_map {} out of bounds",
                fc.apply_map
            ));
        }
        for f in &fc.toplevel_opposite {
            if *f as usize >= bc.fixes.len() {
                return Err(format!(
                    "fixpoint f{i} opposite reference f{f} out of bounds"
                ));
            }
        }
    }
    Ok(())
}

/// Linear walk of one block: bounds, def-before-use, no use-after-drop,
/// and (when `result` is given) that the block's result ends up defined
/// and live.
fn check_block(
    bc: &Bytecode,
    label: &str,
    ops: &[Op],
    env: Env<'_>,
    result: Option<Reg>,
    k: usize,
) -> Result<(), String> {
    let nregs = bc.nregs as Reg;
    let mut live: Vec<Reg> = Vec::new();
    let visible = |r: Reg, live: &[Reg]| -> bool {
        live.contains(&r)
            || env
                .visible
                .iter()
                .any(|defs| defs.binary_search(&r).is_ok())
    };
    for (pc, op) in ops.iter().enumerate() {
        // Register bounds for every operand.
        for r in op_regs(op) {
            if r >= nregs {
                return Err(format!(
                    "{label}@{pc}: register r{r} out of bounds (nregs = {nregs})"
                ));
            }
        }
        // Slot bounds and coordinate bounds per opcode.
        match op {
            Op::LoadAtom { slot, .. } if *slot as usize >= bc.atoms.len() => {
                return Err(format!("{label}@{pc}: atom slot {slot} out of bounds"));
            }
            Op::LoadEq { i, j, .. } if *i as usize >= k || *j as usize >= k => {
                return Err(format!(
                    "{label}@{pc}: equality coordinates ({i}, {j}) exceed k = {k}"
                ));
            }
            Op::LoadConstEq { i, .. } if *i as usize >= k => {
                return Err(format!("{label}@{pc}: coordinate {i} exceeds k = {k}"));
            }
            Op::Exists { coord, .. } | Op::Forall { coord, .. } if *coord as usize >= k => {
                return Err(format!(
                    "{label}@{pc}: quantified coordinate {coord} exceeds k = {k}"
                ));
            }
            Op::ReadFix { fix, map, .. } => {
                if *fix as usize >= bc.fixes.len() {
                    return Err(format!("{label}@{pc}: fixpoint f{fix} out of bounds"));
                }
                if *map as usize >= bc.maps.len() {
                    return Err(format!("{label}@{pc}: coordinate map {map} out of bounds"));
                }
            }
            Op::Fix { fix, .. } if *fix as usize >= bc.fixes.len() => {
                return Err(format!("{label}@{pc}: fixpoint f{fix} out of bounds"));
            }
            _ => {}
        }
        // Def-before-use. In-place ops read their dst too; Copy and the
        // quantifiers read only src.
        let sources: Vec<Reg> = match op {
            Op::LoadConst { .. }
            | Op::LoadAtom { .. }
            | Op::LoadEq { .. }
            | Op::LoadConstEq { .. }
            | Op::ReadFix { .. }
            | Op::Fix { .. } => vec![],
            Op::Copy { src, .. } => vec![*src],
            Op::Not { dst } => vec![*dst],
            Op::And { dst, src } | Op::AndNot { dst, src } | Op::Or { dst, src } => {
                vec![*dst, *src]
            }
            Op::Exists { src, .. } | Op::Forall { src, .. } => vec![*src],
            Op::Drop { reg } => vec![*reg],
        };
        for r in sources {
            if !visible(r, &live) {
                return Err(format!(
                    "{label}@{pc}: register r{r} read before definition (or after its drop)"
                ));
            }
        }
        match op {
            Op::Drop { reg } => {
                if !live.contains(reg) {
                    return Err(format!(
                        "{label}@{pc}: drop of r{reg}, which this block does not own"
                    ));
                }
                live.retain(|r| r != reg);
            }
            _ => {
                if let Some(d) = op_dst(op) {
                    if !live.contains(&d) {
                        live.push(d);
                    }
                }
            }
        }
    }
    if let Some(result) = result {
        if !visible(result, &live) {
            return Err(format!(
                "{label}: result register r{result} is not defined (or was dropped)"
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::super::bytecode;
    use super::*;
    use crate::ir::{self, CompileOpts};
    use bvq_logic::parser::parse_query;
    use bvq_logic::{patterns, Query, Term, Var};
    use bvq_relation::Database;

    fn db() -> Database {
        let edges: Vec<[u32; 2]> = (0..6).map(|i| [i, i + 1]).collect();
        Database::builder(7)
            .relation("E", 2, edges)
            .relation("P", 1, vec![[1u32], [4]])
            .build()
    }

    fn lower(q: &Query, k: usize) -> Bytecode {
        let db = db();
        let prog = ir::compile(
            &q.formula,
            &db,
            &[],
            CompileOpts {
                k,
                allow_pfp: true,
                allow_fix: true,
            },
        )
        .expect("compile");
        bytecode::lower(&prog, &db, k).expect("lower")
    }

    /// The verifier accepts every lowering of a representative corpus —
    /// run unconditionally (direct call, not `debug_assert!`), so the
    /// invariants hold in release builds too.
    #[test]
    fn verifier_accepts_the_compiled_corpus() {
        let corpus: Vec<(Query, usize)> = vec![
            (parse_query("(x1,x2) E(x1,x2)").unwrap(), 2),
            (
                parse_query("(x1,x2) exists x3. (E(x1,x3) & E(x3,x2) & ~P(x1))").unwrap(),
                3,
            ),
            (
                parse_query("() forall x1. exists x2. (E(x1,x2) | P(x1) | x1 = 0)").unwrap(),
                2,
            ),
            (Query::new(vec![Var(0)], patterns::reach_from_const(0)), 2),
            (Query::sentence(patterns::fairness(Term::Const(0))), 3),
            (Query::new(vec![Var(0)], patterns::pfp_reach(0)), 2),
            (Query::new(vec![Var(0)], patterns::pfp_parity_flip()), 2),
        ];
        for (q, k) in &corpus {
            verify(&lower(q, *k), &db(), *k)
                .unwrap_or_else(|e| panic!("verifier rejected `{q}`: {e}"));
        }
    }

    #[test]
    fn verifier_rejects_corrupted_bytecode() {
        let q = parse_query("(x1) exists x2. (E(x1,x2) & P(x2))").unwrap();
        let base = lower(&q, 2);

        // Out-of-bounds register.
        let mut bad = base.clone();
        bad.entry.push(Op::Not {
            dst: bad.nregs as Reg + 7,
        });
        assert!(verify(&bad, &db(), 2)
            .unwrap_err()
            .contains("out of bounds"));

        // Read before definition.
        let mut bad = base.clone();
        bad.nregs += 1;
        let ghost = (bad.nregs - 1) as Reg;
        bad.entry.insert(0, Op::Not { dst: ghost });
        assert!(verify(&bad, &db(), 2)
            .unwrap_err()
            .contains("before definition"));

        // Atom slot out of bounds.
        let mut bad = base.clone();
        bad.nregs += 1;
        let dst = (bad.nregs - 1) as Reg;
        bad.entry.insert(
            0,
            Op::LoadAtom {
                dst,
                slot: bad.atoms.len() as u32 + 3,
            },
        );
        assert!(verify(&bad, &db(), 2).unwrap_err().contains("atom slot"));

        // Quantifier coordinate beyond k.
        let mut bad = base.clone();
        let r = bad.result;
        bad.entry.push(Op::Exists {
            dst: r,
            src: r,
            coord: 9,
        });
        assert!(verify(&bad, &db(), 2).unwrap_err().contains("exceeds k"));

        // Dropped result.
        let mut bad = base;
        let r = bad.result;
        bad.entry.push(Op::Drop { reg: r });
        assert!(verify(&bad, &db(), 2).unwrap_err().contains("result"));
    }

    #[test]
    fn verifier_requires_nonempty_fixpoint_bodies() {
        let q = Query::new(vec![Var(0)], patterns::reach_from_const(0));
        let mut bc = lower(&q, 2);
        bc.fixes[0].body.clear();
        let err = verify(&bc, &db(), 2).unwrap_err();
        assert!(err.contains("deadline checkpoint"), "{err}");
    }
}
