//! Local-variable hoisting: the paper-compiler compatibility pass.
//!
//! The paper's compiler is gcc-for-SimpleScalar at a low optimization
//! level: its Figure 4 shows the loop counter living in memory
//! (`lw $2,i`). That codegen style matters for the evaluation, because the
//! naive all-loads/stores masking policy then wastes energy securing
//! plain loop-counter traffic that the selective policy leaves alone —
//! that is where most of the 63.6 µJ vs 52.6 µJ gap comes from.
//!
//! With [`crate::CompileOptions::locals_in_memory`] set, this pass
//! rewrites every named local into a synthesized global slot
//! (`__loc_<function>_<name>`), so each access becomes a real load/store.
//! Expression temporaries still live in registers.
//!
//! Limitation (shared with the static allocation of early compilers):
//! recursive functions reuse the same slots, so recursion is rejected
//! when this mode is enabled.

use crate::ast::{Expr, Function, Global, Stmt, Unit};
use crate::sema::SemaError;
use std::collections::HashSet;

/// Rewrites `unit` so that all named locals live in memory.
///
/// # Errors
///
/// Returns [`SemaError`] if a function is (directly) recursive — static
/// slots cannot support reentrancy.
pub(crate) fn hoist_locals(unit: &Unit) -> Result<Unit, SemaError> {
    let mut out = unit.clone();
    for f in &mut out.functions {
        if calls_in_body(&f.body, &f.name) {
            return Err(SemaError {
                line: f.line,
                message: format!(
                    "`{}` is recursive; recursion is unsupported with locals_in_memory",
                    f.name
                ),
            });
        }
        let mut locals: HashSet<String> = HashSet::new();
        // Parameters stay in registers (they arrive there); only declared
        // locals are hoisted.
        let body = std::mem::take(&mut f.body);
        f.body = hoist_body(body, f, &mut locals, &mut out.globals);
    }
    Ok(out)
}

fn slot_name(func: &str, local: &str) -> String {
    format!("__loc_{func}_{local}")
}

fn calls_in_body(body: &[Stmt], name: &str) -> bool {
    body.iter().any(|s| calls_in_stmt(s, name))
}

fn calls_in_stmt(s: &Stmt, name: &str) -> bool {
    match s {
        Stmt::Local { init, .. } => init.as_ref().is_some_and(|e| calls_in_expr(e, name)),
        Stmt::Assign { value, .. } => calls_in_expr(value, name),
        Stmt::AssignIndex { index, value, .. } => {
            calls_in_expr(index, name) || calls_in_expr(value, name)
        }
        Stmt::If { cond, then_body, else_body } => {
            calls_in_expr(cond, name)
                || calls_in_body(then_body, name)
                || calls_in_body(else_body, name)
        }
        Stmt::While { cond, body } => calls_in_expr(cond, name) || calls_in_body(body, name),
        Stmt::For { init, cond, step, body } => {
            init.as_deref().is_some_and(|s| calls_in_stmt(s, name))
                || cond.as_ref().is_some_and(|e| calls_in_expr(e, name))
                || step.as_deref().is_some_and(|s| calls_in_stmt(s, name))
                || calls_in_body(body, name)
        }
        Stmt::Return { value, .. } => value.as_ref().is_some_and(|e| calls_in_expr(e, name)),
        Stmt::Break { .. } | Stmt::Continue { .. } => false,
        Stmt::Expr(e) => calls_in_expr(e, name),
    }
}

fn calls_in_expr(e: &Expr, name: &str) -> bool {
    match e {
        Expr::Int(_) | Expr::Var(_) => false,
        Expr::Index { index, .. } => calls_in_expr(index, name),
        Expr::Binary { lhs, rhs, .. } => calls_in_expr(lhs, name) || calls_in_expr(rhs, name),
        Expr::Unary { operand, .. } => calls_in_expr(operand, name),
        Expr::Call { name: callee, args } => {
            callee == name || args.iter().any(|a| calls_in_expr(a, name))
        }
    }
}

fn hoist_body(
    body: Vec<Stmt>,
    f: &Function,
    locals: &mut HashSet<String>,
    globals: &mut Vec<Global>,
) -> Vec<Stmt> {
    let mut out = Vec::with_capacity(body.len());
    for s in body {
        out.extend(hoist_stmt(s, f, locals, globals));
    }
    out
}

fn hoist_stmt(
    s: Stmt,
    f: &Function,
    locals: &mut HashSet<String>,
    globals: &mut Vec<Global>,
) -> Vec<Stmt> {
    match s {
        Stmt::Local { name, init, line } => {
            locals.insert(name.clone());
            globals.push(Global {
                name: slot_name(&f.name, &name),
                len: None,
                init: Vec::new(),
                secure: false,
                konst: false,
                line,
            });
            // Preserve Tiny-C semantics: an uninitialized local reads 0,
            // and a loop-body declaration resets on every iteration.
            let value = init.map(|e| hoist_expr(e, f, locals)).unwrap_or(Expr::Int(0));
            vec![Stmt::Assign { name: slot_name(&f.name, &name), value, line }]
        }
        Stmt::Assign { name, value, line } => {
            let value = hoist_expr(value, f, locals);
            let name = if locals.contains(&name) { slot_name(&f.name, &name) } else { name };
            vec![Stmt::Assign { name, value, line }]
        }
        Stmt::AssignIndex { name, index, value, line } => vec![Stmt::AssignIndex {
            name,
            index: hoist_expr(index, f, locals),
            value: hoist_expr(value, f, locals),
            line,
        }],
        Stmt::If { cond, then_body, else_body } => vec![Stmt::If {
            cond: hoist_expr(cond, f, locals),
            then_body: hoist_body(then_body, f, locals, globals),
            else_body: hoist_body(else_body, f, locals, globals),
        }],
        Stmt::While { cond, body } => vec![Stmt::While {
            cond: hoist_expr(cond, f, locals),
            body: hoist_body(body, f, locals, globals),
        }],
        Stmt::For { init, cond, step, body } => {
            let init = init.map(|s| {
                let mut v = hoist_stmt(*s, f, locals, globals);
                debug_assert_eq!(v.len(), 1, "for-init hoists to one statement");
                Box::new(v.remove(0))
            });
            let cond = cond.map(|e| hoist_expr(e, f, locals));
            let body = hoist_body(body, f, locals, globals);
            let step = step.map(|s| {
                let mut v = hoist_stmt(*s, f, locals, globals);
                debug_assert_eq!(v.len(), 1);
                Box::new(v.remove(0))
            });
            vec![Stmt::For { init, cond, step, body }]
        }
        Stmt::Return { value, line } => {
            vec![Stmt::Return { value: value.map(|e| hoist_expr(e, f, locals)), line }]
        }
        s @ (Stmt::Break { .. } | Stmt::Continue { .. }) => vec![s],
        Stmt::Expr(e) => vec![Stmt::Expr(hoist_expr(e, f, locals))],
    }
}

fn hoist_expr(e: Expr, f: &Function, locals: &HashSet<String>) -> Expr {
    match e {
        Expr::Var(name) if locals.contains(&name) => Expr::Var(slot_name(&f.name, &name)),
        Expr::Var(_) | Expr::Int(_) => e,
        Expr::Index { name, index } => {
            Expr::Index { name, index: Box::new(hoist_expr(*index, f, locals)) }
        }
        Expr::Binary { op, lhs, rhs } => Expr::Binary {
            op,
            lhs: Box::new(hoist_expr(*lhs, f, locals)),
            rhs: Box::new(hoist_expr(*rhs, f, locals)),
        },
        Expr::Unary { op, operand } => {
            Expr::Unary { op, operand: Box::new(hoist_expr(*operand, f, locals)) }
        }
        Expr::Call { name, args } => {
            Expr::Call { name, args: args.into_iter().map(|a| hoist_expr(a, f, locals)).collect() }
        }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::parser::parse;

    #[test]
    fn locals_become_globals() {
        let unit = parse("int main() { int x = 3; int y; y = x + 1; return y; }").unwrap();
        let h = hoist_locals(&unit).unwrap();
        let names: Vec<&str> = h.globals.iter().map(|g| g.name.as_str()).collect();
        assert!(names.contains(&"__loc_main_x"));
        assert!(names.contains(&"__loc_main_y"));
        // No Local statements remain.
        fn has_local(body: &[Stmt]) -> bool {
            body.iter().any(|s| matches!(s, Stmt::Local { .. }))
        }
        assert!(!has_local(&h.functions[0].body));
    }

    #[test]
    fn shadowing_respects_declaration_order() {
        // `g` is a global; before the local `g` is declared, uses refer to
        // the global.
        let unit = parse("int g = 7; int main() { int a = g; int g = 1; return a + g; }").unwrap();
        let h = hoist_locals(&unit).unwrap();
        // First statement's RHS must still reference the global `g`.
        let Stmt::Assign { value, .. } = &h.functions[0].body[0] else { panic!() };
        assert_eq!(value, &Expr::Var("g".into()));
        // Third statement returns the local slot.
        let Stmt::Return { value: Some(Expr::Binary { rhs, .. }), .. } = &h.functions[0].body[2]
        else {
            panic!("{:?}", h.functions[0].body)
        };
        assert_eq!(**rhs, Expr::Var("__loc_main_g".into()));
    }

    #[test]
    fn recursion_rejected() {
        let unit = parse("int f(int n) { return f(n); } int main() { return f(1); }").unwrap();
        let e = hoist_locals(&unit).unwrap_err();
        assert!(e.message.contains("recursive"));
    }

    #[test]
    fn params_stay_untouched() {
        let unit =
            parse("int f(int a) { int b = a; return b; } int main() { return f(2); }").unwrap();
        let h = hoist_locals(&unit).unwrap();
        let f = &h.functions[0];
        // `a` reference unchanged; `b` hoisted.
        let Stmt::Assign { name, value, .. } = &f.body[0] else { panic!() };
        assert_eq!(name, "__loc_f_b");
        assert_eq!(value, &Expr::Var("a".into()));
    }
}
