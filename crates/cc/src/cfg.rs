//! Control-flow graph construction over the linear IR.
//!
//! The paper bounds the slicing cost "by the number of edges of the control
//! flow graph of the code being analyzed" — this module builds that graph;
//! the dataflow passes (liveness, slicing) iterate over it.

use crate::ir::{FuncIr, Inst, Label};
use std::collections::HashMap;

/// A basic block: a half-open range of instruction indices.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Block {
    /// First instruction index.
    pub start: usize,
    /// One past the last instruction index.
    pub end: usize,
    /// Successor block indices.
    pub succs: Vec<usize>,
    /// Predecessor block indices.
    pub preds: Vec<usize>,
}

/// The control-flow graph of one function.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Cfg {
    /// The blocks in layout order; block 0 is the entry.
    pub blocks: Vec<Block>,
}

impl Cfg {
    /// Builds the CFG of `f`.
    pub(crate) fn build(f: &FuncIr) -> Cfg {
        let body = &f.body;
        let n = body.len();
        if n == 0 {
            return Cfg { blocks: vec![Block { start: 0, end: 0, succs: vec![], preds: vec![] }] };
        }
        // Leaders: 0, every label, every instruction after a terminator.
        let mut is_leader = vec![false; n];
        is_leader[0] = true;
        for (i, inst) in body.iter().enumerate() {
            match inst {
                Inst::Label(_) => is_leader[i] = true,
                Inst::Jump { .. } | Inst::Branch { .. } | Inst::Ret { .. } if i + 1 < n => {
                    is_leader[i + 1] = true;
                }
                _ => {}
            }
        }
        let leaders: Vec<usize> = (0..n).filter(|&i| is_leader[i]).collect();
        let mut blocks: Vec<Block> = leaders
            .iter()
            .enumerate()
            .map(|(k, &start)| {
                let end = leaders.get(k + 1).copied().unwrap_or(n);
                Block { start, end, succs: vec![], preds: vec![] }
            })
            .collect();
        // Label → block index.
        let mut label_block: HashMap<Label, usize> = HashMap::new();
        for (bi, b) in blocks.iter().enumerate() {
            if let Inst::Label(l) = &body[b.start] {
                label_block.insert(*l, bi);
            }
        }
        // Edges.
        let mut edges: Vec<(usize, usize)> = Vec::new();
        for bi in 0..blocks.len() {
            let last = blocks[bi].end - 1;
            match &body[last] {
                Inst::Jump { target } => edges.push((bi, label_block[target])),
                Inst::Branch { target, .. } => {
                    edges.push((bi, label_block[target]));
                    if bi + 1 < blocks.len() {
                        edges.push((bi, bi + 1));
                    }
                }
                Inst::Ret { .. } => {}
                _ => {
                    if bi + 1 < blocks.len() {
                        edges.push((bi, bi + 1));
                    }
                }
            }
        }
        for (from, to) in edges {
            blocks[from].succs.push(to);
            blocks[to].preds.push(from);
        }
        Cfg { blocks }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::lower::lower_unit;
    use crate::parser::parse;
    use crate::sema::check;

    fn cfg_of(src: &str) -> (FuncIr, Cfg) {
        let unit = parse(src).unwrap();
        let info = check(&unit).unwrap();
        let f = lower_unit(&unit, &info).remove(0);
        let cfg = Cfg::build(&f);
        (f, cfg)
    }

    #[test]
    fn straight_line_is_one_block() {
        let (_, cfg) = cfg_of("int main() { int x = 1; return x; }");
        assert_eq!(cfg.blocks.len(), 1);
        assert!(cfg.blocks[0].succs.is_empty());
    }

    #[test]
    fn if_else_is_diamond() {
        let (_, cfg) =
            cfg_of("int main() { int x = 1; if (x) { x = 2; } else { x = 3; } return x; }");
        // entry, then, else, join — entry branches to then + else.
        assert_eq!(cfg.blocks[0].succs.len(), 2);
        // join has two predecessors.
        let join = cfg.blocks.iter().filter(|b| b.preds.len() == 2).count();
        assert!(join >= 1);
    }

    #[test]
    fn while_has_back_edge() {
        let (_, cfg) = cfg_of("int main() { int i = 0; while (i < 3) { i = i + 1; } return i; }");
        let back_edges = cfg
            .blocks
            .iter()
            .enumerate()
            .flat_map(|(bi, b)| b.succs.iter().map(move |&s| (bi, s)))
            .filter(|&(from, to)| to <= from)
            .count();
        assert_eq!(back_edges, 1);
    }

    #[test]
    fn preds_mirror_succs() {
        let (_, cfg) = cfg_of(
            "int main() { int i = 0; for (i = 0; i < 4; i = i + 1) { if (i) { i = i + 1; } } return i; }",
        );
        for (bi, b) in cfg.blocks.iter().enumerate() {
            for &s in &b.succs {
                assert!(cfg.blocks[s].preds.contains(&bi));
            }
            for &p in &b.preds {
                assert!(cfg.blocks[p].succs.contains(&bi));
            }
        }
        assert!(cfg.blocks.iter().map(|b| b.succs.len()).sum::<usize>() >= 4);
    }

    #[test]
    fn blocks_partition_instructions() {
        let (f, cfg) = cfg_of("int main() { int i = 0; while (i < 3) { i = i + 1; } return i; }");
        let covered: usize = cfg.blocks.iter().map(|b| b.end - b.start).sum();
        assert_eq!(covered, f.body.len());
        for i in 0..f.body.len() {
            assert!(cfg.blocks.iter().any(|b| (b.start..b.end).contains(&i)));
        }
    }
}
