//! Functional semantics of filtering and transformation.
//!
//! This module is the single definition of *what* a PE computes,
//! independent of *how long* it takes. It is used three ways:
//!
//! 1. as the reference oracle the cycle-level model is tested against,
//! 2. as the ARM **software NDP** implementation (the paper's SW bars in
//!    Fig. 7 run "the same general algorithm" on the device CPU), and
//! 3. as a fast bulk path for large simulations where per-cycle stepping
//!    would be wasteful (timing is then supplied by the validated
//!    analytic estimator).
//!
//! The byte-level implementation is allocation-free per tuple: filters
//! read lanes directly out of the packed bytes, and the transformation is
//! a precomputed list of byte-range copies — mirroring the generated
//! hardware, where both are pure routing.

use crate::tuple::{LayoutCodec, Slot};
use ndp_ir::{CmpOp, PeConfig};
use ndp_spec::PrimTy;
use std::collections::HashMap;
use std::sync::Arc;

/// One configured filtering stage: compare lane `lane` against `value`
/// under operator `op_code` (an encoding from the PE's operator set).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FilterRule {
    pub lane: u32,
    pub op_code: u32,
    pub value: u64,
}

impl FilterRule {
    /// A rule that lets every tuple pass (operator `nop`).
    pub fn pass() -> Self {
        FilterRule { lane: 0, op_code: 0, value: 0 }
    }
}

/// Semantics of a custom comparator operation.
pub type CustomOpFn = Arc<dyn Fn(PrimTy, u64, u64) -> bool + Send + Sync>;

/// Operator-code dispatch table built from a PE configuration.
///
/// Standard codes evaluate via [`CmpOp::eval`]; custom codes dispatch to
/// registered closures (the paper's Verilog/VHDL extension hook). Codes
/// outside the set evaluate to *false*, matching the hardware's `default`
/// case.
#[derive(Clone)]
pub struct OpTable {
    standard: Vec<Option<CmpOp>>,
    custom: HashMap<u32, CustomOpFn>,
}

impl std::fmt::Debug for OpTable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("OpTable")
            .field("standard", &self.standard)
            .field("custom_codes", &self.custom.keys().collect::<Vec<_>>())
            .finish()
    }
}

impl OpTable {
    /// Build the table from the configuration's operator set. Custom
    /// operators start unbound; [`OpTable::bind_custom`] attaches their
    /// semantics.
    pub fn from_config(cfg: &PeConfig) -> Self {
        let max_code = cfg.operators.iter().map(|o| o.code).max().unwrap_or(0) as usize;
        let mut standard = vec![None; max_code + 1];
        for op in &cfg.operators {
            standard[op.code as usize] = op.op;
        }
        OpTable { standard, custom: HashMap::new() }
    }

    /// Bind the semantics of the custom operator named `name`.
    ///
    /// Returns `false` if the configuration has no such operator.
    pub fn bind_custom(
        &mut self,
        cfg: &PeConfig,
        name: &str,
        f: impl Fn(PrimTy, u64, u64) -> bool + Send + Sync + 'static,
    ) -> bool {
        match cfg.operators.iter().find(|o| o.name == name && o.op.is_none()) {
            Some(op) => {
                self.custom.insert(op.code, Arc::new(f));
                true
            }
            None => false,
        }
    }

    /// The encoding of standard operator `op`, if the configuration
    /// requested it (encodings follow the requested order).
    pub fn code(&self, op: CmpOp) -> Option<u32> {
        self.standard.iter().position(|o| *o == Some(op)).map(|c| c as u32)
    }

    /// Human-readable symbol of operator `code` (explain/debug
    /// rendering). Encodings are per-configuration, so there is no
    /// global code→symbol map; unknown codes print as `op#N`.
    pub fn symbol(&self, code: u32) -> String {
        match self.standard.get(code as usize) {
            Some(Some(op)) => match op {
                CmpOp::Nop => "nop",
                CmpOp::Ne => "!=",
                CmpOp::Eq => "==",
                CmpOp::Gt => ">",
                CmpOp::Ge => ">=",
                CmpOp::Lt => "<",
                CmpOp::Le => "<=",
            }
            .to_string(),
            _ if self.custom.contains_key(&code) => format!("custom#{code}"),
            _ => format!("op#{code}"),
        }
    }

    /// Evaluate operator `code` on `(element, reference)` of type `prim`.
    pub fn eval(&self, code: u32, prim: PrimTy, element: u64, reference: u64) -> bool {
        if let Some(Some(op)) = self.standard.get(code as usize) {
            return op.eval(prim, element, reference);
        }
        if let Some(f) = self.custom.get(&code) {
            return f(prim, element, reference);
        }
        false
    }
}

/// Running reduction over the passing tuples of one or more blocks
/// (the Aggregation Unit's semantics, shared by the cycle-level model
/// and the ARM software path).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AggAccumulator {
    pub op: ndp_ir::AggOp,
    /// Lane feeding the reduction (ignored by `Count`).
    pub lane: u32,
    prim: PrimTy,
    state: u64,
    seen: bool,
}

impl AggAccumulator {
    /// Start an accumulator for `op` over `lane` of `bp`'s input layout.
    pub fn new(bp: &BlockProcessor, op: ndp_ir::AggOp, lane: u32) -> Option<Self> {
        let prim = bp.lane_prim(lane)?;
        Some(Self { op, lane, prim, state: 0, seen: false })
    }

    /// Fold one passing tuple's lane value in.
    pub fn update(&mut self, lane_value: u64) {
        use ndp_ir::AggOp;
        match self.op {
            AggOp::Count => self.state = self.state.wrapping_add(1),
            AggOp::Sum => self.state = self.state.wrapping_add(lane_value),
            AggOp::Min => {
                if !self.seen || CmpOp::Lt.eval(self.prim, lane_value, self.state) {
                    self.state = lane_value;
                }
            }
            AggOp::Max => {
                if !self.seen || CmpOp::Gt.eval(self.prim, lane_value, self.state) {
                    self.state = lane_value;
                }
            }
        }
        self.seen = true;
    }

    /// Current accumulator value (0 if nothing passed yet).
    pub fn value(&self) -> u64 {
        self.state
    }

    /// Whether any tuple has been folded in (distinguishes "min = 0"
    /// from "no rows").
    pub fn any(&self) -> bool {
        self.seen
    }
}

/// Statistics of one processed block.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct OracleStats {
    /// Complete tuples parsed from the input.
    pub tuples_in: u32,
    /// Tuples that passed every filtering stage.
    pub tuples_out: u32,
    /// Result bytes produced.
    pub bytes_out: u32,
    /// Trailing input bytes that did not form a complete tuple (dropped,
    /// like the hardware input buffer at end-of-block).
    pub trailing_bytes: u32,
}

/// Precompiled filter + transform executor for one PE configuration.
pub struct BlockProcessor {
    in_codec: LayoutCodec,
    /// Per lane: packed byte offset, length, primitive type.
    lane_slots: Vec<(usize, usize, PrimTy)>,
    /// Byte moves `(src_off, dst_off, len)` implementing the transform.
    byte_moves: Vec<(usize, usize, usize)>,
    out_tuple_bytes: usize,
}

impl BlockProcessor {
    /// Precompile for `cfg`.
    pub fn new(cfg: &PeConfig) -> Self {
        let in_codec = LayoutCodec::new(&cfg.input);
        let out_codec = LayoutCodec::new(&cfg.output);

        let mut lane_slots = vec![(0usize, 0usize, PrimTy::U8); in_codec.lanes()];
        for idx in 0..cfg.input.fields.len() {
            if let Slot::Lane { lane, prim } = in_codec.slot(idx) {
                let (off, len) = in_codec.field_range(idx);
                lane_slots[lane as usize] = (off, len, prim);
            }
        }

        let byte_moves = cfg
            .transform
            .moves
            .iter()
            .map(|mv| {
                let (src_off, len) = in_codec.field_range(mv.src);
                let (dst_off, dlen) = out_codec.field_range(mv.dst);
                debug_assert_eq!(len, dlen);
                (src_off, dst_off, len)
            })
            .collect();

        Self { in_codec, lane_slots, byte_moves, out_tuple_bytes: out_codec.tuple_bytes() }
    }

    /// Input tuple size in bytes.
    pub fn in_tuple_bytes(&self) -> usize {
        self.in_codec.tuple_bytes()
    }

    /// Number of comparator lanes of the input layout.
    pub fn lanes(&self) -> usize {
        self.lane_slots.len()
    }

    /// Output tuple size in bytes.
    pub fn out_tuple_bytes(&self) -> usize {
        self.out_tuple_bytes
    }

    /// Whether the transformation is the identity on the input layout:
    /// output tuples are byte-for-byte the input tuples. Post-PE
    /// (residual) predicate evaluation over the output stream is only
    /// meaningful in that case — the input lanes still exist there.
    pub fn identity_transform(&self) -> bool {
        if self.out_tuple_bytes != self.in_codec.tuple_bytes() {
            return false;
        }
        let mut covered = vec![false; self.out_tuple_bytes];
        for &(src, dst, len) in &self.byte_moves {
            if src != dst {
                return false;
            }
            for c in &mut covered[dst..dst + len] {
                *c = true;
            }
        }
        covered.iter().all(|&c| c)
    }

    /// Raw lane value of `tuple` (packed bytes), zero-extended like the
    /// hardware; `None` for out-of-range lanes.
    pub fn lane_value(&self, tuple: &[u8], lane: u32) -> Option<u64> {
        let &(off, len, _) = self.lane_slots.get(lane as usize)?;
        let mut v = 0u64;
        for (i, b) in tuple[off..off + len].iter().enumerate() {
            v |= u64::from(*b) << (8 * i);
        }
        Some(v)
    }

    /// Primitive type of a lane.
    pub fn lane_prim(&self, lane: u32) -> Option<PrimTy> {
        self.lane_slots.get(lane as usize).map(|&(_, _, p)| p)
    }

    /// Does `tuple` (packed input bytes) pass all `rules`?
    pub fn tuple_passes(&self, tuple: &[u8], rules: &[FilterRule], ops: &OpTable) -> bool {
        rules.iter().all(|r| {
            let Some(&(off, len, prim)) = self.lane_slots.get(r.lane as usize) else {
                // Out-of-range lane select: the hardware mux wraps; we
                // model the stricter behaviour of rejecting the tuple.
                return false;
            };
            let mut v = 0u64;
            for (i, b) in tuple[off..off + len].iter().enumerate() {
                v |= u64::from(*b) << (8 * i);
            }
            ops.eval(r.op_code, prim, v, r.value)
        })
    }

    /// Transform one passing tuple, appending its output bytes to `out`.
    pub fn transform_into(&self, tuple: &[u8], out: &mut Vec<u8>) {
        let start = out.len();
        out.resize(start + self.out_tuple_bytes, 0);
        for &(src, dst, len) in &self.byte_moves {
            out[start + dst..start + dst + len].copy_from_slice(&tuple[src..src + len]);
        }
    }

    /// Process a whole block: filter every complete tuple, transform the
    /// survivors, append results to `out`.
    pub fn process_block(
        &self,
        input: &[u8],
        rules: &[FilterRule],
        ops: &OpTable,
        out: &mut Vec<u8>,
    ) -> OracleStats {
        let ts = self.in_tuple_bytes();
        let mut stats = OracleStats::default();
        let whole = input.len() / ts * ts;
        stats.trailing_bytes = (input.len() - whole) as u32;
        for tuple in input[..whole].chunks_exact(ts) {
            stats.tuples_in += 1;
            if self.tuple_passes(tuple, rules, ops) {
                stats.tuples_out += 1;
                self.transform_into(tuple, out);
            }
        }
        stats.bytes_out = (stats.tuples_out as usize * self.out_tuple_bytes) as u32;
        stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ndp_ir::{elaborate, elaborate_with_custom_ops};
    use ndp_spec::parse;

    const POINTS: &str = "
        /* @autogen define parser P with input = Point3D, output = Point2D,
           mapping = { output.x = input.y, output.y = input.z } */
        typedef struct { uint32_t x, y, z; } Point3D;
        typedef struct { uint32_t x, y; } Point2D;
    ";

    fn points_block(points: &[(u32, u32, u32)]) -> Vec<u8> {
        let mut v = Vec::new();
        for &(x, y, z) in points {
            v.extend_from_slice(&x.to_le_bytes());
            v.extend_from_slice(&y.to_le_bytes());
            v.extend_from_slice(&z.to_le_bytes());
        }
        v
    }

    #[test]
    fn filters_and_projects_points() {
        let cfg = elaborate(&parse(POINTS).unwrap(), "P").unwrap();
        let bp = BlockProcessor::new(&cfg);
        let ops = OpTable::from_config(&cfg);
        let input = points_block(&[(1, 10, 100), (2, 20, 200), (3, 30, 300)]);
        // Keep points with x >= 2 (lane 0).
        let rules = [FilterRule { lane: 0, op_code: cfg.op_code("ge").unwrap(), value: 2 }];
        let mut out = Vec::new();
        let stats = bp.process_block(&input, &rules, &ops, &mut out);
        assert_eq!(stats.tuples_in, 3);
        assert_eq!(stats.tuples_out, 2);
        assert_eq!(stats.bytes_out, 16);
        // Survivors projected to (y, z).
        assert_eq!(&out[0..4], &20u32.to_le_bytes());
        assert_eq!(&out[4..8], &200u32.to_le_bytes());
        assert_eq!(&out[8..12], &30u32.to_le_bytes());
    }

    #[test]
    fn nop_rules_pass_everything() {
        let cfg = elaborate(&parse(POINTS).unwrap(), "P").unwrap();
        let bp = BlockProcessor::new(&cfg);
        let ops = OpTable::from_config(&cfg);
        let input = points_block(&[(1, 2, 3), (4, 5, 6)]);
        let mut out = Vec::new();
        let stats = bp.process_block(&input, &[FilterRule::pass()], &ops, &mut out);
        assert_eq!(stats.tuples_out, 2);
    }

    #[test]
    fn multi_stage_rules_conjoin() {
        let cfg = elaborate(&parse(POINTS).unwrap(), "P").unwrap();
        let bp = BlockProcessor::new(&cfg);
        let ops = OpTable::from_config(&cfg);
        let input = points_block(&[(1, 10, 100), (5, 10, 100), (5, 99, 100)]);
        // x >= 2 AND y < 50 — a 2-stage RANGE-style predicate.
        let ge = cfg.op_code("ge").unwrap();
        let lt = cfg.op_code("lt").unwrap();
        let rules = [
            FilterRule { lane: 0, op_code: ge, value: 2 },
            FilterRule { lane: 1, op_code: lt, value: 50 },
        ];
        let mut out = Vec::new();
        let stats = bp.process_block(&input, &rules, &ops, &mut out);
        assert_eq!(stats.tuples_out, 1);
        assert_eq!(&out[0..4], &10u32.to_le_bytes());
    }

    #[test]
    fn trailing_partial_tuple_is_dropped_and_counted() {
        let cfg = elaborate(&parse(POINTS).unwrap(), "P").unwrap();
        let bp = BlockProcessor::new(&cfg);
        let ops = OpTable::from_config(&cfg);
        let mut input = points_block(&[(1, 2, 3)]);
        input.extend_from_slice(&[0xAA; 5]);
        let mut out = Vec::new();
        let stats = bp.process_block(&input, &[FilterRule::pass()], &ops, &mut out);
        assert_eq!(stats.tuples_in, 1);
        assert_eq!(stats.trailing_bytes, 5);
    }

    #[test]
    fn unknown_op_code_rejects_tuples() {
        let cfg = elaborate(&parse(POINTS).unwrap(), "P").unwrap();
        let bp = BlockProcessor::new(&cfg);
        let ops = OpTable::from_config(&cfg);
        let input = points_block(&[(1, 2, 3)]);
        let rules = [FilterRule { lane: 0, op_code: 99, value: 0 }];
        let mut out = Vec::new();
        let stats = bp.process_block(&input, &rules, &ops, &mut out);
        assert_eq!(stats.tuples_out, 0);
    }

    #[test]
    fn out_of_range_lane_rejects_tuples() {
        let cfg = elaborate(&parse(POINTS).unwrap(), "P").unwrap();
        let bp = BlockProcessor::new(&cfg);
        let ops = OpTable::from_config(&cfg);
        let input = points_block(&[(1, 2, 3)]);
        let rules = [FilterRule { lane: 7, op_code: cfg.op_code("eq").unwrap(), value: 1 }];
        let mut out = Vec::new();
        assert_eq!(bp.process_block(&input, &rules, &ops, &mut out).tuples_out, 0);
    }

    #[test]
    fn identity_transform_detects_projections() {
        // Point3D → Point2D drops a field: not the identity.
        let cfg = elaborate(&parse(POINTS).unwrap(), "P").unwrap();
        assert!(!BlockProcessor::new(&cfg).identity_transform());
        // A → A with the default mapping copies every byte in place.
        let id = "
            /* @autogen define parser I with input = A, output = A */
            typedef struct { uint32_t x, y; } A;
        ";
        let cfg = elaborate(&parse(id).unwrap(), "I").unwrap();
        assert!(BlockProcessor::new(&cfg).identity_transform());
    }

    #[test]
    fn op_symbols_render_per_configuration() {
        let cfg = elaborate(&parse(POINTS).unwrap(), "P").unwrap();
        let ops = OpTable::from_config(&cfg);
        assert_eq!(ops.symbol(cfg.op_code("nop").unwrap()), "nop");
        assert_eq!(ops.symbol(cfg.op_code("ge").unwrap()), ">=");
        assert_eq!(ops.symbol(cfg.op_code("eq").unwrap()), "==");
        assert_eq!(ops.symbol(999), "op#999");
    }

    #[test]
    fn custom_operator_binds_and_evaluates() {
        let src = "
            /* @autogen define parser F with input = A, output = A,
               operators = { eq, popcnt_ge } */
            typedef struct { uint32_t x; } A;
        ";
        let module = parse(src).unwrap();
        let cfg = elaborate_with_custom_ops(&module, "F", &["popcnt_ge"]).unwrap();
        let bp = BlockProcessor::new(&cfg);
        let mut ops = OpTable::from_config(&cfg);
        assert!(ops.bind_custom(&cfg, "popcnt_ge", |_, a, b| a.count_ones() >= b as u32));
        assert!(!ops.bind_custom(&cfg, "eq", |_, _, _| true), "standard ops are not rebindable");

        let code = cfg.op_code("popcnt_ge").unwrap();
        let mut input = Vec::new();
        input.extend_from_slice(&0b1011u32.to_le_bytes()); // popcount 3
        input.extend_from_slice(&0b0001u32.to_le_bytes()); // popcount 1
        let rules = [FilterRule { lane: 0, op_code: code, value: 2 }];
        let mut out = Vec::new();
        let stats = bp.process_block(&input, &rules, &ops, &mut out);
        assert_eq!(stats.tuples_out, 1);
        assert_eq!(&out[..], &0b1011u32.to_le_bytes());
    }

    #[test]
    fn unbound_custom_operator_rejects() {
        let src = "
            /* @autogen define parser F with input = A, output = A,
               operators = { eq, mystery } */
            typedef struct { uint32_t x; } A;
        ";
        let module = parse(src).unwrap();
        let cfg = elaborate_with_custom_ops(&module, "F", &["mystery"]).unwrap();
        let bp = BlockProcessor::new(&cfg);
        let ops = OpTable::from_config(&cfg); // never bound
        let code = cfg.op_code("mystery").unwrap();
        let input = 5u32.to_le_bytes().to_vec();
        let rules = [FilterRule { lane: 0, op_code: code, value: 0 }];
        let mut out = Vec::new();
        assert_eq!(bp.process_block(&input, &rules, &ops, &mut out).tuples_out, 0);
    }

    #[test]
    fn signed_fields_filter_with_signed_semantics() {
        let src = "
            /* @autogen define parser F with input = A, output = A */
            typedef struct { int32_t t; } A;
        ";
        let cfg = elaborate(&parse(src).unwrap(), "F").unwrap();
        let bp = BlockProcessor::new(&cfg);
        let ops = OpTable::from_config(&cfg);
        let mut input = Vec::new();
        input.extend_from_slice(&(-5i32).to_le_bytes());
        input.extend_from_slice(&(3i32).to_le_bytes());
        // t < 0
        let rules = [FilterRule { lane: 0, op_code: cfg.op_code("lt").unwrap(), value: 0 }];
        let mut out = Vec::new();
        let stats = bp.process_block(&input, &rules, &ops, &mut out);
        assert_eq!(stats.tuples_out, 1);
        assert_eq!(&out[..], &(-5i32).to_le_bytes());
    }
}
