//! Benchmark circuits: the two-stage opamp, the LDO, the ICO, and
//! synthetic landscapes for fast agent tests. The opamp, the LDO and
//! every netlist bench simulate through the one [`MnaEvaluator`].

pub mod ico;
pub mod ldo;
pub mod opamp;
pub(crate) mod pool;
pub mod synthetic;

pub use pool::MnaEvaluator;
