//! Simulators for the emx extensible processor.
//!
//! One engine, [`Interp`], serves both sides of the paper's methodology:
//!
//! * [`Interp::run`] — the fast **functional instruction-set simulator**
//!   (the stand-in for the Xtensa ISS). It executes programs over a
//!   pre-decoded micro-op table, modelling the caches and the hazard
//!   scoreboard just enough to count the macro-model's instruction-level
//!   variables (per-class cycles, cache misses, uncached fetches,
//!   interlocks, custom-instruction side-effect cycles) and to perform the
//!   dynamic resource-usage analysis for the structural variables. This is
//!   the *only* simulation the macro-model needs (steps 9–10 of the
//!   paper's flow).
//! * [`Interp::run_with_sink`] — the same execution, additionally
//!   streaming for every retired instruction the stage-level activity of
//!   the five-stage pipeline (fetched encoding bits, operand/result bus
//!   values, cache array accesses, custom-datapath node values,
//!   stall/flush cycles) into an [`ActivitySink`]. This stream feeds the
//!   RTL-level reference energy estimator in `emx-rtlpower`, playing the
//!   role of the paper's ModelSim trace generation for WattWatcher.
//!
//! The sink is a generic parameter with a `const ACTIVE` flag, so the
//! sink-free run carries no record bookkeeping, and both runs share one
//! set of semantics and timing rules: their statistics agree exactly.
//!
//! # Example
//!
//! ```
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! use emx_isa::asm::Assembler;
//! use emx_sim::{Interp, ProcConfig};
//! use emx_tie::ExtensionSet;
//!
//! let program = Assembler::new().assemble(
//!     "movi a2, 10\nmovi a3, 0\nloop: add a3, a3, a2\naddi a2, a2, -1\nbnez a2, loop\nhalt",
//! )?;
//! let ext = ExtensionSet::empty();
//! let mut sim = Interp::new(&program, &ext, ProcConfig::default());
//! let run = sim.run(1_000_000)?;
//! assert_eq!(sim.state().reg(emx_isa::Reg::new(3)), 55);
//! assert!(run.stats.total_cycles > 0);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cache;
mod config;
mod error;
mod exec;
mod iss;
mod mem;
pub mod observe;
mod record;
mod stats;
pub mod trace;
mod uop;

pub use cache::{Cache, CacheAccess, CacheConfig};
pub use config::ProcConfig;
pub use error::SimError;
pub use exec::CoreState;
pub use iss::{Interp, RunResult};
pub use mem::Memory;
pub use record::{ActivitySink, CustomActivity, InstKind, InstRecord, MemAccess};
pub use stats::ExecStats;
