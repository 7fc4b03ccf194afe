//! Data-flow graphs (DFGs) for CGRA modulo scheduling.
//!
//! A [`Dfg`] represents the body of a compute-intensive loop kernel: nodes
//! are operations ([`rewire_arch::OpKind`]), edges are data dependencies. An
//! edge carries an iteration *distance*: distance 0 is an intra-iteration
//! dependency, distance `d ≥ 1` is a loop-carried dependency consumed `d`
//! iterations later (the source of recurrence-constrained minimum initiation
//! intervals).
//!
//! The crate provides everything the mappers in this workspace consume:
//!
//! * graph construction and traversal ([`Dfg`], [`NodeId`], [`EdgeId`]),
//! * MII analysis — resource MII and recurrence MII ([`Dfg::res_mii`],
//!   [`Dfg::rec_mii`], [`Dfg::mii`]),
//! * loop transforms ([`Dfg::unroll`]),
//! * a benchmark suite of hand-built loop kernels standing in for the
//!   PolyBench / MachSuite / MiBench kernels of the paper ([`kernels`]),
//! * seeded random DFG generation for fuzzing and property tests
//!   ([`generate`]),
//! * serialisation: DOT export ([`Dfg::to_dot`]) and a plain-text format
//!   ([`Dfg::to_text`], [`Dfg::from_text`]).
//!
//! # Examples
//!
//! ```
//! use rewire_arch::{presets, OpKind};
//! use rewire_dfg::Dfg;
//!
//! let mut dfg = Dfg::new("axpy");
//! let a = dfg.add_node("ld_x", OpKind::Load);
//! let b = dfg.add_node("mul", OpKind::Mul);
//! let c = dfg.add_node("st_y", OpKind::Store);
//! dfg.add_edge(a, b, 0)?;
//! dfg.add_edge(b, c, 0)?;
//!
//! let cgra = presets::paper_4x4_r4();
//! assert_eq!(dfg.mii(&cgra), Some(1));
//! assert_eq!(dfg.topo_order().len(), 3);
//! # Ok::<(), rewire_dfg::GraphError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod analysis;
mod dot;
mod edge;
pub mod generate;
mod graph;
pub mod kernels;
mod node;
mod text;
mod transform;

pub use edge::{DfgEdge, EdgeId};
pub use graph::{Dfg, GraphError};
pub use node::{DfgNode, NodeId};
pub use text::ParseDfgError;
