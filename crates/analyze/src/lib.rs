//! Static analysis for the INTO-OA workspace.
//!
//! Two independent layers:
//!
//! * **Domain layer** ([`structural`]) — a pre-numeric verifier for
//!   elaborated netlists. It proves, from the sparsity pattern alone,
//!   that the MNA system a netlist induces is structurally non-singular
//!   (every node grounded through conducting elements, no empty KCL
//!   rows or voltage columns, and a perfect row–column matching of the
//!   pattern — Hall's condition). Degenerate candidates are rejected
//!   before an LU factorization or an optimizer evaluation slot is
//!   spent on them.
//! * **Source layer** — one analysis engine behind the `oa_lint`
//!   binary, orchestrated by [`engine`]. A std-only Rust [`lexer`]
//!   feeds the token-shaped rules of [`lint`] (no wall-clock in
//!   response paths, exact-round-trip float formatting,
//!   `#![forbid(unsafe_code)]` everywhere, annotation hygiene) and the
//!   [`parser`] → [`ast`] → [`callgraph`] pipeline. On the call graph
//!   one bottom-up summary fixpoint ([`effects`]) settles each
//!   function's effect set, lock classes and determinism-taint
//!   summary ([`taint`]); the rules query it: panic *reachability*
//!   from service entry points with printed call chains (minus the
//!   indexing [`ranges`] proves in bounds), lock-order cycle detection
//!   ([`locks`]), HashMap-iteration determinism taint from sources to
//!   serialization sinks, and the effect rules. [`wire`] checks the
//!   wire schema against the declared protocol. DESIGN.md §10 and §12
//!   document the architecture and the soundness envelope.
//!
//! The `oa_sweep` binary applies the structural verifier exhaustively
//! to all 30,625 topologies of the design space and exits non-zero if
//! any fails — the domain layer's CI gate.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ast;
pub mod callgraph;
pub mod effects;
pub mod engine;
pub mod error;
pub mod lexer;
pub mod lint;
pub mod locks;
pub mod parser;
pub mod protocol;
pub mod ranges;
pub mod sarif;
pub mod structural;
pub mod taint;
pub mod wire;

pub use error::StructuralError;
pub use lint::Finding;
pub use structural::{
    is_structurally_valid, structural_rank, sweep_design_space, verify_netlist, verify_structure,
    verify_topology, SweepReport,
};
