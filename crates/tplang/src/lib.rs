//! # pwsr-tplang — transaction programs
//!
//! §2.2 of the paper: *"A transaction program is usually written in a
//! high-level programming language with assignments, loops, conditional
//! statements … Execution of a transaction program starting at different
//! database states may result in different transactions."* That
//! state-dependence is the crux of the paper's §3.1, so programs are a
//! first-class substrate here:
//!
//! * [`ast`] — programs with assignments, `if`/`else`, bounded `while`,
//!   local (`temp`) variables and `touch` (a value-discarding read used
//!   for structure padding).
//! * `lexer` / [`parser`] — a small concrete syntax close to the
//!   paper's (`a := 1; if (c > 0) then { b := abs(b) + 1; }`).
//! * `machine` — the one interpreter: a program compiled once into a
//!   flat instruction vector, and a resumable machine that runs it from
//!   read to read. The §2.2 assumptions are realized operationally:
//!   repeated reads are served from a read cache (one read operation
//!   per item), reads of self-written items are served from the write
//!   buffer (no read-after-write operations), and double writes are
//!   rejected.
//! * [`interp`] — executes a program against a database state (or a log
//!   of read values), producing the paper's *transaction* (operations
//!   with values): the machine, driven to the end.
//! * [`session`] — the machine, driven operation by operation: what the
//!   schedulers in `pwsr-scheduler` hold to interleave programs.
//! * [`analysis`] — fixed-structure (Definition 3) checking: exact over
//!   enumerated/supplied states, and a conservative static prover;
//!   also straight-line detection (the \[14\] baseline's restriction).
//! * [`transform`] — the `fix_structure` rewrite that turns `TP1` of
//!   Example 2 into the paper's fixed-structure `TP1′` by padding
//!   branches.
//! * [`programs`] — every transaction program appearing in the paper.

pub mod analysis;
pub mod ast;
pub mod error;
pub mod interp;
mod lexer;
mod machine;
pub mod parser;
pub mod programs;
pub mod session;
pub mod transform;

/// The items the facade's `pwsr::prelude` passes on to the examples
/// and tests that import it by glob.
pub mod prelude {
    pub use crate::ast::Program;
}
